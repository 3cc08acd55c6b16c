import pytest

from repro.cli import DURABILITY_CMDS, EXPERIMENTS, main


class TestCli:
    def test_unknown_experiment_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["not-a-figure"])

    def test_retired_loadgen_is_unknown(self, capsys):
        with pytest.raises(SystemExit):
            main(["loadgen"])
        assert "unknown experiment(s): loadgen" in capsys.readouterr().err

    def test_table1_runs(self, capsys):
        assert main(["table1", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "rapid" in out
        assert "18.3" in out

    def test_fig10_runs(self, capsys):
        assert main(["fig10", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "error" in out

    def test_experiment_registry_complete(self):
        expected = {
            "table1", "table2", "fig8a", "fig8b", "fig8c",
            "fig9a", "fig9b", "fig10", "fig11", "seasonal",
            "metrics",
        }
        assert set(EXPERIMENTS) == expected

    def test_metrics_runs(self, capsys):
        assert main(["metrics", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "synthetic city" in out
        assert "counters:" in out
        assert "latency (seconds):" in out
        assert "svd_match" in out


class TestDurabilityCli:
    def test_registry(self):
        assert set(DURABILITY_CMDS) == {
            "checkpoint", "wal-stat", "replay", "health", "cluster",
            "elastic", "fusion",
        }
        assert not set(DURABILITY_CMDS) & set(EXPERIMENTS)

    def test_checkpoint_then_stat_then_replay(self, capsys, tmp_path):
        data_dir = str(tmp_path / "wilo")
        args = ["--quick", "--data-dir", data_dir]
        assert main(["checkpoint"] + args) == 0
        out = capsys.readouterr().out
        assert "ingested 54 reports durably" in out
        assert "checkpoints written" in out

        assert main(["wal-stat"] + args) == 0
        out = capsys.readouterr().out
        assert "54 records" in out
        assert "wal-0000000000.jsonl" in out

        assert main(["replay"] + args) == 0
        out = capsys.readouterr().out
        assert "checkpoint:" in out
        assert "recovered seq:  53" in out
        assert "counters:" in out

    def test_wal_stat_empty_dir(self, capsys, tmp_path):
        assert main(["wal-stat", "--data-dir", str(tmp_path)]) == 0
        assert "0 records" in capsys.readouterr().out

    def test_all_excludes_durability_cmds(self):
        # 'all' must not require a --data-dir or touch the filesystem.
        for name in DURABILITY_CMDS:
            assert name not in EXPERIMENTS


class TestClusterCli:
    def test_cluster_quick(self, capsys):
        assert main(["cluster", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "MAE single server" in out
        assert "MAE cluster nobus" in out
        assert "parity:" in out
        assert "OK" in out

    def test_cluster_json(self, capsys):
        import json

        assert main(["cluster", "--quick", "--json"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"): out.rindex("}") + 1])
        assert payload["accuracy"]["n_predictions"] > 0
        assert payload["accuracy"]["num_shards"] == 2
        assert payload["failover"]["parity_ok"] is True


class TestJsonOutput:
    def test_metrics_json(self, capsys):
        import json

        assert main(["metrics", "--quick", "--json"]) == 0
        out = capsys.readouterr().out
        snap = json.loads(out[out.index("{"): out.rindex("}") + 1])
        assert "counters" in snap
        assert snap["counters"]["ingest.reports"] > 0

    def test_health_json(self, capsys):
        import json

        assert main(["health", "--quick", "--json"]) == 0
        out = capsys.readouterr().out
        health = json.loads(out[out.index("{"): out.rindex("}") + 1])
        assert "status" in health


class TestArtifactCli:
    @pytest.mark.parametrize(
        "argv, committed",
        [
            (["fusion"], "BENCH_fusion.json"),
            (["lifecycle", "--action", "bench"], "BENCH_lifecycle.json"),
        ],
        ids=["fusion", "lifecycle"],
    )
    def test_quick_run_writes_only_to_an_explicit_out(
        self, argv, committed, capsys, tmp_path, monkeypatch
    ):
        import json

        monkeypatch.chdir(tmp_path)
        assert main(argv + ["--quick"]) == 0
        assert "not written" in capsys.readouterr().out
        assert not (tmp_path / committed).exists()

        out = tmp_path / "quick.json"
        assert main(argv + ["--quick", "--out", str(out)]) == 0
        assert f"wrote {out}" in capsys.readouterr().out
        assert json.loads(out.read_text())["config"]["quick"] is True

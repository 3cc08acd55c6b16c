"""The project-rule gate has teeth: one mutation per rule flips it red.

Each test copies ``src/``, injects exactly the defect the rule exists to
catch, and asserts the full default-configuration sweep reports it with
``file:line`` — the same bar ``test_gate.py`` sets for WL001/WL002.
A perf smoke and a ``--diff`` equivalence check ride along: the two-pass
sweep must stay cheap enough to run on every tier-1 invocation, and the
changed-files fast path must report exactly what the full sweep
attributes to those files.
"""

from __future__ import annotations

import time

import pytest

from repro.analysis import analyze, load_baseline

from tests.analysis.test_gate import BASELINE, REPO_ROOT, SRC, _mutated_src

pytestmark = pytest.mark.analysis


def _sweep(tree, root):
    return analyze([tree], baseline=load_baseline(BASELINE), root=root)


def _line_of(tree, rel: str, needle: str) -> int:
    return (tree / rel).read_text().splitlines().index(needle) + 1


def test_wl006_fires_on_a_blocking_call_in_an_async_handler(tmp_path):
    mutated = _mutated_src(
        tmp_path,
        "repro/serving/http.py",
        "        self._writers.add(writer)\n",
        "        time.sleep(0.001)\n        self._writers.add(writer)\n",
    )
    result = _sweep(mutated, tmp_path)
    wl006 = [f for f in result.findings if f.rule_id == "WL006"]
    assert wl006, "time.sleep in _serve_connection must trip WL006"
    f = wl006[0]
    assert f.file.endswith("repro/serving/http.py")
    assert f.line == _line_of(mutated, "repro/serving/http.py", "        time.sleep(0.001)")
    assert "time.sleep" in f.message and "_serve_connection" in f.message


def test_wl007_fires_when_an_outcome_increment_is_deleted(tmp_path):
    mutated = _mutated_src(
        tmp_path,
        "repro/guard/admission.py",
        'self.metrics.incr("guard.admitted")',
        "pass",
    )
    result = _sweep(mutated, tmp_path)
    wl007 = [f for f in result.findings if f.rule_id == "WL007"]
    assert wl007, "an uncounted admit branch must trip WL007"
    f = wl007[0]
    assert f.file.endswith("repro/guard/admission.py")
    assert f.line == _line_of(
        mutated, "repro/guard/admission.py", "    def admit(self, report: ScanReport) -> AdmissionDecision:"
    )
    assert "0 outcome increment(s)" in f.message


def test_wl008_fires_on_a_dead_registry_entry(tmp_path):
    mutated = _mutated_src(
        tmp_path,
        "repro/core/server/metric_names.py",
        '    "cluster.delta_out_seq",\n',
        '    "cluster.delta_out_seq",\n    "guard.phantom_counter",\n',
    )
    result = _sweep(mutated, tmp_path)
    wl008 = [f for f in result.findings if f.rule_id == "WL008"]
    assert wl008, "a declared-but-never-emitted metric must trip WL008"
    f = wl008[0]
    assert f.file.endswith("repro/core/server/metric_names.py")
    assert f.line == _line_of(
        mutated, "repro/core/server/metric_names.py", '    "guard.phantom_counter",'
    )
    assert "guard.phantom_counter" in f.message


def test_wl008_fires_when_a_wire_kind_loses_its_decoder(tmp_path):
    mutated = _mutated_src(
        tmp_path,
        "repro/serving/wire.py",
        '"kind": "departure",',
        '"kind": "departure_v2",',
    )
    result = _sweep(mutated, tmp_path)
    wl008 = [f for f in result.findings if f.rule_id == "WL008"]
    messages = sorted(f.message for f in wl008)
    assert any("'departure' has a decoder but no encode site" in m for m in messages)
    assert any("'departure_v2' is emitted but no decoder" in m for m in messages)
    assert all(f.file.endswith("repro/serving/wire.py") and f.line > 0 for f in wl008)


def test_wl009_fires_when_a_wal_repair_open_loses_its_with(tmp_path):
    mutated = _mutated_src(
        tmp_path,
        "repro/pipeline/wal.py",
        '            with open(bad.path, "rb+") as fh:\n'
        "                fh.truncate(bad.good_bytes)\n",
        '            fh = open(bad.path, "rb+")\n'
        "            fh.truncate(bad.good_bytes)\n"
        "            fh.close()\n",
    )
    result = _sweep(mutated, tmp_path)
    wl009 = [f for f in result.findings if f.rule_id == "WL009"]
    assert wl009, "an unscoped WAL segment open must trip WL009"
    f = wl009[0]
    assert f.file.endswith("repro/pipeline/wal.py")
    assert f.line == _line_of(
        mutated, "repro/pipeline/wal.py", '            fh = open(bad.path, "rb+")'
    )
    assert "with/try-finally" in f.message


def test_wl010_fires_on_a_journal_write_that_bypasses_save(tmp_path):
    mutated = _mutated_src(
        tmp_path,
        "repro/elastic/engine.py",
        'self.journal.record_checkpoint_seq(int(found[1]["wal_seq"]))',
        'self.journal.checkpoint_wal_seq = int(found[1]["wal_seq"])',
    )
    result = _sweep(mutated, tmp_path)
    wl010 = [f for f in result.findings if f.rule_id == "WL010"]
    assert wl010, "a direct journal field write must trip WL010"
    f = wl010[0]
    assert f.file.endswith("repro/elastic/engine.py")
    assert f.line == _line_of(
        mutated,
        "repro/elastic/engine.py",
        '        self.journal.checkpoint_wal_seq = int(found[1]["wal_seq"])',
    )
    assert "foreign write to shared attribute MigrationJournal.checkpoint_wal_seq" in f.message



def test_wl010_fires_on_a_park_that_bypasses_the_park_helper(tmp_path):
    # ``_park`` is the one ingest-side writer of the parked queue: a
    # held report appended in ``ingest`` itself skips the sink
    # double-write's single home and must trip the gate.
    mutated = _mutated_src(
        tmp_path,
        "repro/cluster/router.py",
        "            return self._park(report)",
        "            self._parked.append(report)\n            return True",
    )
    result = _sweep(mutated, tmp_path)
    wl010 = [f for f in result.findings if f.rule_id == "WL010"]
    assert wl010, "a direct parked-queue append in ingest must trip WL010"
    f = wl010[0]
    assert f.file.endswith("repro/cluster/router.py")
    assert f.line == _line_of(
        mutated, "repro/cluster/router.py", "            self._parked.append(report)"
    )
    assert "_parked" in f.message


# -- perf smoke and --diff equivalence ----------------------------------------


def test_two_pass_sweep_stays_under_the_tier1_budget():
    start = time.perf_counter()
    result = analyze([SRC], baseline=load_baseline(BASELINE), root=REPO_ROOT)
    elapsed = time.perf_counter() - start
    assert result.files_scanned > 100
    # generous on shared CI hardware; the point is catching an
    # accidental quadratic blowup, not benchmarking
    assert elapsed < 15.0, f"two-pass sweep took {elapsed:.1f}s"


def test_diff_restriction_matches_the_full_sweep_per_file(tmp_path):
    mutated = _mutated_src(
        tmp_path,
        "repro/guard/admission.py",
        'self.metrics.incr("guard.admitted")',
        "pass",
    )
    full = _sweep(mutated, tmp_path)
    rel = "src/repro/guard/admission.py"
    restricted = analyze(
        [mutated],
        baseline=load_baseline(BASELINE),
        root=tmp_path,
        restrict_to={rel},
    )
    assert restricted.findings == [f for f in full.findings if f.file == rel]
    assert restricted.findings, "the changed file's findings must survive --diff"

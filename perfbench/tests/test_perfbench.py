"""The benchmark's own tests.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tracing import TARGETS, Tracer, _resolve
from workloads import WORKLOADS, build_city, build_stream

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_bytes_other_seed_other_bytes(name):
    spec = WORKLOADS[name]
    city = build_city(spec)
    first = build_stream(spec, city, 7, 60)
    again = build_stream(spec, build_city(spec), 7, 60)
    other = build_stream(spec, city, 8, 60)
    assert first == again
    assert [raw for _, raw in first] != [raw for _, raw in other]


def test_rider_mix_carries_the_exact_mix():
    spec = WORKLOADS["rider_mix"]
    counts: dict[str, int] = {}
    for endpoint, _ in build_stream(spec, build_city(spec), 1, 200):
        counts[endpoint] = counts.get(endpoint, 0) + 1
    assert counts == {"scans": 80, "departures": 60, "positions": 30, "trip_plan": 30}


def test_tracer_removes_every_wrapper():
    originals = [_resolve(m, p)[0].__dict__[_resolve(m, p)[1]] for m, p, _, _ in TARGETS]
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = [_resolve(m, p)[0].__dict__[_resolve(m, p)[1]] for m, p, _, _ in TARGETS]
        assert all(w is not o for w, o in zip(wrapped, originals))
    finally:
        tracer.remove()
    after = [_resolve(m, p)[0].__dict__[_resolve(m, p)[1]] for m, p, _, _ in TARGETS]
    assert all(a is o for a, o in zip(after, originals))


def test_traced_request_spans_share_an_id_and_self_times_add_up():
    from repro.serving.app import make_app
    from repro.serving.http import HttpServer
    from workloads import probe_requests

    spec = WORKLOADS["rider_mix"]
    city = build_city(spec)
    city.server.ingest_many(city.reports)
    tracer = Tracer()
    tracer.install()
    try:
        app = make_app(city.server)
        http = HttpServer(lambda request: app.dispatch(request))
        for _, raw in probe_requests(city, city.now):
            assert http.handle_bytes(raw).startswith(b"HTTP/1.1 200 ")
    finally:
        tracer.remove()
    spans = [s for s in tracer.spans if s is not None]
    roots = [s for s in spans if s[3] == -1]
    assert [s[0] for s in roots] == ["http.handle_bytes"] * 3
    assert {s[2] for s in spans} == {s[2] for s in roots}
    names = tracer.summary()["names"]
    self_total = sum(row["self_s"] for row in names.values())
    assert self_total == pytest.approx(names["http.handle_bytes"]["total_s"], rel=1e-6)
    assert names["app.dispatch"]["calls"] == 3


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize(
    "name, trace", [("rider_mix", "0"), ("noisy_scans", "0"), ("cluster_mix", "0"),
                    ("cluster_mix", "1")]
)
def test_smoke_run_passes_the_gate(name, trace):
    done = _run(ROOT, "--workload", name, "--seed", "3", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)


def test_fails_without_the_program_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = _run(tmp_path, "--workload", "rider_mix", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

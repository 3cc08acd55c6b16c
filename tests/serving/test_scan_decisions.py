"""POST /v1/scans acks from per-report decisions, on every backend.

Every backend's ``ingest_many`` returns one ``AdmissionDecision`` per
report, and the front door builds its ack (and its 503/429/422 choice)
from those alone.  A report the guard loses to a double fault is
therefore refused like any other rejected report, and under a corrupted
stream split into arbitrary requests the acks stay byte-identical across
the plain, durable and sharded backends and agree with the guard's own
``guard.admitted`` ledger.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ShardPlan, build_cluster
from repro.guard.chaos import ChaosConfig, ChaosInjector
from repro.pipeline import DurableServer
from repro.pipeline.wal import report_to_dict
from repro.serving import HttpServer, make_app

from tests.serving.conftest import http_request, parse_response

pytestmark = pytest.mark.serving


def _scans(reports) -> bytes:
    body = json.dumps(
        {"reports": [report_to_dict(r) for r in reports]}, separators=(",", ":")
    ).encode("utf-8")
    return http_request("POST", "/v1/scans", body)


def _guards(backend):
    """Every admission guard behind a backend (one per shard on a cluster)."""
    nodes = getattr(backend, "nodes", None)
    if nodes is not None:
        return [node.core.guard for node in nodes.values()]
    return [backend.guard]


def test_a_report_lost_to_a_guard_double_fault_is_rejected(trio, city, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("injected fault")

    answers = {}
    for name, backend in trio.items():
        for guard in _guards(backend):
            monkeypatch.setattr(guard.validator, "check", broken)
            monkeypatch.setattr(guard.quarantine, "push", broken)
        http = HttpServer(make_app(backend).dispatch)
        answers[name] = http.handle_bytes(_scans(city.reports[:1]))
        counters = backend.counters()
        assert counters.get("guard.internal_errors", 0) == 1, name
        assert counters.get("ingest.reports", 0) == 0, name
    assert answers["durable"] == answers["plain"]
    assert answers["cluster"] == answers["plain"]
    status, body = parse_response(answers["plain"])
    assert status == 422
    assert body["error"]["code"] == "rejected"
    assert body["error"]["submitted"] == 1


def _trio(city, data_dir: Path) -> dict:
    twin = city.fresh_twin()
    return {
        "plain": city.fresh_twin().server,
        "durable": DurableServer(city.fresh_twin().server, data_dir, max_batch=64, fsync=False),
        "cluster": build_cluster(twin.server, ShardPlan.build(twin.routes, 4)),
    }


def _record_decisions(backend) -> list:
    """Wrap ``backend.ingest_many`` to log each call's decisions."""
    calls: list = []
    ingest_many = backend.ingest_many

    def recorded(reports):
        reports = list(reports)
        decisions = ingest_many(reports)
        calls.append((len(reports), decisions))
        return decisions

    backend.ingest_many = recorded
    return calls


def _requests(stream, sizes):
    """Cut the stream into consecutive requests, cycling through sizes."""
    out, i, k = [], 0, 0
    while i < len(stream):
        out.append(stream[i : i + sizes[k % len(sizes)]])
        i += sizes[k % len(sizes)]
        k += 1
    return out


@settings(
    max_examples=40,
    deadline=None,
)
@given(
    seed=st.integers(0, 10_000),
    sizes=st.lists(st.integers(1, 24), min_size=1, max_size=12),
)
def test_chaos_stream_acks_agree_with_decisions(city, seed, sizes):
    byzantine = sorted({r.device_id for r in city.reports})[seed % 7]
    chaos = ChaosConfig(
        drop_p=0.05,
        duplicate_p=0.1,
        reorder_p=0.1,
        clock_skew_p=0.05,
        rss_spike_p=0.05,
        truncate_p=0.1,
        byzantine_devices=frozenset({byzantine}),
    )
    stream = ChaosInjector(chaos, seed=seed).corrupt(
        sorted(city.reports, key=lambda r: r.t)
    )
    requests = _requests(stream, sizes)
    with tempfile.TemporaryDirectory() as tmp:
        backends = _trio(city, Path(tmp) / "wal")
        try:
            acks: dict[str, list[bytes]] = {}
            for name, backend in backends.items():
                calls = _record_decisions(backend)
                http = HttpServer(make_app(backend).dispatch)
                acks[name] = []
                for reports in requests:
                    before = backend.counters().get("guard.admitted", 0)
                    raw = http.handle_bytes(_scans(reports))
                    acks[name].append(raw)
                    status, body = parse_response(raw)
                    submitted, decisions = calls[-1]
                    # each report got exactly one decision
                    assert submitted == len(decisions) == len(reports)
                    admitted = sum(1 for d in decisions if d)
                    if status == 200:
                        assert body == {"submitted": len(reports), "accepted": admitted}
                    else:
                        assert (status, admitted) == (422, 0)
                    if name == "plain":
                        delta = backend.counters().get("guard.admitted", 0) - before
                        assert admitted == delta
                assert len(calls) == len(requests)
        finally:
            backends["durable"].close()
    assert acks["durable"] == acks["plain"]
    assert acks["cluster"] == acks["plain"]

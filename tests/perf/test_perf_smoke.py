"""Perf smoke job: counter-based, runs inside the tier-1 suite.

A scaled-down version of ``benchmarks/test_perf_server.py`` (8 routes x
10 sessions instead of 50 x 40) asserting the same machine-independent
properties: the indexed queries must touch at least 5x fewer work units
than the linear reference implementations while returning identical
results, and the SVD match cache must show hits after a warm replay.

Select just these with ``pytest -m perf``; they are fast enough to stay
in the default run.
"""

from __future__ import annotations

import pytest

from tests.reference import (
    TraversalCounter,
    linear_departures,
    linear_live_positions,
    linear_plan_trip,
)
from repro.eval.synth_city import build_linear_city

pytestmark = pytest.mark.perf


@pytest.fixture(scope="module")
def city():
    c = build_linear_city(num_routes=8, sessions_per_route=10, hub_every=4)
    c.replay()
    return c


def test_all_sessions_active(city):
    assert len(city.server.active_sessions(now=city.now)) == 80


def test_departures_reduction_and_parity(city):
    metrics = city.server.metrics
    before = metrics.counter("query.traversals")
    indexed = city.api.departures(
        city.hub_stop_id, now=city.now, max_entries=10**9
    )
    touched = metrics.counter("query.traversals") - before
    counter = TraversalCounter()
    linear = linear_departures(
        city.server, city.hub_stop_id, city.now,
        max_entries=10**9, counter=counter,
    )
    assert indexed == linear
    assert 0 < touched
    assert counter.total / touched >= 5.0


def test_plan_trip_reduction_and_parity(city):
    hub_rid = city.hub_route_ids[0]
    origin = city.stop_id_on(hub_rid, 0)
    metrics = city.server.metrics
    before = metrics.counter("query.traversals")
    indexed = city.api.plan_trip(origin, city.hub_stop_id, now=city.now)
    touched = metrics.counter("query.traversals") - before
    counter = TraversalCounter()
    linear = linear_plan_trip(
        city.server, origin, city.hub_stop_id, city.now, counter=counter
    )
    assert indexed == linear
    assert 0 < touched
    assert counter.total / touched >= 5.0


def test_live_positions_parity(city):
    typed = city.api.live_positions(now=city.now)
    linear = linear_live_positions(city.server, city.now)
    assert {k: (v.x, v.y) for k, v in typed.items()} == linear


def test_cache_hits_after_warm_replay(city):
    cache = city.server.metrics_snapshot()["caches"]["svd_match"]
    assert cache["hits"] > 0
    assert cache["hit_rate"] > 0.0


def test_admission_overhead_bounded(city):
    """The guard runs on every report but must stay a rounding error.

    Admission is dict lookups and float comparisons; ingest does SVD
    rank matching.  If admission ever costs a noticeable fraction of
    ingest, the guard has grown state it was not supposed to have.
    """
    admission = city.server.metrics.latency("admission")
    ingest = city.server.metrics.latency("ingest")
    assert admission.count == ingest.count == len(city.reports)
    assert admission.total_s < 0.15 * ingest.total_s

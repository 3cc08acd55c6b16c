"""Cluster scale-out: N-shard ingest throughput vs the single server.

The serving cost of ingest is dominated by per-report positioning (SVD
rank matching against the session's route), which a route-partitioned
cluster divides across shards.  The benchmark replays one linear-city
stream into a single server and through a four-shard
:class:`~repro.cluster.router.ClusterRouter` and compares the *critical
path*: the single server pays the whole stream's measured ingest time
serially, while the cluster's wall-clock is bounded by its slowest shard
(shards are independent processes in a real deployment; the in-process
harness measures each shard's own ``ingest`` histogram).

Both sides run ``ITERATIONS`` times over fresh servers and keep their
best run — standard best-of-N to shed scheduler/GC outliers, which at
millisecond scale can dwarf the signal.  Work-unit counters assert the
same division machine-independently.

Acceptance criterion (ISSUE 4): the implied speedup — single-server
ingest seconds over the slowest shard's — must be at least 2x with four
shards.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import banner, show
from repro.cluster import ShardPlan, build_cluster, shard_server
from repro.eval.synth_city import build_linear_city

pytestmark = pytest.mark.perf

NUM_ROUTES = 16
SESSIONS_PER_ROUTE = 12
NUM_SHARDS = 4
ITERATIONS = 3


def shard_ingest(router):
    """(reports, seconds) of each shard's own ingest histogram."""
    snap = router.metrics_snapshot()
    return {
        sid: (
            shard["counters"].get("ingest.reports", 0),
            shard["latency"]["ingest"]["total_s"],
        )
        for sid, shard in snap["shards"].items()
    }


@pytest.fixture(scope="module")
def workload():
    city = build_linear_city(
        num_routes=NUM_ROUTES, sessions_per_route=SESSIONS_PER_ROUTE
    )
    # Round-robin placement: even shards, the deployment's best case.
    plan = ShardPlan.from_assignment(
        {rid: i % NUM_SHARDS for i, rid in enumerate(sorted(city.routes))},
        city.routes,
    )
    # One shard holding everything == the single server, built the same
    # way (virgin server over the blueprint's routes/SVDs/history).
    plan_single = ShardPlan.from_assignment(
        {rid: 0 for rid in city.routes}, city.routes
    )

    runs = []
    for _ in range(ITERATIONS):
        single = shard_server(city.server, plan_single, 0)
        single.ingest_many(city.reports)

        router = build_cluster(city.server, plan)
        admitted = sum(map(bool, router.ingest_many(city.reports)))
        router.pump(now=city.now)
        runs.append(
            {
                "single_s": single.metrics.latency("ingest").total_s,
                "single_reports": single.metrics.counter("ingest.reports"),
                "admitted": admitted,
                "per_shard": shard_ingest(router),
            }
        )
    return city, runs


class TestClusterThroughput:
    def test_cluster_ingested_the_whole_stream(self, workload):
        city, runs = workload
        for run in runs:
            assert run["admitted"] == len(city.reports)
            assert run["single_reports"] == len(city.reports)
            total = sum(n for n, _ in run["per_shard"].values())
            assert total == len(city.reports)

    def test_critical_path_work_units_shrink_by_shard_count(self, workload):
        city, runs = workload
        slowest = max(n for n, _ in runs[0]["per_shard"].values())
        # Round-robin over equal routes: the slowest shard carries
        # exactly 1/N of the stream.
        assert slowest * NUM_SHARDS <= len(city.reports) + NUM_SHARDS

    def test_measured_ingest_speedup_at_least_2x(self, workload):
        city, runs = workload
        single_s = min(run["single_s"] for run in runs)
        slowest_s = min(
            max(s for _, s in run["per_shard"].values()) for run in runs
        )
        assert slowest_s > 0.0
        speedup = single_s / slowest_s

        banner(f"Cluster ingest throughput ({NUM_SHARDS} shards)")
        show(
            f"stream: {len(city.reports)} reports over "
            f"{NUM_ROUTES} routes x {SESSIONS_PER_ROUTE} sessions; "
            f"best of {ITERATIONS} runs"
        )
        show(f"single server ingest: {single_s * 1e3:8.1f} ms")
        best = min(
            (run for run in runs),
            key=lambda run: max(s for _, s in run["per_shard"].values()),
        )
        for sid in sorted(best["per_shard"]):
            reports, seconds = best["per_shard"][sid]
            show(
                f"  shard {sid}: {reports:4d} reports, "
                f"{seconds * 1e3:8.1f} ms"
            )
        show(f"critical-path speedup: {speedup:.1f}x (acceptance: >= 2x)")

        assert speedup >= 2.0

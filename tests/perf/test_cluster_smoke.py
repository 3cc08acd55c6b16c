"""Counter-based cluster scale-out smoke (machine-independent tier 1).

The real throughput claim lives in ``benchmarks/test_perf_cluster.py``;
this smoke pins the *work distribution* with counters only: sharding a
route-partitioned stream divides the per-shard ingest work by the shard
count, and nothing is double-counted on the way through the router.
"""

import pytest

from repro.cluster import build_cluster, split_pairs_plan
from repro.eval.synth_city import build_overlap_city

pytestmark = [pytest.mark.perf, pytest.mark.cluster]


@pytest.fixture(scope="module")
def loaded():
    city = build_overlap_city(
        num_pairs=2, feeder_sessions=2, query_sessions=2
    )
    # Four shards so the two (report-heavy) feeder routes split too —
    # the critical-path claim needs the heavy side of the stream divided.
    plan = split_pairs_plan(city, 4)
    router = build_cluster(city.fresh_twin().server, plan)
    admitted = sum(map(bool, router.ingest_many(city.reports)))
    router.pump(now=city.now)
    return city, plan, router, admitted


class TestClusterWorkDistribution:
    def test_every_report_ingested_exactly_once(self, loaded):
        city, _, router, admitted = loaded
        assert admitted == len(city.reports)
        snap = router.metrics_snapshot()
        assert snap["totals"]["ingest.reports"] == len(city.reports)
        assert (
            snap["cluster"]["counters"]["cluster.ingest_routed"]
            == len(city.reports)
        )

    def test_per_shard_work_matches_the_plan(self, loaded):
        """Each shard did exactly its routes' share — no spill, no echo."""
        city, plan, router, _ = loaded
        by_shard = {sid: 0 for sid in plan.shard_ids()}
        for report in city.reports:
            by_shard[plan.shard_of(report.route_id)] += 1
        snap = router.metrics_snapshot()
        for sid, expected in by_shard.items():
            counters = snap["shards"][str(sid)]["counters"]
            assert counters["ingest.reports"] == expected
            # The histogram reconciles with the counter: one observation
            # per report, including any unroutable ones (here none).
            hist = snap["shards"][str(sid)]["latency"]["ingest"]["count"]
            assert hist == expected

    def test_critical_path_shrinks_with_sharding(self, loaded):
        """The slowest shard saw well under the whole stream's reports."""
        city, _, router, _ = loaded
        snap = router.metrics_snapshot()
        slowest = max(
            shard["counters"]["ingest.reports"]
            for shard in snap["shards"].values()
        )
        assert slowest * 2 <= len(city.reports) + 1

    def test_replication_did_not_double_count_ingest(self, loaded):
        """Applied deltas feed the predictor, never the ingest counters."""
        city, _, router, _ = loaded
        snap = router.metrics_snapshot()
        assert snap["totals"].get("cluster.deltas_applied", 0) > 0
        assert snap["totals"]["ingest.reports"] == len(city.reports)

"""ClusterRouter: routing, fan-out, breaker isolation, merged views."""

import pytest

from repro.cluster import build_cluster
from repro.core.server.server import UnknownStopError
from repro.guard.breaker import OPEN
from repro.guard.validate import ADMITTED, SHARD_UNAVAILABLE
from repro.sensing.reports import ScanReport

pytestmark = pytest.mark.cluster

QUERY, FEEDER = 0, 1  # split_pairs_plan: A* -> shard 0, B* -> shard 1


@pytest.fixture()
def router(city, plan):
    return build_cluster(city.fresh_twin().server, plan)


def loaded(router, city):
    admitted = sum(map(bool, router.ingest_many(city.reports)))
    router.pump(now=city.now)
    return admitted


def anonymise(report: ScanReport, device_id: str, dt: float = 1.0) -> ScanReport:
    """A rider's view of a driver's scan: same radio world, no identity."""
    return ScanReport(
        device_id=device_id, session_key="", route_id="",
        t=report.t + dt, readings=report.readings,
    )


class TestDriverIngest:
    def test_sessions_land_on_their_planned_shard(self, router, city):
        admitted = loaded(router, city)
        assert admitted == len(city.reports)
        assert router.metrics.counter("cluster.ingest_routed") == len(city.reports)
        query_keys = set(router.nodes[QUERY].core.sessions)
        feeder_keys = set(router.nodes[FEEDER].core.sessions)
        assert query_keys and all(":A" in k for k in query_keys)
        assert feeder_keys and all(":B" in k for k in feeder_keys)
        for key in query_keys:
            assert router.shard_of_session(key) == QUERY

    def test_downed_shard_refuses_ingest(self, router, city):
        loaded(router, city)
        router.crash_shard(FEEDER)
        feeder_report = next(r for r in city.reports if r.route_id == "B00")
        assert router.ingest(feeder_report) == SHARD_UNAVAILABLE
        assert router.metrics.counter("cluster.ingest_rejected") == 1
        # The healthy shard still ingests (a fresh scan: the guard's
        # duplicate suppression would reject a byte-identical resend).
        seen = next(r for r in city.reports if r.route_id == "A00")
        fresh = ScanReport(
            device_id=seen.device_id, session_key=seen.session_key,
            route_id="A00", t=city.now + 60.0, readings=seen.readings,
        )
        assert router.ingest(fresh) == ADMITTED

    def test_unknown_session_resolves_to_none(self, router):
        assert router.shard_of_session("bus:never-seen:9") is None
        assert router.predict_arrival("bus:never-seen:9", "whatever") is None
        assert router.current_position("bus:never-seen:9") is None


class TestErrorIsolation:
    def test_downed_shard_degrades_predictions(self, router, city):
        loaded(router, city)
        stop = city.routes["B00"].stops[-1].stop_id
        assert router.predict_arrival("bus:B00:0", stop) is not None
        router.crash_shard(FEEDER)
        assert router.predict_arrival("bus:B00:0", stop) is None
        assert router.metrics.counter("cluster.predict_degraded") == 1
        assert router.metrics.counter("cluster.query_shard_skipped") == 1

    def test_breaker_opens_after_repeated_shard_faults(self, router, city):
        loaded(router, city)
        stop = city.routes["B00"].stops[-1].stop_id

        def explode(*args, **kwargs):
            raise RuntimeError("shard wedged")

        router.nodes[FEEDER].core.predict_arrival = explode
        for _ in range(3):  # breaker_threshold
            assert router.predict_arrival("bus:B00:0", stop) is None
        assert router.metrics.counter("cluster.shard_errors") == 3
        assert router.breakers[FEEDER].state == OPEN
        # Open breaker: the shard is skipped without touching it again.
        assert router.predict_arrival("bus:B00:0", stop) is None
        assert router.metrics.counter("cluster.shard_errors") == 3
        assert router.metrics.counter("cluster.query_shard_skipped") >= 1

    def test_unknown_stop_is_a_caller_bug_not_a_shard_fault(self, router, city):
        loaded(router, city)
        with pytest.raises(UnknownStopError):
            router.predict_arrival("bus:B00:0", "no-such-stop")
        assert router.metrics.counter("cluster.shard_errors") == 0


class TestRiderFanOut:
    def test_rider_commits_to_best_matching_shard(self, router, city):
        loaded(router, city)
        driver = max(
            (r for r in city.reports if r.route_id == "B00"),
            key=lambda r: r.t,
        )
        fix = router.ingest_rider(anonymise(driver, "rider-1"))
        assert fix is not None
        assert router.metrics.counter("cluster.rider_routed") == 1
        # The fix must have landed in the feeder shard's session.
        pos = router.nodes[FEEDER].core.current_position(driver.session_key)
        assert pos is not None and pos.t == driver.t + 1.0

    def test_unmatched_rider_counted_and_dropped(self, router, city):
        loaded(router, city)
        from repro.radio import Reading

        ghost = ScanReport(
            device_id="ghost", session_key="", route_id="", t=1e9,
            readings=(
                Reading(bssid="aa:bb:cc:dd:ee:ff", ssid="x", rss_dbm=-60.0),
            ),
        )
        assert router.ingest_rider(ghost) is None
        assert router.metrics.counter("cluster.rider_unmatched") == 1


class TestMergedViews:
    def test_active_sessions_merge_sorted(self, router, city):
        loaded(router, city)
        sessions = router.active_sessions(now=city.now)
        keys = [s.session_key for s in sessions]
        assert keys == sorted(keys)
        assert any(":A00:" in k for k in keys)
        assert any(":B00:" in k for k in keys)

    def test_traffic_map_unions_shard_views(self, router, city):
        loaded(router, city)
        tmap = router.traffic_map(city.now)
        # The feeder shard drove across shared segments; the merged map
        # must carry their states.
        assert any(seg.startswith("P00s") for seg in tmap.states)
        assert isinstance(router.detect_anomalies(city.now), list)

    def test_metrics_snapshot_totals_reconcile(self, router, city):
        loaded(router, city)
        snap = router.metrics_snapshot()
        assert set(snap) == {"cluster", "totals", "shards"}
        per_shard = sum(
            shard["counters"].get("ingest.reports", 0)
            for shard in snap["shards"].values()
        )
        assert per_shard == snap["totals"]["ingest.reports"] == len(city.reports)

    def test_health_degrades_when_a_shard_is_down(self, router, city):
        loaded(router, city)
        assert router.health()["status"] == "ok"
        router.crash_shard(FEEDER)
        health = router.health()
        assert health["status"] == "degraded"
        assert health["shards"][str(FEEDER)] == {"status": "down"}
        assert health["shards"][str(QUERY)]["status"] == "ok"
        assert health["bus"]["nodes"] == [QUERY, FEEDER]


# -- degrade around one impaired shard, query by query ----------------------
#
# Three shards over two overlapped pairs: A00+B01 on 0, B00 on 1, A01 on 2.
# Shard 1 is impaired three ways: crashed (not live, so never asked),
# faulting (every entry point raises into its breaker), and breaker-open
# (skipped without being asked).  Each query must answer with the two
# survivors' union, and the skip/error counters must move by exactly the
# calls that reach the impaired shard.

VICTIM, SURVIVORS = 1, (0, 2)
THREE_SHARDS = {"A00": 0, "B01": 0, "B00": 1, "A01": 2}
BOARD, ALIGHT, DEAD_STOP = "A00_st1", "A00_st4", "B00_st1"
SCATTER_QUERIES = (
    "flush",
    "departures",
    "departures_at_a_dead_stop",
    "plan_trip",
    "live_positions",
    "active_sessions",
    "detect_anomalies",
    "traffic_map",
    "ingest_rider",
)
_CORE_ENTRY_POINTS = (
    "active_sessions", "detect_anomalies", "traffic_map", "rider_candidate",
    "ingest_rider",
)
_API_ENTRY_POINTS = ("stops_named", "departures", "plan_trip", "live_positions")


@pytest.fixture(scope="module")
def pairs_city():
    from repro.eval.synth_city import build_overlap_city

    return build_overlap_city(num_pairs=2, feeder_sessions=2, query_sessions=2)


def _explode(*args, **kwargs):
    raise RuntimeError("shard wedged")


def impaired_router(city, mode):
    from repro.cluster.plan import ShardPlan

    router = build_cluster(
        city.fresh_twin().server, ShardPlan.from_assignment(THREE_SHARDS, city.routes)
    )
    loaded(router, city)
    if mode == "crashed":
        router.crash_shard(VICTIM)
    elif mode == "faulting":
        node = router.nodes[VICTIM]
        node.flush = _explode
        for name in _CORE_ENTRY_POINTS:
            setattr(node.core, name, _explode)
        api = router._rider_api(VICTIM)
        for name in _API_ENTRY_POINTS:
            setattr(api, name, _explode)
    else:
        for _ in range(3):  # breaker_threshold
            router.breakers[VICTIM].record_failure("injected")
        assert router.breakers[VICTIM].state == OPEN
    return router


def _rider_scan(city):
    driver = max((r for r in city.reports if r.route_id == "A01"), key=lambda r: r.t)
    return anonymise(driver, "rider-net")


def _per_stop(calls):
    """Answers of the shards whose routes serve the stop."""
    out = []
    for call in calls:
        try:
            out.extend(call())
        except UnknownStopError:
            continue
    return out


def survivors_union(router, city, query):
    """What ``query`` must answer: the survivors asked directly, merged."""
    from repro.core.server.api import LivePositions, RiderAPI
    from repro.core.traffic.anomaly import merge_anomalies
    from repro.core.traffic.classifier import SegmentStatus

    cores = [router.nodes[sid].core for sid in SURVIVORS]
    apis = [RiderAPI(core) for core in cores]
    now = city.now
    if query == "flush":
        return sum(router.nodes[sid].flush() for sid in SURVIVORS)
    if query == "departures":
        rows = _per_stop(lambda a=a: a.departures(BOARD, now=now) for a in apis)
        rows.sort(key=lambda e: (e.eta_t, e.route_id, e.session_key))
        return rows[:10]
    if query == "departures_at_a_dead_stop":
        return UnknownStopError
    if query == "plan_trip":
        rows = _per_stop(lambda a=a: a.plan_trip(BOARD, ALIGHT, now=now) for a in apis)
        rows.sort(key=lambda o: (o.alight_t, o.board_t, o.route_id, o.session_key))
        return rows
    if query == "live_positions":
        return dict(LivePositions.merge(a.live_positions(now=now) for a in apis))
    if query == "active_sessions":
        return sorted(
            (s.session_key for c in cores for s in c.active_sessions(now=now))
        )
    if query == "detect_anomalies":
        return merge_anomalies([a for c in cores for a in c.detect_anomalies(now)])
    if query == "traffic_map":
        states = {}
        for core in cores:
            for seg_id, state in core.traffic_map(now).states.items():
                have = states.get(seg_id)
                if have is None or (
                    have.status is SegmentStatus.UNKNOWN
                    and state.status is not SegmentStatus.UNKNOWN
                ):
                    states[seg_id] = state
        return states
    assert query == "ingest_rider"
    best_sid, best_sim = None, 0.0
    for sid, core in zip(SURVIVORS, cores):
        decision = core.rider_candidate(_rider_scan(city))
        if decision.session_key is not None and decision.similarity > best_sim:
            best_sid, best_sim = sid, decision.similarity
    return best_sid


def ask(router, city, query):
    now = city.now
    if query == "flush":
        return router.flush()
    if query == "departures":
        return router.departures(BOARD, now=now)
    if query == "departures_at_a_dead_stop":
        try:
            router.departures(DEAD_STOP, now=now)
        except UnknownStopError:
            return UnknownStopError
        return None
    if query == "plan_trip":
        return router.plan_trip(BOARD, ALIGHT, now=now)
    if query == "live_positions":
        return dict(router.live_positions(now=now))
    if query == "active_sessions":
        return [s.session_key for s in router.active_sessions(now=now)]
    if query == "detect_anomalies":
        return router.detect_anomalies(now)
    if query == "traffic_map":
        return router.traffic_map(now).states
    assert query == "ingest_rider"
    scan = _rider_scan(city)
    fix = router.ingest_rider(scan)
    for sid in SURVIVORS:
        core = router.nodes[sid].core
        for key in core.sessions:
            if core.current_position(key) is fix and fix is not None:
                return sid
    assert fix is None
    return None


class TestDegradedScatter:
    @pytest.mark.parametrize("query", SCATTER_QUERIES)
    @pytest.mark.parametrize("mode", ["crashed", "faulting", "breaker_open"])
    def test_answer_is_the_survivors_union(self, pairs_city, mode, query):
        router = impaired_router(pairs_city, mode)
        expected = survivors_union(router, pairs_city, query)
        skipped = router.metrics.counter("cluster.query_shard_skipped")
        errors = router.metrics.counter("cluster.shard_errors")
        assert ask(router, pairs_city, query) == expected
        # Every query asks the impaired shard exactly once: departures
        # and plan_trip resolve their stops on shard 0 first and stop
        # there, a stop only the victim serves asks it while resolving.
        reached = 0 if mode == "crashed" else 1
        assert router.metrics.counter("cluster.query_shard_skipped") - skipped == (
            reached if mode == "breaker_open" else 0
        )
        assert router.metrics.counter("cluster.shard_errors") - errors == (
            reached if mode == "faulting" else 0
        )

    def test_the_rider_probe_lands_on_a_survivor(self, pairs_city):
        # The regression net's rider case is not vacuous: a survivor's
        # driver matches the scan.
        router = impaired_router(pairs_city, "crashed")
        assert survivors_union(router, pairs_city, "ingest_rider") in SURVIVORS

    @pytest.mark.parametrize("mode", ["crashed", "faulting", "breaker_open"])
    def test_session_calls_degrade_to_none(self, pairs_city, mode):
        router = impaired_router(pairs_city, mode)
        key = "bus:B00:0"
        stop = pairs_city.routes["B00"].stops[-1].stop_id
        assert router.shard_of_session(key) == VICTIM
        if mode == "faulting":
            router.nodes[VICTIM].core.predict_arrival = _explode
            router.nodes[VICTIM].core.current_position = _explode
        skipped = router.metrics.counter("cluster.query_shard_skipped")
        errors = router.metrics.counter("cluster.shard_errors")
        assert router.predict_arrival(key, stop) is None
        assert router.current_position(key) is None
        assert router.metrics.counter("cluster.predict_degraded") == 1
        moved = (
            router.metrics.counter("cluster.query_shard_skipped") - skipped,
            router.metrics.counter("cluster.shard_errors") - errors,
        )
        assert moved == ((0, 2) if mode == "faulting" else (2, 0))

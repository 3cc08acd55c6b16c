"""RouteIndex: inverted stop index, session layer, staleness heap."""

import math

import pytest

from repro.roadnet.index import RouteIndex, UnknownStopError
from tests.conftest import make_straight_route


@pytest.fixture(scope="module")
def routes():
    _, r1 = make_straight_route(
        route_id="r1", length_m=1000.0, num_segments=4, num_stops=5
    )
    _, r2 = make_straight_route(
        route_id="r2", length_m=500.0, num_segments=2, num_stops=3
    )
    return {"r1": r1, "r2": r2}


class TestStopIndex:
    def test_build_counts(self, routes):
        index = RouteIndex(routes)
        snap = index.snapshot()
        assert snap["routes_indexed"] == 2
        assert snap["stop_entries"] == 5 + 3

    def test_stops_named(self, routes):
        index = RouteIndex(routes)
        entries = index.stops_named("r1_stop2")
        assert len(entries) == 1
        assert entries[0].route.route_id == "r1"
        assert entries[0].stop.stop_id == "r1_stop2"
        assert index.stops_named("nope") == []

    def test_arc_lengths_match_route(self, routes):
        index = RouteIndex(routes)
        for rid, route in routes.items():
            for stop in route.stops:
                assert index.stop_arc(rid, stop.stop_id) == pytest.approx(
                    route.stop_arc_length(stop)
                )

    def test_require_stop_raises(self, routes):
        index = RouteIndex(routes)
        with pytest.raises(UnknownStopError):
            index.require_stop("nope")
        # UnknownStopError must remain catchable as the seed's KeyError
        with pytest.raises(KeyError):
            index.require_stop("nope")

    def test_stop_on_route_raises_for_wrong_route(self, routes):
        index = RouteIndex(routes)
        assert index.stop_on_route("r1", "r1_stop0").route.route_id == "r1"
        with pytest.raises(UnknownStopError):
            index.stop_on_route("r2", "r1_stop0")

    def test_routes_serving_and_stop_ids(self, routes):
        index = RouteIndex(routes)
        assert index.routes_serving("r2_stop1") == ["r2"]
        assert index.routes_serving("nope") == []
        assert set(index.stop_ids()) == {
            s.stop_id for r in routes.values() for s in r.stops
        }


class TestSessionLayer:
    def test_open_and_route_of(self, routes):
        index = RouteIndex(routes)
        index.open_session("bus:a", "r1")
        assert index.route_of_session("bus:a") == "r1"
        assert index.route_of_session("bus:zz") is None
        assert index.active_session_keys(0.0, route_id="r1") == ["bus:a"]
        assert index.active_session_keys(0.0, route_id="r2") == []
        assert index.active_session_keys(0.0, route_id="nope") == []

    def test_duplicate_open_raises(self, routes):
        index = RouteIndex(routes)
        index.open_session("bus:a", "r1")
        with pytest.raises(ValueError):
            index.open_session("bus:a", "r1")

    def test_unreported_session_counts_active(self, routes):
        # Matches BusSession.is_stale: no report timestamp yet -> active.
        index = RouteIndex(routes)
        index.open_session("bus:a", "r1")
        assert index.active_session_keys(1e9, route_id="r1") == ["bus:a"]
        assert index.active_session_keys(1e9) == ["bus:a"]

    def test_staleness_eviction(self, routes):
        index = RouteIndex(routes)
        index.open_session("bus:a", "r1")
        index.open_session("bus:b", "r1")
        index.note_report("bus:a", 100.0)
        index.note_report("bus:b", 500.0)
        assert index.active_session_keys(400.0) == ["bus:a", "bus:b"]
        # bus:a (last seen 100.0) falls out of the 300 s window
        assert index.active_session_keys(600.0) == ["bus:b"]
        assert index.active_session_keys(600.0, route_id="r1") == ["bus:b"]
        snap = index.snapshot()
        assert snap["sessions_evicted"] == 1
        assert snap["expired_parked"] == 1

    def test_larger_timeout_resurrects(self, routes):
        index = RouteIndex(routes)
        index.open_session("bus:a", "r1")
        index.note_report("bus:a", 100.0)
        assert index.active_session_keys(1000.0) == []  # evicted
        assert index.active_session_keys(1000.0, timeout_s=1800.0) == ["bus:a"]
        assert index.snapshot()["sessions_resurrected"] == 1
        # and the default window still reports it stale afterwards
        assert index.active_session_keys(1000.0) == []

    def test_reactivated_session_leaves_parking_list(self, routes):
        index = RouteIndex(routes)
        index.open_session("bus:a", "r1")
        index.note_report("bus:a", 100.0)
        assert index.active_session_keys(1000.0) == []
        index.note_report("bus:a", 1000.0)  # came back to life
        assert index.snapshot()["expired_parked"] == 0
        assert index.active_session_keys(1000.0) == ["bus:a"]

    def test_creation_order_preserved(self, routes):
        index = RouteIndex(routes)
        for key in ("bus:c", "bus:a", "bus:b"):
            index.open_session(key, "r1")
            index.note_report(key, 50.0)
        # dict-iteration order of the seed == session creation order
        assert index.active_session_keys(100.0) == ["bus:c", "bus:a", "bus:b"]

    def test_drop_session(self, routes):
        index = RouteIndex(routes)
        index.open_session("bus:a", "r1")
        index.note_report("bus:a", 10.0)
        index.drop_session("bus:a")
        assert index.route_of_session("bus:a") is None
        assert index.active_session_keys(10.0, route_id="r1") == []
        assert index.active_session_keys(10.0) == []
        index.drop_session("bus:zz")  # unknown keys are a no-op

    def test_matches_full_scan_under_churn(self, routes):
        # Exhaustive cross-check: arbitrary report times, several (now,
        # timeout) probes -- the lazy heap must answer exactly what a
        # full scan over last_seen would.
        index = RouteIndex(routes)
        last_seen: dict[str, float] = {}
        times = [
            ("s0", 10.0), ("s1", 700.0), ("s2", 20.0), ("s0", 900.0),
            ("s3", 350.0), ("s2", 1300.0), ("s4", 40.0), ("s1", 1310.0),
        ]
        opened: list[str] = []
        route_of = {"s0": "r1", "s1": "r2", "s2": "r1", "s3": "r2", "s4": "r1"}
        for key, t in times:
            if key not in last_seen:
                index.open_session(key, route_of[key])
                opened.append(key)
            index.note_report(key, t)
            last_seen[key] = t
        for now, timeout in [
            (1400.0, 300.0), (1400.0, 100.0), (1400.0, 1500.0),
            (1000.0, 300.0), (2000.0, 300.0), (1000.0, 650.0),
        ]:
            expected = [
                k for k in opened if now - last_seen[k] <= timeout
            ]
            assert (
                index.active_session_keys(now, timeout_s=timeout) == expected
            ), (now, timeout)
            for rid in ("r1", "r2"):
                assert index.active_session_keys(
                    now, timeout_s=timeout, route_id=rid
                ) == [k for k in expected if route_of[k] == rid], (now, rid)

    def test_boundary_uses_the_session_predicate(self, routes):
        # `now - last <= timeout` and `last >= now - timeout` round
        # differently here: 326.5375351775711 - 300.0 > 26.537535177571097
        # although the difference is exactly 300.0.  The index must answer
        # BusSession.is_stale's form on both the global and per-route path.
        t, now = 26.537535177571097, 326.5375351775711
        assert now - t <= 300.0 and not t >= now - 300.0
        below = math.nextafter(t, -math.inf)
        above = math.nextafter(t, math.inf)
        for probe_t in (below, t, above):
            index = RouteIndex(routes)
            index.open_session("bus:a", "r1")
            index.note_report("bus:a", probe_t)
            want = ["bus:a"] if now - probe_t <= 300.0 else []
            assert index.active_session_keys(now, route_id="r1") == want
            assert index.active_session_keys(now) == want
            # evicted by a later query, the parked entry resurrects under
            # the same predicate
            assert index.active_session_keys(now + 1000.0) == []
            assert index.active_session_keys(now, route_id="r1") == want
            assert index.active_session_keys(now) == want

    def test_per_route_listing_follows_reactivation(self, routes):
        index = RouteIndex(routes)
        for key, rid in (("bus:a", "r1"), ("bus:b", "r2"), ("bus:c", "r1")):
            index.open_session(key, rid)
            index.note_report(key, 100.0)
        assert index.active_session_keys(1000.0, route_id="r1") == []
        index.note_report("bus:c", 900.0)
        index.note_report("bus:a", 950.0)  # back to life after bus:c
        # creation order, not reactivation order
        assert index.active_session_keys(1000.0, route_id="r1") == [
            "bus:a", "bus:c",
        ]
        assert index.active_session_keys(1000.0, route_id="r2") == []

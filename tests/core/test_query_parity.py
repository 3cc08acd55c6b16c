"""Indexed queries must return exactly what the seed's linear scans did.

The pre-index implementations are preserved verbatim in
:mod:`tests.reference`; this module replays a simulated
scenario (same shape as ``test_rider_api``) and asserts the indexed
``RiderAPI`` / ``WiLocatorServer`` paths are result-identical.
"""

import pytest

from repro.core.server import RiderAPI, WiLocatorServer, history_from_ground_truth
from tests.reference import (
    TraversalCounter,
    linear_active_sessions,
    linear_departures,
    linear_live_positions,
    linear_plan_trip,
    linear_stops_named,
)
from repro.core.svd import RoadSVD
from repro.geometry import GeoPoint, LocalProjection
from repro.mobility import CitySimulator, DispatchSchedule
from repro.radio import RadioEnvironment
from repro.sensing import CrowdSensingLayer
from repro.sensing.route_id import PerfectRouteIdentifier
from tests.conftest import make_line_aps, make_straight_route


@pytest.fixture(scope="module")
def setup():
    net, route = make_straight_route(
        length_m=1000.0, num_segments=4, num_stops=5
    )
    env = RadioEnvironment(make_line_aps(10), seed=0)
    sim = CitySimulator(net, [route], seed=1)
    training = sim.run(
        [DispatchSchedule("r1", first_s=6 * 3600.0, last_s=20 * 3600.0,
                          headway_s=3600.0)],
        num_days=2,
    )
    server = WiLocatorServer(
        routes={"r1": route},
        svds={"r1": RoadSVD.from_environment(route, env, order=2)},
        known_bssids={ap.bssid for ap in env.aps},
        history=history_from_ground_truth(training),
    )
    # Two staggered live buses mid-trip on day 2.
    live = sim.run(
        [DispatchSchedule("r1", first_s=12 * 3600.0,
                          last_s=12 * 3600.0 + 600.0, headway_s=600.0)],
        num_days=3,
    )
    trips = [t for t in live.trips if t.departure_s >= 2 * 86_400.0][:2]
    sensing = CrowdSensingLayer(
        env, route_identifier=PerfectRouteIdentifier(), seed=3
    )
    now = 0.0
    for trip in trips:
        reports = sensing.reports_for_trip(trip)
        half = len(reports) // 2
        for report in reports[:half]:
            server.ingest(report)
        now = max(now, reports[half - 1].t)
    return {"server": server, "api": RiderAPI(server), "now": now}


class TestQueryParity:
    def test_stops_named(self, setup):
        counter = TraversalCounter()
        for stop_id in ("r1_stop0", "r1_stop3", "nope"):
            assert setup["api"].stops_named(stop_id) == linear_stops_named(
                setup["server"], stop_id, counter
            )

    def test_active_sessions(self, setup):
        server, now = setup["server"], setup["now"]
        for probe in (now, now + 200.0, now + 400.0, now + 3600.0):
            counter = TraversalCounter()
            assert server.active_sessions(now=probe) == linear_active_sessions(
                server, probe, counter
            ), probe

    def test_departures(self, setup):
        api, server, now = setup["api"], setup["server"], setup["now"]
        for stop_id in ("r1_stop2", "r1_stop3", "r1_stop4"):
            indexed = api.departures(stop_id, now=now, max_entries=10**9)
            linear = linear_departures(
                server, stop_id, now, max_entries=10**9
            )
            assert indexed == linear, stop_id

    def test_departures_max_entries(self, setup):
        api, server, now = setup["api"], setup["server"], setup["now"]
        assert api.departures("r1_stop4", now=now, max_entries=1) == (
            linear_departures(server, "r1_stop4", now, max_entries=1)
        )

    def test_plan_trip(self, setup):
        api, server, now = setup["api"], setup["server"], setup["now"]
        cases = [("r1_stop2", "r1_stop4"), ("r1_stop4", "r1_stop2"),
                 ("r1_stop0", "r1_stop1")]
        for a, b in cases:
            assert api.plan_trip(a, b, now=now) == linear_plan_trip(
                server, a, b, now
            ), (a, b)

    def test_live_positions_planar(self, setup):
        api, server, now = setup["api"], setup["server"], setup["now"]
        typed = api.live_positions(now=now)
        assert {
            k: (v.x, v.y) for k, v in typed.items()
        } == linear_live_positions(server, now)
        assert len(typed) >= 1

    def test_live_positions_geo(self, setup):
        proj = LocalProjection(GeoPoint(49.26, -123.14))
        api = RiderAPI(setup["server"], projection=proj)
        now = setup["now"]
        typed = api.live_positions(now=now)
        assert {
            k: (v.lat, v.lon, v.t) for k, v in typed.items()
        } == linear_live_positions(setup["server"], now, projection=proj)

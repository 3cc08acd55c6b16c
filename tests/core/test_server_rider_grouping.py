"""Anonymous rider scans grouped to the right bus by the server."""

import pytest

from repro.core.server import WiLocatorServer, history_from_ground_truth
from repro.core.svd import RoadSVD
from repro.mobility import CitySimulator, DispatchSchedule
from repro.radio import RadioEnvironment
from repro.sensing import CrowdSensingLayer, ScanReport, Smartphone
from repro.sensing.route_id import PerfectRouteIdentifier
from tests.conftest import make_line_aps, make_straight_route


@pytest.fixture(scope="module")
def setup():
    net, route = make_straight_route(length_m=2000.0, num_segments=4)
    env = RadioEnvironment(make_line_aps(20, spacing=100.0), seed=0)
    sim = CitySimulator(net, [route], seed=2)
    training = sim.run(
        [DispatchSchedule("r1", first_s=6 * 3600.0, last_s=12 * 3600.0,
                          headway_s=3600.0)],
        num_days=1,
    )
    # Two staggered live buses.
    live = sim.run(
        [DispatchSchedule("r1", first_s=13 * 3600.0, last_s=13 * 3600.0 + 240.0,
                          headway_s=240.0)],
        num_days=1,
    )
    trips = [t for t in live.trips if t.departure_s >= 13 * 3600.0]
    layer = CrowdSensingLayer(
        env, route_identifier=PerfectRouteIdentifier(), merge_riders=False,
        seed=3,
    )
    server = WiLocatorServer(
        routes={"r1": route},
        svds={"r1": RoadSVD.from_environment(route, env, order=2)},
        known_bssids={ap.bssid for ap in env.aps},
        history=history_from_ground_truth(training),
    )
    return {
        "server": server,
        "trips": trips,
        "layer": layer,
    }


def anonymise(report: ScanReport) -> ScanReport:
    """Strip the identity a real rider scan would not carry."""
    return ScanReport(
        device_id=report.device_id,
        session_key="",
        route_id="",
        t=report.t,
        readings=report.readings,
    )


class TestServerRiderGrouping:
    def test_rider_scans_land_on_right_bus(self, setup):
        server = setup["server"]
        trip_a, trip_b = setup["trips"][:2]
        driver_a = setup["layer"].reports_for_trip(trip_a)
        driver_b = setup["layer"].reports_for_trip(trip_b)
        rider_a = setup["layer"].reports_for_trip(
            trip_a, [Smartphone(device_id="rider", rss_bias_db=1.5)]
        )

        events = sorted(
            [("driver", r) for r in driver_a + driver_b]
            + [("rider", anonymise(r)) for r in rider_a],
            key=lambda kr: kr[1].t,
        )
        matched = mismatched = 0
        for kind, report in events:
            if kind == "driver":
                server.ingest(report)
            else:
                tp = server.ingest_rider(report)
                if tp is None:
                    continue
                # the fix must land in trip_a's session, not trip_b's
                key_a = f"bus:{trip_a.trip_id}"
                key_b = f"bus:{trip_b.trip_id}"
                pos_a = server.current_position(key_a)
                if pos_a is not None and pos_a.t == report.t:
                    matched += 1
                pos_b = server.current_position(key_b)
                if pos_b is not None and pos_b.t == report.t:
                    mismatched += 1
        assert matched > 10
        assert mismatched <= matched // 10

    def test_unmatchable_rider_dropped(self, setup):
        server = setup["server"]
        from repro.radio import Reading

        ghost = ScanReport(
            device_id="ghost", session_key="", route_id="", t=1e9,
            readings=(Reading(bssid="aa:bb:cc:dd:ee:ff", ssid="x", rss_dbm=-60.0),),
        )
        before = server.health()["stats"]["reports_unroutable"]
        hist_before = server.metrics.latency("ingest").count
        assert server.ingest_rider(ghost) is None
        assert server.health()["stats"]["reports_unroutable"] == before + 1
        # The fixed unroutable branch observes the ingest histogram and
        # records the unmatched-rider context.
        assert server.metrics.latency("ingest").count == hist_before + 1
        assert server.metrics.counter("ingest.rider_unmatched") >= 1

    def test_matched_but_untracked_session_unroutable(self, setup):
        """The grouper can match a driver the server no longer tracks.

        That branch must account like the driver-path unroutable one:
        the report counts as ingested work, the unroutable counter and
        the ingest histogram advance, and no session state appears.
        """
        server = setup["server"]
        trip = setup["trips"][0]
        driver = setup["layer"].reports_for_trip(trip)[0]
        # A driver scan fed straight to the grouper, bypassing ingest:
        # the server never opened a session for it.
        ghost_key = "bus:never-ingested"
        server._grouper.observe_driver(
            ScanReport(
                device_id="ghost-driver", session_key=ghost_key,
                route_id=driver.route_id, t=2e9, readings=driver.readings,
            )
        )
        rider = ScanReport(
            device_id="rider-x", session_key="", route_id="", t=2e9 + 1.0,
            readings=driver.readings,
        )
        before = server.health()["stats"]["reports_unroutable"]
        ingested_before = server.health()["stats"]["reports_ingested"]
        hist_before = server.metrics.latency("ingest").count
        unmatched_before = server.metrics.counter("ingest.rider_unmatched")
        assert server.ingest_rider(rider) is None
        assert server.health()["stats"]["reports_unroutable"] == before + 1
        assert server.health()["stats"]["reports_ingested"] == ingested_before + 1
        assert server.metrics.latency("ingest").count == hist_before + 1
        # This is the *matched-but-untracked* branch, not the unmatched one.
        assert server.metrics.counter("ingest.rider_unmatched") == unmatched_before
        assert ghost_key not in server.sessions

    def test_empty_rider_scan_quarantined(self, setup):
        server = setup["server"]
        empty = ScanReport(
            device_id="ghost", session_key="", route_id="", t=1e9, readings=()
        )
        before = server.health()["stats"]["reports_quarantined"]
        unroutable_before = server.health()["stats"]["reports_unroutable"]
        assert server.ingest_rider(empty) is None
        assert server.health()["stats"]["reports_quarantined"] == before + 1
        assert server.health()["stats"]["reports_unroutable"] == unroutable_before
        assert server.guard.quarantine.counts.get("empty_readings", 0) >= 1

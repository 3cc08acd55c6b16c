import numpy as np
import pytest

from repro.core.arrival import TravelTimeRecord, TravelTimeStore
from repro.core.server import WiLocatorServer, history_from_ground_truth
from repro.core.svd import RoadSVD
from repro.mobility import CitySimulator, DispatchSchedule
from repro.radio import RadioEnvironment
from repro.sensing import CrowdSensingLayer
from repro.sensing.route_id import PerfectRouteIdentifier
from tests.conftest import make_line_aps, make_straight_route


@pytest.fixture(scope="module")
def scene():
    net, route = make_straight_route(
        length_m=1000.0, num_segments=4, num_stops=5
    )
    env = RadioEnvironment(make_line_aps(10), seed=0)
    sim = CitySimulator(net, [route], seed=1)
    # Two training days.
    training = sim.run(
        [DispatchSchedule("r1", first_s=6 * 3600.0, last_s=20 * 3600.0,
                          headway_s=3600.0)],
        num_days=2,
    )
    history = history_from_ground_truth(training)
    svd = RoadSVD.from_environment(route, env, order=2, step_m=2.0)
    known = {ap.bssid for ap in env.aps}
    sensing = CrowdSensingLayer(
        env, route_identifier=PerfectRouteIdentifier(), seed=3
    )
    # One evaluation trip on day 2.
    eval_run = sim.run(
        [DispatchSchedule("r1", first_s=12 * 3600.0, last_s=12 * 3600.0,
                          headway_s=3600.0)],
        num_days=3,
    )
    eval_trip = [t for t in eval_run.trips if t.departure_s >= 2 * 86_400.0][0]
    reports = sensing.reports_for_trip(eval_trip)
    return {
        "net": net,
        "route": route,
        "history": history,
        "svd": svd,
        "known": known,
        "trip": eval_trip,
        "reports": reports,
    }


def make_server(scene):
    return WiLocatorServer(
        routes={"r1": scene["route"]},
        svds={"r1": scene["svd"]},
        known_bssids=scene["known"],
        history=scene["history"],
    )


class TestIngestion:
    def test_tracks_reports(self, scene):
        server = make_server(scene)
        server.ingest_many(scene["reports"])
        stats = server.health()["stats"]
        assert stats["reports_ingested"] == len(scene["reports"])
        assert stats["positions_fixed"] > 0
        assert stats["sessions_opened"] == 1

    def test_ingest_many_returns_fixes(self, scene):
        # Seed bug: ingest_many discarded the per-report fixes.
        server = make_server(scene)
        fixes = server.ingest_many(scene["reports"])
        assert len(fixes) == len(scene["reports"])
        fixed = [tp for tp in fixes if tp is not None]
        assert len(fixed) == server.health()["stats"]["positions_fixed"]
        assert all(
            a.t <= b.t for a, b in zip(fixed, fixed[1:])
        )  # time-sorted processing order

    def test_position_accuracy(self, scene):
        server = make_server(scene)
        trip = scene["trip"]
        errors = []
        for report in scene["reports"]:
            tp = server.ingest(report)
            if tp is not None:
                errors.append(abs(tp.arc_length - trip.arc_at(report.t)))
        assert np.median(errors) < 30.0

    def test_unroutable_reports_counted(self, scene):
        server = make_server(scene)
        bad = scene["reports"][0].__class__(
            device_id="d",
            session_key="bus:x",
            route_id="",  # identification failed
            t=0.0,
            readings=scene["reports"][0].readings,
        )
        assert server.ingest(bad) is None
        assert server.health()["stats"]["reports_unroutable"] == 1

    def test_traversals_extracted(self, scene):
        server = make_server(scene)
        server.ingest_many(scene["reports"])
        assert server.health()["stats"]["traversals_extracted"] >= 3
        assert len(server.predictor.live) >= 3

    def test_extracted_times_close_to_truth(self, scene):
        server = make_server(scene)
        server.ingest_many(scene["reports"])
        trip = scene["trip"]
        truth = {tr.segment_id: tr for tr in trip.traversals}
        for seg_id in server.predictor.live.segment_ids():
            for rec in server.predictor.live.records(seg_id):
                # Tile granularity in this sparse test scene is ~50 m, so
                # boundary interpolation can be off by a couple of scan
                # periods; the extraction must still be in the right
                # ballpark.
                assert rec.travel_time == pytest.approx(
                    truth[seg_id].travel_time, abs=30.0
                )

    def test_missing_svd_rejected(self, scene):
        with pytest.raises(ValueError):
            WiLocatorServer(
                routes={"r1": scene["route"]},
                svds={},
                known_bssids=scene["known"],
                history=scene["history"],
            )


class TestQueries:
    def test_current_position(self, scene):
        server = make_server(scene)
        server.ingest_many(scene["reports"])
        key = scene["reports"][0].session_key
        tp = server.current_position(key)
        assert tp is not None
        assert tp.arc_length == pytest.approx(scene["route"].length, abs=60.0)

    def test_current_position_unknown_session(self, scene):
        assert make_server(scene).current_position("nope") is None

    def test_predict_arrival_mid_trip(self, scene):
        server = make_server(scene)
        trip = scene["trip"]
        midpoint = len(scene["reports"]) // 2
        for report in scene["reports"][:midpoint]:
            server.ingest(report)
        key = scene["reports"][0].session_key
        last_stop = scene["route"].stops[-1]
        pred = server.predict_arrival(key, last_stop.stop_id)
        assert pred is not None
        actual = trip.time_at_arc(scene["route"].stop_arc_length(last_stop))
        assert pred.t_arrival == pytest.approx(actual, abs=120.0)

    def test_predict_arrival_unknown_stop(self, scene):
        server = make_server(scene)
        server.ingest(scene["reports"][0])
        key = scene["reports"][0].session_key
        with pytest.raises(KeyError):
            server.predict_arrival(key, "nonexistent")

    def test_predict_all_arrivals_ordered(self, scene):
        server = make_server(scene)
        for report in scene["reports"][:5]:
            server.ingest(report)
        key = scene["reports"][0].session_key
        preds = server.predict_all_arrivals(key)
        arrivals = [p.t_arrival for p in preds]
        assert arrivals == sorted(arrivals)

    def test_active_sessions(self, scene):
        server = make_server(scene)
        server.ingest_many(scene["reports"])
        end = scene["trip"].end_s
        assert len(server.active_sessions(now=end + 60.0)) == 1
        assert len(server.active_sessions(now=end + 3600.0)) == 0

    def test_sessions_on_route(self, scene):
        server = make_server(scene)
        server.ingest_many(scene["reports"])
        end = scene["trip"].end_s
        index = server.index
        assert index.active_session_keys(end + 60.0, route_id="r1") == [
            scene["reports"][0].session_key
        ]
        assert index.active_session_keys(end + 3600.0, route_id="r1") == []
        assert index.active_session_keys(end, route_id="nope") == []


class TestMetricsApi:
    def test_snapshot_shape(self, scene):
        server = make_server(scene)
        server.ingest_many(scene["reports"])
        snap = server.metrics_snapshot()
        assert snap["counters"]["ingest.reports"] == len(scene["reports"])
        assert snap["latency"]["ingest"]["count"] == len(scene["reports"])
        assert snap["latency"]["position_fix"]["count"] == len(scene["reports"])
        assert "svd_match" in snap["caches"]
        assert snap["stats"]["reports_ingested"] == len(scene["reports"])
        assert snap["index"]["sessions_opened"] == 1
        assert snap["index"]["reports_noted"] == len(scene["reports"])


class TestTrafficMapApi:
    def test_traffic_map_covers_route(self, scene):
        server = make_server(scene)
        server.ingest_many(scene["reports"])
        tmap = server.traffic_map(scene["trip"].end_s + 60.0)
        assert set(tmap.states) == set(scene["route"].segment_ids)
        assert tmap.coverage() > 0.0


class TestTraining:
    def test_history_from_ground_truth(self, scene):
        assert len(scene["history"]) > 0
        seg_ids = set(scene["history"].segment_ids())
        assert seg_ids == set(scene["route"].segment_ids)

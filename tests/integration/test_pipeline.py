"""End-to-end pipeline tests on the corridor world.

These exercise the full stack: simulate -> sense -> SVD -> track ->
extract -> predict -> map, with the lighter `small_world` fixture.
"""

import numpy as np
import pytest

from repro.core.positioning import BusTracker, SVDPositioner
from repro.core.server import WiLocatorServer, history_from_ground_truth
from repro.eval.experiments import _devices_for
from repro.mobility import DispatchSchedule
from repro.mobility.traffic import DAY_S


@pytest.fixture(scope="module")
def run(small_world):
    schedules = [
        DispatchSchedule(route_id=rid, first_s=7 * 3600.0, last_s=10 * 3600.0,
                         headway_s=3600.0)
        for rid in small_world.routes
    ]
    return small_world.simulator.run(schedules, num_days=2)


@pytest.fixture(scope="module")
def server(small_world, run):
    history = history_from_ground_truth(run)
    return WiLocatorServer(
        routes=small_world.routes,
        svds=small_world.svds(),
        known_bssids=small_world.known_bssids,
        history=history,
    )


class TestFullTracking:
    def test_all_routes_track_accurately(self, small_world, run):
        for route_id in small_world.routes:
            trip = run.trips_of_route(route_id)[0]
            reports = small_world.sensing.reports_for_trip(
                trip, _devices_for(small_world, trip)
            )
            tracker = BusTracker(
                SVDPositioner(
                    small_world.svd_for(route_id), small_world.known_bssids
                )
            )
            errors = []
            for report in reports:
                tp = tracker.update(report)
                if tp is not None:
                    errors.append(abs(tp.arc_length - trip.arc_at(report.t)))
            assert len(errors) > 50
            # Sparser APs here than the headline config; still metres-level.
            assert np.median(errors) < 15.0

    def test_server_end_to_end(self, small_world, run, server):
        trip = run.trips_of_route("9")[1]
        reports = small_world.sensing.reports_for_trip(
            trip, _devices_for(small_world, trip)
        )
        for report in reports:
            server.ingest(report)
        key = reports[0].session_key
        tp = server.current_position(key)
        assert tp is not None
        assert server.health()["stats"]["traversals_extracted"] > 10

    def test_prediction_mid_trip_reasonable(self, small_world, run, server):
        trip = run.trips_of_route("14")[0]
        reports = small_world.sensing.reports_for_trip(
            trip, _devices_for(small_world, trip)
        )
        third = len(reports) // 3
        for report in reports[:third]:
            server.ingest(report)
        key = reports[0].session_key
        preds = server.predict_all_arrivals(key)
        assert preds
        route = small_world.routes["14"]
        # Check a mid-range stop against ground truth.
        target = preds[min(8, len(preds) - 1)]
        stop = next(s for s in route.stops if s.stop_id == target.stop_id)
        actual = trip.time_at_arc(route.stop_arc_length(stop))
        assert actual is not None
        assert abs(target.t_arrival - actual) < 420.0


class TestCrossRouteRecency:
    def test_recent_bus_improves_prediction(self, small_world, run):
        """The paper's core claim, end to end: after a congestion shift,
        a predictor fed cross-route recent data beats the agency one."""
        from repro.baselines.agency import TransitAgencyPredictor
        from repro.core.arrival import ArrivalTimePredictor, TravelTimeStore
        from repro.core.arrival.history import TravelTimeRecord

        history = history_from_ground_truth(run)
        wil = ArrivalTimePredictor(history)
        agc = TransitAgencyPredictor(history)

        # Pretend today's corridor is uniformly 40% slower: recent buses
        # of route 9 reveal it; route 14 predictions should benefit.
        route = small_world.routes["14"]
        t0 = 30 * DAY_S + 12 * 3600.0
        true_tt = {}
        for seg in route.segments[:10]:
            th = wil.historical_time(seg.segment_id, "9", t0)
            true_tt[seg.segment_id] = 1.4 * wil.historical_time(
                seg.segment_id, "14", t0
            )
            wil.observe(
                TravelTimeRecord(
                    route_id="9",
                    segment_id=seg.segment_id,
                    t_enter=t0 - 600.0,
                    t_exit=t0 - 600.0 + 1.4 * th,
                )
            )
        wil_err = agc_err = 0.0
        for seg in route.segments[:10]:
            w = wil.predict_segment_time(seg.segment_id, "14", t0)
            a = agc.predict_segment_time(seg.segment_id, "14", t0)
            wil_err += abs(w - true_tt[seg.segment_id])
            agc_err += abs(a - true_tt[seg.segment_id])
        assert wil_err < agc_err

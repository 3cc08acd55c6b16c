import numpy as np
import pytest

from repro.core.positioning import BusTracker, SVDPositioner, Trajectory, TrajectoryPoint
from repro.core.svd import RoadSVD
from repro.geometry import GeoPoint, LocalProjection
from repro.radio import RadioEnvironment
from repro.sensing.reports import ScanReport
from tests.conftest import make_line_aps, make_straight_route


@pytest.fixture()
def scene():
    net, route = make_straight_route(length_m=1000.0, num_segments=2)
    env = RadioEnvironment(make_line_aps(10), seed=0)
    svd = RoadSVD.from_environment(route, env, order=2, step_m=2.0)
    known = {ap.bssid for ap in env.aps}
    return route, env, SVDPositioner(svd, known)


def scan_report(env, point, rng, t=0.0):
    return ScanReport(
        device_id="d",
        session_key="bus:1",
        route_id="r1",
        t=t,
        readings=tuple(env.scan(point, rng)),
    )


class TestLocator:
    def test_locates_near_truth(self, scene, rng):
        route, env, positioner = scene
        errors = []
        for arc in np.linspace(50, 950, 19):
            est = positioner.locate(scan_report(env, route.point_at(arc), rng))
            assert est is not None
            errors.append(abs(est.arc_length - arc))
        assert np.median(errors) < 25.0

    def test_empty_scan_returns_none(self, scene):
        _, _, positioner = scene
        rep = ScanReport(
            device_id="d", session_key="s", route_id="r1", t=0.0, readings=()
        )
        assert positioner.locate(rep) is None

    def test_unknown_aps_ignored(self, scene, rng):
        route, env, positioner = scene
        from repro.radio.environment import Reading

        readings = tuple(env.scan(route.point_at(500.0), rng)) + (
            Reading("ff:ff:ff:ff:ff:ff", "rogue", -30.0),
        )
        rep = ScanReport(
            device_id="d", session_key="s", route_id="r1", t=0.0,
            readings=readings,
        )
        est = positioner.locate(rep)
        assert est is not None
        assert abs(est.arc_length - 500.0) < 80.0

    def test_window_constrains_estimate(self, scene, rng):
        route, env, positioner = scene
        rep = scan_report(env, route.point_at(500.0), rng)
        est = positioner.locate(rep, arc_window=(450.0, 520.0))
        assert est is not None
        assert 440.0 <= est.arc_length <= 540.0

    def test_methods_reported(self, scene, rng):
        route, env, positioner = scene
        methods = set()
        for arc in np.linspace(50, 950, 40):
            est = positioner.locate(scan_report(env, route.point_at(arc), rng))
            methods.add(est.method)
        assert methods <= {"tile", "nearest-signature", "tie-boundary"}
        assert "tile" in methods

    def test_rejects_bad_candidates(self, scene):
        _, _, positioner = scene
        with pytest.raises(ValueError):
            SVDPositioner(positioner.svd, candidates=0)


class TestTracker:
    def test_track_is_monotone(self, scene, rng):
        route, env, positioner = scene
        tracker = BusTracker(positioner)
        t = 0.0
        for arc in np.linspace(0, 1000, 50):
            tracker.update(scan_report(env, route.point_at(arc), rng, t))
            t += 10.0
        arcs = tracker.trajectory.arc_lengths()
        assert all(b >= a for a, b in zip(arcs, arcs[1:]))

    def test_feasible_window_none_initially(self, scene):
        _, _, positioner = scene
        tracker = BusTracker(positioner)
        assert tracker.feasible_window(0.0) is None

    def test_feasible_window_grows_with_dt(self, scene, rng):
        route, env, positioner = scene
        tracker = BusTracker(positioner, max_speed_mps=20.0)
        tracker.update(scan_report(env, route.point_at(100.0), rng, 0.0))
        w10 = tracker.feasible_window(10.0)
        w60 = tracker.feasible_window(60.0)
        assert w60[1] > w10[1]
        assert w10[0] == w60[0]

    def test_tracker_recovers_after_gap(self, scene, rng):
        route, env, positioner = scene
        tracker = BusTracker(positioner)
        tracker.update(scan_report(env, route.point_at(100.0), rng, 0.0))
        # Long silence, bus far ahead: unconstrained fallback must kick in.
        tp = tracker.update(scan_report(env, route.point_at(800.0), rng, 600.0))
        assert tp is not None
        assert abs(tp.arc_length - 800.0) < 100.0

    def test_empty_report_ignored(self, scene):
        _, _, positioner = scene
        tracker = BusTracker(positioner)
        rep = ScanReport(
            device_id="d", session_key="s", route_id="r1", t=0.0, readings=()
        )
        assert tracker.update(rep) is None
        assert len(tracker.trajectory) == 0

    def test_late_report_leaves_the_track_unchanged(self, scene, rng):
        # Admission without a monotonicity window lets a late upload
        # through; it must neither raise (failing the whole request and
        # a durable server's batch) nor reorder the track.
        route, env, positioner = scene
        tracker = BusTracker(positioner)
        tracker.update(scan_report(env, route.point_at(200.0), rng, 10.0))
        late = scan_report(env, route.point_at(100.0), rng, 5.0)
        assert tracker.update(late) is None
        assert tracker.trajectory.times() == [10.0]

    def test_track_reports_sorts(self, scene, rng):
        route, env, positioner = scene
        tracker = BusTracker(positioner)
        reports = [
            scan_report(env, route.point_at(arc), rng, t)
            for t, arc in [(20.0, 300.0), (0.0, 100.0), (10.0, 200.0)]
        ]
        trajectory = tracker.track_reports(reports)
        assert trajectory.times() == sorted(trajectory.times())

    def test_current_estimate(self, scene, rng):
        route, env, positioner = scene
        tracker = BusTracker(positioner)
        assert tracker.current_estimate() is None
        tracker.update(scan_report(env, route.point_at(300.0), rng, 0.0))
        est = tracker.current_estimate()
        assert est is not None
        assert est.tile is not None


class TestTrajectory:
    def make_traj(self, route, pts):
        traj = Trajectory(route=route)
        for t, arc in pts:
            traj.append(
                TrajectoryPoint(t=t, arc_length=arc, point=route.point_at(arc))
            )
        return traj

    def test_rejects_unordered_times(self, scene):
        route = scene[0]
        traj = self.make_traj(route, [(10.0, 100.0)])
        with pytest.raises(ValueError):
            traj.append(
                TrajectoryPoint(t=5.0, arc_length=200.0, point=route.point_at(200))
            )

    def test_step_road_distances(self, scene):
        route = scene[0]
        traj = self.make_traj(route, [(0, 0), (10, 100), (20, 150)])
        assert traj.step_road_distances() == [100.0, 50.0]

    def test_arc_at_time_interpolates(self, scene):
        route = scene[0]
        traj = self.make_traj(route, [(0, 0), (10, 100)])
        assert traj.arc_at_time(5.0) == pytest.approx(50.0)

    def test_arc_at_time_clamps(self, scene):
        route = scene[0]
        traj = self.make_traj(route, [(0, 0), (10, 100)])
        assert traj.arc_at_time(-5.0) == 0.0
        assert traj.arc_at_time(50.0) == 100.0

    def test_time_at_arc_fig5_interpolation(self, scene):
        """Fig. 5: crossing time = t_A + t(A,B) * d(A, x)/d(A, B)."""
        route = scene[0]
        traj = self.make_traj(route, [(0, 0), (10, 80), (20, 200)])
        # boundary at arc 140 lies 60/120 of the way from 80 to 200
        assert traj.time_at_arc(140.0) == pytest.approx(15.0)

    def test_time_at_arc_unreached(self, scene):
        route = scene[0]
        traj = self.make_traj(route, [(0, 0), (10, 100)])
        assert traj.time_at_arc(500.0) is None

    def test_as_geo_roundtrip(self, scene):
        route = scene[0]
        proj = LocalProjection(GeoPoint(49.0, -123.0))
        tp = TrajectoryPoint(t=5.0, arc_length=0.0, point=route.point_at(0.0))
        lat, lon, t = tp.as_geo(proj)
        assert t == 5.0
        back = proj.to_local(GeoPoint(lat, lon))
        assert back.distance_to(tp.point) < 0.01

    def test_empty_trajectory_arc_at_time(self, scene):
        traj = Trajectory(route=scene[0])
        with pytest.raises(ValueError):
            traj.arc_at_time(0.0)

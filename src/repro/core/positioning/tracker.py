"""Stateful per-bus tracking with the mobility constraint.

A bus follows its route monotonically; consecutive 10-second scans can
only be so far apart.  :class:`BusTracker` turns per-scan estimates into a
coherent trajectory by (a) restricting each scan's candidate tiles to the
feasible arc window implied by the previous fix and a speed bound, and
(b) never letting the track run backwards.
"""

from __future__ import annotations

from repro.core.positioning.locator import PositionEstimate, SVDPositioner
from repro.core.positioning.trajectory import Trajectory, TrajectoryPoint
from repro.sensing.reports import ScanReport


class BusTracker:
    """Tracks one bus (one session) along one route.

    Parameters
    ----------
    positioner:
        The route's scan positioner.
    max_speed_mps:
        Upper bound on plausible bus speed; sets the forward extent of the
        feasible window (25 m/s = 90 km/h covers any urban bus).
    backward_slack_m:
        Tolerated apparent backward motion (noise at low speed) before an
        estimate is considered infeasible.
    window_grace_m:
        Extra forward slack added to the window, covering scan jitter.
    """

    def __init__(
        self,
        positioner: SVDPositioner,
        *,
        max_speed_mps: float = 25.0,
        backward_slack_m: float = 30.0,
        window_grace_m: float = 40.0,
    ) -> None:
        if max_speed_mps <= 0:
            raise ValueError("max speed must be positive")
        self.positioner = positioner
        self.max_speed_mps = max_speed_mps
        self.backward_slack_m = backward_slack_m
        self.window_grace_m = window_grace_m
        self.trajectory = Trajectory(route=positioner.route)

    @property
    def route(self):
        return self.positioner.route

    def feasible_window(self, t: float) -> tuple[float, float] | None:
        """The arc interval the bus can be in at time ``t``."""
        last = self.trajectory.last
        if last is None:
            return None
        dt = max(t - last.t, 0.0)
        lo = last.arc_length - self.backward_slack_m
        hi = last.arc_length + self.max_speed_mps * dt + self.window_grace_m
        return (max(lo, 0.0), min(hi, self.route.length))

    def update(self, report: ScanReport) -> TrajectoryPoint | None:
        """Process one scan; returns the appended trajectory point.

        Scans with no usable readings return None and leave the track
        unchanged, and so do scans older than the last fix (a late upload
        admission let through: the track is time-ordered).  An estimate
        that would move the track backwards is clamped to the previous
        arc (a bus never reverses on its route).
        """
        last = self.trajectory.last
        if last is not None and report.t < last.t:
            return None
        window = self.feasible_window(report.t)
        estimate = self.positioner.locate(report, arc_window=window)
        if estimate is None and window is not None:
            # Nothing matched inside the window (e.g. after a long scan
            # gap): fall back to an unconstrained match.
            estimate = self.positioner.locate(report)
        if estimate is None:
            return None
        arc = estimate.arc_length
        if last is not None and arc < last.arc_length:
            arc = last.arc_length
        point = self.route.point_at(arc)
        tp = TrajectoryPoint(
            t=report.t, arc_length=arc, point=point, method=estimate.method
        )
        self.trajectory.append(tp)
        return tp

    def track_reports(self, reports) -> Trajectory:
        """Convenience: feed a time-ordered report sequence."""
        for report in sorted(reports, key=lambda r: r.t):
            self.update(report)
        return self.trajectory

    def current_estimate(self) -> PositionEstimate | None:
        """The latest fix as a :class:`PositionEstimate` (or None)."""
        last = self.trajectory.last
        if last is None:
            return None
        return PositionEstimate(
            arc_length=last.arc_length,
            point=last.point,
            method=last.method,
            signature_distance=0.0,
            tile=self.positioner.svd.tile_at(last.arc_length),
        )

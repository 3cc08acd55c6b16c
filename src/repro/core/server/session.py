"""Per-bus server sessions."""

from __future__ import annotations

from dataclasses import dataclass, field

from typing import Any

from repro.core.arrival.history import TravelTimeRecord
from repro.core.arrival.segments import IncrementalExtractor
from repro.core.positioning.tracker import BusTracker
from repro.core.positioning.trajectory import TrajectoryPoint
from repro.sensing.reports import ScanReport


@dataclass
class BusSession:
    """Server-side state for one physical bus being tracked.

    A session is keyed by the report's ``session_key`` (the proximity
    grouping of riders to a bus).  It owns the tracker (and through it the
    trajectory) and the incremental travel-time extractor.
    """

    session_key: str
    route_id: str
    tracker: BusTracker
    extractor: IncrementalExtractor = field(init=False)
    last_report_t: float | None = None
    reports_seen: int = 0

    def __post_init__(self) -> None:
        self.extractor = IncrementalExtractor(self.tracker.trajectory)

    @property
    def trajectory(self):
        return self.tracker.trajectory

    def process(
        self, report: ScanReport
    ) -> tuple[TrajectoryPoint | None, list[TravelTimeRecord]]:
        """Track one report and collect newly completed traversals."""
        if report.session_key != self.session_key:
            raise ValueError(
                f"report for session {report.session_key!r} fed to "
                f"session {self.session_key!r}"
            )
        self.reports_seen += 1
        self.last_report_t = report.t
        point = self.tracker.update(report)
        records = self.extractor.poll() if point is not None else []
        return point, records

    def is_stale(self, now: float, *, timeout_s: float = 300.0) -> bool:
        """Whether the session stopped reporting (trip over / phone off)."""
        return self.last_report_t is not None and now - self.last_report_t > timeout_s

    def fingerprint(self) -> tuple:
        """Route and last fix (time to the µs, arc to the mm): what two
        servers tracking the same bus must agree on."""
        last = self.trajectory.last
        if last is None:
            return (self.route_id, None, None)
        return (self.route_id, round(last.t, 6), round(last.arc_length, 3))

    # -- durability (checkpoint round-trip) ----------------------------------

    def state_dict(self) -> dict[str, Any]:
        """The session's replayable state (JSON-safe).

        Planar trajectory points are not stored — they are recomputed
        from the route's polyline on restore, so arc lengths stay the
        single source of truth.
        """
        return {
            "session_key": self.session_key,
            "route_id": self.route_id,
            "reports_seen": self.reports_seen,
            "last_report_t": self.last_report_t,
            "points": [[p.t, p.arc_length, p.method] for p in self.trajectory],
            "emitted": sorted(self.extractor.emitted_segments),
        }

    @classmethod
    def from_state(cls, data: dict[str, Any], tracker: BusTracker) -> "BusSession":
        """Rebuild a session around a freshly constructed tracker."""
        session = cls(
            session_key=data["session_key"],
            route_id=data["route_id"],
            tracker=tracker,
        )
        route = tracker.route
        for t, arc, method in data["points"]:
            arc = float(arc)
            tracker.trajectory.append(
                TrajectoryPoint(
                    t=float(t),
                    arc_length=arc,
                    point=route.point_at(arc),
                    method=method,
                )
            )
        session.extractor.mark_emitted(data["emitted"])
        session.reports_seen = int(data["reports_seen"])
        last_t = data["last_report_t"]
        session.last_report_t = None if last_t is None else float(last_t)
        return session

"""Extracting segment travel times from estimated trajectories.

Scans happen every ~10 s, so a bus usually crosses an intersection
*between* two scans.  Section V.A.3 (Fig. 5) interpolates: with position A
at the last scan before the boundary and B at the first scan after it,
and assuming steady speed between them, the crossing time is

``t(A) + t(A, B) * d(A, boundary) / d(A, B)``.

On the route's arc-length axis that is exactly linear interpolation, which
:meth:`Trajectory.time_at_arc` implements.  This module walks a trajectory
over its route's segment boundaries and emits completed
:class:`TravelTimeRecord` entries; the incremental variant feeds the live
server as new scans arrive.
"""

from __future__ import annotations

from repro.core.arrival.history import TravelTimeRecord
from repro.core.positioning.trajectory import Trajectory


def extract_traversals(
    trajectory: Trajectory,
    *,
    min_travel_time_s: float = 1.0,
    end_tolerance_m: float = 20.0,
) -> list[TravelTimeRecord]:
    """All fully-observed segment traversals in a trajectory.

    A segment counts when the trajectory crosses both its start and end
    boundary; degenerate crossings (shorter than ``min_travel_time_s``,
    which cannot be a real traversal) are dropped.  A trajectory that
    stops within ``end_tolerance_m`` of the route terminal (tile-midpoint
    estimates rarely land exactly on the last metre) counts as having
    reached it, so the final segment's traversal is not lost.
    """
    route = trajectory.route
    records: list[TravelTimeRecord] = []
    last = trajectory.last
    for segment_id, s0, s1 in route.segment_spans:
        t_enter = trajectory.time_at_arc(s0)
        t_exit = trajectory.time_at_arc(s1)
        if (
            t_exit is None
            and s1 >= route.length - 1e-6
            and last is not None
            and last.arc_length >= s1 - end_tolerance_m
        ):
            t_exit = last.t
        if t_enter is None or t_exit is None:
            continue
        if t_exit - t_enter < min_travel_time_s:
            continue
        records.append(
            TravelTimeRecord(
                route_id=route.route_id,
                segment_id=segment_id,
                t_enter=t_enter,
                t_exit=t_exit,
            )
        )
    return records


class IncrementalExtractor:
    """Streams completed traversals as the trajectory grows.

    The server calls :meth:`poll` after every tracker update; each
    boundary newly crossed by the track yields the records completed by
    that crossing, exactly once.
    """

    def __init__(self, trajectory: Trajectory) -> None:
        self._trajectory = trajectory
        self._emitted: set[str] = set()

    @property
    def emitted_segments(self) -> frozenset[str]:
        """Segments already reported (or skipped as degenerate) by :meth:`poll`."""
        return frozenset(self._emitted)

    def mark_emitted(self, segment_ids) -> None:
        """Restore emission state from a checkpoint: never re-emit these."""
        self._emitted.update(segment_ids)

    def poll(self, *, min_travel_time_s: float = 1.0) -> list[TravelTimeRecord]:
        """Newly completed traversals since the last call."""
        last = self._trajectory.last
        if last is None:
            return []
        out: list[TravelTimeRecord] = []
        route = self._trajectory.route
        for segment_id, s0, s1 in route.segment_spans:
            if segment_id in self._emitted or last.arc_length < s1:
                continue
            t_enter = self._trajectory.time_at_arc(s0)
            t_exit = self._trajectory.time_at_arc(s1)
            if t_enter is None or t_exit is None:
                continue
            self._emitted.add(segment_id)
            if t_exit - t_enter < min_travel_time_s:
                continue
            out.append(
                TravelTimeRecord(
                    route_id=route.route_id,
                    segment_id=segment_id,
                    t_enter=t_enter,
                    t_exit=t_exit,
                )
            )
        return out

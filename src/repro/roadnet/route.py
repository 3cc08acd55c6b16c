"""Bus routes and stops (Definition 4)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.geometry import Point, Polyline
from repro.roadnet.network import RoadNetwork, RoadNetworkError
from repro.roadnet.segment import RoadSegment


@dataclass(frozen=True, slots=True)
class BusStop:
    """A bus stop pinned to a road segment.

    Attributes
    ----------
    stop_id:
        Unique id within the route.
    segment_id:
        The road segment the stop lies on.
    offset:
        Arc length from the segment's start to the stop, in metres.
    name:
        Optional human-readable name.
    """

    stop_id: str
    segment_id: str
    offset: float
    name: str = ""


@dataclass(frozen=True, slots=True)
class RoutePosition:
    """A position expressed in route coordinates.

    ``arc_length`` is measured along the whole route polyline;
    ``segment_id``/``segment_offset`` give the same position in segment
    coordinates.  Both views are needed: positioning works in route arc
    length (mobility constraint) while travel-time bookkeeping is per
    segment.
    """

    arc_length: float
    segment_id: str
    segment_offset: float

    def point_on(self, route: "BusRoute") -> Point:
        return route.polyline.point_at(self.arc_length)


class BusRoute:
    """A sequence of connected directed road segments with stops.

    Parameters
    ----------
    route_id:
        e.g. ``"9"`` or ``"rapid"``.
    network:
        The road network the route runs on.
    segment_ids:
        Ordered segment ids; must satisfy ``e_i.end == e_{i+1}.start``.
    stops:
        Ordered stops; each must lie on one of the route's segments, and
        their route arc lengths must be non-decreasing.  The first and last
        stop are the start and final stop of Definition 4.
    """

    def __init__(
        self,
        route_id: str,
        network: RoadNetwork,
        segment_ids: Sequence[str],
        stops: Sequence[BusStop],
    ) -> None:
        network.validate_chain(segment_ids)
        self.route_id = route_id
        self.network = network
        self.segment_ids: tuple[str, ...] = tuple(segment_ids)
        self._segment_index = {sid: i for i, sid in enumerate(self.segment_ids)}
        if len(self._segment_index) != len(self.segment_ids):
            raise RoadNetworkError(
                f"route {route_id!r} visits a segment twice; unsupported"
            )

        self._segments: list[RoadSegment] = [
            network.segment(sid) for sid in self.segment_ids
        ]
        self.polyline: Polyline = Polyline.concatenate(
            [seg.polyline for seg in self._segments]
        )
        # Arc length of each segment's start within the route polyline,
        # and each segment's (id, start arc, end arc) span in route order.
        self._segment_start_arc: dict[str, float] = {}
        spans: list[tuple[str, float, float]] = []
        acc = 0.0
        for seg in self._segments:
            self._segment_start_arc[seg.segment_id] = acc
            spans.append((seg.segment_id, acc, acc + seg.length))
            acc += seg.length
        self.segment_spans: tuple[tuple[str, float, float], ...] = tuple(spans)

        if len(stops) < 2:
            raise RoadNetworkError(f"route {route_id!r} needs at least two stops")
        self.stops: tuple[BusStop, ...] = tuple(stops)
        prev = -1.0
        for stop in self.stops:
            if stop.segment_id not in self._segment_index:
                raise RoadNetworkError(
                    f"stop {stop.stop_id!r} is not on route {route_id!r}"
                )
            seg = network.segment(stop.segment_id)
            if not 0.0 <= stop.offset <= seg.length + 1e-6:
                raise RoadNetworkError(
                    f"stop {stop.stop_id!r} offset {stop.offset} outside "
                    f"segment {stop.segment_id!r} (length {seg.length:.1f})"
                )
            arc = self.stop_arc_length(stop)
            if arc < prev - 1e-6:
                raise RoadNetworkError(
                    f"stops of route {route_id!r} are not ordered along the route"
                )
            prev = arc

    # -- geometry ---------------------------------------------------------

    @property
    def length(self) -> float:
        """Total route length in metres."""
        return self.polyline.length

    @property
    def segments(self) -> list[RoadSegment]:
        return list(self._segments)

    @property
    def num_stops(self) -> int:
        return len(self.stops)

    def segment_start_arc(self, segment_id: str) -> float:
        """Route arc length at which the given segment starts."""
        try:
            return self._segment_start_arc[segment_id]
        except KeyError:
            raise RoadNetworkError(
                f"segment {segment_id!r} is not on route {self.route_id!r}"
            ) from None

    def segment_index(self, segment_id: str) -> int:
        """Position of the segment within the route (0-based)."""
        try:
            return self._segment_index[segment_id]
        except KeyError:
            raise RoadNetworkError(
                f"segment {segment_id!r} is not on route {self.route_id!r}"
            ) from None

    def contains_segment(self, segment_id: str) -> bool:
        return segment_id in self._segment_index

    def stop_arc_length(self, stop: BusStop) -> float:
        """Route arc length of a stop."""
        return self.segment_start_arc(stop.segment_id) + stop.offset

    def stop_arc_lengths(self) -> list[float]:
        """Route arc lengths of all stops, in order."""
        return [self.stop_arc_length(s) for s in self.stops]

    def position_at(self, arc_length: float) -> RoutePosition:
        """Convert a route arc length into a :class:`RoutePosition`.

        Out-of-range arc lengths are clamped to the route ends.  A position
        exactly on a segment boundary belongs to the *later* segment (the
        bus has entered it), except at the very end of the route.
        """
        s = min(max(arc_length, 0.0), self.length)
        for seg in self._segments:
            start = self._segment_start_arc[seg.segment_id]
            if s < start + seg.length or seg is self._segments[-1]:
                return RoutePosition(
                    arc_length=s,
                    segment_id=seg.segment_id,
                    segment_offset=min(s - start, seg.length),
                )
        raise AssertionError("unreachable")  # pragma: no cover

    def point_at(self, arc_length: float) -> Point:
        """Planar point at the given route arc length."""
        return self.polyline.point_at(arc_length)

    def segments_between(self, s0: float, s1: float) -> list[str]:
        """Ids of segments whose span intersects the arc interval [s0, s1)."""
        if s1 < s0:
            raise ValueError("s1 must be >= s0")
        out = []
        for seg in self._segments:
            start = self._segment_start_arc[seg.segment_id]
            end = start + seg.length
            if end > s0 and start < s1:
                out.append(seg.segment_id)
        return out

    def stops_after(self, arc_length: float) -> list[BusStop]:
        """Stops strictly ahead of the given route arc length, in order."""
        return [s for s in self.stops if self.stop_arc_length(s) > arc_length + 1e-9]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"BusRoute({self.route_id!r}, {len(self.segment_ids)} segments, "
            f"{self.num_stops} stops, {self.length / 1000:.1f} km)"
        )

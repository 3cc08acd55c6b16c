"""Pre-index reference query implementations (parity + perf baselines).

These functions replicate, line for line, how the seed ``RiderAPI`` and
``WiLocatorServer`` answered queries *before* the
:class:`~repro.roadnet.index.RouteIndex` fast path landed: linear scans
over ``routes x stops`` for stop resolution, a full walk over every
session ever opened for activity checks, and per-call
``stop_arc_length`` recomputation.

They exist for two reasons:

* **parity tests** assert that the indexed implementations return
  identical results on seeded scenarios;
* **perf benchmarks** compare route/stop-traversal counts: every route,
  stop and session these functions examine increments a
  :class:`TraversalCounter`, and the indexed path counts the same units
  in the ``query.traversals`` server metric.

They live under ``tests/`` because no production path may call them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.server.api import DepartureEntry, TripOption
from repro.core.server.server import WiLocatorServer
from repro.core.server.session import BusSession
from repro.geometry import LocalProjection
from repro.roadnet.route import BusRoute, BusStop


@dataclass
class TraversalCounter:
    """Work units touched by a linear-scan query."""

    routes: int = 0
    stops: int = 0
    sessions: int = 0

    @property
    def total(self) -> int:
        return self.routes + self.stops + self.sessions


def linear_stops_named(
    server: WiLocatorServer, stop_id: str, counter: TraversalCounter
) -> list[tuple[BusRoute, BusStop]]:
    """Seed ``RiderAPI.stops_named``: scan every stop of every route."""
    out: list[tuple[BusRoute, BusStop]] = []
    for route in server.routes.values():
        counter.routes += 1
        for stop in route.stops:
            counter.stops += 1
            if stop.stop_id == stop_id:
                out.append((route, stop))
    return out


def linear_active_sessions(
    server: WiLocatorServer,
    now: float,
    counter: TraversalCounter,
    *,
    timeout_s: float = 300.0,
) -> list[BusSession]:
    """Seed ``WiLocatorServer.active_sessions``: walk the full table."""
    counter.sessions += len(server.sessions)
    return [
        s
        for s in server.sessions.values()
        if not s.is_stale(now, timeout_s=timeout_s)
    ]


def linear_departures(
    server: WiLocatorServer,
    stop_id: str,
    now: float,
    *,
    max_entries: int = 10,
    counter: TraversalCounter | None = None,
) -> list[DepartureEntry]:
    """The seed departures board, traversal-counted."""
    counter = counter if counter is not None else TraversalCounter()
    targets = linear_stops_named(server, stop_id, counter)
    if not targets:
        raise KeyError(f"no stop {stop_id!r} on any route")
    entries: list[DepartureEntry] = []
    for session in linear_active_sessions(server, now, counter):
        route = server.routes[session.route_id]
        counter.stops += len(targets)  # the per-session `next(...)` scan
        match = next(
            (stop for r, stop in targets if r.route_id == route.route_id),
            None,
        )
        last = session.trajectory.last
        if match is None or last is None:
            continue
        stop_arc = route.stop_arc_length(match)
        if stop_arc <= last.arc_length:
            continue  # already passed
        pred = server.predictor.predict_arrival(
            route, last.arc_length, last.t, match
        )
        if pred is None:
            continue
        entries.append(
            DepartureEntry(
                route_id=route.route_id,
                session_key=session.session_key,
                stop_id=stop_id,
                eta_t=pred.t_arrival,
                eta_in_s=pred.t_arrival - now,
                distance_away_m=stop_arc - last.arc_length,
            )
        )
    entries.sort(key=lambda e: (e.eta_t, e.route_id, e.session_key))
    return entries[:max_entries]


def linear_plan_trip(
    server: WiLocatorServer,
    from_stop_id: str,
    to_stop_id: str,
    now: float,
    *,
    counter: TraversalCounter | None = None,
) -> list[TripOption]:
    """The seed trip planner: per-route stop scans and, inside the route
    loop, a fresh full-table active-session scan — the seed's exact
    (quadratic) shape."""
    counter = counter if counter is not None else TraversalCounter()
    options: list[TripOption] = []
    for route in server.routes.values():
        counter.routes += 1
        counter.stops += 2 * len(route.stops)  # the two `next(...)` scans
        board = next(
            (s for s in route.stops if s.stop_id == from_stop_id), None
        )
        alight = next(
            (s for s in route.stops if s.stop_id == to_stop_id), None
        )
        if board is None or alight is None:
            continue
        if route.stop_arc_length(alight) <= route.stop_arc_length(board):
            continue
        for session in linear_active_sessions(server, now, counter):
            if session.route_id != route.route_id:
                continue
            last = session.trajectory.last
            if last is None:
                continue
            if route.stop_arc_length(board) <= last.arc_length:
                continue
            p_board = server.predictor.predict_arrival(
                route, last.arc_length, last.t, board
            )
            p_alight = server.predictor.predict_arrival(
                route, last.arc_length, last.t, alight
            )
            if p_board is None or p_alight is None:
                continue
            options.append(
                TripOption(
                    route_id=route.route_id,
                    session_key=session.session_key,
                    board_stop_id=from_stop_id,
                    alight_stop_id=to_stop_id,
                    board_t=p_board.t_arrival,
                    alight_t=p_alight.t_arrival,
                )
            )
    options.sort(
        key=lambda o: (o.alight_t, o.board_t, o.route_id, o.session_key)
    )
    return options


def linear_live_positions(
    server: WiLocatorServer,
    now: float,
    *,
    projection: LocalProjection | None = None,
    counter: TraversalCounter | None = None,
) -> dict[str, tuple[float, float, float] | tuple[float, float]]:
    """The seed live-positions map (heterogeneous tuples)."""
    counter = counter if counter is not None else TraversalCounter()
    out: dict[str, tuple] = {}
    for session in linear_active_sessions(server, now, counter):
        last = session.trajectory.last
        if last is None:
            continue
        if projection is not None:
            out[session.session_key] = last.as_geo(projection)
        else:
            out[session.session_key] = (last.point.x, last.point.y)
    return out

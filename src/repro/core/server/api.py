"""Rider-facing query API (WiLocator's third component).

Section II: "a user interface for trip plan, such that the real-time bus
track and schedule, and the traffic map, can be readily available for
intended bus riders."  :class:`RiderAPI` answers the questions a rider
app would ask the server:

* *departures board* — the next buses arriving at a stop, across every
  route serving it, with live ETAs;
* *trip plan* — ride options between two stops (same-route direct rides,
  ranked by predicted arrival at the destination);
* *where is my bus* — the live position of a tracked bus as a typed
  :class:`LivePosition` (planar and, with a projection, geographic).

Design rules of the redesigned surface:

* every query takes its clock as a keyword-only ``now`` argument;
* unknown stops raise :class:`UnknownStopError` uniformly (a
  :class:`KeyError` subclass — the seed raised bare ``KeyError`` from
  ``departures`` but silently returned ``[]`` from ``plan_trip``);
* results are frozen dataclasses, never bare tuples of varying arity
  (the seed's heterogeneous-tuple view — and the ``LivePosition.as_tuple``
  escape hatch that briefly survived it — are gone; the wire codec in
  :mod:`repro.serving.wire` is the one serialisation surface);
* result lists sort deterministically — ties on the primary key (ETA,
  alighting time) break by route id then session key, so a sharded
  deployment's merged answers are byte-identical to a single node's;
* all lookups route through the server's
  :class:`~repro.roadnet.index.RouteIndex` instead of scanning
  ``routes x stops`` and the full session table, and each call is
  recorded in the server's ``query`` latency histogram.

Read-path reuse: between two queries almost every bus is where it was,
so a query pays only for the buses whose inputs changed.
:meth:`RiderAPI.live_positions` keeps a bus's :class:`LivePosition` while
its last fix is the same object.  Departures and trip plans keep an
:class:`ArrivalPrediction` while the bus's fix, the server's predictor,
its live and history stores (by identity) and the record counts of every
segment from the bus to the stop are unchanged: the stores only grow, so
a segment's count is its version, and a traversal of any route on a
shared segment (Eq. 8 residuals are cross-route) invalidates exactly the
predictions that read it.  Each memo holds only the buses its last pass
visited, so it follows the active fleet.  ``predict.calls`` counts real
evaluations, ``predict.reused`` the answers served from the memo.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.arrival.predictor import ArrivalPrediction
from repro.core.positioning.trajectory import TrajectoryPoint
from repro.core.server.server import WiLocatorServer
from repro.geometry import LocalProjection
from repro.roadnet.index import IndexedStop, UnknownStopError
from repro.roadnet.route import BusRoute, BusStop

__all__ = [
    "DepartureEntry",
    "TripOption",
    "LivePosition",
    "RiderAPI",
    "UnknownStopError",
]


@dataclass(frozen=True, slots=True)
class DepartureEntry:
    """One row of a stop's departures board."""

    route_id: str
    session_key: str
    stop_id: str
    eta_t: float
    eta_in_s: float
    distance_away_m: float


@dataclass(frozen=True, slots=True)
class TripOption:
    """One direct ride option between two stops."""

    route_id: str
    session_key: str
    board_stop_id: str
    alight_stop_id: str
    board_t: float
    alight_t: float

    @property
    def ride_time_s(self) -> float:
        return self.alight_t - self.board_t


@dataclass(frozen=True, slots=True)
class LivePosition:
    """The current position of one tracked bus.

    Attributes
    ----------
    session_key:
        The bus's server session.
    route_id:
        The route the bus runs.
    x, y:
        Planar position in metres (always present).
    lat, lon:
        Geographic position; ``None`` unless the API was built with a
        :class:`LocalProjection`.
    t:
        Timestamp of the underlying position fix.
    """

    session_key: str
    route_id: str
    x: float
    y: float
    lat: float | None
    lon: float | None
    t: float


def _count(metrics, name: str, n: int) -> None:
    """Add ``n`` to a counter once per pass instead of once per bus (a
    zero adds nothing, so no counter appears before its first unit)."""
    if n:
        metrics.incr(name, n)


@dataclass(slots=True)
class _BusArrivals:
    """One bus's predictions from one position fix, by stop id.

    ``first`` is the route index of the segment the fix lies on.  Each
    prediction is kept with the route index of its stop's segment and the
    record count of the segments between (the prediction's version).
    """

    fix: TrajectoryPoint
    first: int
    by_stop: dict[str, tuple[ArrivalPrediction | None, int, int]]


class _RoutePass:
    """One query's visit to one route's buses, reusing the last visit's
    predictions and remembering only the buses this visit saw."""

    def __init__(
        self,
        server: WiLocatorServer,
        route: BusRoute,
        previous: dict[str, _BusArrivals],
    ) -> None:
        self.server = server
        self.route = route
        self.previous = previous
        self.visited: dict[str, _BusArrivals] = {}
        self.reused = 0
        self._prefix: list[int] | None = None

    def _segment_of(self, arc: float) -> int:
        route = self.route
        return route.segment_index(route.position_at(arc).segment_id)

    def _counts(self) -> list[int]:
        """``prefix[i]``: live + history records on the first ``i``
        segments.  Counts only grow, so a range sum is unchanged exactly
        when every count in the range is."""
        if self._prefix is None:
            predictor = self.server.predictor
            live, history = predictor.live, predictor.history
            prefix = [0]
            for sid in self.route.segment_ids:
                prefix.append(prefix[-1] + live.count(sid) + history.count(sid))
            self._prefix = prefix
        return self._prefix

    def bus(self, session_key: str, fix: TrajectoryPoint) -> _BusArrivals:
        memo = self.previous.get(session_key)
        if memo is None or memo.fix is not fix:
            memo = _BusArrivals(fix, self._segment_of(fix.arc_length), {})
        self.visited[session_key] = memo
        return memo

    def predict(
        self, memo: _BusArrivals, entry: IndexedStop
    ) -> ArrivalPrediction | None:
        prefix = self._counts()
        cached = memo.by_stop.get(entry.stop.stop_id)
        if cached is not None:
            pred, last, version = cached
            if prefix[last + 1] - prefix[memo.first] == version:
                self.reused += 1
                return pred
        else:
            last = self._segment_of(entry.arc_length)
        fix = memo.fix
        pred = self.server.timed_predict_arrival(
            self.route, fix.arc_length, fix.t, entry.stop
        )
        memo.by_stop[entry.stop.stop_id] = (
            pred,
            last,
            prefix[last + 1] - prefix[memo.first],
        )
        return pred


class RiderAPI:
    """Trip-plan queries over a running :class:`WiLocatorServer`."""

    def __init__(
        self,
        server: WiLocatorServer,
        *,
        projection: LocalProjection | None = None,
    ) -> None:
        self.server = server
        self.projection = projection
        # Read-path memos (see the module docstring).  Positions: session
        # key -> (fix, record) of the last pass, and the projection they
        # were built with.  Arrivals: route id -> (route, buses of its
        # last pass), valid for one (predictor, live, history) triple.
        self._positions: dict[str, tuple[TrajectoryPoint, LivePosition]] = {}
        self._positions_projection = projection
        self._arrivals: dict[str, tuple[BusRoute, dict[str, _BusArrivals]]] = {}
        self._arrival_inputs: tuple[object, ...] = (None, None, None)

    @property
    def index(self):
        return self.server.index

    # -- stop resolution -----------------------------------------------------

    def stops_named(self, stop_id: str) -> list[tuple[BusRoute, BusStop]]:
        """All (route, stop) pairs with the given stop id (indexed)."""
        return [
            (entry.route, entry.stop) for entry in self.index.stops_named(stop_id)
        ]

    def stops_of_route(self, route_id: str) -> list[BusStop]:
        return list(self.server.routes[route_id].stops)

    def _route_pass(self, route: BusRoute) -> _RoutePass:
        """Start a visit to one route's buses (see :class:`_RoutePass`)."""
        predictor = self.server.predictor
        inputs = (predictor, predictor.live, predictor.history)
        if any(a is not b for a, b in zip(inputs, self._arrival_inputs)):
            # Promotion, rollback, restore or reshard swapped a model or a
            # store: nothing remembered was computed from these inputs.
            self._arrivals = {}
            self._arrival_inputs = inputs
        owner, previous = self._arrivals.get(route.route_id, (route, {}))
        visit = _RoutePass(self.server, route, previous if owner is route else {})
        self._arrivals[route.route_id] = (route, visit.visited)
        return visit

    # -- departures board ------------------------------------------------------

    def departures(
        self, stop_id: str, *, now: float, max_entries: int = 10
    ) -> list[DepartureEntry]:
        """The next buses predicted to arrive at a stop, soonest first.

        Considers every active session whose route serves the stop and
        whose bus has not passed it yet.  Raises
        :class:`UnknownStopError` when no route serves ``stop_id``.
        """
        metrics = self.server.metrics
        t0 = time.perf_counter()
        metrics.incr("query.departures")
        try:
            targets = self.index.require_stop(stop_id)
            entries: list[DepartureEntry] = []
            seen_routes: set[str] = set()
            for entry in targets:
                route_id = entry.route.route_id
                if route_id in seen_routes:
                    continue  # duplicate stop id on one route: first wins
                seen_routes.add(route_id)
                metrics.incr("query.traversals")
                entries.extend(
                    self._departures_on_route(entry, stop_id, now, metrics)
                )
            entries.sort(key=lambda e: (e.eta_t, e.route_id, e.session_key))
            return entries[:max_entries]
        finally:
            metrics.observe("query", time.perf_counter() - t0)

    def _departures_on_route(
        self, entry: IndexedStop, stop_id: str, now: float, metrics
    ) -> list[DepartureEntry]:
        out: list[DepartureEntry] = []
        visit = self._route_pass(entry.route)
        sessions = self.server.sessions_on_route(entry.route.route_id, now=now)
        _count(metrics, "query.traversals", len(sessions))
        for session in sessions:
            last = session.trajectory.last
            if last is None:
                continue
            bus = visit.bus(session.session_key, last)
            if entry.arc_length <= last.arc_length:
                continue  # already passed
            pred = visit.predict(bus, entry)
            if pred is None:
                continue
            out.append(
                DepartureEntry(
                    route_id=entry.route.route_id,
                    session_key=session.session_key,
                    stop_id=stop_id,
                    eta_t=pred.t_arrival,
                    eta_in_s=pred.t_arrival - now,
                    distance_away_m=entry.arc_length - last.arc_length,
                )
            )
        _count(metrics, "predict.reused", visit.reused)
        return out

    # -- trip planning -----------------------------------------------------------

    def plan_trip(
        self, from_stop_id: str, to_stop_id: str, *, now: float
    ) -> list[TripOption]:
        """Direct (single-ride) options from one stop to another.

        For every route serving both stops in order, and every active bus
        of that route not yet past the boarding stop, predicts boarding
        and alighting times; options come back sorted by arrival.  Raises
        :class:`UnknownStopError` when either stop id is served by no
        route at all (the seed silently returned ``[]``).
        """
        metrics = self.server.metrics
        t0 = time.perf_counter()
        metrics.incr("query.plan_trip")
        try:
            board_entries = self.index.require_stop(from_stop_id)
            self.index.require_stop(to_stop_id)
            options: list[TripOption] = []
            seen_routes: set[str] = set()
            for board in board_entries:
                route_id = board.route.route_id
                if route_id in seen_routes:
                    continue
                seen_routes.add(route_id)
                metrics.incr("query.traversals")
                try:
                    alight = self.index.stop_on_route(route_id, to_stop_id)
                except UnknownStopError:
                    continue  # route serves only the boarding stop
                if alight.arc_length <= board.arc_length:
                    continue  # wrong direction on this route
                options.extend(
                    self._trip_options_on_route(board, alight, now, metrics)
                )
            options.sort(
                key=lambda o: (o.alight_t, o.board_t, o.route_id, o.session_key)
            )
            return options
        finally:
            metrics.observe("query", time.perf_counter() - t0)

    def _trip_options_on_route(
        self, board: IndexedStop, alight: IndexedStop, now: float, metrics
    ) -> list[TripOption]:
        out: list[TripOption] = []
        route = board.route
        visit = self._route_pass(route)
        sessions = self.server.sessions_on_route(route.route_id, now=now)
        _count(metrics, "query.traversals", len(sessions))
        for session in sessions:
            last = session.trajectory.last
            if last is None:
                continue
            bus = visit.bus(session.session_key, last)
            if board.arc_length <= last.arc_length:
                continue
            p_board = visit.predict(bus, board)
            p_alight = visit.predict(bus, alight)
            if p_board is None or p_alight is None:
                continue
            out.append(
                TripOption(
                    route_id=route.route_id,
                    session_key=session.session_key,
                    board_stop_id=board.stop.stop_id,
                    alight_stop_id=alight.stop.stop_id,
                    board_t=p_board.t_arrival,
                    alight_t=p_alight.t_arrival,
                )
            )
        _count(metrics, "predict.reused", visit.reused)
        return out

    # -- live map -----------------------------------------------------------------

    def live_positions(self, *, now: float) -> dict[str, LivePosition]:
        """Current position of every active bus, as typed records.

        ``lat``/``lon`` are filled when the API has a projection,
        otherwise ``None``; planar ``x``/``y`` are always present.
        """
        metrics = self.server.metrics
        t0 = time.perf_counter()
        metrics.incr("query.live_positions")
        try:
            if self.projection is not self._positions_projection:
                self._positions = {}
                self._positions_projection = self.projection
            previous = self._positions
            visited: dict[str, tuple[TrajectoryPoint, LivePosition]] = {}
            out: dict[str, LivePosition] = {}
            sessions = self.server.active_sessions(now=now)
            _count(metrics, "query.traversals", len(sessions))
            for session in sessions:
                last = session.trajectory.last
                if last is None:
                    continue
                key = session.session_key
                known = previous.get(key)
                if known is None or known[0] is not last:
                    known = (last, self._live_position(session, last))
                visited[key] = known
                out[key] = known[1]
            self._positions = visited
            return out
        finally:
            metrics.observe("query", time.perf_counter() - t0)

    def _live_position(self, session, last: TrajectoryPoint) -> LivePosition:
        lat = lon = None
        if self.projection is not None:
            lat, lon, _ = last.as_geo(self.projection)
        return LivePosition(
            session_key=session.session_key,
            route_id=session.route_id,
            x=last.point.x,
            y=last.point.y,
            lat=lat,
            lon=lon,
            t=last.t,
        )

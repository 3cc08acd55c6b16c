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

The rider board: each :class:`RiderAPI` answers from a board of per-bus
rows that it folds on the query, so a query pays for the buses changed
since the previous query, the buses that crossed the activity boundary,
and the output it returns — never for the whole active fleet.

* *Position rows* (:class:`PositionRow`) hold the buses active at the
  board's ``now`` that have a fix, in session-key order.  Ingest marks a
  session dirty in the index's change feed (it moves to the end of one
  dict in :meth:`~repro.roadnet.index.RouteIndex.note_report`); the fold
  rebuilds the row only when the bus's last fix is a new object.  A
  route joins the board on the first query that asks about it.
* *Moving ``now``*: activity ``now - t <= timeout_s`` is monotone in
  ``now``.  A later ``now`` answers a subset — the rows whose sessions
  the index parked in between, found by bisecting its time-sorted
  expired list — and an earlier ``now`` a superset, the parked sessions
  active again at it.  Both use the session predicate itself, so the
  ulp boundary of ``BusSession.is_stale`` holds.
* *Prediction rows*: per (route, stop) riders asked about, one row per
  active bus not yet past the stop, kept sorted by ETA.  A row is
  recomputed only when the bus's fix or its activity changed, when a
  segment between the bus and the stop gained a record (its
  :meth:`~repro.core.arrival.history.TravelTimeStore.version` moved —
  Eq. 8 residuals are cross-route), or when the predictor or one of its
  stores is a new object.  Departures and trip plans share these rows.
* A new :class:`~repro.roadnet.index.RouteIndex` (restore, reshard)
  rebuilds the board.  A position row's ``lat``/``lon`` depend only on
  its fix, so the API's projection is applied as the row is built.

Memory follows the active fleet times the stops riders ask about: a bus
leaving the board leaves every prediction row of its route at once, and
a stop's pending marks name only buses still on the board, so a stop
asked about once holds no more than its route's active buses.
``predict.calls`` counts real evaluations, ``predict.reused`` the
predictions answers read from the board without one, and
``query.traversals`` the routes visited plus the rows folded.
"""

from __future__ import annotations

import bisect
import time
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import Iterable, Iterator, Mapping

from repro.core.arrival.predictor import ArrivalPrediction
from repro.core.positioning.trajectory import TrajectoryPoint
from repro.core.server.server import WiLocatorServer
from repro.geometry import LocalProjection
from repro.roadnet.index import IndexedStop, UnknownStopError
from repro.roadnet.route import BusRoute, BusStop

__all__ = [
    "DEPARTURE_ORDER",
    "TRIP_ORDER",
    "DepartureEntry",
    "TripOption",
    "LivePosition",
    "LivePositions",
    "PositionRow",
    "RiderAPI",
    "UnknownStopError",
    "check_query",
]

#: The activity window of rider queries (the index's default).
_TIMEOUT_S = 300.0


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


@dataclass(slots=True)
class PositionRow:
    """One bus on the live map.

    ``wire`` is an opaque slot for the serving layer's encoding of the
    row; a row is never mutated otherwise, and a new fix makes a new row.
    """

    key: str
    position: LivePosition
    fix: TrajectoryPoint | None = None
    wire: str | None = None


_KEY = attrgetter("key")

#: The merge orders of the rider answers, shared by :class:`RiderAPI`
#: and the cluster router so a sharded board sorts as a single node's:
#: departures by ETA, trip options by arrival then boarding, ties by
#: route id then session key.
DEPARTURE_ORDER = attrgetter("eta_t", "route_id", "session_key")
TRIP_ORDER = attrgetter("alight_t", "board_t", "route_id", "session_key")


class LivePositions(Mapping[str, LivePosition]):
    """A read-only snapshot of the live map: session key -> position.

    ``rows`` are its :class:`PositionRow` objects in session-key order.
    """

    __slots__ = ("rows", "_map")

    def __init__(self, rows: list[PositionRow]) -> None:
        self.rows = rows
        self._map: dict[str, LivePosition] | None = None

    @classmethod
    def of(cls, positions: Mapping[str, LivePosition]) -> LivePositions:
        """``positions`` as a snapshot (a snapshot is returned as is)."""
        if isinstance(positions, cls):
            return positions
        return cls([PositionRow(k, positions[k]) for k in sorted(positions)])

    @classmethod
    def merge(cls, parts: Iterable[LivePositions]) -> LivePositions:
        """One snapshot of several boards (a cluster's shards); a key on
        several boards keeps the last one's row, as ``dict.update``."""
        parts = list(parts)
        # Each part is sorted, and sorting runs is a merge.
        rows = sorted(chain.from_iterable(p.rows for p in parts), key=_KEY)
        if len(set(map(_KEY, rows))) != len(rows):
            rows = list({row.key: row for row in rows}.values())
        return cls(rows)

    def _positions(self) -> dict[str, LivePosition]:
        if self._map is None:
            self._map = {row.key: row.position for row in self.rows}
        return self._map

    def __getitem__(self, key: str) -> LivePosition:
        return self._positions()[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._positions())

    def __len__(self) -> int:
        return len(self.rows)


def _live_position(
    session_key: str,
    route_id: str,
    fix: TrajectoryPoint,
    projection: LocalProjection | None,
) -> LivePosition:
    lat = lon = None
    if projection is not None:
        lat, lon, _ = fix.as_geo(projection)
    return LivePosition(
        session_key=session_key,
        route_id=route_id,
        x=fix.point.x,
        y=fix.point.y,
        lat=lat,
        lon=lon,
        t=fix.t,
    )


def check_query(now: float, max_entries: int = 0) -> None:
    """Reject a clock the board cannot order by, and a negative limit."""
    if now != now:
        raise ValueError("now must be a number, got nan")
    if max_entries < 0:
        raise ValueError(f"max_entries must be >= 0, got {max_entries}")


def _count(metrics, name: str, n: int) -> None:
    """Add ``n`` to a counter once per query instead of once per row (a
    zero adds nothing, so no counter appears before its first unit)."""
    if n:
        metrics.incr(name, n)


@dataclass(slots=True)
class _Arrival:
    """One bus's prediction for one stop, from one fix.  ``first`` is the
    route index of the fix's segment; ``made`` the query that evaluated
    the prediction."""

    fix: TrajectoryPoint
    first: int
    pred: ArrivalPrediction | None
    made: int


class _StopBoard:
    """One stop on one route: the predictions of the route's active buses
    not yet past it, soonest first."""

    def __init__(self, entry: IndexedStop, keys: Iterable[str]) -> None:
        route = entry.route
        self.entry = entry
        self.segment_ids = route.segment_ids[: _segment_of(route, entry.arc_length) + 1]
        #: Buses on the board whose row changed since the last fold.
        self.dirty: dict[str, None] = dict.fromkeys(keys)
        self.arrivals: dict[str, _Arrival] = {}
        #: route index of a fix's segment -> the buses there.
        self.by_first: dict[int, dict[str, None]] = {}
        #: (eta_t, session key) of every prediction that is not None.
        self.order: list[tuple[float, str]] = []
        self.versions: list[int] | None = None

    def fold(self, board: _Board) -> int:
        """Bring the rows up to date; returns the rows re-examined."""
        predictor = board.server.predictor
        live, history = predictor.live, predictor.history
        versions = [live.version(s) + history.version(s) for s in self.segment_ids]
        redo, self.dirty = self.dirty, {}
        stale: dict[str, None] = {}
        if self.versions is not None and versions != self.versions:
            # A bus reads every segment from its own up to the stop's, so
            # the buses at or behind the furthest changed one re-predict.
            ahead = max(
                i for i, (a, b) in enumerate(zip(versions, self.versions)) if a != b
            )
            for i in range(ahead + 1):
                stale.update(self.by_first.get(i, ()))
        self.versions = versions
        if not redo and not stale:
            return 0
        route = self.entry.route
        rows = board.by_route[route.route_id]
        arc = self.entry.arc_length
        for key in {**redo, **stale}:
            old = self.arrivals.pop(key, None)
            if old is not None:
                self._unlink(key, old)
            row = rows[key]
            if arc <= row.fix.arc_length:
                continue  # already passed the stop
            new = old
            if old is None or old.fix is not row.fix or key in stale:
                fix = row.fix
                new = _Arrival(
                    fix,
                    _segment_of(route, fix.arc_length),
                    board.server.timed_predict_arrival(
                        route, fix.arc_length, fix.t, self.entry.stop
                    ),
                    board.queries,
                )
            self._link(key, new)
        return len(redo) + len(stale)

    def forget(self, key: str) -> None:
        """Drop a bus that left the board."""
        self.dirty.pop(key, None)
        old = self.arrivals.pop(key, None)
        if old is not None:
            self._unlink(key, old)

    def _link(self, key: str, a: _Arrival) -> None:
        self.arrivals[key] = a
        self.by_first.setdefault(a.first, {})[key] = None
        if a.pred is not None:
            bisect.insort(self.order, (a.pred.t_arrival, key))

    def _unlink(self, key: str, a: _Arrival) -> None:
        del self.by_first[a.first][key]
        if a.pred is not None:
            order = self.order
            del order[bisect.bisect_left(order, (a.pred.t_arrival, key))]


def _segment_of(route: BusRoute, arc: float) -> int:
    return route.segment_index(route.position_at(arc).segment_id)


class _Board:
    """The rider board of one :class:`RiderAPI` over one route index (see
    the module docstring)."""

    def __init__(
        self, server: WiLocatorServer, projection: LocalProjection | None
    ) -> None:
        self.server = server
        self.index = server.index
        self.projection = projection
        self.mark = 0
        #: The board's clock; None until the first query builds it.
        self.now: float | None = None
        #: Active buses with a fix: session keys in order, their rows.
        self.keys: list[str] = []
        self.rows: list[PositionRow] = []
        self.by_route: dict[str, dict[str, PositionRow]] = {}
        self.stops: dict[tuple[str, str], _StopBoard] = {}
        self.stops_on: dict[str, list[_StopBoard]] = {}
        self.inputs: tuple[object, ...] = ()
        #: Queries answered so far (stamps each prediction's evaluation).
        self.queries = 0

    def advance(self, now: float) -> int:
        """Move the board to ``now``; returns the position rows folded."""
        self.queries += 1
        index = self.index
        if self.now is None:
            self.now = now
            self.mark = index.change_mark()
            return 0
        changed = index.changed_since(self.mark)
        self.mark = index.change_mark()
        folded = len(changed)
        for key in changed:
            self._put(key, now)
        # Every session inactive at the later of the two clocks is parked
        # afterwards, so the buses crossing the boundary between them are
        # one slice of the expired list.
        before = self.now
        index.evict(max(now, before), timeout_s=_TIMEOUT_S)
        if now > before:
            crossed = index.expired_between(before, now, timeout_s=_TIMEOUT_S)
        else:
            crossed = index.expired_between(now, before, timeout_s=_TIMEOUT_S)
        for key in crossed:
            self._put(key, now)
        self.now = now
        return folded + len(crossed)

    def open(self, route_ids: Iterable[str]) -> int:
        """Put the active buses of routes not on the board yet on it;
        returns the rows folded.  Routes join on their first query, so a
        query never pays for routes it does not ask about."""
        folded = 0
        for route_id in route_ids:
            if route_id in self.by_route:
                continue
            self.by_route[route_id] = {}
            keys = self.index.active_session_keys(
                self.now, timeout_s=_TIMEOUT_S, route_id=route_id
            )
            for key in keys:
                self._put(key, self.now)
            folded += len(keys)
        return folded

    def _put(self, key: str, now: float) -> None:
        """Place one bus as of ``now``: (re)build, keep or drop its row."""
        session = self.server.sessions.get(key)
        fix = None if session is None else session.trajectory.last
        if fix is not None and session.route_id not in self.by_route:
            return  # its route has not joined the board
        keys, rows = self.keys, self.rows
        i = bisect.bisect_left(keys, key)
        present = i < len(keys) and keys[i] == key
        if fix is None or now - session.last_report_t > _TIMEOUT_S:
            if not present:
                return
            route_id = rows[i].position.route_id
            del keys[i], rows[i]
            del self.by_route[route_id][key]
            for stop_board in self.stops_on.get(route_id, ()):
                stop_board.forget(key)
            return
        if present and rows[i].fix is fix:
            return
        route_id = session.route_id
        position = _live_position(key, route_id, fix, self.projection)
        row = PositionRow(key, position, fix)
        if present:
            rows[i] = row
        else:
            keys.insert(i, key)
            rows.insert(i, row)
        self.by_route[route_id][key] = row
        for stop_board in self.stops_on.get(route_id, ()):
            stop_board.dirty[key] = None

    def stop_board(self, entry: IndexedStop) -> tuple[_StopBoard, int]:
        """The folded board of one stop on one route, and the rows folded
        (the route's buses, if the route joins the board now)."""
        route_id = entry.route.route_id
        folded = self.open([route_id])
        predictor = self.server.predictor
        inputs = (predictor, predictor.live, predictor.history)
        if any(a is not b for a, b in zip(inputs, self.inputs)):
            # Promotion, rollback or a store swap: no prediction on the
            # board was computed from these inputs.
            self.stops = {}
            self.stops_on = {}
        self.inputs = inputs
        key = (route_id, entry.stop.stop_id)
        stop_board = self.stops.get(key)
        if stop_board is None:
            stop_board = self.stops[key] = _StopBoard(
                entry, self.by_route[route_id]
            )
            self.stops_on.setdefault(route_id, []).append(stop_board)
        return stop_board, folded + stop_board.fold(self)


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
        self._board: _Board | None = None

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

    def _board_at(self, now: float) -> _Board:
        """The board moved to ``now`` (rebuilt over a new route index or
        for a new projection)."""
        check_query(now)
        board = self._board
        if (
            board is None
            or board.index is not self.server.index
            or board.projection is not self.projection
        ):
            board = self._board = _Board(self.server, self.projection)
        _count(self.server.metrics, "query.traversals", board.advance(now))
        return board

    def _routes(self, entries: list[IndexedStop]) -> dict[str, IndexedStop]:
        """Route id -> its entry (a duplicate stop id on one route: the
        first wins), each route counted as a traversal."""
        seen: dict[str, IndexedStop] = {}
        for entry in entries:
            seen.setdefault(entry.route.route_id, entry)
        _count(self.server.metrics, "query.traversals", len(seen))
        return seen

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
            check_query(now, max_entries)
            targets = self._routes(self.index.require_stop(stop_id))
            board = self._board_at(now)
            # (eta, route, key): the fields of DEPARTURE_ORDER.
            heads: list[tuple[float, str, str]] = []
            folded = 0
            for route_id, entry in targets.items():
                stop_board, n = board.stop_board(entry)
                folded += n
                heads.extend(
                    (eta, route_id, key)
                    for eta, key in stop_board.order[:max_entries]
                )
            heads.sort()
            out: list[DepartureEntry] = []
            reused = 0
            for eta, route_id, key in heads[:max_entries]:
                entry = targets[route_id]
                arrival = board.stops[route_id, stop_id].arrivals[key]
                reused += arrival.made != board.queries
                out.append(
                    DepartureEntry(
                        route_id=route_id,
                        session_key=key,
                        stop_id=stop_id,
                        eta_t=eta,
                        eta_in_s=eta - now,
                        distance_away_m=entry.arc_length - arrival.fix.arc_length,
                    )
                )
            _count(metrics, "query.traversals", folded)
            _count(metrics, "predict.reused", reused)
            return out
        finally:
            metrics.observe("query", time.perf_counter() - t0)

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
            board_entries = self._routes(self.index.require_stop(from_stop_id))
            self.index.require_stop(to_stop_id)
            board = self._board_at(now)
            options: list[TripOption] = []
            folded = reused = 0
            for route_id, entry in board_entries.items():
                try:
                    alight = self.index.stop_on_route(route_id, to_stop_id)
                except UnknownStopError:
                    continue  # route serves only the boarding stop
                if alight.arc_length <= entry.arc_length:
                    continue  # wrong direction on this route
                boarding, n = board.stop_board(entry)
                alighting, m = board.stop_board(alight)
                folded += n + m
                for board_t, key in boarding.order:
                    there = alighting.arrivals[key]
                    if there.pred is None:
                        continue
                    here = boarding.arrivals[key]
                    reused += (here.made != board.queries) + (there.made != board.queries)
                    options.append(
                        TripOption(
                            route_id=route_id,
                            session_key=key,
                            board_stop_id=entry.stop.stop_id,
                            alight_stop_id=alight.stop.stop_id,
                            board_t=board_t,
                            alight_t=there.pred.t_arrival,
                        )
                    )
            options.sort(key=TRIP_ORDER)
            _count(metrics, "query.traversals", folded)
            _count(metrics, "predict.reused", reused)
            return options
        finally:
            metrics.observe("query", time.perf_counter() - t0)

    # -- live map -----------------------------------------------------------------

    def live_positions(self, *, now: float) -> LivePositions:
        """Current position of every active bus, as typed records.

        ``lat``/``lon`` are filled when the API has a projection,
        otherwise ``None``; planar ``x``/``y`` are always present.
        """
        metrics = self.server.metrics
        t0 = time.perf_counter()
        metrics.incr("query.live_positions")
        try:
            board = self._board_at(now)
            _count(metrics, "query.traversals", board.open(self.server.routes))
            return LivePositions(list(board.rows))
        finally:
            metrics.observe("query", time.perf_counter() - t0)

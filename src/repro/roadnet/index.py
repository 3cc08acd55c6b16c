"""Indexed query structures over routes, stops and live sessions.

The seed implementation answered every rider query by linear scans:
``O(routes x stops)`` to resolve a stop id, a fresh ``stop_arc_length``
computation per candidate, and a walk over *every session ever opened* to
find the active ones.  :class:`RouteIndex` replaces those scans with three
precomputed layers:

* an inverted **stop index** — stop id -> ``[(route, stop, arc_length)]``
  with per-route arc-length tables, built once from the static route set;
* an **active-session heap** — a lazy min-heap on last-report time,
  maintained incrementally by
  :meth:`WiLocatorServer.ingest <repro.core.server.server.WiLocatorServer.ingest>`
  via :meth:`open_session`/:meth:`note_report`, so
  ``active_session_keys(now)`` touches only sessions near the staleness
  boundary instead of rescanning the whole session table;
* a **per-route active set** beside the global one, so
  ``active_session_keys(now, route_id=...)`` lists one route's active
  buses without visiting every session ever opened on it;
* a **change feed** — every report (and drop) moves its session to the
  end of a recency-ordered dict, so a reader that remembers a
  :meth:`change_mark` lists the sessions changed since in time
  proportional to their number (:meth:`changed_since`).  This is the
  dirty mark the rider board folds (:mod:`repro.core.server.api`).

Sessions evicted by the heap are parked in a time-sorted ``expired`` list;
queries with a *larger* timeout (or an earlier ``now``) resurrect them, so
the index answers exactly what the full scan would for any
``(now, timeout_s)`` combination.  "Active" is one predicate everywhere:
``now - last <= timeout_s`` (or no report yet), the test of
``BusSession.is_stale``; it is never rewritten as ``last >= now -
timeout_s``, which rounds differently at the boundary.
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass, field
from typing import Mapping

from repro.roadnet.route import BusRoute, BusStop


class UnknownStopError(KeyError):
    """A query referenced a stop id no indexed route serves.

    Subclasses :class:`KeyError` so callers written against the seed API
    (which raised bare ``KeyError`` from some query paths and silently
    returned empty results from others) keep working for one release.
    """


@dataclass(frozen=True, slots=True)
class IndexedStop:
    """One (route, stop) pair with its precomputed route arc length."""

    route: BusRoute
    stop: BusStop
    arc_length: float


@dataclass
class IndexStats:
    """Counters describing index size and incremental maintenance work."""

    routes_indexed: int = 0
    stop_entries: int = 0
    sessions_opened: int = 0
    sessions_dropped: int = 0
    reports_noted: int = 0
    heap_pushes: int = 0
    heap_pops: int = 0
    sessions_evicted: int = 0
    sessions_resurrected: int = 0

    def snapshot(self) -> dict[str, int]:
        return {
            "routes_indexed": self.routes_indexed,
            "stop_entries": self.stop_entries,
            "sessions_opened": self.sessions_opened,
            "sessions_dropped": self.sessions_dropped,
            "reports_noted": self.reports_noted,
            "heap_pushes": self.heap_pushes,
            "heap_pops": self.heap_pops,
            "sessions_evicted": self.sessions_evicted,
            "sessions_resurrected": self.sessions_resurrected,
        }


@dataclass
class _SessionLayer:
    """Mutable per-session bookkeeping (split out for readability)."""

    route_of: dict[str, str] = field(default_factory=dict)
    last_seen: dict[str, float] = field(default_factory=dict)
    seq: dict[str, int] = field(default_factory=dict)
    active: dict[str, None] = field(default_factory=dict)
    active_by_route: dict[str, dict[str, None]] = field(default_factory=dict)
    heap: list[tuple[float, str]] = field(default_factory=list)
    expired: list[tuple[float, str]] = field(default_factory=list)
    expired_keys: set[str] = field(default_factory=set)
    next_seq: int = 0
    #: session key -> change number of its last report or drop, oldest
    #: change first (a key moves to the end when it changes again).
    changed: dict[str, int] = field(default_factory=dict)
    changes: int = 0


class RouteIndex:
    """Precomputed query indexes over a static route set and live sessions.

    Parameters
    ----------
    routes:
        route id -> :class:`BusRoute`; the stop index is built eagerly.
        Iteration order of this mapping fixes the deterministic order in
        which :meth:`stops_named` lists entries (and therefore the order
        indexed queries visit routes — matching the seed's scan order).
    """

    def __init__(self, routes: Mapping[str, BusRoute]) -> None:
        self._routes = dict(routes)
        self._stop_entries: dict[str, list[IndexedStop]] = {}
        self._stop_on_route: dict[tuple[str, str], IndexedStop] = {}
        self._arc_by_route: dict[str, dict[str, float]] = {}
        self.stats = IndexStats()
        for route in self._routes.values():
            arcs: dict[str, float] = {}
            for stop in route.stops:
                arc = route.stop_arc_length(stop)
                entry = IndexedStop(route=route, stop=stop, arc_length=arc)
                self._stop_entries.setdefault(stop.stop_id, []).append(entry)
                key = (route.route_id, stop.stop_id)
                # First occurrence wins, mirroring the seed's `next(...)`.
                self._stop_on_route.setdefault(key, entry)
                arcs.setdefault(stop.stop_id, arc)
                self.stats.stop_entries += 1
            self._arc_by_route[route.route_id] = arcs
            self.stats.routes_indexed += 1
        self._s = _SessionLayer()

    # -- static stop/route layer --------------------------------------------

    def stops_named(self, stop_id: str) -> list[IndexedStop]:
        """All indexed entries for a stop id (may span several routes)."""
        return list(self._stop_entries.get(stop_id, ()))

    def require_stop(self, stop_id: str) -> list[IndexedStop]:
        """Like :meth:`stops_named` but raising for unknown stops."""
        entries = self._stop_entries.get(stop_id)
        if not entries:
            raise UnknownStopError(f"no stop {stop_id!r} on any route")
        return list(entries)

    def routes_serving(self, stop_id: str) -> list[str]:
        """Route ids serving a stop, in route registration order."""
        seen: dict[str, None] = {}
        for entry in self._stop_entries.get(stop_id, ()):
            seen.setdefault(entry.route.route_id, None)
        return list(seen)

    def stop_on_route(self, route_id: str, stop_id: str) -> IndexedStop:
        """The (first) stop with the given id on one route.

        Raises :class:`UnknownStopError` when the route does not serve it.
        """
        entry = self._stop_on_route.get((route_id, stop_id))
        if entry is None:
            raise UnknownStopError(
                f"stop {stop_id!r} is not on route {route_id!r}"
            )
        return entry

    def stop_arc(self, route_id: str, stop_id: str) -> float:
        """Cached route arc length of a stop (no polyline walk)."""
        return self.stop_on_route(route_id, stop_id).arc_length

    def stop_ids(self) -> list[str]:
        """Every indexed stop id."""
        return list(self._stop_entries)

    # -- session layer -------------------------------------------------------

    def open_session(self, session_key: str, route_id: str) -> None:
        """Register a newly created session under its route."""
        s = self._s
        if session_key in s.route_of:
            raise ValueError(f"session {session_key!r} already indexed")
        s.route_of[session_key] = route_id
        s.seq[session_key] = s.next_seq
        s.next_seq += 1
        s.active[session_key] = None
        s.active_by_route.setdefault(route_id, {})[session_key] = None
        self.stats.sessions_opened += 1

    def note_report(self, session_key: str, t: float) -> None:
        """Record a report for a session (updates the staleness heap)."""
        s = self._s
        route_id = s.route_of.get(session_key)
        if route_id is None:
            raise KeyError(f"session {session_key!r} is not indexed")
        if session_key in s.expired_keys:
            # The session came back to life: pull it out of the parking
            # list before its timestamp changes.
            self._unpark(session_key)
        s.last_seen[session_key] = t
        s.active[session_key] = None
        s.active_by_route.setdefault(route_id, {})[session_key] = None
        heapq.heappush(s.heap, (t, session_key))
        self._mark_changed(session_key)
        self.stats.heap_pushes += 1
        self.stats.reports_noted += 1

    def drop_session(self, session_key: str) -> None:
        """Forget a session entirely (stale heap entries are lazily skipped)."""
        s = self._s
        route_id = s.route_of.pop(session_key, None)
        if route_id is None:
            return
        if session_key in s.expired_keys:
            self._unpark(session_key)
        s.last_seen.pop(session_key, None)
        s.seq.pop(session_key, None)
        s.active.pop(session_key, None)
        s.active_by_route.get(route_id, {}).pop(session_key, None)
        self._mark_changed(session_key)
        self.stats.sessions_dropped += 1

    def _mark_changed(self, session_key: str) -> None:
        s = self._s
        s.changes += 1
        s.changed.pop(session_key, None)
        s.changed[session_key] = s.changes

    def change_mark(self) -> int:
        """The current position of the change feed."""
        return self._s.changes

    def changed_since(self, mark: int) -> list[str]:
        """Sessions reported or dropped after ``mark`` (a
        :meth:`change_mark` value), newest first; cost follows their
        number, not the number of sessions."""
        out = []
        for key, n in reversed(self._s.changed.items()):
            if n <= mark:
                break
            out.append(key)
        return out

    def _unpark(self, session_key: str) -> None:
        """Remove a session from the expired parking list."""
        s = self._s
        old = (s.last_seen[session_key], session_key)
        i = bisect.bisect_left(s.expired, old)
        if i < len(s.expired) and s.expired[i] == old:
            s.expired.pop(i)
        s.expired_keys.discard(session_key)

    def route_of_session(self, session_key: str) -> str | None:
        return self._s.route_of.get(session_key)

    def active_session_keys(
        self,
        now: float,
        *,
        timeout_s: float = 300.0,
        route_id: str | None = None,
    ) -> list[str]:
        """Keys of sessions still reporting as of ``now``, creation order.

        A session is active when ``now - last <= timeout_s``; one with no
        report timestamp yet counts as active, matching
        ``BusSession.is_stale``.  With ``route_id`` only that route's
        sessions are listed (an unknown route has none).

        Amortised cost is proportional to the number of *currently active*
        sessions (of the route, when one is given) plus the sessions
        crossing the staleness boundary since the last call — not the
        total ever opened.
        """
        s = self._s
        self.evict(now, timeout_s=timeout_s)
        # Every remaining active session has its last report on the heap
        # inside the window (or no report at all), so none needs a check.
        if route_id is None:
            out = list(s.active)
        else:
            out = list(s.active_by_route.get(route_id, ()))
        # A larger timeout (or an out-of-order `now`) can reach back past
        # earlier evictions; only the matching suffix is scanned.
        for key in self.expired_between(now, float("inf"), timeout_s=timeout_s):
            if route_id is None or s.route_of[key] == route_id:
                out.append(key)
                self.stats.sessions_resurrected += 1
        out.sort(key=s.seq.__getitem__)
        return out

    def evict(self, now: float, *, timeout_s: float = 300.0) -> None:
        """Park every session inactive at ``now`` in the expired list.

        Afterwards each session with a report that is inactive at any
        ``now' <= now`` sits in the expired list; cost follows the
        sessions crossing the boundary since the last eviction.
        """
        s = self._s
        # Float subtraction is monotone, so the stale entries are exactly
        # a prefix of the heap order: popping stops at the first active one.
        while s.heap and now - s.heap[0][0] > timeout_s:
            t, key = heapq.heappop(s.heap)
            self.stats.heap_pops += 1
            if key in s.active and s.last_seen.get(key) == t:
                del s.active[key]
                del s.active_by_route[s.route_of[key]][key]
                bisect.insort(s.expired, (t, key))
                s.expired_keys.add(key)
                self.stats.sessions_evicted += 1
            # Otherwise the entry is stale (a fresher report re-pushed the
            # key, or the session was dropped): discard silently.

    def expired_between(
        self, early: float, late: float, *, timeout_s: float = 300.0
    ) -> list[str]:
        """Parked sessions active at ``early`` but not at ``late``.

        Sessions expire in last-report order, so they are one slice of
        the time-sorted expired list, found by two bisections with the
        session predicate.  Only sessions :meth:`evict` has parked are
        listed: evict at ``late`` or later first for the complete set.
        """
        s = self._s
        lo = bisect.bisect_left(
            s.expired, True, key=lambda e: early - e[0] <= timeout_s
        )
        hi = bisect.bisect_left(
            s.expired, True, key=lambda e: late - e[0] <= timeout_s
        )
        return [
            key
            for t, key in s.expired[lo:hi]
            if key in s.expired_keys and s.last_seen.get(key) == t
        ]

    def snapshot(self) -> dict[str, int]:
        """Maintenance counters plus current table sizes."""
        s = self._s
        snap = self.stats.snapshot()
        snap.update(
            sessions_tracked=len(s.route_of),
            heap_size=len(s.heap),
            expired_parked=len(s.expired_keys),
        )
        return snap

"""Travel-time records and their store.

Everything in Section IV is a computation over segment travel times:
``Th(i, j, l)`` — historical means per segment/route/time-slot — and
``Tr(i, k, l)`` — the most recent traversals of a segment by buses of any
route.  :class:`TravelTimeStore` is the container both live behind.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.mobility.traffic import DAY_S

# No single-segment traversal plausibly lasts longer than this; used only
# to bound the recency scan, never to drop data outright.
_MAX_TRAVERSAL_S = 3600.0


@dataclass(frozen=True, slots=True)
class TravelTimeRecord:
    """One bus's observed travel time over one road segment."""

    route_id: str
    segment_id: str
    t_enter: float
    t_exit: float
    source: str = "observed"

    def __post_init__(self) -> None:
        if self.t_exit < self.t_enter:
            raise ValueError("negative travel time")

    @property
    def travel_time(self) -> float:
        return self.t_exit - self.t_enter

    @property
    def time_of_day(self) -> float:
        """Seconds-of-day of the segment entry."""
        return self.t_enter % DAY_S

    @property
    def day(self) -> int:
        return int(self.t_enter // DAY_S)

    def canonical_key(self) -> tuple:
        """Identity for comparing record multisets across servers
        (segment, route, entry/exit rounded to the microsecond)."""
        return (
            self.segment_id,
            self.route_id,
            round(self.t_enter, 6),
            round(self.t_exit, 6),
        )


class TravelTimeStore:
    """Per-segment, time-ordered travel-time records.

    Supports the two access patterns of the predictor: historical
    aggregation filtered by route and time-slot, and "who traversed this
    segment most recently" queries.
    """

    def __init__(self, records: Iterable[TravelTimeRecord] = ()) -> None:
        self._by_segment: dict[str, list[TravelTimeRecord]] = {}
        self._entry_times: dict[str, list[float]] = {}
        self._versions: dict[str, int] = {}
        for r in records:
            self.add(r)

    def add(self, record: TravelTimeRecord) -> None:
        sid = record.segment_id
        lst = self._by_segment.setdefault(sid, [])
        times = self._entry_times.setdefault(sid, [])
        i = bisect.bisect_right(times, record.t_enter)
        lst.insert(i, record)
        times.insert(i, record.t_enter)
        self._versions[sid] = self._versions.get(sid, 0) + 1

    def add_many(self, records: Iterable[TravelTimeRecord]) -> None:
        for r in records:
            self.add(r)

    def __len__(self) -> int:
        return sum(len(v) for v in self._by_segment.values())

    def segment_ids(self) -> list[str]:
        return list(self._by_segment)

    def version(self, segment_id: str) -> int:
        """A number that grows every time a record lands on the segment
        (0 before the first), whatever else happens to the store."""
        return self._versions.get(segment_id, 0)

    def records(self, segment_id: str) -> list[TravelTimeRecord]:
        """All records of a segment, ordered by entry time."""
        return list(self._by_segment.get(segment_id, ()))

    def routes_on(self, segment_id: str) -> set[str]:
        return {r.route_id for r in self._by_segment.get(segment_id, ())}

    def mean_travel_time(
        self,
        segment_id: str,
        *,
        route_id: str | None = None,
        accept: Callable[[TravelTimeRecord], bool] | None = None,
    ) -> float | None:
        """Mean travel time with optional route and record filters.

        This is the estimator ``E(Th(i, j)) = mu_ij`` of Eq. 4; ``accept``
        typically restricts to one time slot.  Returns None with no data.
        """
        total, n = 0.0, 0
        for r in self._by_segment.get(segment_id, ()):
            if route_id is not None and r.route_id != route_id:
                continue
            if accept is not None and not accept(r):
                continue
            total += r.travel_time
            n += 1
        return total / n if n else None

    def recent(
        self,
        segment_id: str,
        *,
        now: float,
        window_s: float,
        max_count: int | None = None,
        per_route_latest: bool = True,
    ) -> list[TravelTimeRecord]:
        """The latest completed traversals of a segment before ``now``.

        Only records that *finished* (``t_exit <= now``) within
        ``window_s`` count — the "J buses of K' routes most recently
        passing by" of Section IV.  With ``per_route_latest`` each route
        contributes only its most recent traversal (the freshest evidence
        per route); the result is newest-first.
        """
        lst = self._by_segment.get(segment_id, [])
        times = self._entry_times.get(segment_id, [])
        # Entry times are sorted; a record with t_enter > now cannot have
        # finished, and one entering long before the window cannot have
        # finished inside it (bounded by a generous max traversal time).
        hi = bisect.bisect_right(times, now)
        lo = bisect.bisect_left(times, now - window_s - _MAX_TRAVERSAL_S)
        out: list[TravelTimeRecord] = []
        for r in lst[lo:hi]:
            if r.t_exit > now or r.t_exit < now - window_s:
                continue
            out.append(r)
        out.sort(key=lambda r: -r.t_exit)
        if per_route_latest:
            seen: set[str] = set()
            dedup = []
            for r in out:
                if r.route_id not in seen:
                    seen.add(r.route_id)
                    dedup.append(r)
            out = dedup
        if max_count is not None:
            out = out[:max_count]
        return out

    def filtered(
        self, accept: Callable[[TravelTimeRecord], bool]
    ) -> "TravelTimeStore":
        """A new store containing the records ``accept`` keeps."""
        return TravelTimeStore(
            r
            for lst in self._by_segment.values()
            for r in lst
            if accept(r)
        )

"""Arrival-time prediction (Eq. 5, 8 and 9).

The predictor estimates the travel time of an upcoming bus of route ``j``
on segment ``i`` at time ``t`` (inside time slot ``l``) as

``Tp(i, j, t) = Th(i, j, l) + mean_k( Tr(i, k, l) - Th(i, k, l) )``  (Eq. 8)

where ``k`` ranges over routes whose buses traversed the segment most
recently: the first term is the route's own historical mean, the second
the *shared environment residual* estimated from fresher buses of any
route on the same (possibly overlapped) segment.  Arrival time at a stop
chains predicted segment times (Eq. 9), pro-rating the partial first and
last segments by road distance and advancing slot-by-slot when the ride
crosses a slot boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.arrival.history import TravelTimeRecord, TravelTimeStore
from repro.core.arrival.seasonal import SlotScheme, slot_filter
from repro.mobility.traffic import DAY_S
from repro.roadnet.route import BusRoute, BusStop


@dataclass(frozen=True, slots=True)
class ArrivalPrediction:
    """A predicted arrival at one stop."""

    route_id: str
    stop_id: str
    t_query: float
    t_arrival: float
    segments_ahead: int
    stops_ahead: int


class ArrivalTimePredictor:
    """Eq. 8 segment predictions chained into Eq. 9 stop arrivals.

    Parameters
    ----------
    history:
        Offline-training travel times (the paper's historical data).
    slots:
        Time-slot scheme (from the seasonal-index analysis).
    recent_window_s:
        How far back "lately" reaches; residuals older than this carry no
        information about current conditions.
    max_recent:
        Cap on the number of recent buses averaged (the paper's ``J``).
    use_recent:
        Disabling this reduces Eq. 8 to ``Th(i, j, l)`` — the ablation
        that shows what cross-route recency buys.
    route_residual_scale:
        Optional extension beyond the paper's additive Eq. 8: a per-route
        congestion-sensitivity scale (e.g. a bus-lane rapid line at 0.45).
        Route ``k``'s residual contributes scaled by
        ``scale[j] / scale[k]`` when predicting route ``j``.  With all
        scales equal (the default) this is exactly Eq. 8.
    """

    def __init__(
        self,
        history: TravelTimeStore,
        slots: SlotScheme | None = None,
        *,
        recent_window_s: float = 1800.0,
        max_recent: int = 5,
        use_recent: bool = True,
        route_residual_scale: dict[str, float] | None = None,
    ) -> None:
        if recent_window_s <= 0:
            raise ValueError("recent window must be positive")
        if max_recent < 1:
            raise ValueError("max_recent must be >= 1")
        self.history = history
        self.slots = slots or SlotScheme.paper_weekday()
        self.recent_window_s = recent_window_s
        self.max_recent = max_recent
        self.use_recent = use_recent
        self.route_residual_scale = dict(route_residual_scale or {})
        self.live = TravelTimeStore()
        self._mean_cache: dict[tuple[str, str | None, int | None], float | None] = {}

    # -- live feed ----------------------------------------------------------

    def observe(self, record: TravelTimeRecord) -> None:
        """Feed one freshly-extracted traversal (online phase)."""
        self.live.add(record)

    def observe_many(self, records) -> None:
        for r in records:
            self.observe(r)

    # -- Eq. 8 ----------------------------------------------------------------

    def _historical_mean(
        self, segment_id: str, route_id: str | None, slot_index: int | None
    ) -> float | None:
        key = (segment_id, route_id, slot_index)
        if key in self._mean_cache:
            return self._mean_cache[key]
        accept = slot_filter(self.slots, slot_index) if slot_index is not None else None
        value = self.history.mean_travel_time(
            segment_id, route_id=route_id, accept=accept
        )
        self._mean_cache[key] = value
        return value

    def historical_time(
        self, segment_id: str, route_id: str, t: float
    ) -> float | None:
        """``Th(i, j, l)`` with graceful fallbacks.

        Preference order: (route, slot) -> (route, any slot) ->
        (any route, slot) -> (any route, any slot) -> None.
        """
        slot = self.slots.slot_of(t)
        for rid, sl in (
            (route_id, slot),
            (route_id, None),
            (None, slot),
            (None, None),
        ):
            value = self._historical_mean(segment_id, rid, sl)
            if value is not None:
                return value
        return None

    def residual_correction(
        self, segment_id: str, t: float, *, for_route_id: str | None = None
    ) -> float:
        """``mean_k(Tr(i, k, l) - Th(i, k, l))`` — the recency term of Eq. 8.

        With ``route_residual_scale`` configured, each route's residual is
        rescaled to the target route's congestion sensitivity.
        """
        if not self.use_recent:
            return 0.0
        recent = self.live.recent(
            segment_id,
            now=t,
            window_s=self.recent_window_s,
            max_count=self.max_recent,
        )
        target_scale = (
            self.route_residual_scale.get(for_route_id, 1.0)
            if for_route_id is not None
            else 1.0
        )
        residuals = []
        for r in recent:
            th = self.historical_time(segment_id, r.route_id, r.t_enter)
            if th is not None:
                source_scale = self.route_residual_scale.get(r.route_id, 1.0)
                scale = target_scale / source_scale if source_scale > 0 else 1.0
                residuals.append((r.travel_time - th) * scale)
        if not residuals:
            return 0.0
        return sum(residuals) / len(residuals)

    def predict_segment_time(
        self, segment_id: str, route_id: str, t: float
    ) -> float | None:
        """``Tp(i, j, t)`` of Eq. 8; None without any historical data."""
        th = self.historical_time(segment_id, route_id, t)
        if th is None:
            return None
        predicted = th + self.residual_correction(
            segment_id, t, for_route_id=route_id
        )
        # A correction can never make a traversal instantaneous.
        return max(predicted, 0.25 * th)

    # -- Eq. 9 ----------------------------------------------------------------

    def _advance_over(
        self,
        segment_id: str,
        route_id: str,
        cursor: float,
        fraction: float,
    ) -> float | None:
        """Advance the time cursor over ``fraction`` of a segment.

        The paper's slot-by-slot rule: when the traversal would cross a
        time-slot boundary, the part before the boundary is charged at the
        current slot's predicted pace and the rest at the next slot's.
        """
        remaining = fraction
        guard = 0
        while remaining > 1e-12 and guard < 32:
            guard += 1
            tp = self.predict_segment_time(segment_id, route_id, cursor)
            if tp is None:
                return None
            if self.slots.num_slots == 1:
                return cursor + tp * remaining
            slot = self.slots.slot_of(cursor)
            span_end = self.slots.slot_span(slot)[1]
            dt_to_boundary = span_end - (cursor % DAY_S)
            dt_needed = tp * remaining
            if dt_needed <= dt_to_boundary:
                return cursor + dt_needed
            remaining -= dt_to_boundary / tp
            cursor += dt_to_boundary + 1e-9
        return cursor

    def predict_arrival(
        self,
        route: BusRoute,
        current_arc: float,
        t: float,
        stop: BusStop,
    ) -> ArrivalPrediction | None:
        """Arrival time of the bus (of ``route``, at ``current_arc`` at
        time ``t``) at ``stop``.

        Chains Eq. 8 over the remaining segments, pro-rating the partial
        first and last segments by road distance and re-evaluating the
        time slot as the cursor advances (the paper's slot-by-slot
        computation).  Returns None when the stop is behind the bus or a
        segment has no data at all.
        """
        stop_arc = route.stop_arc_length(stop)
        if stop_arc <= current_arc + 1e-9:
            return None
        cursor = t
        pos = route.position_at(current_arc)
        segments_ahead = 0
        for seg in route.segments[route.segment_index(pos.segment_id):]:
            seg_start = route.segment_start_arc(seg.segment_id)
            seg_end = seg_start + seg.length
            span_from = max(current_arc, seg_start)
            span_to = min(stop_arc, seg_end)
            if span_to <= span_from:
                if seg_start > stop_arc:
                    break
                continue
            fraction = (span_to - span_from) / seg.length
            advanced = self._advance_over(
                seg.segment_id, route.route_id, cursor, fraction
            )
            if advanced is None:
                return None
            cursor = advanced
            segments_ahead += 1
            if span_to >= stop_arc:
                break
        stops_ahead = sum(
            1
            for s in route.stops
            if current_arc + 1e-9 < route.stop_arc_length(s) <= stop_arc + 1e-9
        )
        return ArrivalPrediction(
            route_id=route.route_id,
            stop_id=stop.stop_id,
            t_query=t,
            t_arrival=cursor,
            segments_ahead=segments_ahead,
            stops_ahead=stops_ahead,
        )

    def predict_all_stops(
        self, route: BusRoute, current_arc: float, t: float
    ) -> list[ArrivalPrediction]:
        """Predictions for every stop still ahead of the bus."""
        out = []
        for stop in route.stops_after(current_arc):
            pred = self.predict_arrival(route, current_arc, t, stop)
            if pred is not None:
                out.append(pred)
        return out

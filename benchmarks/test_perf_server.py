"""Indexed query fast path: traversal-count benchmark (machine-independent).

Builds a 50-route / 2000-session synthetic city, replays it through the
server, and compares the *work units* (routes + stops + sessions examined)
of the indexed ``RiderAPI`` queries against the seed's linear-scan
implementations preserved in :mod:`tests.reference`.  Both
sides count the same units — the indexed path in the ``query.traversals``
server metric, the linear path in a :class:`TraversalCounter` — so the
assertion is independent of machine speed.

Acceptance criteria exercised here:

* ``departures`` touches >= 5x fewer route/stop/session units than the
  un-indexed path (the measured ratio is ~50x at this scale);
* results stay byte-identical to the linear implementations;
* ``metrics_snapshot()`` reports non-zero SVD match-cache hit rates after
  the warm replay (each session uploads repeat scans);
* a cold board's traversal totals are exactly one unit per serving
  route, one per active bus joining the board and one per prediction
  row folded (405 for the hub board, 121 for the trip plan at this
  scale);
* the rider board: a repeated query with no ingest between re-folds no
  row and makes no predictor evaluation (``predict.calls``); one bus's
  ingest re-evaluates only that bus's predictions and those whose
  segments (bus to stop) gained a traversal; a query's work follows the
  scans since the previous query, not the fleet (equal units at 1x, 2x
  and 4x ``sessions_per_route``).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import banner, show
from repro.core.server import RiderAPI
from tests.reference import (
    TraversalCounter,
    linear_active_sessions,
    linear_departures,
    linear_live_positions,
    linear_plan_trip,
)
from repro.eval.synth_city import build_linear_city

pytestmark = pytest.mark.perf

NUM_ROUTES = 50
SESSIONS_PER_ROUTE = 40


@pytest.fixture(scope="module")
def city():
    c = build_linear_city(
        num_routes=NUM_ROUTES, sessions_per_route=SESSIONS_PER_ROUTE
    )
    c.replay()
    return c


def counted(city, counter: str, fn):
    """Run ``fn()`` and return its result and the ``counter`` delta it caused."""
    metrics = city.server.metrics
    before = metrics.counter(counter)
    result = fn()
    return result, metrics.counter(counter) - before


def indexed_traversals(city, fn):
    return counted(city, "query.traversals", fn)


def active_on(city, route_ids) -> int:
    """Active buses on the given routes, by the seed's full-table scan."""
    return sum(
        1
        for s in linear_active_sessions(city.server, city.now, TraversalCounter())
        if s.route_id in route_ids
    )


def predict_calls(city, fn):
    return counted(city, "predict.calls", fn)


class TestPerfServerQueries:
    def test_city_is_at_scale(self, city):
        assert len(city.routes) == NUM_ROUTES
        sessions = city.server.active_sessions(now=city.now)
        assert len(sessions) == NUM_ROUTES * SESSIONS_PER_ROUTE

    def test_departures_traversal_reduction(self, city):
        api = RiderAPI(city.server)
        indexed, touched = indexed_traversals(
            # huge max_entries: compare the full boards, not a prefix
            city,
            lambda: api.departures(
                city.hub_stop_id, now=city.now, max_entries=10**9
            ),
        )
        counter = TraversalCounter()
        linear = linear_departures(
            city.server,
            city.hub_stop_id,
            city.now,
            max_entries=10**9,
            counter=counter,
        )
        assert indexed == linear  # byte-identical boards
        assert touched == len(city.hub_route_ids) + 2 * active_on(
            city, city.hub_route_ids
        ) == 405
        ratio = counter.total / touched
        banner("Perf: indexed departures vs linear scan")
        show(
            f"  hub departures: indexed touched {touched} units, "
            f"linear touched {counter.total} "
            f"(routes={counter.routes} stops={counter.stops} "
            f"sessions={counter.sessions}) -> {ratio:.1f}x"
        )
        assert ratio >= 5.0

    def test_plan_trip_traversal_reduction(self, city):
        api = RiderAPI(city.server)
        hub_rid = city.hub_route_ids[0]
        origin = city.stop_id_on(hub_rid, 0)
        indexed, touched = indexed_traversals(
            city,
            lambda: api.plan_trip(origin, city.hub_stop_id, now=city.now),
        )
        counter = TraversalCounter()
        linear = linear_plan_trip(
            city.server, origin, city.hub_stop_id, city.now, counter=counter
        )
        assert indexed == linear
        # The route's buses join the board, then fold into the boarding
        # and the alighting stop's rows.
        assert touched == 1 + 3 * active_on(city, [hub_rid]) == 121
        ratio = counter.total / touched
        show(
            f"  trip plan:      indexed touched {touched} units, "
            f"linear touched {counter.total} -> {ratio:.1f}x"
        )
        assert ratio >= 5.0

    def test_live_positions_parity(self, city):
        api = city.api
        typed = api.live_positions(now=city.now)
        counter = TraversalCounter()
        linear = linear_live_positions(city.server, city.now, counter=counter)
        assert {k: (v.x, v.y) for k, v in typed.items()} == linear
        assert len(typed) == NUM_ROUTES * SESSIONS_PER_ROUTE

    def test_cache_hit_rate_after_warm_replay(self, city):
        snap = city.server.metrics_snapshot()
        svd_cache = snap["caches"]["svd_match"]
        show(
            f"  svd match cache: hits={svd_cache['hits']} "
            f"misses={svd_cache['misses']} "
            f"hit_rate={svd_cache['hit_rate']:.2f}"
        )
        assert svd_cache["hits"] > 0
        assert svd_cache["hit_rate"] > 0.0

    def test_latency_histograms_populated(self, city):
        snap = city.server.metrics_snapshot()
        assert snap["latency"]["ingest"]["count"] == len(city.reports)
        assert snap["latency"]["position_fix"]["count"] == len(city.reports)
        assert snap["latency"]["query"]["count"] > 0
        assert snap["latency"]["predict"]["count"] > 0
        assert snap["latency"]["ingest"]["mean_s"] > 0.0


class TestReadPathReuse:
    """Predictor evaluations (``predict.calls``) as the work unit."""

    @pytest.fixture()
    def small_city(self):
        c = build_linear_city(num_routes=10, sessions_per_route=40, hub_every=5)
        c.replay()
        return c

    def test_repeated_queries_make_no_predictor_calls(self, small_city):
        city, api = small_city, small_city.api
        hub_rid = city.hub_route_ids[0]
        origin = city.stop_id_on(hub_rid, 1)

        def queries():
            return (
                api.departures(city.hub_stop_id, now=city.now, max_entries=10**9),
                api.plan_trip(origin, city.hub_stop_id, now=city.now),
            )

        first, cold = predict_calls(city, queries)
        again, warm = predict_calls(city, queries)
        assert again == first
        assert first[0] and first[1]
        assert cold > 0 and warm == 0
        show(f"  reuse: cold queries {cold} predictor calls, repeated 0")

    def test_one_ingest_reevaluates_only_what_it_touched(self, small_city):
        city, server, api = small_city, small_city.server, small_city.api
        stop = city.hub_stop_id
        api.departures(stop, now=city.now, max_entries=10**9)  # warm
        rid = city.hub_route_ids[0]
        route = city.routes[rid]
        live = server.predictor.live
        counts = {sid: len(live.records(sid)) for sid in route.segment_ids}
        # A new bus on a hub route, ingested until it completes a segment.
        new_key = "bus:gate"
        reports = city.bus_reports(
            rid, new_key, t_start=city.now - 200.0, speed_mps=20.0
        )
        extracted = server.metrics.counter("ingest.traversals_extracted")
        for report in reports:
            server.ingest(report)
            if server.metrics.counter("ingest.traversals_extracted") > extracted:
                break
        touched = {
            i for i, sid in enumerate(route.segment_ids)
            if len(live.records(sid)) != counts[sid]
        }
        assert touched

        def segment_of(arc: float) -> int:
            return route.segment_index(route.position_at(arc).segment_id)

        stop_arc = city.server.index.stop_arc(rid, stop)
        expected = 0
        for session in linear_active_sessions(server, city.now, TraversalCounter()):
            last = session.trajectory.last
            if session.route_id != rid or last is None or stop_arc <= last.arc_length:
                continue
            span = range(segment_of(last.arc_length), segment_of(stop_arc) + 1)
            if session.session_key == new_key or touched & set(span):
                expected += 1
        board, made = predict_calls(
            city, lambda: api.departures(stop, now=city.now, max_entries=10**9)
        )
        assert board == linear_departures(server, stop, city.now, max_entries=10**9)
        assert made == expected
        assert 0 < made < len(board)
        show(
            f"  reuse: one ingest on {rid} re-evaluated {made} of "
            f"{len(board)} hub predictions"
        )


class TestRiderBoard:
    """Rows folded (``query.traversals``) as the work unit."""

    @staticmethod
    def queries(city, api):
        hub_rid = city.hub_route_ids[0]
        origin = city.stop_id_on(hub_rid, 1)
        return {
            "departures": lambda: api.departures(city.hub_stop_id, now=city.now),
            "trip_plan": lambda: api.plan_trip(origin, city.hub_stop_id, now=city.now),
            "positions": lambda: api.live_positions(now=city.now),
        }

    @staticmethod
    def gate_reports(city):
        """A new bus on a hub route, up to (not including) the report that
        completes its first segment: its scans move only its own fix."""
        rid = city.hub_route_ids[0]
        probe = city.fresh_twin()
        probe.replay()
        out = []
        for report in city.bus_reports(
            rid, "bus:gate", t_start=city.now - 200.0, speed_mps=5.0
        ):
            probe.server.ingest(report)
            if probe.server.metrics.counter("ingest.traversals_extracted"):
                break
            out.append(report)
        assert len(out) >= 3
        return out

    def test_repeated_query_refolds_nothing(self):
        city = build_linear_city(num_routes=10, sessions_per_route=40, hub_every=5)
        city.replay()
        queries = self.queries(city, city.api)
        for fn in queries.values():
            fn()
        again = {
            name: counted(city, "query.traversals", fn)[1]
            for name, fn in queries.items()
        }
        # Only the routes visited: no row joins, folds or re-predicts.
        assert again == {
            "departures": len(city.hub_route_ids),
            "trip_plan": 1,
            "positions": 0,
        }

    def test_query_work_follows_the_scans_not_the_fleet(self):
        units = {}
        for scale in (1, 2, 4):
            city = build_linear_city(
                num_routes=10, sessions_per_route=10 * scale, hub_every=5
            )
            city.replay()
            queries = self.queries(city, city.api)
            for fn in queries.values():
                fn()
            per_query = []
            reports = self.gate_reports(city)
            for report in reports:
                city.server.ingest(report)
                for name, fn in queries.items():
                    per_query.append((name, counted(city, "query.traversals", fn)[1]))
            units[scale] = per_query
        assert units[1] == units[2] == units[4]
        # Each scan moves one fix: the first query folds its row and its
        # hub prediction row, the trip plan its boarding-stop row.
        hub_routes = len(city.hub_route_ids)
        assert units[1] == [
            ("departures", hub_routes + 2), ("trip_plan", 1 + 1), ("positions", 0)
        ] * len(reports)
        show(f"  board: {len(reports)} scans, equal per-query units at 1x/2x/4x fleets")

"""Read-path reuse never serves a stale answer.

A long-lived :class:`RiderAPI` (and the serving app's positions rows)
reuse per-bus results between queries.  This module drives the overlap
city, whose route pairs share every segment (so a traversal by one route
changes the other route's Eq. 8 predictions), through interleaved
ingests, queries, checkpoint rewinds and lifecycle promote/rollback, and
after every step compares the reused answers with the linear oracles of
:mod:`tests.reference` and with a fresh, never-reused
``RiderAPI`` — result for result.
"""

from __future__ import annotations

import json

import pytest

from repro.core.arrival.history import TravelTimeRecord, TravelTimeStore
from repro.core.server import RiderAPI
from tests.reference import (
    linear_departures,
    linear_live_positions,
    linear_plan_trip,
)
from repro.eval.synth_city import build_overlap_city
from repro.lifecycle import (
    LifecycleConfig,
    LifecycleManager,
    ModelRegistry,
    RetrainConfig,
    TrainedModel,
)
from repro.pipeline.checkpoint import checkpoint_to_dict, restore_into
from repro.serving.app import make_app
from repro.serving.http import Request, encode_response
from repro.serving.wire import to_wire


@pytest.fixture()
def city():
    c = build_overlap_city(num_pairs=2, feeder_reports=8)
    c.replay()
    return c


def stop_ids(city) -> list[str]:
    return [s.stop_id for route in city.routes.values() for s in route.stops]


def positions_body(app, now: float) -> bytes:
    raw = encode_response(
        app.dispatch(Request("GET", "/v1/positions", {"now": repr(now)}, {}, b""))
    )
    return raw.partition(b"\r\n\r\n")[2]


def trip_pairs(city) -> list[tuple[str, str]]:
    out = []
    for route in city.routes.values():
        ids = [s.stop_id for s in route.stops]
        out += [(ids[0], ids[-1]), (ids[1], ids[3]), (ids[2], ids[4])]
    return out


def answers(city, api, now: float):
    deps = [api.departures(s, now=now, max_entries=10**9) for s in stop_ids(city)]
    trips = [api.plan_trip(a, b, now=now) for a, b in trip_pairs(city)]
    return deps, trips, api.live_positions(now=now)


def check(city, api, app, now: float):
    """Assert ``api``'s answers equal the oracles' at ``now``; return them
    and the predictor evaluations ``api`` made for them."""
    server = city.server
    counters = server.metrics.counters
    calls = counters.get("predict.calls", 0)
    got = answers(city, api, now)
    made = counters.get("predict.calls", 0) - calls
    body = positions_body(app, now)
    deps, trips, positions = got
    assert got == answers(city, RiderAPI(server), now)
    for stop_id, board in zip(stop_ids(city), deps):
        assert board == linear_departures(server, stop_id, now, max_entries=10**9)
    for (a, b), options in zip(trip_pairs(city), trips):
        assert options == linear_plan_trip(server, a, b, now), (a, b)
    assert {k: (v.x, v.y) for k, v in positions.items()} == linear_live_positions(server, now)
    want = {"positions": {k: to_wire(v) for k, v in positions.items()}}
    assert body == json.dumps(want, separators=(",", ":"), sort_keys=True).encode()
    return got, made


def test_reused_answers_match_the_oracles_after_every_step(city, tmp_path):
    server, api = city.server, city.api
    app = make_app(server)
    counters = server.metrics.counters
    now = city.now
    check(city, api, app, now)

    # A late-arriving feeder bus on B00 crosses boundaries of segments A00
    # shares, finishing each traversal before the A00 buses' last fixes:
    # their Eq. 8 residuals change although their fixes do not.
    feeder = city.bus_reports("B00", "bus:B00:new", t_start=now - 200.0, speed_mps=12.0)
    assert feeder[-1].t < min(r.t for r in city.reports if r.route_id == "A00")
    saved = json.loads(json.dumps(checkpoint_to_dict(server, wal_seq=0)))
    crossed = 0
    for chunk in range(0, len(feeder), 3):
        before = counters.get("ingest.traversals_extracted", 0)
        server.ingest_many(feeder[chunk:chunk + 3])
        _, made = check(city, api, app, now)
        if counters.get("ingest.traversals_extracted", 0) > before:
            crossed += 1
            assert made > 0  # shared-segment evidence re-evaluated something
        assert check(city, api, app, now)[1] == 0  # unchanged inputs: pure reuse
    assert crossed > 0
    assert counters.get("predict.reused", 0) > 0

    # Rewind to the checkpoint: a new live store and new session objects.
    restore_into(server, saved)
    check(city, api, app, now)

    # Promotion swaps the predictor (sharing live); rollback swaps it back.
    manager = LifecycleManager(
        server,
        ModelRegistry(tmp_path / "registry"),
        LifecycleConfig(
            retrain=RetrainConfig(min_records=1, refit_slots=False),
            auto_retrain=False,
        ),
    )
    manager.attach()
    # A slow A00 bus long before the recency window: no residual sees it,
    # but the retrained history does, so promotion moves A00's ETAs.
    slow = city.bus_reports("A00", "bus:A00:slow", t_start=now - 6000.0, speed_mps=4.0)
    server.ingest_many(slow)
    serving, _ = check(city, api, app, now)
    assert serving[0] and serving[1]  # boards and plans are not empty
    assert manager.retrain(now)["ok"]
    assert manager.try_promote(force=True)["ok"]
    promoted, _ = check(city, api, app, now)
    assert promoted != serving  # the retrained history moved some ETA
    assert manager.rollback()["ok"]
    assert check(city, api, app, now)[0] == serving


def test_repeated_query_makes_no_predictor_calls(city):
    api, counters = city.api, city.server.metrics.counters
    stop = city.stop_id_on("A00", 3)
    first = api.departures(stop, now=city.now)
    assert first
    calls, reused = counters["predict.calls"], counters.get("predict.reused", 0)
    assert api.departures(stop, now=city.now) == first
    assert counters["predict.calls"] == calls
    assert counters["predict.reused"] == reused + len(first)


def slowed(store: TravelTimeStore, factor: float) -> TravelTimeStore:
    """The same records, segment for segment, with longer travel times."""
    return TravelTimeStore(
        TravelTimeRecord(
            r.route_id, r.segment_id, r.t_enter, r.t_enter + factor * r.travel_time
        )
        for sid in store.segment_ids()
        for r in store.records(sid)
    )


def test_swapped_inputs_with_equal_record_counts_are_not_reused(city):
    # Record counts alone cannot tell these swaps apart: only the
    # predictor/store identity check does.
    server, api = city.server, city.api
    app = make_app(server)
    before, _ = check(city, api, app, city.now)
    model = TrainedModel.capture(server)
    model.history = slowed(server.predictor.history, 2.0)
    model.install(server, version="slow-history")
    after_model, _ = check(city, api, app, city.now)
    assert after_model != before
    server.predictor.live = slowed(server.predictor.live, 3.0)
    after_live, _ = check(city, api, app, city.now)
    assert after_live != after_model

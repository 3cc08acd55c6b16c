"""The rider board answers what a full recomputation answers, byte for byte.

A long-lived serving app keeps one :class:`RiderAPI` board across every
step; the steps are drawn by hypothesis over the overlap city, whose
route pairs share every segment (a traversal by one route moves the
other route's Eq. 8 predictions):

* scans that start or continue a bus at drawn start times and speeds —
  fast ones cross segment boundaries and add shared-segment records, old
  ones are inactive from the start;
* clock moves: later, earlier, one ulp either way, and exactly onto a
  bus's activity boundary and its ulp neighbours.  The clock runs near
  300 s, where ``now - t`` rounds (``t < now / 2``), so rewriting the
  predicate as ``t < now - timeout`` changes answers;
* a checkpoint, and a rewind to it (``restore_into``);
* a reshard's index rebuild;
* lifecycle promote and rollback (predictor swaps that move ETAs).

After every step the ``/v1/positions``, ``/v1/departures`` and
``/v1/trip-plan`` bodies equal the linear oracles of
:mod:`tests.reference` and those of a fresh app, and a long-lived
projected :class:`RiderAPI`'s positions equal the projected oracle.
"""

from __future__ import annotations

import json
import math
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.server import RiderAPI
from repro.core.server.api import LivePosition
from repro.elastic.engine import _rebuild_index
from repro.eval.synth_city import build_overlap_city
from repro.geometry import GeoPoint, LocalProjection
from repro.lifecycle import (
    LifecycleConfig,
    LifecycleManager,
    ModelRegistry,
    RetrainConfig,
)
from repro.pipeline.checkpoint import checkpoint_to_dict, restore_into
from repro.serving.app import ServingApp, make_app
from repro.serving.http import Request, canonical_json, encode_response
from repro.serving.wire import to_wire
from tests.reference import (
    TraversalCounter,
    linear_active_sessions,
    linear_departures,
    linear_live_positions,
    linear_plan_trip,
)

ROUTES = ("A00", "A01", "B00", "B01")

scan = st.tuples(
    st.just("scan"),
    st.sampled_from(ROUTES),
    st.integers(0, 1),  # bus of the route
    st.floats(-400.0, 100.0),  # start, relative to the clock
    st.sampled_from([4.0, 12.0, 30.0]),  # speed: 30 crosses segments
    st.integers(1, 6),  # reports
)
other = st.one_of(
    st.tuples(st.just("later"), st.floats(0.1, 400.0)),
    st.tuples(st.just("earlier"), st.floats(0.1, 400.0)),
    st.tuples(st.just("ulp"), st.sampled_from([-1, 1])),
    st.tuples(st.just("boundary"), st.integers(0, 50), st.sampled_from([-1, 0, 1])),
    st.tuples(st.just("checkpoint")),
    st.tuples(st.just("restore")),
    st.tuples(st.just("reshard")),
    st.tuples(st.just("promote")),
    st.tuples(st.just("rollback")),
)
steps = st.lists(st.one_of(scan, other), min_size=4, max_size=12)


def body(app: ServingApp, path: str, **query: str) -> bytes:
    raw = encode_response(app.dispatch(Request("GET", path, query, {}, b"")))
    return raw.partition(b"\r\n\r\n")[2]


def bodies(app: ServingApp, city, now: float) -> list[bytes]:
    clock = repr(now)
    out = [body(app, "/v1/positions", now=clock)]
    for route in ROUTES:
        for i in (0, 2, 4):
            stop = city.stop_id_on(route, i)
            out.append(body(app, "/v1/departures", stop=stop, now=clock, limit="1000"))
    out.append(body(app, "/v1/departures", stop=city.stop_id_on("A00", 4), now=clock, limit="2"))
    for a, b in trips(city):
        out.append(body(app, "/v1/trip-plan", **{"from": a, "to": b, "now": clock}))
    return out


def trips(city) -> list[tuple[str, str]]:
    return [
        (city.stop_id_on(route, i), city.stop_id_on(route, j))
        for route in ROUTES
        for i, j in ((0, 5), (2, 4))
    ]


def oracle(city, now: float) -> list[bytes]:
    server = city.server
    rows = {}
    for session in linear_active_sessions(server, now, TraversalCounter()):
        fix = session.trajectory.last
        if fix is not None:
            rows[session.session_key] = to_wire(
                LivePosition(
                    session.session_key, session.route_id,
                    fix.point.x, fix.point.y, None, None, fix.t,
                )
            )
    assert {k: (v["x"], v["y"]) for k, v in rows.items()} == linear_live_positions(server, now)
    out = [{"positions": rows}]
    for route in ROUTES:
        for i in (0, 2, 4):
            entries = linear_departures(
                server, city.stop_id_on(route, i), now, max_entries=1000
            )
            out.append({"departures": [to_wire(e) for e in entries]})
    entries = linear_departures(server, city.stop_id_on("A00", 4), now, max_entries=2)
    out.append({"departures": [to_wire(e) for e in entries]})
    for a, b in trips(city):
        out.append({"options": [to_wire(o) for o in linear_plan_trip(server, a, b, now)]})
    return [canonical_json(payload).encode() for payload in out]


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(steps=steps)
# A restore drops the scanned buses, so the boundary step picks among the rest.
@example(steps=[
    ("checkpoint",), ("scan", "A00", 0, 0.0, 4.0, 1), ("restore",), ("boundary", 0, -1),
])
def test_board_bytes_equal_the_oracle_after_every_step(steps):
    city = build_overlap_city(num_pairs=2, feeder_reports=8, now=300.0)
    city.replay()
    server = city.server
    now = city.now
    # A slow bus long before the recency window: no residual sees it, but
    # a retrained history does, so a promotion moves A00's ETAs.
    server.ingest_many(
        city.bus_reports("A00", "bus:A00:slow", t_start=now - 6000.0, speed_mps=4.0)
    )
    app = make_app(server)
    projection = LocalProjection(GeoPoint(49.26, -123.14))
    projected = RiderAPI(server, projection=projection)
    saved = None
    promoted = False
    streams: dict[str, list] = {}  # bus -> its reports not sent yet
    with tempfile.TemporaryDirectory() as tmp:
        manager = LifecycleManager(
            server,
            ModelRegistry(Path(tmp) / "registry"),
            LifecycleConfig(
                retrain=RetrainConfig(min_records=1, refit_slots=False),
                auto_retrain=False,
            ),
        )
        manager.attach()
        for step in [("start",), *steps]:
            kind = step[0]
            if kind == "scan":
                _, route, bus, start, speed, count = step
                key = f"bus:{route}:h{bus}"
                if key not in streams:
                    streams[key] = city.bus_reports(
                        route, key, t_start=now + start, speed_mps=speed
                    )
                server.ingest_many(streams[key][:count])
                del streams[key][:count]
            elif kind == "later":
                now += step[1]
            elif kind == "earlier":
                now -= step[1]
            elif kind == "ulp":
                now = math.nextafter(now, step[1] * math.inf)
            elif kind == "boundary":
                # Exactly where one bus leaves the active set, or one ulp
                # to either side; scanned buses report at fractional times,
                # so they are preferred while the server still holds any.
                reported = [s for s in server.sessions.values() if s.last_report_t is not None]
                seen = sorted(
                    s.last_report_t for s in reported if s.session_key in streams
                ) or sorted(s.last_report_t for s in reported)
                now = seen[step[1] % len(seen)] + 300.0
                if step[2]:
                    now = math.nextafter(now, step[2] * math.inf)
            elif kind == "checkpoint":
                saved = json.loads(json.dumps(checkpoint_to_dict(server, wal_seq=0)))
            elif kind == "restore" and saved is not None:
                restore_into(server, saved)
            elif kind == "reshard":
                _rebuild_index(server)
            elif kind == "promote" and manager.retrain(now)["ok"]:
                promoted |= manager.try_promote(force=True)["ok"]
            elif kind == "rollback" and promoted:
                manager.rollback()
            got = bodies(app, city, now)
            assert got == oracle(city, now), step
            assert got == bodies(ServingApp(server, RiderAPI(server)), city, now), step
            assert {
                k: (v.lat, v.lon, v.t)
                for k, v in projected.live_positions(now=now).items()
            } == linear_live_positions(server, now, projection=projection), step


def test_a_bus_on_the_ulp_boundary_rejoins_the_board():
    # The clock comes back from beyond a bus's boundary to exactly on it,
    # where ``now - t <= 300`` holds but ``t >= now - 300`` does not: the
    # bus is active there, on the board as in the oracle.
    city = build_overlap_city(num_pairs=2, feeder_reports=8, now=300.0)
    city.replay()
    server = city.server
    app = make_app(server)
    t, boundary = next(
        (t, now)
        for t in (100.0 + i / 64 + 1e-3 for i in range(1000))
        for now in (t + 300.0, math.nextafter(t + 300.0, math.inf))
        if now - t <= 300.0 and t < now - 300.0
    )
    server.ingest_many(city.bus_reports("A00", "bus:A00:edge", t_start=t, speed_mps=12.0)[:1])
    assert server.sessions["bus:A00:edge"].trajectory.last is not None
    for now in (t, boundary + 100.0, boundary, math.nextafter(boundary, math.inf), boundary):
        got = bodies(app, city, now)
        assert got == oracle(city, now), now
    assert b"bus:A00:edge" in bodies(app, city, boundary)[0]


def test_a_stop_asked_about_once_holds_only_active_buses():
    # One departures query puts a stop board on A00; afterwards only the
    # live map is asked for while buses keep joining A00 and expiring.
    # The stop board keeps no bus that left, however many came and went.
    city = build_overlap_city(num_pairs=1, feeder_reports=8, now=300.0)
    city.replay()
    server = city.server
    api = RiderAPI(server)
    stop = city.stop_id_on("A00", 5)
    now = city.now
    api.departures(stop, now=now)
    stop_board = api._board.stops["A00", stop]
    for i in range(40):
        now += 60.0
        key = f"bus:A00:churn{i}"
        server.ingest_many(
            city.bus_reports("A00", key, t_start=now - 30.0, speed_mps=4.0)[:3]
        )
        api.live_positions(now=now)
        on_route = set(api._board.by_route["A00"])
        assert set(stop_board.arrivals) <= on_route
        assert set(stop_board.dirty) <= on_route
        assert len(stop_board.order) <= len(stop_board.arrivals)
    opened = sum(s.route_id == "A00" for s in server.sessions.values())
    assert len(api._board.by_route["A00"]) <= 6 < opened
    assert api.departures(stop, now=now, max_entries=1000) == linear_departures(
        server, stop, now, max_entries=1000
    )

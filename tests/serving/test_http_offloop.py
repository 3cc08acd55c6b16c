"""The asyncio shell dispatches off the event loop thread (WL006 fix).

The dispatch chain is synchronous by design — it ends in WAL appends and
fsyncs on the durable backend — so running it on the loop thread would
stall every open connection behind one disk barrier.  These tests pin
the contract: dispatch happens on the dedicated worker thread, requests
on one connection stay serialized (the backends are single-threaded),
``stop()`` tears the pool down, and the real app answers
concurrent keep-alive connections with the bytes ``handle_bytes`` gives.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.serving import make_app
from repro.serving.http import HttpServer, Request, Response

from tests.serving.conftest import http_request, parse_response
from tests.serving.test_http_conformance import _conformance_requests

pytestmark = pytest.mark.serving


def _echo_app(seen_threads: list[str], order: list[str]):
    lock = threading.Lock()

    def dispatch(request: Request) -> Response:
        with lock:
            seen_threads.append(threading.current_thread().name)
            order.append(request.path)
        return Response(200, {"path": request.path})

    return dispatch


async def _roundtrip(port: int, paths: list[str]) -> list[bytes]:
    return await _send_all(port, [http_request("GET", path) for path in paths])


async def _send_all(port: int, raws: list[bytes]) -> list[bytes]:
    """Send ``raws`` in order on one keep-alive connection."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    responses = []
    try:
        for raw in raws:
            writer.write(raw)
            await writer.drain()
            head = await reader.readuntil(b"\r\n\r\n")
            length = 0
            for line in head.decode("latin-1").lower().split("\r\n"):
                if line.startswith("content-length:"):
                    length = int(line.split(":", 1)[1])
            body = await reader.readexactly(length)
            responses.append(head + body)
    finally:
        writer.close()
        await writer.wait_closed()
    return responses


def test_dispatch_runs_on_the_worker_thread_not_the_loop():
    seen: list[str] = []
    server = HttpServer(_echo_app(seen, []))

    async def drive():
        loop_thread = threading.current_thread().name
        port = await server.start()
        try:
            raws = await _roundtrip(port, ["/one", "/two"])
        finally:
            await server.stop()
        return loop_thread, raws

    loop_thread, raws = asyncio.run(drive())
    assert [parse_response(r) for r in raws] == [
        (200, {"path": "/one"}),
        (200, {"path": "/two"}),
    ]
    assert seen and all(t.startswith("http-dispatch") for t in seen)
    assert all(t != loop_thread for t in seen)


def test_keep_alive_requests_stay_serialized_in_order():
    order: list[str] = []
    server = HttpServer(_echo_app([], order))
    paths = [f"/req-{i}" for i in range(8)]

    async def drive():
        port = await server.start()
        try:
            return await _roundtrip(port, paths)
        finally:
            await server.stop()

    raws = asyncio.run(drive())
    assert [parse_response(r)[1]["path"] for r in raws] == paths
    assert order == paths


def test_stop_shuts_the_dispatch_pool_down():
    server = HttpServer(_echo_app([], []))

    async def drive():
        port = await server.start()
        await _roundtrip(port, ["/x"])
        assert server._dispatch_pool is not None
        await server.stop()

    asyncio.run(drive())
    assert server._dispatch_pool is None


#: the rider queries of the conformance stream, all 200s on a replayed city
_RIDER_QUERIES = (
    "departures", "trip_plan", "positions", "position", "arrival",
    "sessions", "traffic_map",
)


def test_real_app_over_concurrent_keep_alive_connections(city):
    twin = city.fresh_twin()
    twin.replay()
    server = HttpServer(make_app(twin.server).dispatch)
    queries = [
        raw for label, raw in _conformance_requests(city)
        if label in _RIDER_QUERIES
    ]
    assert len(queries) == len(_RIDER_QUERIES)
    expected = [server.handle_bytes(raw) for raw in queries]
    # each connection walks the queries from a different start
    streams = [queries[i:] + queries[:i] for i in range(4)]

    async def drive():
        port = await server.start()
        try:
            return await asyncio.gather(
                *(_send_all(port, stream) for stream in streams)
            )
        finally:
            await server.stop()

    for i, got in enumerate(asyncio.run(drive())):
        want = expected[i:] + expected[:i]
        assert [parse_response(raw)[0] for raw in got] == [200] * len(queries)
        assert got == want

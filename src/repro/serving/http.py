"""A hand-rolled HTTP/1.1 JSON front door over ``asyncio.start_server``.

The repo's standing convention is stdlib-only, so there is no web
framework here: this module parses request bytes itself, and the
dispatch path is deliberately *synchronous* —
:meth:`HttpServer.handle_bytes` maps raw request bytes to raw response
bytes with no socket, no event loop and no awaits, so the conformance
suite and the perf smoke drive the exact production code path without
binding a port.  The asyncio layer is a thin shell around it: read one
request, call the same ``handle_bytes`` logic, write the response,
honour keep-alive.

Scope (enough HTTP/1.1 for this API, nothing more):

* request line + headers + ``Content-Length`` bodies; no chunked
  transfer encoding, no pipelining beyond sequential keep-alive;
* responses are always ``application/json`` with an explicit
  ``Content-Length``;
* malformed requests never kill a connection task — they produce a
  structured 422 (:data:`~repro.serving.errors.WireErrorCode.BAD_REQUEST`)
  and, for framing errors where no response is possible, a clean close.
"""

from __future__ import annotations

import asyncio
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable
from urllib.parse import unquote

from repro.serving.errors import WireError, WireErrorCode

__all__ = [
    "Request",
    "Response",
    "parse_request",
    "canonical_json",
    "encode_response",
    "HttpServer",
    "MAX_REQUEST_BYTES",
]

MAX_REQUEST_BYTES = 8 * 1024 * 1024
"""Hard cap on one request (line + headers + body)."""

_REASONS = {
    200: "OK",
    404: "Not Found",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    503: "Service Unavailable",
}


@dataclass(frozen=True, slots=True)
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: dict[str, str]
    headers: dict[str, str]
    body: bytes

    def json(self) -> Any:
        """The request body as JSON, or a ``bad_request`` wire error."""
        if not self.body:
            raise WireError(WireErrorCode.BAD_REQUEST, "empty request body")
        try:
            return json.loads(self.body)
        except (ValueError, UnicodeDecodeError) as exc:
            raise WireError(
                WireErrorCode.BAD_REQUEST, f"malformed JSON body: {exc}"
            ) from None


@dataclass(frozen=True, slots=True)
class Response:
    """One JSON response about to be encoded.

    A handler that assembles its body from already-encoded parts passes
    the finished :func:`canonical_json` bytes as ``encoded`` (and leaves
    ``body`` empty); :func:`encode_response` then sends them as they are.
    """

    status: int
    body: dict[str, Any] = field(default_factory=dict)
    encoded: bytes | None = None


def _parse_query(raw: str) -> dict[str, str]:
    """``a=1&b=2`` -> dict; last occurrence of a repeated key wins."""
    query: dict[str, str] = {}
    for pair in raw.split("&"):
        if not pair:
            continue
        key, _, value = pair.partition("=")
        query[unquote(key)] = unquote(value)
    return query


def parse_request(raw: bytes) -> Request:
    """Parse one full request's bytes; ``bad_request`` on any malformation."""
    if len(raw) > MAX_REQUEST_BYTES:
        raise WireError(WireErrorCode.BAD_REQUEST, "request too large")
    head, sep, body = raw.partition(b"\r\n\r\n")
    if not sep:
        raise WireError(WireErrorCode.BAD_REQUEST, "truncated request head")
    try:
        lines = head.decode("latin-1").split("\r\n")
    except UnicodeDecodeError:  # pragma: no cover - latin-1 decodes all bytes
        raise WireError(
            WireErrorCode.BAD_REQUEST, "undecodable request head"
        ) from None
    parts = lines[0].split(" ")
    if len(parts) != 3:
        raise WireError(
            WireErrorCode.BAD_REQUEST, f"malformed request line: {lines[0]!r}"
        )
    method, target, version = parts
    if version not in ("HTTP/1.1", "HTTP/1.0"):
        raise WireError(
            WireErrorCode.BAD_REQUEST, f"unsupported version {version!r}"
        )
    headers: dict[str, str] = {}
    for line in lines[1:]:
        name, sep2, value = line.partition(":")
        if not sep2 or not name.strip():
            raise WireError(
                WireErrorCode.BAD_REQUEST, f"malformed header line: {line!r}"
            )
        headers[name.strip().lower()] = value.strip()
    declared = headers.get("content-length", "0")
    try:
        length = int(declared)
    except ValueError:
        raise WireError(
            WireErrorCode.BAD_REQUEST, f"bad content-length {declared!r}"
        ) from None
    if length != len(body):
        raise WireError(
            WireErrorCode.BAD_REQUEST,
            f"content-length {length} != body size {len(body)}",
        )
    path, _, raw_query = target.partition("?")
    return Request(
        method=method.upper(),
        path=unquote(path) or "/",
        query=_parse_query(raw_query),
        headers=headers,
        body=body,
    )


def canonical_json(value: Any) -> str:
    """The one JSON rule of every response: sorted keys, no whitespace,
    ASCII output.  An object joined from members encoded one by one, in
    sorted key order, is byte-equal to one call on the whole object."""
    return json.dumps(value, separators=(",", ":"), sort_keys=True)


def encode_response(response: Response, *, keep_alive: bool = True) -> bytes:
    """Serialise a :class:`Response` to HTTP/1.1 bytes."""
    payload = response.encoded
    if payload is None:
        payload = canonical_json(response.body).encode("utf-8")
    reason = _REASONS.get(response.status, "Unknown")
    head = (
        f"HTTP/1.1 {response.status} {reason}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        f"\r\n"
    )
    return head.encode("latin-1") + payload


class HttpServer:
    """The asyncio shell: sockets in, ``dispatch`` out.

    Parameters
    ----------
    dispatch:
        A *synchronous* ``Request -> Response`` callable (the serving
        app).  It must never raise — the app converts everything to a
        :class:`Response`; a raise here is a front-door bug and is still
        caught and mapped to a structured 503.
    """

    def __init__(self, dispatch: Callable[[Request], Response]) -> None:
        self.dispatch = dispatch
        self._server: asyncio.base_events.Server | None = None
        self._writers: set[asyncio.StreamWriter] = set()
        # Dispatch runs off the loop thread: the app's synchronous path
        # can reach a durable backend whose WAL flush fsyncs, and a disk
        # barrier on the event loop stalls every connection (WL006).
        # Exactly one worker — the app's counter-delta ingest ack relies
        # on dispatch being serialized (see repro/serving/app.py), so
        # this moves the queue off the loop without introducing
        # concurrency the backend was never built for.
        self._dispatch_pool: ThreadPoolExecutor | None = None

    # -- socket-free entry point (tests, perf) -------------------------------

    def handle_bytes(self, raw: bytes) -> bytes:
        """Full request bytes -> full response bytes, no socket involved."""
        try:
            request = parse_request(raw)
        except WireError as err:
            return encode_response(Response(err.status, err.body()))
        return encode_response(self._safe_dispatch(request))

    def _safe_dispatch(self, request: Request) -> Response:
        try:
            return self.dispatch(request)
        except WireError as err:  # an app must not leak these; belt & braces
            return Response(err.status, err.body())
        except Exception as exc:  # noqa: BLE001 - the no-bare-500 guarantee
            err = WireError(
                WireErrorCode.INTERNAL, f"unhandled {type(exc).__name__}"
            )
            return Response(err.status, err.body())

    # -- asyncio server -------------------------------------------------------

    async def _read_request(self, reader: asyncio.StreamReader) -> bytes | None:
        """Read one framed request off the stream; None on EOF/overflow."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError:
            return None
        except asyncio.LimitOverrunError:
            return None
        headers = head.decode("latin-1", errors="replace").lower()
        length = 0
        for line in headers.split("\r\n"):
            if line.startswith("content-length:"):
                try:
                    length = int(line.split(":", 1)[1].strip())
                except ValueError:
                    return head  # parse_request will reject it properly
        if length < 0 or length > MAX_REQUEST_BYTES:
            return None
        body = await reader.readexactly(length) if length else b""
        return head + body

    async def _handle_off_loop(self, raw: bytes) -> bytes:
        """Run the synchronous dispatch chain on the single worker thread."""
        if self._dispatch_pool is None:
            self._dispatch_pool = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="http-dispatch"
            )
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._dispatch_pool, self.handle_bytes, raw
        )

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        try:
            while True:
                raw = await self._read_request(reader)
                if raw is None:
                    break
                writer.write(await self._handle_off_loop(raw))
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # loop teardown while parked on a keep-alive read: close quietly
            pass
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Bind and start accepting; returns the bound port."""
        self._server = await asyncio.start_server(
            self._serve_connection, host, port, limit=MAX_REQUEST_BYTES
        )
        return self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            # nudge parked keep-alive connections off their reads so the
            # handler tasks finish before the event loop tears down
            for writer in list(self._writers):
                writer.close()
            await asyncio.sleep(0)
            await self._server.wait_closed()
            self._server = None
        if self._dispatch_pool is not None:
            self._dispatch_pool.shutdown(wait=True)
            self._dispatch_pool = None

    async def serve_forever(self, host: str = "127.0.0.1", port: int = 8080):
        """Blocking entry point for ``repro.cli serve``."""
        bound = await self.start(host, port)
        assert self._server is not None
        print(f"serving on http://{host}:{bound}")
        async with self._server:
            await self._server.serve_forever()

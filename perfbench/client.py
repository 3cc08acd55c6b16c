"""The load generator: closed and open loops over at most two connections.

Closed loop: each connection sends its next request only after the
previous reply, so throughput is what the server sustains.  Open loop:
request *i* is due at ``start + i / rate`` whatever the server does; its
latency runs from the due time (so a stall delays every later request in
the numbers, not just in the schedule), and the generator's own lateness
(send time minus due time) is kept beside it.

All timings are raw samples; percentiles are exact nearest-rank values
(:func:`repro.serving.loadgen.percentile_ms`), never histogram buckets.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Sequence

__all__ = ["Sample", "closed_loop", "open_loop", "send_sequential"]

CONNECTIONS = 2


@dataclass(slots=True)
class Sample:
    """One request as the client saw it (times from ``loop.time()``)."""

    index: int
    endpoint: str
    due: float
    sent: float
    done: float
    status: int  # 0 when the connection dropped
    body: bytes

    @property
    def latency_s(self) -> float:
        """From due time to reply (equals send time in a closed loop)."""
        return self.done - self.due

    @property
    def service_s(self) -> float:
        """From send to reply."""
        return self.done - self.sent


async def _exchange(reader, writer, raw: bytes) -> tuple[int, bytes]:
    writer.write(raw)
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ")[1])
    length = 0
    for line in lines[1:]:
        if line.lower().startswith("content-length:"):
            length = int(line.split(":", 1)[1].strip())
    body = await reader.readexactly(length) if length else b""
    return status, head + body


class _Connection:
    def __init__(self, port: int) -> None:
        self.port = port
        self.reader = self.writer = None

    async def open(self) -> "_Connection":
        self.reader, self.writer = await asyncio.open_connection("127.0.0.1", self.port)
        return self

    async def request(self, raw: bytes) -> tuple[int, bytes]:
        """One exchange; a dropped connection is reopened and reads status 0."""
        try:
            return await _exchange(self.reader, self.writer, raw)
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            await self.close()
            await self.open()
            return 0, b""

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self.writer = None


async def closed_loop(
    port: int, requests: Sequence[tuple[str, bytes]], indices: Sequence[int]
) -> tuple[list[Sample], float]:
    """Send every request closed-loop; returns samples and the phase wall time.

    ``indices`` are the requests' positions in the stream, kept in the samples.
    """
    loop = asyncio.get_running_loop()
    conns = [await _Connection(port).open() for _ in range(CONNECTIONS)]
    samples: list[Sample] = []
    cursor = iter(range(len(requests)))

    async def worker(conn: _Connection) -> None:
        for i in cursor:
            endpoint, raw = requests[i]
            sent = loop.time()
            status, body = await conn.request(raw)
            samples.append(Sample(indices[i], endpoint, sent, sent, loop.time(), status, body))

    t0 = loop.time()
    try:
        await asyncio.gather(*(worker(c) for c in conns))
    finally:
        for conn in conns:
            await conn.close()
    return samples, loop.time() - t0


async def open_loop(
    port: int,
    requests: Sequence[tuple[str, bytes]],
    rate: float,
    *,
    first_index: int = 0,
    lead_s: float = 0.05,
) -> tuple[list[Sample], float]:
    """Send request *i* at ``start + i / rate`` on the first free connection."""
    loop = asyncio.get_running_loop()
    pool: asyncio.Queue = asyncio.Queue()
    conns = [await _Connection(port).open() for _ in range(CONNECTIONS)]
    for conn in conns:
        pool.put_nowait(conn)
    samples: list[Sample] = []
    start = loop.time() + lead_s

    async def fire(i: int) -> None:
        endpoint, raw = requests[i]
        due = start + i / rate
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        conn = await pool.get()
        try:
            sent = loop.time()
            status, body = await conn.request(raw)
        finally:
            pool.put_nowait(conn)
        samples.append(Sample(first_index + i, endpoint, due, sent, loop.time(), status, body))

    try:
        await asyncio.gather(*(fire(i) for i in range(len(requests))))
    finally:
        for conn in conns:
            await conn.close()
    return samples, loop.time() - start


async def send_sequential(port: int, requests: Sequence[tuple[str, bytes]]) -> list[bytes]:
    """Send requests one at a time on one connection; returns raw responses."""
    conn = await _Connection(port).open()
    try:
        return [(await conn.request(raw))[1] for _, raw in requests]
    finally:
        await conn.close()

"""The correctness gate: the server's answers against in-process replicas.

After a run the benchmark holds the scan requests the server accepted (in
the order it answered them) and its raw responses to the fixed probes.
Each replica below is rebuilt from the same city and must answer the same
probes with the same bytes:

* a plain ``WiLocatorServer`` twin fed the accepted scan stream;
* a ``DurableServer`` replica fed the same stream (the ``rider_mix``
  backend; on ``cluster_mix`` this is the cross-backend parity check, and
  its WAL is the one recovery reads, since the cluster's shards keep none);
* a fresh twin rebuilt by ``recover()`` from a WAL of the run.
"""

from __future__ import annotations

import gc
import json
import time
from pathlib import Path
from typing import Sequence

from repro.pipeline import replay
from repro.pipeline.durable import DurableServer
from repro.serving.app import make_app
from repro.serving.http import HttpServer

from workloads import WorkloadSpec, build_city

__all__ = ["ack_ok", "plain_twin", "durable_replica", "recovered_twin"]


def ack_ok(response: bytes) -> bool:
    """Whether a ``/v1/scans`` response is a 200 with ``accepted == submitted``."""
    if not response.startswith(b"HTTP/1.1 200 "):
        return False
    ack = json.loads(response.partition(b"\r\n\r\n")[2])
    return ack["accepted"] == ack["submitted"]


def _answers(backend, scans: Sequence[bytes], probes) -> tuple[list[bytes], list[bytes]]:
    http = HttpServer(make_app(backend).dispatch)
    acks = [http.handle_bytes(raw) for raw in scans]
    return acks, [http.handle_bytes(raw) for _, raw in probes]


def plain_twin(
    spec: WorkloadSpec, scans: Sequence[bytes], probes
) -> tuple[list[bytes], list[bytes]]:
    """(scan acks, probe responses) of a plain server fed ``scans``."""
    city = build_city(spec)
    city.server.ingest_many(city.reports)
    return _answers(city.server, scans, probes)


def durable_replica(
    spec: WorkloadSpec,
    closed_scans: Sequence[bytes],
    open_scans: Sequence[bytes],
    probes,
    data_dir: Path,
) -> list[bytes]:
    """Probe responses of a durable server fed the run's scans.

    It checkpoints between the phases and closes without a final
    checkpoint, exactly as the benchmark drives the durable workloads, so
    ``data_dir`` ends up holding the same shape of WAL (fsync is off: only
    the log's content matters here).
    """
    city = build_city(spec)
    durable = DurableServer(city.server, data_dir, fsync=False)
    try:
        durable.submit_many(city.reports)
        durable.flush()
        http = HttpServer(make_app(durable).dispatch)
        for raw in closed_scans:
            http.handle_bytes(raw)
        durable.checkpoint()
        for raw in open_scans:
            http.handle_bytes(raw)
        return [http.handle_bytes(raw) for _, raw in probes]
    finally:
        durable.close(checkpoint=False)


def recovered_twin(spec: WorkloadSpec, data_dir: Path, probes) -> tuple[float, list[bytes]]:
    """Seconds ``recover()`` took on a fresh twin, and its probe responses."""
    city = build_city(spec)
    # Start every timed recovery from the same collector state, with the
    # benchmark's own heap out of the collector's way, as in a restarted
    # server process.
    gc.collect()
    gc.freeze()
    try:
        t0 = time.perf_counter()
        replay.recover(city.server, data_dir)
        elapsed = time.perf_counter() - t0
    finally:
        gc.unfreeze()
    return elapsed, _answers(city.server, (), probes)[1]

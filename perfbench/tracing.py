"""Span tracing around the public functions of each layer, from outside.

:class:`Tracer` replaces each target function with a wrapper that records
one span per call: name, optional tag, request id, parent span, start and
end.  Spans nest through a per-thread stack; a span with no open parent
is a root and opens a new request id (in the server that root is
``HttpServer.handle_bytes``, so every span of one request shares its id).
A layer's self time is its span minus its direct child spans.

Nothing in ``src/`` is modified on disk: :meth:`Tracer.install` swaps
attributes on the imported classes and modules, and :meth:`Tracer.remove`
puts the original objects back, so an untraced run calls exactly the
unwrapped functions.  Calls are expected from one thread at a time (the
front door serializes dispatch on its single worker thread).
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from typing import Any, Callable

__all__ = ["TARGETS", "Tracer", "request_path"]


def request_path(args: tuple) -> str:
    """Tag of a ``ServingApp.dispatch`` span: the request path."""
    return args[1].path


# (module, attribute path, span name, tag function).  Module-level
# functions are patched in the module that *calls* them, because callers
# bind them by name at import time (``from x import f``).
TARGETS: tuple[tuple[str, str, str, Callable[[tuple], str] | None], ...] = (
    ("repro.serving.http", "HttpServer.handle_bytes", "http.handle_bytes", None),
    ("repro.serving.http", "parse_request", "http.parse_request", None),
    ("repro.serving.http", "encode_response", "http.encode_response", None),
    ("repro.serving.app", "ServingApp.dispatch", "app.dispatch", request_path),
    ("repro.serving.app", "to_wire", "wire.to_wire", None),
    ("repro.core.server.server", "WiLocatorServer.admit", "server.admit", None),
    (
        "repro.core.server.server",
        "WiLocatorServer.ingest_admitted",
        "server.ingest_admitted",
        None,
    ),
    ("repro.core.server.server", "WiLocatorServer.ingest_many", "server.ingest_many", None),
    (
        "repro.core.server.server",
        "WiLocatorServer.metrics_snapshot",
        "server.metrics_snapshot",
        None,
    ),
    ("repro.pipeline.durable", "DurableServer.ingest_many", "durable.ingest_many", None),
    ("repro.pipeline.durable", "DurableServer.flush", "durable.flush", None),
    ("repro.pipeline.durable", "write_checkpoint", "pipeline.write_checkpoint", None),
    ("repro.pipeline.wal", "WalWriter.append", "wal.append", None),
    ("repro.pipeline.wal", "WalWriter.flush", "wal.flush", None),
    ("repro.pipeline.replay", "recover", "pipeline.recover", None),
    ("repro.pipeline.replay", "read_wal", "pipeline.read_wal", None),
    ("repro.pipeline.replay", "latest_checkpoint", "pipeline.latest_checkpoint", None),
    ("repro.pipeline.replay", "restore_into", "pipeline.restore_into", None),
    ("repro.core.svd.road_svd", "RoadSVD.best_matches", "svd.best_matches", None),
    ("repro.core.positioning.locator", "SVDPositioner.locate", "positioning.locate", None),
    ("repro.core.server.session", "BusSession.process", "positioning.process", None),
    ("repro.core.arrival.predictor", "ArrivalTimePredictor.observe", "arrival.observe", None),
    (
        "repro.core.arrival.predictor",
        "ArrivalTimePredictor.predict_arrival",
        "arrival.predict",
        None,
    ),
    ("repro.core.server.api", "RiderAPI.departures", "rider.departures", None),
    ("repro.core.server.api", "RiderAPI.plan_trip", "rider.trip_plan", None),
    ("repro.core.server.api", "RiderAPI.live_positions", "rider.positions", None),
    ("repro.core.server.api", "RiderAPI.stops_named", "rider.stops_named", None),
    ("repro.cluster.router", "ClusterRouter.departures", "router.departures", None),
    ("repro.cluster.router", "ClusterRouter.plan_trip", "router.trip_plan", None),
    ("repro.cluster.router", "ClusterRouter.live_positions", "router.positions", None),
    ("repro.cluster.router", "ClusterRouter.ingest_many", "router.ingest_many", None),
    ("repro.cluster.router", "ClusterRouter.flush", "router.flush", None),
    ("repro.cluster.router", "ClusterRouter.metrics_snapshot", "router.metrics_snapshot", None),
    ("repro.cluster.bus", "DeltaBus.pump", "bus.pump", None),
)


def _resolve(module: str, path: str) -> tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Records spans around :data:`TARGETS` while installed."""

    def __init__(self, targets=TARGETS) -> None:
        self.targets = targets
        # (name, tag, request id, parent index, t0, t1); None while open.
        self.spans: list[tuple | None] = []
        self._local = threading.local()
        self._next_rid = 0
        self._originals: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for module, path, name, tag in self.targets:
            owner, attr = _resolve(module, path)
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, tag))

    def remove(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn: Callable, name: str, tag_fn) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            spans = tracer.spans
            if stack:
                parent = stack[-1]
                rid = parent[1]
                parent_idx = parent[0]
            else:
                tracer._next_rid += 1
                rid = tracer._next_rid
                parent_idx = -1
            idx = len(spans)
            spans.append(None)
            stack.append((idx, rid))
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (
                    name,
                    tag_fn(args) if tag_fn is not None else None,
                    rid,
                    parent_idx,
                    t0,
                    t1,
                )

        return traced

    def summary(self, samples_of: tuple[str, ...] = ()) -> dict:
        """Aggregate closed spans into JSON-safe per-layer totals.

        ``names``: calls, inclusive seconds and self seconds per span
        name.  ``tags``: the same per (name, tag).  ``edges``: calls and
        seconds per (parent name, child name).  ``samples``: raw
        durations of the span names in ``samples_of`` (for exact
        percentiles).
        """
        spans = [s for s in self.spans if s is not None]
        child_s = [0.0] * len(self.spans)
        for name, _, _, parent, t0, t1 in spans:
            if parent >= 0:
                child_s[parent] += t1 - t0
        names: dict[str, list[float]] = {}
        tags: dict[str, list[float]] = {}
        edges: dict[str, list[float]] = {}
        samples: dict[str, list[float]] = {n: [] for n in samples_of}
        for idx, span in enumerate(self.spans):
            if span is None:
                continue
            name, tag, _, parent, t0, t1 = span
            dur = t1 - t0
            own = dur - child_s[idx]
            _add(names, name, dur, own)
            if tag is not None:
                _add(tags, f"{name}|{tag}", dur, own)
            parent_span = self.spans[parent] if parent >= 0 else None
            parent_name = parent_span[0] if parent_span is not None else ""
            _add(edges, f"{parent_name}>{name}", dur, own)
            if name in samples:
                samples[name].append(dur)
        return {
            "names": _fold(names),
            "tags": _fold(tags),
            "edges": _fold(edges),
            "samples": samples,
        }


def _add(table: dict[str, list[float]], key: str, dur: float, own: float) -> None:
    row = table.get(key)
    if row is None:
        table[key] = [1, dur, own]
    else:
        row[0] += 1
        row[1] += dur
        row[2] += own


def _fold(table: dict[str, list[float]]) -> dict[str, dict[str, float]]:
    return {
        key: {"calls": int(calls), "total_s": total, "self_s": own}
        for key, (calls, total, own) in sorted(table.items())
    }

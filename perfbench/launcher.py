"""The benchmark's server process: build the backend, start the front door.

Run by ``perfbench/run.py``, never by hand::

    python3 perfbench/launcher.py --workload rider_mix --data-dir DIR

It builds the workload's city, wraps the server in the workload's backend
(``DurableServer`` over ``DIR``, or the 4-shard in-memory
``ClusterRouter``), warms it with one replay of the city's reports,
starts ``HttpServer`` on an ephemeral localhost port and prints
``{"ready": port}``.  It then answers one JSON command per stdin line
with one JSON line on stdout.  Commands arrive only while no request is
in flight, so they never race the dispatch worker:

``trace_on`` / ``trace_off``
    install / remove the span wrappers (:mod:`tracing`);
``checkpoint``
    publish a durable checkpoint (no-op for the cluster);
``report``
    span summary, counter deltas since ready, rank-match cache deltas,
    the ``ingest`` histogram's bucket deltas while traced;
``stop``
    stop the front door, close the backend *without* a final checkpoint
    (so recovery replays a WAL suffix), report peak RSS and exit.

Nothing on the serving path calls ``ClusterRouter.pump``, so the launcher
follows the cadence of the cluster failover drill
(``repro.cluster.drill``: ingest, flush, pump): one ``DeltaBus`` round on
the dispatch worker after every ``/v1/scans`` request.  The linear city's
routes share no segment, so these rounds find nothing to deliver; the
benchmark measures only the bus's empty path.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from repro.cluster.build import build_cluster  # noqa: E402
from repro.cluster.plan import ShardPlan  # noqa: E402
from repro.pipeline.durable import DurableServer  # noqa: E402
from repro.serving.app import make_app  # noqa: E402
from repro.serving.http import HttpServer  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, build_city  # noqa: E402

NUM_SHARDS = 4
SAMPLED_SPANS = ("server.ingest_admitted",)


class _Dispatch:
    """The front door's dispatch callable.

    Looks ``app.dispatch`` up on every call (``HttpServer`` keeps the
    callable it was built with, and tracing swaps the class attribute
    later) and, for the cluster, runs a delta-bus round after every
    driver-scan request.
    """

    def __init__(self, app, router=None) -> None:
        self.app = app
        self.router = router

    def __call__(self, request):
        response = self.app.dispatch(request)
        if self.router is not None and request.path == "/v1/scans":
            self.router.pump()
        return response


def build_backend(spec, city, data_dir: Path):
    """The workload's backend over ``city``, warmed with its reports."""
    if spec.backend == "cluster":
        router = build_cluster(city.server, ShardPlan.build(city.routes, NUM_SHARDS))
        router.ingest_many(city.reports)
        router.flush()
        return router
    durable = DurableServer(city.server, data_dir)
    durable.submit_many(city.reports)
    durable.flush()
    return durable


def _metric_sources(backend) -> list:
    if hasattr(backend, "nodes"):
        return [backend.metrics] + [n.core.metrics for _, n in sorted(backend.nodes.items())]
    return [backend.server.metrics]


def _counters(backend) -> dict[str, int]:
    total: dict[str, int] = {}
    for metrics in _metric_sources(backend):
        for name, value in metrics.counters.items():
            total[name] = total.get(name, 0) + value
    return total


def _ingest_buckets(backend) -> list[int]:
    buckets: list[int] = []
    for metrics in _metric_sources(backend):
        counts = metrics.latency("ingest").bucket_counts
        buckets = [a + b for a, b in zip(buckets, counts)] if buckets else list(counts)
    return buckets


def _traced_buckets(backend, closed: list[int], since: list[int] | None) -> list[int]:
    """Ingest-histogram counts of the finished traced windows plus the open one."""
    if since is None:
        return closed
    now = _ingest_buckets(backend)
    return [c + a - b for c, a, b in zip(closed, now, since)]


def _svd_cache(city) -> dict[str, int]:
    hits = misses = 0
    for svd in {id(s): s for s in city.server.svds.values()}.values():
        info = svd.cache_info()
        hits += int(info["hits"])
        misses += int(info["misses"])
    return {"hits": hits, "misses": misses}


def _diff(after: dict, before: dict) -> dict:
    return {k: v - before.get(k, 0) for k, v in after.items() if v != before.get(k, 0)}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


async def serve(workload: str, data_dir: Path) -> None:
    spec = WORKLOADS[workload]
    city = build_city(spec)
    backend = build_backend(spec, city, data_dir)
    app = make_app(backend)
    http = HttpServer(_Dispatch(app, backend if spec.backend == "cluster" else None))
    port = await http.start()
    tracer = Tracer()
    base_counters = _counters(backend)
    base_cache = _svd_cache(city)
    trace_buckets = [0] * len(_ingest_buckets(backend))
    traced_since: list[int] | None = None
    _reply({"ready": port})

    loop = asyncio.get_running_loop()
    while True:
        line = await loop.run_in_executor(None, sys.stdin.readline)
        cmd = json.loads(line)["cmd"] if line.strip() else "stop"
        if cmd == "trace_on":
            tracer.install()
            traced_since = _ingest_buckets(backend)
            _reply({"ok": True})
        elif cmd == "trace_off":
            tracer.remove()
            trace_buckets = _traced_buckets(backend, trace_buckets, traced_since)
            traced_since = None
            _reply({"ok": True})
        elif cmd == "checkpoint":
            if isinstance(backend, DurableServer):
                backend.checkpoint()
            _reply({"ok": True})
        elif cmd == "report":
            _reply(
                {
                    "spans": tracer.summary(SAMPLED_SPANS),
                    "counters": _diff(_counters(backend), base_counters),
                    "svd_cache": _diff(_svd_cache(city), base_cache),
                    "ingest_buckets": _traced_buckets(backend, trace_buckets, traced_since),
                    "bus_delivered": getattr(getattr(backend, "bus", None), "delivered_total", 0),
                }
            )
        elif cmd == "stop":
            tracer.remove()
            await http.stop()
            if isinstance(backend, DurableServer):
                backend.close(checkpoint=False)
            _reply({"peak_rss_mb": _peak_rss_mb()})
            return
        else:
            _reply({"error": f"unknown command {cmd!r}"})


def _reply(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--data-dir", required=True, type=Path)
    args = parser.parse_args()
    asyncio.run(serve(args.workload, args.data_dir))


if __name__ == "__main__":
    main()

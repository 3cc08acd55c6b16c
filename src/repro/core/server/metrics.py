"""Server-side observability: counters, latency histograms, cache rates.

A production WiLocator deployment lives or dies by per-query cost, so the
server instruments its hot stages — report ingestion, position fixing,
arrival prediction and rider queries, plus the durable pipeline's
``wal_flush``, ``batch_flush``, ``checkpoint`` and ``replay`` stages when
a :class:`~repro.pipeline.durable.DurableServer` shares the metrics —
with:

* monotonic **counters** (reports ingested, queries served, index
  traversals, ...);
* fixed-bucket **latency histograms** per stage, cheap enough to update on
  every call (two comparisons and an integer increment);
* **cache statistics** (hit/miss/rate) for the rank-vector match cache and
  any future caches.

Everything is exported as one plain-``dict`` snapshot via
:meth:`WiLocatorServer.metrics_snapshot
<repro.core.server.server.WiLocatorServer.metrics_snapshot>` and rendered
by the ``metrics`` CLI subcommand (``python -m repro.cli metrics``).
"""

from __future__ import annotations

import bisect
import math
import time
from contextlib import contextmanager
from typing import Iterator, Sequence

# Geometric bucket upper bounds in seconds, 10 us .. 5 s.  Anything slower
# lands in the +Inf overflow bucket.
DEFAULT_BUCKET_BOUNDS: tuple[float, ...] = (
    1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2,
    1e-1, 2.5e-1, 5e-1,
    1.0, 2.5, 5.0,
)


class LatencyHistogram:
    """A fixed-bucket histogram of durations in seconds."""

    __slots__ = ("bounds", "bucket_counts", "count", "total_s", "min_s", "max_s")

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_BUCKET_BOUNDS) -> None:
        if list(bounds) != sorted(bounds):
            raise ValueError("bucket bounds must be sorted ascending")
        self.bounds = tuple(bounds)
        self.bucket_counts = [0] * (len(self.bounds) + 1)  # +1 overflow
        self.count = 0
        self.total_s = 0.0
        self.min_s = float("inf")
        self.max_s = 0.0

    def observe(self, seconds: float) -> None:
        seconds = max(seconds, 0.0)
        i = bisect.bisect_left(self.bounds, seconds)
        self.bucket_counts[i] += 1
        self.count += 1
        self.total_s += seconds
        self.min_s = min(self.min_s, seconds)
        self.max_s = max(self.max_s, seconds)

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile: the upper bound of the covering bucket."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if not self.count:
            return 0.0
        target = q * self.count
        seen = 0
        for i, n in enumerate(self.bucket_counts):
            seen += n
            if seen >= target and n:
                if i < len(self.bounds):
                    return self.bounds[i]
                return self.max_s
        return self.max_s

    def snapshot(self) -> dict[str, float | int]:
        return {
            "count": self.count,
            "total_s": self.total_s,
            "mean_s": self.mean_s,
            "p50_s": self.quantile(0.5),
            "p95_s": self.quantile(0.95),
            "min_s": self.min_s if self.count else 0.0,
            "max_s": self.max_s,
        }


def nearest_rank(sorted_values: Sequence[float], p: float) -> float:
    """Exact nearest-rank percentile ``p`` in (0, 100]; 0.0 when empty.

    The one percentile rule for exact samples: the shadow scorecards and
    the benchmark's request latencies both read it, while
    :meth:`LatencyHistogram.quantile` stays the cheap bucketed estimate.
    """
    if not sorted_values:
        return 0.0
    if not 0 < p <= 100:
        raise ValueError("percentile must be in (0, 100]")
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


class CacheStats:
    """Hit/miss bookkeeping for one named cache."""

    __slots__ = ("hits", "misses")

    def __init__(self, hits: int = 0, misses: int = 0) -> None:
        self.hits = hits
        self.misses = misses

    def hit(self, n: int = 1) -> None:
        self.hits += n

    def miss(self, n: int = 1) -> None:
        self.misses += n

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def snapshot(self) -> dict[str, float | int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
        }


class ServerMetrics:
    """Counters, per-stage latency histograms and cache statistics.

    Stage names used by the server and rider API:

    ============== =====================================================
    ``admission``   one :meth:`IngestGuard.admit` decision (guard layer)
    ``ingest``      one full :meth:`WiLocatorServer.ingest` call
    ``position_fix``the tracking step inside ingest (locate + extract)
    ``predict``     one arrival-time prediction (Eq. 8/9 chain)
    ``query``       one rider-facing query (departures/plan/positions)
    ============== =====================================================
    """

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self._latencies: dict[str, LatencyHistogram] = {}
        self._caches: dict[str, CacheStats] = {}

    # -- counters -----------------------------------------------------------

    def incr(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def counter(self, name: str) -> int:
        return self.counters.get(name, 0)

    # -- latencies ----------------------------------------------------------

    def latency(self, stage: str) -> LatencyHistogram:
        hist = self._latencies.get(stage)
        if hist is None:
            hist = self._latencies[stage] = LatencyHistogram()
        return hist

    def observe(self, stage: str, seconds: float) -> None:
        self.latency(stage).observe(seconds)

    @contextmanager
    def timer(self, stage: str) -> Iterator[None]:
        """``with metrics.timer("query"): ...`` records the block duration."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.observe(stage, time.perf_counter() - t0)

    # -- caches -------------------------------------------------------------

    def cache(self, name: str) -> CacheStats:
        cs = self._caches.get(name)
        if cs is None:
            cs = self._caches[name] = CacheStats()
        return cs

    # -- export -------------------------------------------------------------

    def snapshot(self) -> dict:
        """A plain-``dict`` view of everything (JSON-serialisable)."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "latency": {
                stage: hist.snapshot()
                for stage, hist in sorted(self._latencies.items())
            },
            "caches": {
                name: cs.snapshot() for name, cs in sorted(self._caches.items())
            },
        }


def format_snapshot(snapshot: dict) -> str:
    """Render a metrics snapshot as an aligned text report."""
    lines: list[str] = []
    counters = snapshot.get("counters", {})
    if counters:
        lines.append("counters:")
        width = max(len(k) for k in counters)
        for name, value in counters.items():
            lines.append(f"  {name:<{width}}  {value}")
    latency = snapshot.get("latency", {})
    if latency:
        lines.append("latency (seconds):")
        width = max(len(k) for k in latency)
        for stage, h in latency.items():
            lines.append(
                f"  {stage:<{width}}  n={h['count']:<7} mean={h['mean_s']:.6f} "
                f"p50={h['p50_s']:.6f} p95={h['p95_s']:.6f} max={h['max_s']:.6f}"
            )
    caches = snapshot.get("caches", {})
    if caches:
        lines.append("caches:")
        width = max(len(k) for k in caches)
        for name, c in caches.items():
            lines.append(
                f"  {name:<{width}}  hits={c['hits']:<7} misses={c['misses']:<7} "
                f"hit_rate={c['hit_rate']:.1%}"
            )
    for extra in ("stats", "index"):
        table = snapshot.get(extra, {})
        if table:
            lines.append(f"{extra}:")
            width = max(len(k) for k in table)
            for name, value in table.items():
                lines.append(f"  {name:<{width}}  {value}")
    return "\n".join(lines) if lines else "(no metrics recorded)"

"""Request-latency percentiles for the end-to-end serving benchmark.

The benchmark (``perfbench/run.py``) measures its open-loop request
latencies in seconds and reports ``p50_ms``/``p95_ms`` through
:func:`percentile_ms`, imported from this module path.  The module
outlived the open-loop ramp it was written for so that import keeps
working; the percentile rule itself is
:func:`repro.core.server.metrics.nearest_rank`.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.server.metrics import nearest_rank

__all__ = ["percentile_ms"]


def percentile_ms(latencies_s: Sequence[float], q: float) -> float:
    """Exact nearest-rank percentile of latencies in seconds, in milliseconds."""
    return nearest_rank(sorted(latencies_s), q) * 1000.0

"""The serving benchmark's latency percentiles.

``percentile_ms`` takes latencies in seconds and reports the exact
nearest-rank percentile in milliseconds, so a reported p99 is always a
latency some request really saw.
"""

from __future__ import annotations

import pytest

from repro.serving.loadgen import percentile_ms

pytestmark = pytest.mark.serving


class TestPercentiles:
    def test_nearest_rank_exactness(self):
        latencies = [i / 1000.0 for i in range(1, 101)]  # 1..100 ms
        assert percentile_ms(latencies, 50.0) == 50.0
        assert percentile_ms(latencies, 95.0) == 95.0
        assert percentile_ms(latencies, 99.0) == 99.0
        assert percentile_ms(latencies, 100.0) == 100.0

    def test_single_sample_is_every_percentile(self):
        assert percentile_ms([0.042], 50.0) == 42.0
        assert percentile_ms([0.042], 99.0) == 42.0

    def test_empty_and_out_of_range(self):
        assert percentile_ms([], 99.0) == 0.0
        with pytest.raises(ValueError):
            percentile_ms([0.01], 0.0)
        with pytest.raises(ValueError):
            percentile_ms([0.01], 101.0)

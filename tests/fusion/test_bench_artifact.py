"""The committed BENCH_fusion.json artifact tells the AP-outage story.

The shared gate (``tests/test_bench_artifacts.py``) checks the format;
this one checks the story's *order*: healthy MAEs exactly equal (fusion
is a pass-through on a fresh anchor, so parity is structural, not
statistical), fused outage MAE far below wifi-only, and the learned GPS
clock skew at the injected value.  The drill is seeded and report-time
clocked, so every number here is byte-reproducible.  Regenerate with::

    python -m repro.cli fusion --out BENCH_fusion.json
"""

from __future__ import annotations

import pytest

from tests.test_bench_artifacts import load_bench

pytestmark = pytest.mark.fusion


@pytest.fixture(scope="module")
def bench():
    return load_bench("BENCH_fusion.json")


class TestArtifactShape:
    def test_config_sets_up_the_drill(self, bench):
        lo, hi = bench["config"]["outage_window_s"]
        assert hi - lo >= 5 * bench["config"]["wifi_fresh_s"]

    def test_healthy_phase_is_an_exact_tie(self, bench):
        healthy = bench["drill"]["healthy"]
        assert healthy["ticks"] > 0
        # same anchors, same pass-through code path: equal, not just close
        assert healthy["fused_mae_m"] == healthy["wifi_only_mae_m"]

    def test_fusion_carries_the_outage(self, bench):
        outage = bench["drill"]["outage"]
        assert outage["ticks"] > 0
        assert outage["wifi_only_mae_m"] > 100.0  # the stale anchor drifts off
        assert outage["fused_mae_m"] < 0.5 * outage["wifi_only_mae_m"]

    def test_gps_clock_skew_was_learned(self, bench):
        cal = bench["drill"]["gps_calibration"]
        injected = bench["config"]["gps_skew_s"]
        assert cal["samples"] >= 10
        assert abs(cal["clock_skew_s"] - injected) < 0.5
        assert cal["noise_m"] > 0.0

    def test_counters_show_real_fusion_work(self, bench):
        counters = bench["counters"]
        assert counters["fusion.fused_fixes"] > 0
        assert counters["fusion.stored"] > 0
        assert counters["fusion.calibrations"] >= counters["fusion.anchors"]

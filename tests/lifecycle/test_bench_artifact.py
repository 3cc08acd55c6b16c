"""The committed BENCH_lifecycle.json artifact tells the regime-change story.

The shared gate (``tests/test_bench_artifacts.py``) checks the format;
this one checks the story's *order* — frozen MAE far above the
calibration baseline, shadow candidate far below serving, promoted MAE
back near baseline — without pinning machine-dependent exact values (only the
retrain latency varies between machines).  Regenerate with::

    python -m repro.cli lifecycle --action bench --out BENCH_lifecycle.json
"""

from __future__ import annotations

import pytest

from tests.test_bench_artifacts import load_bench

pytestmark = pytest.mark.lifecycle


@pytest.fixture(scope="module")
def bench():
    return load_bench("BENCH_lifecycle.json")


class TestArtifactShape:
    def test_config_sets_up_the_drill(self, bench):
        assert bench["config"]["headway_s"] > bench["config"]["recent_window_s"]

    def test_frozen_model_degrades(self, bench):
        drill = bench["drill"]
        assert drill["post_shift_frozen_mae_s"] > 5 * max(
            drill["pre_shift_mae_s"], 1.0
        )

    def test_shadow_orders_the_models_correctly(self, bench):
        shadow = bench["drill"]["shadow"]
        assert shadow["samples"] >= 10
        assert shadow["candidate_mae_s"] < 0.2 * shadow["serving_mae_s"]

    def test_promotion_restores_accuracy(self, bench):
        drill = bench["drill"]
        assert drill["post_promotion_mae_s"] < 0.2 * drill["post_shift_frozen_mae_s"]

    def test_versions_and_rollback_recorded(self, bench):
        drill = bench["drill"]
        assert drill["bootstrap_version"] != drill["promoted_version"]
        assert drill["rollback_byte_identical"] is True
        assert drill["drift_alarms"] > 0

    def test_retrain_stats_are_sane(self, bench):
        retrain = bench["retrain"]
        assert retrain["latency_ms"] > 0.0
        assert retrain["records"] >= retrain["segments"] > 0

"""The committed BENCH_elastic.json artifact tells the resharding story.

The shared gate (``tests/test_bench_artifacts.py``) checks the format;
this one checks the story: every scenario in the matrix present with
its expected outcome, all parity checks green, nothing parked ever
lost.  The drill is deterministic
(seeded chaos, no wall clocks), so exact counts are stable across
machines.  Regenerate with::

    python -m repro.cli elastic --out BENCH_elastic.json
"""

from __future__ import annotations

import pytest

from tests.elastic.test_drill import EXPECTED_OUTCOMES
from tests.test_bench_artifacts import load_bench

pytestmark = pytest.mark.elastic


@pytest.fixture(scope="module")
def bench():
    return load_bench("BENCH_elastic.json")


class TestArtifactShape:
    def test_config_sets_up_the_drill(self, bench):
        assert bench["config"]["phase_every_reports"] >= 1
        assert bench["config"]["city"]["num_pairs"] == 2

    def test_full_matrix_with_expected_outcomes(self, bench):
        outcomes = {s["name"]: s["outcome"] for s in bench["scenarios"]}
        assert outcomes == EXPECTED_OUTCOMES

    def test_parity_everywhere(self, bench):
        assert bench["totals"]["parity_ok"] is True
        for scenario in bench["scenarios"]:
            assert scenario["parity_ok"] is True, scenario["name"]
            assert scenario["mismatches"] == [], scenario["name"]

    def test_totals_add_up(self, bench):
        totals = bench["totals"]
        scenarios = bench["scenarios"]
        assert totals["scenarios"] == len(scenarios) == len(EXPECTED_OUTCOMES)
        assert totals["committed"] == sum(
            1 for s in scenarios if s["outcome"] == "COMMITTED"
        )
        assert totals["aborted"] == sum(
            1 for s in scenarios if s["outcome"] == "ABORTED"
        )
        assert totals["parked"] == sum(s["parked"] for s in scenarios)
        assert totals["resubmitted"] == totals["parked"] > 0

    def test_faults_were_injected(self, bench):
        assert bench["totals"]["chaos_injected"] > 0
        assert bench["totals"]["resumed"] == 2

    def test_autoscale_trail_recorded(self, bench):
        autoscale = bench["autoscale"]
        assert autoscale["evaluations"] > 0
        assert autoscale["split_proposals"] >= 1
        assert autoscale["merge_proposals"] >= 1
        assert "split_reason" in autoscale or "merge_reason" in autoscale

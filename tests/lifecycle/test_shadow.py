"""Shadow scoring: percentiles, scorecards, leak-free evaluation."""

from __future__ import annotations

import pytest

from repro.core.arrival.history import TravelTimeStore
from repro.core.arrival.predictor import ArrivalTimePredictor
from repro.core.arrival.seasonal import SlotScheme
from repro.core.server.metrics import nearest_rank
from repro.lifecycle.shadow import ModelScore, ShadowEvaluator

from tests.lifecycle.conftest import record

pytestmark = pytest.mark.lifecycle


class TestNearestRank:
    def test_empty_is_zero(self):
        assert nearest_rank([], 99) == 0.0

    def test_known_ranks(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        assert nearest_rank(values, 50) == 5.0
        assert nearest_rank(values, 95) == 10.0
        assert nearest_rank(values, 10) == 1.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            nearest_rank([1.0], 0)
        with pytest.raises(ValueError):
            nearest_rank([1.0], 101)

    def test_exact_percentiles(self):
        one_to_hundred = [float(i) for i in range(1, 101)]
        assert [nearest_rank(one_to_hundred, q) for q in (50.0, 95.0, 99.0, 100.0)] == [
            50.0, 95.0, 99.0, 100.0,
        ]
        assert nearest_rank([42.0], 50.0) == nearest_rank([42.0], 99.0) == 42.0


class TestModelScore:
    def test_empty_score_has_no_mae(self):
        score = ModelScore("x")
        assert score.mae is None
        assert score.count == 0
        assert score.summary()["mae_s"] is None

    def test_accumulates_per_segment_and_route(self):
        score = ModelScore("x")
        score.add("S0", "R0", 2.0)
        score.add("S0", "R0", 4.0)
        score.add("S1", "R1", 6.0)
        assert score.mae == 4.0
        assert score.segment_mae() == {"S0": 3.0, "S1": 6.0}
        assert score.route_mae() == {"R0": 3.0, "R1": 6.0}
        summary = score.summary()
        assert summary["samples"] == 3
        assert summary["p50_s"] == 4.0

    def test_skips_are_counted_separately(self):
        score = ModelScore("x")
        score.skip()
        score.add("S0", "R0", 1.0)
        assert (score.count, score.skipped) == (1, 1)


def predictor_with(travel_s: float) -> ArrivalTimePredictor:
    """A predictor whose history says every segment takes ``travel_s``."""
    store = TravelTimeStore()
    for k in range(3):
        store.add(record("S0", t_enter=1000.0 + 600.0 * k, travel_s=travel_s))
    # use_recent stays on (the serving default) — the leak-free test
    # below depends on the Eq. 8 recency path being live.
    return ArrivalTimePredictor(store, SlotScheme.hourly())


class TestShadowEvaluator:
    def test_scores_both_models_on_the_same_label(self):
        serving = predictor_with(40.0)
        candidate = predictor_with(80.0)
        ev = ShadowEvaluator(serving, candidate, candidate_version="m1")
        sample = ev.observe(record("S0", t_enter=5000.0, travel_s=80.0))
        assert sample.actual_s == 80.0
        assert sample.serving_s == pytest.approx(40.0)
        assert sample.candidate_s == pytest.approx(80.0)
        assert ev.serving_score.mae == pytest.approx(40.0)
        assert ev.candidate_score.mae == pytest.approx(0.0)
        assert ev.samples == 1

    def test_unknown_segment_counts_as_skip(self):
        ev = ShadowEvaluator(
            predictor_with(40.0), predictor_with(40.0), candidate_version="m1"
        )
        ev.observe(record("NOPE", t_enter=5000.0, travel_s=10.0))
        assert ev.samples == 0
        assert ev.serving_score.skipped == 1
        assert ev.candidate_score.skipped == 1

    def test_summary_carries_both_scorecards(self):
        ev = ShadowEvaluator(
            predictor_with(40.0), predictor_with(80.0), candidate_version="m7"
        )
        ev.observe(record("S0", t_enter=5000.0, travel_s=80.0))
        summary = ev.summary()
        assert summary["candidate_version"] == "m7"
        assert summary["serving"]["name"] == "serving"
        assert summary["candidate"]["name"] == "m7"

    def test_scoring_at_t_enter_never_sees_the_label(self):
        """The leak-free property: a shared live store may already hold
        the record being scored (the server observes before the hook
        fires), but ``recent(now=t_enter)`` excludes anything that
        finished after the query time — so the prediction cannot be
        contaminated by its own label."""
        serving = predictor_with(40.0)
        label = record("S0", t_enter=5000.0, travel_s=100.0)
        serving.live.add(label)  # ingest already stored it
        ev = ShadowEvaluator(
            serving, predictor_with(40.0), candidate_version="m1"
        )
        sample = ev.observe(label)
        # Had the label leaked, the Eq. 8 residual would drag the
        # prediction toward 100 s; it must stay at the historical 40 s.
        assert sample.serving_s == pytest.approx(40.0)

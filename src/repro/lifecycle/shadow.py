"""Shadow-mode scoring: candidate vs serving model, same live traffic.

Every completed traversal the server extracts is a labelled example:
the bus *actually* took ``t_exit - t_enter`` seconds over the segment.
The shadow evaluator asks both models — the serving predictor and a
candidate predictor sharing the same live store — what they *would*
have predicted at the moment the bus entered the segment, and folds the
absolute errors into per-model scorecards (MAE overall, per segment,
per route, nearest-rank percentiles).

Scoring at ``t_enter`` is leak-free even though the server feeds the
predictor before the lifecycle hook fires: the freshly-extracted record
has ``t_exit > t_enter``, and :meth:`TravelTimeStore.recent` only
surfaces traversals that *finished* by the query time — so neither
model can see the label it is being scored on.

The candidate's answers stop here: nothing in this module (or anything
downstream of it) routes a candidate prediction into a rider response.
Promotion is the only door (:mod:`repro.lifecycle.manager`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.arrival.history import TravelTimeRecord
from repro.core.arrival.predictor import ArrivalTimePredictor
from repro.core.server.metrics import nearest_rank

__all__ = ["ModelScore", "ShadowSample", "ShadowEvaluator"]


@dataclass
class ModelScore:
    """Accumulated arrival-prediction error of one model on live traffic."""

    name: str

    def __post_init__(self) -> None:
        self.errors: list[float] = []
        self.by_segment: dict[str, list[float]] = {}
        self.by_route: dict[str, list[float]] = {}
        self.skipped = 0

    def add(self, segment_id: str, route_id: str, abs_error: float) -> None:
        self.errors.append(abs_error)
        self.by_segment.setdefault(segment_id, []).append(abs_error)
        self.by_route.setdefault(route_id, []).append(abs_error)

    def skip(self) -> None:
        """The model had no prediction for a scored traversal."""
        self.skipped += 1

    @property
    def count(self) -> int:
        return len(self.errors)

    @property
    def mae(self) -> float | None:
        if not self.errors:
            return None
        return sum(self.errors) / len(self.errors)

    def percentile(self, p: float) -> float:
        return nearest_rank(sorted(self.errors), p)

    def segment_mae(self) -> dict[str, float]:
        return {
            sid: sum(errs) / len(errs)
            for sid, errs in sorted(self.by_segment.items())
        }

    def route_mae(self) -> dict[str, float]:
        return {
            rid: sum(errs) / len(errs)
            for rid, errs in sorted(self.by_route.items())
        }

    def summary(self) -> dict[str, Any]:
        """JSON-safe scorecard (manifest / status / benchmark payloads)."""
        return {
            "name": self.name,
            "samples": self.count,
            "skipped": self.skipped,
            "mae_s": self.mae,
            "p50_s": self.percentile(50),
            "p95_s": self.percentile(95),
            "p99_s": self.percentile(99),
            "segment_mae_s": self.segment_mae(),
            "route_mae_s": self.route_mae(),
        }


@dataclass(frozen=True, slots=True)
class ShadowSample:
    """One traversal scored against both models (drift-monitor feed)."""

    segment_id: str
    route_id: str
    t: float
    actual_s: float
    serving_s: float | None
    candidate_s: float | None


class ShadowEvaluator:
    """Scores a candidate against the serving model on live traversals."""

    def __init__(
        self,
        serving: ArrivalTimePredictor,
        candidate: ArrivalTimePredictor,
        *,
        candidate_version: str,
    ) -> None:
        self.serving_predictor = serving
        self.candidate_predictor = candidate
        self.candidate_version = candidate_version
        self.serving_score = ModelScore("serving")
        self.candidate_score = ModelScore(candidate_version)

    def observe(self, record: TravelTimeRecord) -> ShadowSample:
        """Score one completed traversal against both models."""
        actual = record.travel_time
        sample = ShadowSample(
            segment_id=record.segment_id,
            route_id=record.route_id,
            t=record.t_enter,
            actual_s=actual,
            serving_s=self.serving_predictor.predict_segment_time(
                record.segment_id, record.route_id, record.t_enter
            ),
            candidate_s=self.candidate_predictor.predict_segment_time(
                record.segment_id, record.route_id, record.t_enter
            ),
        )
        for score, predicted in (
            (self.serving_score, sample.serving_s),
            (self.candidate_score, sample.candidate_s),
        ):
            if predicted is None:
                score.skip()
            else:
                score.add(
                    record.segment_id, record.route_id, abs(predicted - actual)
                )
        return sample

    @property
    def samples(self) -> int:
        """Traversals both models produced a prediction for."""
        return min(self.serving_score.count, self.candidate_score.count)

    def summary(self) -> dict[str, Any]:
        return {
            "candidate_version": self.candidate_version,
            "samples": self.samples,
            "serving": self.serving_score.summary(),
            "candidate": self.candidate_score.summary(),
        }

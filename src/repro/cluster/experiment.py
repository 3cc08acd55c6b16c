"""Acceptance experiment: sharded accuracy parity via delta replication.

The scenario is :func:`~repro.eval.synth_city.build_overlap_city`: pairs
of routes sharing every segment, where the ``A`` routes' buses sit still
(no own traversals) and the ``B`` routes' buses drive at a live pace
different from the seeded history.  An ``A`` bus's arrival prediction is
then *entirely* dependent on Eq. 8's cross-route residual — evidence
that, once ``A`` and ``B`` are placed on different shards, only reaches
``A``'s predictor over the :class:`~repro.cluster.bus.DeltaBus`.

Three systems see the identical report stream:

1. the single server (the accuracy ceiling);
2. a cluster that splits every pair across shards, bus **enabled**;
3. the same cluster with the bus **disabled** (the ablation).

With replication on, the cluster's predictions match the single server's
(same residual evidence, so the MAE gap is ~0); with it off, predictions
collapse to the stale historical pace and the MAE is visibly worse —
proving the replication path is load-bearing, not decorative.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.eval.synth_city import SynthCity, build_overlap_city

from repro.cluster.bus import DeltaBus
from repro.cluster.plan import ShardPlan
from repro.cluster.router import ClusterRouter
from repro.cluster.build import build_cluster

__all__ = ["ClusterAccuracy", "split_pairs_plan", "run_accuracy"]


@dataclass(frozen=True)
class ClusterAccuracy:
    """Arrival-prediction error of single server vs cluster (+/- bus)."""

    num_shards: int
    n_predictions: int
    mae_single_s: float
    mae_cluster_s: float
    mae_cluster_nobus_s: float
    max_abs_diff_vs_single_s: float
    """Largest per-prediction |cluster - single| arrival-time gap."""
    deltas_published: int
    deltas_applied: int

    def summary(self) -> str:
        return "\n".join(
            [
                f"predictions:        {self.n_predictions} "
                f"({self.num_shards} shards)",
                f"MAE single server:  {self.mae_single_s:8.2f} s",
                f"MAE cluster (bus):  {self.mae_cluster_s:8.2f} s "
                f"(max gap vs single {self.max_abs_diff_vs_single_s:.3f} s)",
                f"MAE cluster nobus:  {self.mae_cluster_nobus_s:8.2f} s",
                f"deltas:             {self.deltas_published} published, "
                f"{self.deltas_applied} applied",
            ]
        )


def split_pairs_plan(city: SynthCity, num_shards: int = 2) -> ShardPlan:
    """A plan that forces every overlapped A/B pair across shard lines.

    ``A<p>`` and ``B<p>`` land on different shards for every pair, so
    every prediction-relevant traversal must cross the delta bus — the
    worst case a consistent-hash placement could produce, made total.
    """
    if num_shards < 2:
        raise ValueError("splitting pairs needs at least two shards")
    assignment = {}
    for rid in city.routes:
        pair = int(rid[1:])
        offset = 0 if rid.startswith("A") else 1
        assignment[rid] = (2 * pair + offset) % num_shards
    return ShardPlan.from_assignment(assignment, city.routes)


def _evaluate(city: SynthCity, predict) -> list[float]:
    """Absolute arrival-time errors of every query-bus/stop prediction.

    Ground truth is the live pace: a bus at arc ``a`` reaches the stop at
    ``t + (stop_arc - a) / feeder_speed`` — what the feeder buses are
    actually driving, and what a predictor with fresh residuals infers.
    """
    feeder_speed = city.params["feeder_speed_mps"]
    errors: list[float] = []
    for p in range(city.params["num_pairs"]):
        rid = f"A{p:02d}"
        route = city.routes[rid]
        for s in range(city.params["query_sessions"]):
            key = f"bus:{rid}:{s}"
            for stop in route.stops[1:]:
                pred, last = predict(key, stop.stop_id)
                if pred is None:
                    continue
                stop_arc = route.stop_arc_length(stop)
                truth = last.t + (stop_arc - last.arc_length) / feeder_speed
                errors.append(abs(pred.t_arrival - truth))
    return errors


def _cluster_predictions(
    city: SynthCity, router: ClusterRouter
) -> dict[tuple[str, str], float]:
    out: dict[tuple[str, str], float] = {}

    def predict(key, stop_id):
        shard_id = router.shard_of_session(key)
        last = (
            router.current_position(key) if shard_id is not None else None
        )
        pred = router.predict_arrival(key, stop_id)
        if pred is not None:
            out[(key, stop_id)] = pred.t_arrival
        return pred, last

    _evaluate(city, predict)
    return out


def run_accuracy(*, num_shards: int = 2, **city_kwargs) -> ClusterAccuracy:
    """The cross-shard parity experiment (see the module docstring)."""
    city = build_overlap_city(**city_kwargs)

    # 1. Single server: everything in one process, the accuracy ceiling.
    city.replay()
    single_arrivals: dict[tuple[str, str], float] = {}

    def predict_single(key, stop_id):
        last = city.server.current_position(key)
        pred = city.server.predict_arrival(key, stop_id)
        if pred is not None:
            single_arrivals[(key, stop_id)] = pred.t_arrival
        return pred, last

    errors_single = _evaluate(city, predict_single)

    # 2. Cluster, every pair split across shards, delta bus enabled.
    with_bus = city.fresh_twin()
    plan = split_pairs_plan(with_bus, num_shards)
    router = build_cluster(with_bus.server, plan)
    router.ingest_many(with_bus.reports)
    router.pump(now=with_bus.now)
    errors_cluster = _evaluate(
        with_bus,
        lambda key, stop_id: (
            router.predict_arrival(key, stop_id),
            router.current_position(key),
        ),
    )
    cluster_arrivals = _cluster_predictions(with_bus, router)

    # 3. Same cluster shape, replication disabled: the ablation.
    nobus = city.fresh_twin()
    router_nobus = build_cluster(
        nobus.server,
        split_pairs_plan(nobus, num_shards),
        bus=DeltaBus(enabled=False),
    )
    router_nobus.ingest_many(nobus.reports)
    router_nobus.pump(now=nobus.now)
    errors_nobus = _evaluate(
        nobus,
        lambda key, stop_id: (
            router_nobus.predict_arrival(key, stop_id),
            router_nobus.current_position(key),
        ),
    )

    def mae(errors: list[float]) -> float:
        return sum(errors) / len(errors) if errors else float("nan")

    max_gap = max(
        (
            abs(cluster_arrivals[k] - single_arrivals[k])
            for k in single_arrivals
            if k in cluster_arrivals
        ),
        default=float("nan"),
    )
    totals = router.counters()
    return ClusterAccuracy(
        num_shards=num_shards,
        n_predictions=len(errors_single),
        mae_single_s=mae(errors_single),
        mae_cluster_s=mae(errors_cluster),
        mae_cluster_nobus_s=mae(errors_nobus),
        max_abs_diff_vs_single_s=max_gap,
        deltas_published=totals.get("cluster.deltas_published", 0),
        deltas_applied=totals.get("cluster.deltas_applied", 0),
    )

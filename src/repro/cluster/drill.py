"""Failover drill: crash a shard mid-run, recover it, prove parity.

The drill runs the overlap city through a two-shard durable cluster —
query routes on shard 0, feeder routes (the delta producers) on shard 1
— alongside a never-failed twin cluster fed the identical stream:

1. **steady state**: every report is ingested, flushed and pumped, one
   at a time, on both clusters; shard 1 publishes a checkpoint part-way;
2. **crash**: a torn WAL write (via :class:`~repro.guard.chaos.FaultyFS`)
   degrades one report to memory-only, then the shard is killed without
   a close — the degraded report and everything after it is lost from
   durable state.  While the shard is down the router refuses its
   ingest (callers park the reports), serves shard-0 answers degraded,
   and counts every refusal and skipped query under ``cluster.*``;
3. **recovery**: a fresh node over an identically configured virgin
   server recovers from the shard's checkpoint + WAL suffix, rejoins
   via :meth:`ClusterRouter.restore_shard` (which rewinds the delta-bus
   cursors to its restored high-water marks), and the drill resubmits
   exactly the reports durable state never saw — the WAL tail the torn
   write dropped plus everything parked during the outage;
4. **parity**: live travel-time stores, session positions and arrival
   predictions of both clusters must be identical, and the delta bus
   must be fully drained — replayed deltas re-emitted under their
   original sequence numbers were deduplicated, not double-applied.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.core.server.server import WiLocatorServer
from repro.eval.synth_city import SynthCity, build_overlap_city
from repro.guard.chaos import FaultyFS
from repro.sensing.reports import ScanReport

from repro.cluster.build import build_cluster, shard_server
from repro.cluster.experiment import split_pairs_plan
from repro.cluster.node import ShardNode
from repro.cluster.router import ClusterRouter

__all__ = ["FailoverResult", "run_failover_drill"]

_VICTIM = 1  # the feeder shard: killing the delta producer is the hard case


@dataclass(frozen=True)
class FailoverResult:
    """Everything the failover drill observed and proved."""

    reports_total: int
    victim_reports: int
    lost_resubmitted: int
    parked_during_outage: int
    rejected_during_outage: int
    degraded_predictions: int
    queries_skipped: int
    outage_status: str
    recovery_checkpoint_seq: int
    recovery_replayed: int
    deltas_deduped: int
    bus_backlog_after: int
    parity_ok: bool
    mismatches: tuple[str, ...]

    def summary(self) -> str:
        lines = [
            f"reports:       {self.reports_total} total, "
            f"{self.victim_reports} to the crashed shard",
            f"outage:        {self.rejected_during_outage} ingest refusals "
            f"({self.parked_during_outage} parked), "
            f"{self.degraded_predictions} degraded predictions, "
            f"{self.queries_skipped} shard queries skipped, "
            f"cluster status {self.outage_status!r}",
            f"recovery:      checkpoint seq {self.recovery_checkpoint_seq}, "
            f"{self.recovery_replayed} WAL records replayed, "
            f"{self.lost_resubmitted} lost reports resubmitted",
            f"replication:   {self.deltas_deduped} replayed deltas deduped, "
            f"backlog {self.bus_backlog_after}",
            f"parity:        {'OK' if self.parity_ok else 'FAILED'}",
        ]
        lines.extend(f"  mismatch: {m}" for m in self.mismatches)
        return "\n".join(lines)


def _canonical_live(core: WiLocatorServer) -> list[tuple]:
    """The live store's records, order-independent."""
    live = core.predictor.live
    return sorted(
        r.canonical_key() for sid in live.segment_ids() for r in live.records(sid)
    )


def _canonical_sessions(core: WiLocatorServer) -> list[tuple]:
    return [(key, *core.sessions[key].fingerprint()) for key in sorted(core.sessions)]


def _compare(
    city: SynthCity, router: ClusterRouter, twin_router: ClusterRouter
) -> list[str]:
    mismatches = []
    for sid in sorted(router.nodes):
        core, twin_core = router.nodes[sid].core, twin_router.nodes[sid].core
        if _canonical_live(core) != _canonical_live(twin_core):
            mismatches.append(f"shard {sid}: live travel-time stores differ")
        if _canonical_sessions(core) != _canonical_sessions(twin_core):
            mismatches.append(f"shard {sid}: session positions differ")
    for rid, route in sorted(city.routes.items()):
        for key in sorted(
            k for k in router._session_shard if f":{rid}:" in k
        ):
            for stop in route.stops[1:]:
                a = router.predict_arrival(key, stop.stop_id)
                b = twin_router.predict_arrival(key, stop.stop_id)
                if (a is None) != (b is None):
                    mismatches.append(
                        f"{key}@{stop.stop_id}: prediction presence differs"
                    )
                elif a is not None and abs(a.t_arrival - b.t_arrival) > 1e-6:
                    mismatches.append(
                        f"{key}@{stop.stop_id}: arrivals differ "
                        f"({a.t_arrival} vs {b.t_arrival})"
                    )
    return mismatches


def run_failover_drill(data_root: str | Path, **city_kwargs) -> FailoverResult:
    """Run the whole crash/recover/parity story; see the module docstring."""
    data_root = Path(data_root)
    city_kwargs.setdefault("num_pairs", 1)
    city_kwargs.setdefault("feeder_sessions", 2)
    city_kwargs.setdefault("query_sessions", 2)
    city = build_overlap_city(**city_kwargs)
    plan = split_pairs_plan(city, 2)
    stream = sorted(city.reports, key=lambda r: r.t)

    fs = FaultyFS()
    router = build_cluster(city.server, plan)
    for sid, node in router.nodes.items():
        node.make_durable(
            data_root / f"shard-{sid:02d}",
            max_batch=4,
            fs=fs if sid == _VICTIM else None,
        )

    twin_city = city.fresh_twin()
    twin_router = build_cluster(
        twin_city.server, split_pairs_plan(twin_city, 2)
    )

    # Phase boundaries, counted in *victim-bound* reports: checkpoint
    # after the 6th, torn-write-crash on the 11th, recover 4 reports
    # later.  All deterministic; no index may land on a batch boundary.
    checkpoint_at, crash_at, recover_after = 6, 11, 4

    sent_victim: list[ScanReport] = []
    parked: list[ScanReport] = []
    victim_session = "bus:B00:0"
    query_session = "bus:A00:0"
    probe_stop = city.routes["A00"].stops[2].stop_id
    crashed = False
    outage_seen = 0
    outage_status = "ok"

    for report in stream:
        twin_router.ingest(report)
        twin_router.flush()
        twin_router.pump(now=report.t)

        to_victim = plan.shard_of(report.route_id) == _VICTIM
        if crashed and to_victim and outage_seen < recover_after:
            if not router.ingest(report):  # refused: shard is down
                parked.append(report)
            outage_seen += 1
            # Riders keep asking during the outage: the crashed shard's
            # buses degrade to "unknown" (counted), the healthy shard
            # still answers.
            router.predict_arrival(victim_session, probe_stop)
            router.predict_arrival(query_session, probe_stop)
            outage_status = router.health()["status"]
            if outage_seen == recover_after:
                # -- recovery: fresh config, checkpoint + WAL replay ----
                blueprint = city.fresh_twin()
                node = ShardNode(
                    _VICTIM,
                    shard_server(blueprint.server, plan, _VICTIM),
                    plan,
                )
                durable = node.make_durable(
                    data_root / f"shard-{_VICTIM:02d}",
                    max_batch=4,
                    checkpoint_every=0,
                )
                recovery = durable.last_recovery
                durable_count = (
                    recovery.last_seq + 1
                    if recovery.last_seq is not None
                    else 0
                )
                lost = sent_victim[durable_count:] + parked
                router.restore_shard(_VICTIM, node)
                for missed in lost:
                    router.ingest(missed)
                    router.flush()
                    router.pump(now=missed.t)
                sent_victim.extend(parked)
            continue

        if to_victim:
            if crashed:
                sent_victim.append(report)
            elif len(sent_victim) == crash_at:
                # Torn WAL write: this report degrades to memory-only
                # (it will be re-emitted with the same delta sequence
                # after recovery), then the process dies.
                fs.schedule_torn_writes(1)
                sent_victim.append(report)
            else:
                sent_victim.append(report)
        router.ingest(report)
        router.flush()
        router.pump(now=report.t)

        if to_victim and not crashed:
            if len(sent_victim) == checkpoint_at:
                router.nodes[_VICTIM].checkpoint()
            if len(sent_victim) == crash_at + 1:
                router.crash_shard(_VICTIM)
                crashed = True

    router.flush()
    router.pump(now=city.now)
    twin_router.flush()
    twin_router.pump(now=twin_city.now)

    mismatches = _compare(city, router, twin_router)
    totals = router.counters()
    result = FailoverResult(
        reports_total=len(stream),
        victim_reports=len(sent_victim),
        lost_resubmitted=len(lost),
        parked_during_outage=len(parked),
        rejected_during_outage=router.metrics.counter("cluster.ingest_rejected"),
        degraded_predictions=router.metrics.counter("cluster.predict_degraded"),
        queries_skipped=router.metrics.counter("cluster.query_shard_skipped"),
        outage_status=outage_status,
        recovery_checkpoint_seq=recovery.checkpoint_seq,
        recovery_replayed=recovery.replayed,
        deltas_deduped=totals.get("cluster.deltas_deduped", 0),
        bus_backlog_after=router.bus.backlog(),
        parity_ok=not mismatches,
        mismatches=tuple(mismatches),
    )
    for node in router.nodes.values():
        node.close()
    return result

"""Elastic-reshard chaos drill: fault every phase, end in byte parity.

Each scenario builds a fresh durable cluster over the overlap city, runs
a live migration against it *while the report stream is still flowing*,
injects one specific fault, and then proves the end state: a committed
migration must leave the cluster indistinguishable from a twin built on
the **new** plan from birth, an aborted one indistinguishable from a
twin that never heard of the migration.  Parity reuses the failover
drill's definition (PR 4): canonical live travel-time stores, session
positions, and every rider-visible arrival prediction.

The matrix — one scenario per phase of the state machine:

==================  =====================================================
scenario            fault injected, and what must happen
==================  =====================================================
``split_commit``    none (control) — an autoscaler-proposed split runs to
                    COMMITTED under a chaos-corrupted report stream
``abort_snapshot``  source checkpoint fails (ENOSPC) at SNAPSHOTTING —
                    clean auto-ABORT, nothing changed
``abort_catchup``   the staging target crashes during CATCHUP — the
                    cutover refuses to run, ABORT rolls back
``abort_cutover``   the target's barrier checkpoint fails at CUTOVER —
                    reports parked under the hold flow back to the old
                    owner on ABORT, zero loss
``resume_catchup``  the coordinator dies after CATCHUP — a new one
                    resumes from the journal (re-staging from durable
                    state) and COMMITs
``resume_cutover``  the coordinator dies *after* the barrier, losing the
                    router's parked reports — resume re-arms the hold
                    from the journal's double-written copies and COMMITs
``autoscale_merge`` the autoscaler spots a cold shard; the engine folds
                    it into a survivor and the shard id retires
==================  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.eval.synth_city import SynthCity, build_overlap_city
from repro.guard.chaos import ChaosConfig, ChaosInjector, FaultyFS
from repro.sensing.reports import ScanReport

from repro.cluster.build import build_cluster
from repro.cluster.drill import _compare
from repro.cluster.plan import ShardPlan
from repro.cluster.router import ClusterRouter

from repro.elastic.autoscale import AutoscaleConfig, Autoscaler
from repro.elastic.engine import MigrationBarrierError, ReshardEngine
from repro.elastic.machine import ABORTED, CATCHUP, COMMITTED, CUTOVER

__all__ = [
    "ScenarioResult",
    "ElasticDrillResult",
    "run_elastic_drill",
    "bench_artifact",
]

# Advance one migration phase every N streamed reports: every phase
# boundary lands mid-stream, so held/parked traffic genuinely flows.
_PHASE_EVERY = 3

_CITY_KWARGS = dict(
    num_pairs=2,
    feeder_sessions=2,
    query_sessions=2,
    feeder_reports=12,
    query_reports=2,
)

# The manual split every non-autoscaled scenario uses: feeder B00 leaves
# the feeder shard for a brand-new shard 2.
_SPLIT_ASSIGNMENT = {"A00": 0, "A01": 0, "B00": 2, "B01": 1}
# Three-shard start for the merge scenario: query route A01 sits alone
# on shard 2 and goes cold.
_COLD_ASSIGNMENT = {"A00": 0, "A01": 2, "B00": 1, "B01": 1}


@dataclass(frozen=True)
class ScenarioResult:
    """One scenario's fault, outcome and parity verdict."""

    name: str
    kind: str  # "split" | "merge"
    fault: str
    outcome: str  # COMMITTED | ABORTED
    phases: tuple[str, ...]
    reports_total: int
    parked: int
    resubmitted: int
    journaled_parked: int
    shards_before: int
    shards_after: int
    bus_backlog_after: int
    parity_ok: bool
    mismatches: tuple[str, ...]

    def summary(self) -> str:
        flow = " -> ".join(self.phases)
        return (
            f"{self.name:16s} {self.kind:5s} {self.outcome:9s} "
            f"parked={self.parked} resubmitted={self.resubmitted} "
            f"shards {self.shards_before}->{self.shards_after} "
            f"parity={'OK' if self.parity_ok else 'FAILED'}  [{flow}]"
        )


@dataclass(frozen=True)
class ElasticDrillResult:
    """The full matrix plus the autoscaler's decision trail."""

    scenarios: tuple[ScenarioResult, ...]
    autoscale: dict
    chaos_injected: int
    parity_ok: bool

    def summary(self) -> str:
        lines = [s.summary() for s in self.scenarios]
        lines.append(
            f"autoscale:       {self.autoscale['evaluations']} evaluations, "
            f"{self.autoscale['split_proposals']} split / "
            f"{self.autoscale['merge_proposals']} merge proposals"
        )
        lines.append(
            f"chaos:           {self.chaos_injected} stream faults injected"
        )
        lines.append(f"parity:          {'OK' if self.parity_ok else 'FAILED'}")
        for s in self.scenarios:
            for m in s.mismatches:
                lines.append(f"  {s.name}: {m}")
        return "\n".join(lines)


# -- harness -----------------------------------------------------------------


def _step(router: ClusterRouter, twin: ClusterRouter, report: ScanReport) -> None:
    twin.ingest(report)
    twin.flush()
    twin.pump(now=report.t)
    router.ingest(report)
    router.flush()
    router.pump(now=report.t)


def _finish(
    city: SynthCity, router: ClusterRouter, twin: ClusterRouter
) -> list[str]:
    router.flush()
    router.pump(now=city.now)
    twin.flush()
    twin.pump(now=city.now)
    mismatches = _compare(city, router, twin)
    if sorted(router.nodes) != sorted(twin.nodes):
        mismatches.append(
            f"shard sets differ: {sorted(router.nodes)} vs {sorted(twin.nodes)}"
        )
    return mismatches


def _close(*routers: ClusterRouter) -> None:
    for router in routers:
        for sid in sorted(router.nodes):
            router.nodes[sid].close()


def _result(
    name: str,
    *,
    kind: str,
    fault: str,
    phases: list[str],
    router: ClusterRouter,
    engine: ReshardEngine,
    mismatches: list[str],
    reports_total: int,
    shards_before: int,
) -> ScenarioResult:
    return ScenarioResult(
        name=name,
        kind=kind,
        fault=fault,
        outcome=engine.phase,
        phases=tuple(phases),
        reports_total=reports_total,
        parked=router.metrics.counter("reshard.parked_reports"),
        resubmitted=router.metrics.counter("reshard.resubmitted_reports"),
        journaled_parked=len(engine.journal.parked_reports()),
        shards_before=shards_before,
        shards_after=len(router.nodes),
        bus_backlog_after=router.bus.backlog(),
        parity_ok=not mismatches,
        mismatches=tuple(mismatches),
    )


# -- scenarios ---------------------------------------------------------------


def _scenario_split_commit(root: Path) -> tuple[ScenarioResult, dict, int]:
    """Control: autoscaler proposes the split, the engine commits it live,
    and the whole thing runs under a chaos-corrupted report stream."""
    city = build_overlap_city(**_CITY_KWARGS)
    plan = ShardPlan.from_assignment(
        {"A00": 0, "A01": 0, "B00": 1, "B01": 1}, city.routes
    )
    injector = ChaosInjector(
        ChaosConfig(drop_p=0.05, duplicate_p=0.05, rss_spike_p=0.1), seed=7
    )
    stream = injector.corrupt(sorted(city.reports, key=lambda r: r.t))
    router = build_cluster(city.server, plan)
    for sid, node in router.nodes.items():
        node.make_durable(root / "cluster" / f"shard-{sid:02d}", max_batch=4)
    scaler = Autoscaler(
        router,
        AutoscaleConfig(
            hot_reports=24,
            hot_backlog=100_000,
            cold_reports=4,
            min_shards=2,
            max_shards=4,
        ),
    )

    engine: ReshardEngine | None = None
    new_plan: ShardPlan | None = None
    phases = ["PLANNED"]
    since_phase = 0
    for report in stream:
        if engine is None:
            proposal = scaler.evaluate()
            if proposal.action == "split":
                new_plan = ShardPlan.from_assignment(
                    proposal.new_assignment, city.routes
                )
                engine = ReshardEngine(
                    router, new_plan, root / "journal", data_root=root / "cluster"
                )
        elif engine.phase != COMMITTED:
            since_phase += 1
            if since_phase >= _PHASE_EVERY:
                since_phase = 0
                phases.append(engine.advance(now=report.t))
        _step_one_sided(router, report)
    if engine is None or new_plan is None:
        raise RuntimeError("autoscaler never proposed the split")
    while engine.phase != COMMITTED:
        phases.append(engine.advance(now=city.now))

    # The twin ran the new plan from birth, fed the identical corrupted
    # stream (its own pass: admission decisions are deterministic).
    twin_city = city.fresh_twin()
    twin = build_cluster(
        twin_city.server,
        ShardPlan.from_assignment(dict(new_plan.assignment), twin_city.routes),
    )
    for report in stream:
        twin.ingest(report)
        twin.flush()
        twin.pump(now=report.t)

    mismatches = _finish(city, router, twin)
    autoscale = {
        "evaluations": router.metrics.counter("autoscale.evaluations"),
        "split_proposals": router.metrics.counter("autoscale.split_proposals"),
        "merge_proposals": router.metrics.counter("autoscale.merge_proposals"),
        "holds": router.metrics.counter("autoscale.holds"),
    }
    result = _result(
        "split_commit",
        kind="split",
        fault="none (chaos-corrupted stream only)",
        phases=phases,
        router=router,
        engine=engine,
        mismatches=mismatches,
        reports_total=len(stream),
        shards_before=plan.num_shards,
    )
    _close(router)
    return result, autoscale, injector.total_injected


def _step_one_sided(router: ClusterRouter, report: ScanReport) -> None:
    router.ingest(report)
    router.flush()
    router.pump(now=report.t)


def _run_split_with_fault(
    root: Path,
    name: str,
    *,
    fault: str,
    source_fs: FaultyFS | None = None,
    inject,
) -> ScenarioResult:
    """Shared shape of the three abort scenarios: stream, migrate,
    ``inject`` the fault at its phase, expect a clean rollback, compare
    against a twin on the *old* plan."""
    city = build_overlap_city(**_CITY_KWARGS)
    plan = ShardPlan.from_assignment(
        {"A00": 0, "A01": 0, "B00": 1, "B01": 1}, city.routes
    )
    new_plan = ShardPlan.from_assignment(_SPLIT_ASSIGNMENT, city.routes)
    stream = sorted(city.reports, key=lambda r: r.t)
    router = build_cluster(city.server, plan)
    for sid, node in router.nodes.items():
        node.make_durable(
            root / "cluster" / f"shard-{sid:02d}",
            max_batch=4,
            fs=source_fs if sid == 1 else None,
        )
    twin_city = city.fresh_twin()
    twin = build_cluster(
        twin_city.server,
        ShardPlan.from_assignment(
            {"A00": 0, "A01": 0, "B00": 1, "B01": 1}, twin_city.routes
        ),
    )

    engine = ReshardEngine(
        router, new_plan, root / "journal", data_root=root / "cluster"
    )
    phases = ["PLANNED"]
    start_at = len(stream) // 3
    since_phase = 0
    done = False
    for i, report in enumerate(stream):
        if not done and i >= start_at:
            since_phase += 1
            if since_phase >= _PHASE_EVERY:
                since_phase = 0
                done = inject(engine, phases, report.t)
        _step(router, twin, report)
    if not done:
        done = inject(engine, phases, city.now)
    if not done:  # pragma: no cover - scenarios always reach their fault
        raise RuntimeError(f"{name}: fault point never reached")

    mismatches = _finish(city, router, twin)
    result = _result(
        name,
        kind="split",
        fault=fault,
        phases=phases,
        router=router,
        engine=engine,
        mismatches=mismatches,
        reports_total=len(stream),
        shards_before=plan.num_shards,
    )
    _close(router)
    return result


def _scenario_abort_snapshot(root: Path) -> ScenarioResult:
    fs = FaultyFS()

    def inject(engine: ReshardEngine, phases: list[str], now: float) -> bool:
        fs.schedule_checkpoint_failures(1)
        try:
            engine.advance(now=now)
        except MigrationBarrierError as exc:
            engine.abort(str(exc), now=now)
            phases.append(ABORTED)
            return True
        raise RuntimeError("snapshot unexpectedly survived the fault")

    return _run_split_with_fault(
        root,
        "abort_snapshot",
        fault="source checkpoint ENOSPC at SNAPSHOTTING",
        source_fs=fs,
        inject=inject,
    )


def _scenario_abort_catchup(root: Path) -> ScenarioResult:
    def inject(engine: ReshardEngine, phases: list[str], now: float) -> bool:
        if engine.phase != CATCHUP:
            phases.append(engine.advance(now=now))
            return False
        engine.crash_target()
        try:
            engine.advance(now=now)  # cutover cannot run on a dead target
        except MigrationBarrierError as exc:
            engine.abort(str(exc), now=now)
            phases.append(ABORTED)
            return True
        raise RuntimeError("cutover unexpectedly survived the crashed target")

    return _run_split_with_fault(
        root,
        "abort_catchup",
        fault="staging target crashed during CATCHUP",
        inject=inject,
    )


def _scenario_abort_cutover(root: Path) -> ScenarioResult:
    target_fs = FaultyFS()
    state = {"armed": False}

    def inject(engine: ReshardEngine, phases: list[str], now: float) -> bool:
        if engine.phase != CATCHUP:
            phases.append(engine.advance(now=now))
            return False
        if not state["armed"]:
            # Arm the barrier fault, let a few more held reports park
            # under the hold the failed cutover leaves active, then
            # abort on the next visit — proving parked traffic survives.
            engine.target_fs = target_fs
            target_fs.schedule_checkpoint_failures(1)
            try:
                engine.advance(now=now)
            except MigrationBarrierError:
                state["armed"] = True
                return False
            raise RuntimeError("cutover barrier unexpectedly committed")
        engine.abort("torn cutover barrier", now=now)
        phases.append(ABORTED)
        return True

    return _run_split_with_fault(
        root,
        "abort_cutover",
        fault="target barrier checkpoint torn at CUTOVER",
        inject=inject,
    )


def _run_split_with_resume(
    root: Path, name: str, *, fault: str, die_at: str
) -> ScenarioResult:
    """Coordinator-death scenarios: kill the engine object once the
    journal reaches ``die_at``, resume a fresh one, run to COMMITTED,
    compare against a twin on the *new* plan."""
    city = build_overlap_city(**_CITY_KWARGS)
    plan = ShardPlan.from_assignment(
        {"A00": 0, "A01": 0, "B00": 1, "B01": 1}, city.routes
    )
    new_plan = ShardPlan.from_assignment(_SPLIT_ASSIGNMENT, city.routes)
    stream = sorted(city.reports, key=lambda r: r.t)
    router = build_cluster(city.server, plan)
    for sid, node in router.nodes.items():
        node.make_durable(root / "cluster" / f"shard-{sid:02d}", max_batch=4)
    twin_city = city.fresh_twin()
    twin = build_cluster(
        twin_city.server,
        ShardPlan.from_assignment(dict(_SPLIT_ASSIGNMENT), twin_city.routes),
    )

    engine: ReshardEngine | None = ReshardEngine(
        router, new_plan, root / "journal", data_root=root / "cluster"
    )
    phases = ["PLANNED"]
    died = False
    start_at = len(stream) // 3
    since_phase = 0
    for i, report in enumerate(stream):
        if i >= start_at and (engine is None or engine.phase != COMMITTED):
            since_phase += 1
            if since_phase >= _PHASE_EVERY:
                since_phase = 0
                if engine is not None and not died and engine.phase == die_at:
                    # The coordinator object dies; the router (the data
                    # plane) keeps running.  Resume discards whatever
                    # parked copies the router accumulated and re-arms
                    # the hold from the journal's double-written ones —
                    # the count parity in the result proves zero loss.
                    engine = None
                    died = True
                    phases.append(f"(coordinator died at {die_at})")
                elif engine is None:
                    engine = ReshardEngine.resume(router, root / "journal")
                    phases.append(f"(resumed at {engine.phase})")
                else:
                    phases.append(engine.advance(now=report.t))
        _step(router, twin, report)
    if engine is None:
        engine = ReshardEngine.resume(router, root / "journal")
        phases.append(f"(resumed at {engine.phase})")
    while engine.phase != COMMITTED:
        phases.append(engine.advance(now=city.now))

    mismatches = _finish(city, router, twin)
    result = _result(
        name,
        kind="split",
        fault=fault,
        phases=phases,
        router=router,
        engine=engine,
        mismatches=mismatches,
        reports_total=len(stream),
        shards_before=plan.num_shards,
    )
    _close(router)
    return result


def _scenario_resume_catchup(root: Path) -> ScenarioResult:
    return _run_split_with_resume(
        root,
        "resume_catchup",
        fault="coordinator died after CATCHUP (staging lost)",
        die_at=CATCHUP,
    )


def _scenario_resume_cutover(root: Path) -> ScenarioResult:
    return _run_split_with_resume(
        root,
        "resume_cutover",
        fault="coordinator died after the CUTOVER barrier (hold lost)",
        die_at=CUTOVER,
    )


def _scenario_autoscale_merge(root: Path) -> tuple[ScenarioResult, dict]:
    """A cold shard (query-only route A01) folds back into a survivor."""
    city = build_overlap_city(**_CITY_KWARGS)
    plan = ShardPlan.from_assignment(_COLD_ASSIGNMENT, city.routes)
    stream = sorted(city.reports, key=lambda r: r.t)
    router = build_cluster(city.server, plan)
    for sid, node in router.nodes.items():
        node.make_durable(root / "cluster" / f"shard-{sid:02d}", max_batch=4)
    twin_city = city.fresh_twin()
    twin = build_cluster(
        twin_city.server,
        ShardPlan.from_assignment(
            {"A00": 0, "A01": 0, "B00": 1, "B01": 1}, twin_city.routes
        ),
    )
    for report in stream:
        _step(router, twin, report)

    scaler = Autoscaler(
        router,
        AutoscaleConfig(
            hot_reports=10_000, cold_reports=10, min_shards=1, max_shards=4
        ),
    )
    proposal = scaler.evaluate()
    if proposal.action != "merge":  # pragma: no cover - cold by construction
        raise RuntimeError(f"expected a merge proposal, got {proposal}")
    engine = ReshardEngine(
        router,
        ShardPlan.from_assignment(proposal.new_assignment, city.routes),
        root / "journal",
    )
    phases = ["PLANNED"]
    while engine.phase != COMMITTED:
        phases.append(engine.advance(now=city.now))

    mismatches = _finish(city, router, twin)
    autoscale = {
        "evaluations": router.metrics.counter("autoscale.evaluations"),
        "split_proposals": router.metrics.counter("autoscale.split_proposals"),
        "merge_proposals": router.metrics.counter("autoscale.merge_proposals"),
        "holds": router.metrics.counter("autoscale.holds"),
        "last_reason": proposal.reason,
    }
    result = _result(
        "autoscale_merge",
        kind="merge",
        fault="none (cold-shard consolidation)",
        phases=phases,
        router=router,
        engine=engine,
        mismatches=mismatches,
        reports_total=len(stream),
        shards_before=plan.num_shards,
    )
    _close(router)
    return result, autoscale


# -- entry point -------------------------------------------------------------


def run_elastic_drill(data_root: str | Path) -> ElasticDrillResult:
    """Run the whole scenario matrix; see the module docstring."""
    root = Path(data_root)
    split_commit, autoscale_a, chaos_injected = _scenario_split_commit(
        root / "split_commit"
    )
    scenarios = [
        split_commit,
        _scenario_abort_snapshot(root / "abort_snapshot"),
        _scenario_abort_catchup(root / "abort_catchup"),
        _scenario_abort_cutover(root / "abort_cutover"),
        _scenario_resume_catchup(root / "resume_catchup"),
        _scenario_resume_cutover(root / "resume_cutover"),
    ]
    merge, autoscale_g = _scenario_autoscale_merge(root / "autoscale_merge")
    scenarios.append(merge)
    autoscale = {
        key: autoscale_a.get(key, 0) + autoscale_g.get(key, 0)
        for key in ("evaluations", "split_proposals", "merge_proposals", "holds")
    }
    autoscale["merge_reason"] = autoscale_g.get("last_reason", "")
    return ElasticDrillResult(
        scenarios=tuple(scenarios),
        autoscale=autoscale,
        chaos_injected=chaos_injected,
        parity_ok=all(s.parity_ok for s in scenarios),
    )


def bench_artifact(result: ElasticDrillResult) -> dict:
    """The committed ``BENCH_elastic.json`` shape (see its tier-1 gate)."""
    from dataclasses import asdict

    committed = [s for s in result.scenarios if s.outcome == COMMITTED]
    aborted = [s for s in result.scenarios if s.outcome == ABORTED]
    return {
        "version": 1,
        "benchmark": "elastic_reshard",
        "config": {
            "city": dict(_CITY_KWARGS),
            "phase_every_reports": _PHASE_EVERY,
            "split_assignment": dict(_SPLIT_ASSIGNMENT),
            "cold_assignment": dict(_COLD_ASSIGNMENT),
        },
        "scenarios": [asdict(s) for s in result.scenarios],
        "autoscale": dict(result.autoscale),
        "totals": {
            "scenarios": len(result.scenarios),
            "committed": len(committed),
            "aborted": len(aborted),
            "resumed": sum(
                1 for s in result.scenarios if s.name.startswith("resume_")
            ),
            "parked": sum(s.parked for s in result.scenarios),
            "resubmitted": sum(s.resubmitted for s in result.scenarios),
            "chaos_injected": result.chaos_injected,
            "parity_ok": result.parity_ok,
        },
    }

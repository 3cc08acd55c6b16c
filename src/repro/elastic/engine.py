"""Online resharding: execute a plan diff against a *running* cluster.

One :class:`ReshardEngine` drives one migration — all routes moving from
exactly one source shard to exactly one target shard (a wider rebalance
is a sequence of migrations).  Two shapes fall out of that restriction:

* **split** — the target shard id is new; a *staging* server is carved
  from the source's configuration and caught up from the source's own
  checkpoint + WAL suffix (the same machinery PR 2/PR 4 failover trusts);
* **merge** — the target is a live member; the moved routes' config,
  sessions and records graft onto it inside the quiescent cutover
  window, and the drained source detaches.

The phase work (see :mod:`repro.elastic.machine` for the lattice):

``SNAPSHOTTING``
    Flush + checkpoint the source; the checkpoint's ``wal_seq`` is the
    durable handoff base.  A failed checkpoint is a barrier fault.
``CATCHUP``
    Split only: build the staging server, restore the *moved slice* of
    the snapshot (sessions on moved routes, live records on the target's
    own segments), then replay the WAL suffix of moved-route reports
    through ``ingest_many(admitted=True)``.  The staging server has no
    traversal tap yet, so replayed extractions do not pollute any
    outbox; its delta sequence starts at 0 — the new shard is a genuinely
    fresh origin.  The source keeps serving throughout.
``CUTOVER``
    The router parks moved-route ingest (double-written to the journal
    before it is acknowledged — zero loss even if the coordinator dies
    holding it), the source flushes, the bus drains to zero backlog,
    a final WAL-suffix replay plus a live-store multiset sync close the
    replication residue (deltas the source *applied* are in no WAL), and
    the target's durable checkpoint commits — the point of no return.
    After the barrier every member rebinds to the new plan's
    publish/subscribe sets.  Any fault before the barrier leaves a state
    :meth:`abort` can roll back cleanly.
``DRAINED``
    The target joins the bus with cursors primed at its restored
    high-water marks, the router adopts the new topology, the source is
    pruned in place (sessions, routes, stores, index) and re-checkpointed
    so its durable state stops claiming the moved routes; a merge's
    emptied source detaches and closes.
``COMMITTED``
    The hold lifts and the parked reports are resubmitted — the new plan
    routes them to their new owner.

Every phase is idempotent and journal-gated; :meth:`resume` rebuilds a
dead coordinator's volatile state (the staging server from checkpoint +
WAL, the post-barrier target from its own durable directory) and
continues from the journal's last completed phase.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

from repro.core.server.persistence import store_from_dict
from repro.core.server.server import WiLocatorServer
from repro.pipeline.checkpoint import latest_checkpoint
from repro.pipeline.replay import CHECKPOINT_SUBDIR, WAL_SUBDIR
from repro.pipeline.wal import read_wal
from repro.cluster.build import shard_server
from repro.cluster.node import OUT_SEQ_COUNTER, ShardNode, _applied_counter
from repro.cluster.plan import ShardPlan
from repro.cluster.router import ClusterRouter

from repro.elastic.machine import (
    CATCHUP,
    COMMITTED,
    CUTOVER,
    DRAINED,
    PLANNED,
    SNAPSHOTTING,
    TERMINAL_PHASES,
    MigrationJournal,
    next_phase,
)

__all__ = ["MigrationBarrierError", "ReshardEngine"]

#: Bounded quiesce: pump rounds allowed before declaring the bus stuck.
_MAX_QUIESCE_ROUNDS = 64


class MigrationBarrierError(RuntimeError):
    """A durability barrier did not commit; the phase did not complete.

    State is left consistent for the caller's choice: retry the same
    :meth:`ReshardEngine.advance` (every phase is idempotent) or
    :meth:`ReshardEngine.abort` (legal until the cutover barrier has
    committed).
    """


def _own_segments(core: WiLocatorServer) -> set[str]:
    return {sid for route in core.routes.values() for sid in route.segment_ids}


def _live_record_count(core: WiLocatorServer) -> int:
    live = core.predictor.live
    return sum(len(live.records(sid)) for sid in live.segment_ids())


class ReshardEngine:
    """Coordinator for one live shard migration against a router.

    Parameters
    ----------
    router:
        The running cluster.  The engine mutates it only at well-defined
        points: the ingest hold around cutover and the topology swap at
        drain.
    new_plan:
        The placement to migrate to.  Its diff against ``router.plan``
        must move routes from exactly one shard to exactly one other.
    journal_dir:
        Where the coordinator journal lives (one migration per journal).
    data_root:
        The cluster's durable root; a split places the new shard's WAL/
        checkpoint directory at ``data_root/shard-NN``.
    target_fs:
        Optional filesystem proxy (:class:`~repro.guard.chaos.FaultyFS`)
        for the *new* target's durable layer — how the drill injects
        cutover-barrier faults.
    durable_kwargs:
        Extra :class:`~repro.pipeline.durable.DurableServer` knobs for
        the new target (batching etc.); ``checkpoint_every=0`` is forced
        — the engine checkpoints explicitly.
    """

    def __init__(
        self,
        router: ClusterRouter,
        new_plan: ShardPlan,
        journal_dir: str | Path,
        *,
        data_root: str | Path | None = None,
        target_fs=None,
        durable_kwargs: dict | None = None,
        journal: MigrationJournal | None = None,
    ) -> None:
        self.router = router
        self.new_plan = new_plan
        self.journal_dir = Path(journal_dir)
        self.target_fs = target_fs
        self.durable_kwargs = dict(durable_kwargs or {})
        self.durable_kwargs["checkpoint_every"] = 0

        if journal is not None:
            # Resume path: the journal is the authority on what moves.
            self.journal = journal
            self.source_id = journal.source
            self.target_id = journal.target
            self.moved_routes = list(journal.moved_routes)
        else:
            diff = router.plan.diff(new_plan)
            if not diff.moved:
                raise ValueError("plans are identical; nothing to migrate")
            sources = {old for old, _ in diff.moved.values()}
            targets = {new for _, new in diff.moved.values()}
            if len(sources) != 1 or len(targets) != 1:
                raise ValueError(
                    "one migration moves routes between exactly one shard "
                    "pair; decompose a wider rebalance into a sequence "
                    f"(got sources {sorted(sources)} -> targets {sorted(targets)})"
                )
            self.source_id = next(iter(sources))
            self.target_id = next(iter(targets))
            if self.source_id not in router.nodes:
                raise ValueError(f"source shard {self.source_id} is not a member")
            self.moved_routes = sorted(diff.moved)

        self.target_is_new = self.target_id not in router.nodes
        if journal is not None and journal.target_data_dir is not None:
            self._target_dir: Path | None = Path(journal.target_data_dir)
        elif self.target_is_new:
            if data_root is None:
                raise ValueError("a split needs data_root for the new shard")
            self._target_dir = Path(data_root) / f"shard-{self.target_id:02d}"
        else:
            self._target_dir = None

        if journal is None:
            mid = (
                f"m{router.plan.num_shards}to{new_plan.num_shards}"
                f"-s{self.source_id}-t{self.target_id}"
            )
            self.journal = MigrationJournal(
                self.journal_dir,
                migration_id=mid,
                old_assignment=dict(router.plan.assignment),
                new_assignment=dict(new_plan.assignment),
                moved_routes=self.moved_routes,
                source=self.source_id,
                target=self.target_id,
                target_data_dir=(
                    str(self._target_dir) if self._target_dir is not None else None
                ),
            )
            self.journal.save()
            router.metrics.incr("reshard.migrations_started")

        self._staging: WiLocatorServer | None = None
        self.target_node: ShardNode | None = None
        self._publish_status()

    # -- observability -------------------------------------------------------

    @property
    def phase(self) -> str:
        """The last *completed* phase (see :mod:`repro.elastic.machine`)."""
        return self.journal.phase

    def _publish_status(self) -> None:
        self.router.reshard_status = {
            "phase": self.journal.phase,
            "migration_id": self.journal.migration_id,
            "source": self.source_id,
            "target": self.target_id,
            "moved_routes": len(self.moved_routes),
            "abort_reason": self.journal.abort_reason,
        }

    # -- driving -------------------------------------------------------------

    def advance(self, *, now: float | None = None) -> str:
        """Complete the next phase; returns the phase just completed.

        Raises :class:`MigrationBarrierError` when a durability barrier
        refuses to commit — the phase is then *not* recorded and may be
        retried or aborted.
        """
        if self.journal.phase in TERMINAL_PHASES:
            raise ValueError(f"migration already {self.journal.phase}")
        phase = next_phase(self.journal.phase)
        handler = {
            SNAPSHOTTING: self._snapshot,
            CATCHUP: self._catchup,
            CUTOVER: self._cutover,
            DRAINED: self._drain,
            COMMITTED: self._commit,
        }[phase]
        handler(now=now)
        self.journal.advance_to(phase)
        self._publish_status()
        return phase

    def run(self, *, now: float | None = None) -> str:
        """Drive to a terminal phase; barrier faults auto-abort pre-cutover.

        Once the cutover barrier has committed a barrier fault cannot be
        rolled back, so it propagates: the caller retries the phase (all
        are idempotent) or resumes a fresh coordinator from the journal.
        """
        while self.journal.phase not in TERMINAL_PHASES:
            try:
                self.advance(now=now)
            except MigrationBarrierError as exc:
                if self.journal.phase in (PLANNED, SNAPSHOTTING, CATCHUP):
                    self.abort(str(exc), now=now)
                else:
                    raise
        return self.journal.phase

    def abort(self, reason: str, *, now: float | None = None) -> None:
        """Roll back a pre-cutover migration; zero loss, old plan stands.

        Volatile staging state is discarded, the ingest hold (if any)
        lifts with its parked reports resubmitted to their *old* owner,
        and the journal records ``ABORTED``.  Illegal once the cutover
        barrier has committed — from there the only direction is forward
        (:meth:`resume`).
        """
        if self.journal.phase in TERMINAL_PHASES:
            raise ValueError(f"migration already {self.journal.phase}")
        if self.journal.phase in (CUTOVER, DRAINED):
            raise ValueError(
                "the cutover barrier has committed; roll forward, not back"
            )
        self._staging = None
        self.target_node = None
        router = self.router
        if router.reshard_hold_active:
            parked = router.end_reshard_hold()
            for report in sorted(parked, key=lambda r: r.t):
                router.ingest(report)
            router.flush()
            router.pump(now=now)
            router.metrics.incr("reshard.resubmitted_reports", len(parked))
        self.journal.abort(reason)
        router.metrics.incr("reshard.migrations_aborted")
        self._publish_status()

    def crash_target(self) -> None:
        """Drill hook: the staging target dies (volatile state gone)."""
        self._staging = None
        self.target_node = None

    # -- phase handlers ------------------------------------------------------

    def _source_node(self) -> ShardNode:
        return self.router.nodes[self.source_id]

    def _source_data_dir(self) -> Path:
        durable = self._source_node().durable
        if durable is None:
            raise ValueError(
                "source shard is not durable; there is no checkpoint/WAL "
                "to hand off from"
            )
        return durable.data_dir

    def _snapshot(self, *, now: float | None = None) -> None:
        """Flush and checkpoint the source: the durable handoff base."""
        source = self._source_node()
        data_dir = self._source_data_dir()  # validates durability up front
        source.flush()
        path = source.checkpoint()
        if path is None:
            raise MigrationBarrierError(
                "source checkpoint failed; no durable handoff base"
            )
        found = latest_checkpoint(data_dir / CHECKPOINT_SUBDIR)
        if found is None:
            raise MigrationBarrierError("source checkpoint unreadable")
        self.journal.record_checkpoint_seq(int(found[1]["wal_seq"]))

    def _catchup(self, *, now: float | None = None) -> None:
        """Split: stage the new shard from checkpoint + WAL suffix."""
        if not self.target_is_new:
            # Merge: the target is live and already holds every
            # replicated cross-shard record; the moved slice grafts on
            # inside the quiescent cutover window.
            self.journal.record_catchup_watermark(self.journal.checkpoint_wal_seq)
            return
        source = self._source_node()
        staging = shard_server(source.core, self.new_plan, self.target_id)
        found = latest_checkpoint(self._source_data_dir() / CHECKPOINT_SUBDIR)
        if found is None:
            raise MigrationBarrierError("source checkpoint vanished")
        _, data = found
        base_seq = int(data["wal_seq"])
        self.journal.record_checkpoint_seq(base_seq)
        self._restore_moved_slice(staging, data)
        self.journal.record_catchup_watermark(
            self._replay_suffix(staging, after_seq=base_seq)
        )
        self._staging = staging

    def _restore_moved_slice(self, staging: WiLocatorServer, data: dict) -> None:
        """The snapshot's moved routes only: sessions + own-segment records."""
        own = _own_segments(staging)
        staging.predictor.live = store_from_dict(data["live"]).filtered(
            lambda r: r.segment_id in own
        )
        self.router.metrics.incr(
            "reshard.handoff_records", _live_record_count(staging)
        )
        moved = set(self.moved_routes)
        handed = staging.adopt_sessions(
            s for s in data["sessions"] if s["route_id"] in moved
        )
        self.router.metrics.incr("reshard.handoff_sessions", handed)

    def _replay_suffix(self, core: WiLocatorServer, *, after_seq: int) -> int:
        """Replay moved-route WAL records past ``after_seq``; new watermark.

        The watermark is the last WAL sequence *scanned* (not just
        replayed), so a later call never re-reads records it has seen —
        replay stays exactly-once even though the WAL keeps growing
        under the live source; segments holding only records
        ``<= after_seq`` are not opened.
        """
        result = read_wal(self._source_data_dir() / WAL_SUBDIR, after_seq=after_seq)
        moved = set(self.moved_routes)
        suffix = [
            rec.report
            for rec in result.records
            if rec.seq > after_seq and rec.report.route_id in moved
        ]
        if suffix:
            core.ingest_many(suffix, admitted=True)
            self.router.metrics.incr("reshard.catchup_replayed", len(suffix))
        last_seen = result.records[-1].seq if result.records else after_seq
        return max(after_seq, last_seen)

    def _cutover(self, *, now: float | None = None) -> None:
        """Park, quiesce, close the residue, commit the durable barrier."""
        router = self.router
        if not router.reshard_hold_active:
            router.begin_reshard_hold(
                self.moved_routes,
                sink=self.journal.park,
                parked=self.journal.parked_reports(),
            )
        source = self._source_node()
        source.flush()
        for _ in range(_MAX_QUIESCE_ROUNDS):
            if router.bus.backlog() == 0:
                break
            router.pump(now=now)
        else:
            raise MigrationBarrierError("delta bus would not quiesce")

        if self.target_is_new:
            if self._staging is None:
                raise MigrationBarrierError(
                    "staging target lost; re-run catch-up before cutover"
                )
            watermark = self.journal.catchup_watermark
            self.journal.record_catchup_watermark(
                self._replay_suffix(
                    self._staging,
                    after_seq=(
                        watermark
                        if watermark is not None
                        else int(self.journal.checkpoint_wal_seq or -1)
                    ),
                )
            )
            staging = self._staging
        else:
            staging = self._expand_target()

        try:
            self._sync_live_residue(source.core, staging)
            self._verify_moved_sessions(source.core, staging)
            node = self._commit_barrier(staging)
        except MigrationBarrierError:
            if not self.target_is_new:
                # Undo the graft: the live target must not keep half a
                # migration it has no durable claim to.
                self._prune_core(staging, self.moved_routes)
            raise
        self.target_node = node
        # Point of no return: every member speaks the new plan's
        # publish/subscribe sets from here (sequence numbers continue).
        for sid in sorted(router.nodes):
            router.nodes[sid].rebind_plan(self.new_plan)
        node.rebind_plan(self.new_plan)

    def _expand_target(self) -> WiLocatorServer:
        """Merge: graft the moved routes' config/sessions onto the live target.

        Runs inside the quiescent window: the target already holds every
        cross-shard record it subscribed to, so only the *new* segments'
        history and the moved sessions transfer here (records sync next,
        by multiset difference).
        """
        source_core = self._source_node().core
        target_core = self.router.nodes[self.target_id].core
        pre_own = _own_segments(target_core)
        moved = set(self.moved_routes)
        for rid in self.moved_routes:
            target_core.routes[rid] = source_core.routes[rid]
            target_core.svds[rid] = source_core.svds[rid]
            target_core.fusion.add_route(source_core.routes[rid])
        new_segments = _own_segments(target_core) - pre_own
        history = source_core.predictor.history
        for seg_id in sorted(set(history.segment_ids()) & new_segments):
            for record in history.records(seg_id):
                target_core.predictor.history.add(record)
        target_core.reindex()
        handed = target_core.adopt_sessions(
            s.state_dict() for s in source_core.sessions.values() if s.route_id in moved
        )
        self.router.metrics.incr("reshard.handoff_sessions", handed)
        return target_core

    def _sync_live_residue(
        self, source_core: WiLocatorServer, target_core: WiLocatorServer
    ) -> int:
        """Copy live records the WAL could never carry (multiset diff).

        Two families only exist in the source's *memory*: deltas it
        applied from other shards (replication is not WAL'd) and its own
        remaining routes' traversals on segments shared with the moved
        routes (shard-internal under the old plan, so never published).
        At the quiescent point the target must hold the source's exact
        multiset on every segment it now owns; whatever is missing is
        copied record-by-record.
        """
        own = _own_segments(target_core)
        target_live = target_core.predictor.live
        have = Counter(
            r.canonical_key()
            for sid in target_live.segment_ids()
            for r in target_live.records(sid)
        )
        source_live = source_core.predictor.live
        synced = 0
        for seg_id in sorted(set(source_live.segment_ids()) & own):
            for record in source_live.records(seg_id):
                key = record.canonical_key()
                if have[key] > 0:
                    have[key] -= 1
                else:
                    target_live.add(record)
                    synced += 1
        if synced:
            self.router.metrics.incr("reshard.synced_records", synced)
        return synced

    def _verify_moved_sessions(
        self, source_core: WiLocatorServer, target_core: WiLocatorServer
    ) -> None:
        """Catch-up must have converged before the barrier may commit."""
        moved = set(self.moved_routes)
        for key in sorted(
            k for k, s in source_core.sessions.items() if s.route_id in moved
        ):
            moved_to = target_core.sessions.get(key)
            if (
                moved_to is None
                or moved_to.fingerprint() != source_core.sessions[key].fingerprint()
            ):
                raise MigrationBarrierError(
                    f"catch-up diverged on session {key!r}"
                )

    def _commit_barrier(self, staging: WiLocatorServer) -> ShardNode:
        """Make the handed-off state durable on the target; the no-return point."""
        router = self.router
        if self.target_is_new:
            node = ShardNode(self.target_id, staging, self.new_plan)
            node.make_durable(
                self._target_dir, fs=self.target_fs, **self.durable_kwargs
            )
        else:
            node = router.nodes[self.target_id]
        # The target must already account for every delta the old
        # members have published: its restored records cover them, so
        # its high-water marks jump to the origins' heads (checkpointed
        # next, hence crash-safe) and the bus will not replay history.
        for sid in sorted(router.nodes):
            if sid == self.target_id:
                continue
            head = router.nodes[sid].core.metrics.counter(OUT_SEQ_COUNTER)
            have = node.applied_from(sid)
            if head > have:
                node.core.metrics.incr(_applied_counter(sid), head - have)
        path = node.checkpoint()
        if path is None:
            raise MigrationBarrierError(
                "target cutover checkpoint failed; durable barrier did not "
                "commit"
            )
        return node

    def _drain(self, *, now: float | None = None) -> None:
        """Adopt the new topology; prune and (for a merge) retire the source."""
        router = self.router
        node = (
            self.target_node
            if self.target_node is not None
            else router.nodes.get(self.target_id)
        )
        if node is None:
            raise MigrationBarrierError("target node unavailable; resume first")
        source = self._source_node()

        if self.target_is_new:
            if self.target_id not in router.bus.nodes:
                router.bus.attach(node)
            router.bus.prime_joiner(node, sorted(router.nodes))
            router.apply_topology(
                self.new_plan,
                attach=None if self.target_id in router.nodes else node,
            )
        pruned_sessions, pruned_records = self._prune_core(
            source.core, self.moved_routes
        )
        router.metrics.incr("reshard.pruned_sessions", pruned_sessions)
        router.metrics.incr("reshard.pruned_records", pruned_records)

        if self.target_is_new:
            # Durable point for the prune: without it a source crash
            # would recover durable state that still claims the moved
            # routes (see DESIGN.md §17 failure matrix).
            if source.checkpoint() is None:
                raise MigrationBarrierError(
                    "post-prune source checkpoint failed; retry drain"
                )
        else:
            if self.source_id in router.bus.nodes:
                router.bus.detach(self.source_id)
            if self.source_id in router.nodes:
                router.apply_topology(self.new_plan, detach=self.source_id)
            # The origin id is gone; a future shard reusing it must be a
            # fresh origin, so the survivors forget its high-water marks.
            counter = _applied_counter(self.source_id)
            for sid in sorted(router.nodes):
                router.nodes[sid].core.metrics.counters.pop(counter, None)
            source.close()

    def _prune_core(
        self, core: WiLocatorServer, drop_routes: list[str]
    ) -> tuple[int, int]:
        """Remove routes and all their state from a core, in place."""
        drop = set(drop_routes) & set(core.routes)
        if not drop:
            return (0, 0)
        stale_keys = [
            k for k, s in core.sessions.items() if s.route_id in drop
        ]
        for key in stale_keys:
            del core.sessions[key]
        for rid in sorted(drop):
            del core.routes[rid]
            del core.svds[rid]
        own = _own_segments(core)
        before = _live_record_count(core)
        core.predictor.live = core.predictor.live.filtered(
            lambda r: r.segment_id in own
        )
        core.predictor.history = core.predictor.history.filtered(
            lambda r: r.segment_id in own
        )
        core.reindex()
        return (len(stale_keys), before - _live_record_count(core))

    def _commit(self, *, now: float | None = None) -> None:
        """Lift the hold; the parked stream lands on its new owner."""
        router = self.router
        parked = router.end_reshard_hold()
        for report in sorted(parked, key=lambda r: r.t):
            router.ingest(report)
        router.flush()
        router.pump(now=now)
        router.metrics.incr("reshard.resubmitted_reports", len(parked))
        self.journal.clear_parked()
        router.metrics.incr("reshard.migrations_committed")

    # -- resume --------------------------------------------------------------

    @classmethod
    def resume(
        cls,
        router: ClusterRouter,
        journal_dir: str | Path,
        *,
        target_fs=None,
        durable_kwargs: dict | None = None,
    ) -> "ReshardEngine":
        """Reconstruct a dead coordinator from its journal and continue.

        Volatile state is rebuilt from durable sources: a pre-cutover
        staging target is thrown away and CATCHUP re-runs from the
        (durable) source checkpoint + WAL; a post-cutover target is
        recovered from its own durable directory — the barrier
        checkpoint it committed before the coordinator died.  The
        ingest hold is re-armed from the journal's parked copies when
        the router lost it.
        """
        journal = MigrationJournal.load(journal_dir)
        if journal.phase in TERMINAL_PHASES:
            raise ValueError(f"migration already {journal.phase}; nothing to resume")
        engine = cls(
            router,
            cls._plan_from_journal(router, journal),
            journal_dir,
            target_fs=target_fs,
            durable_kwargs=durable_kwargs,
            journal=journal,
        )
        if journal.phase == CATCHUP:
            # The staging server died with the coordinator; its inputs
            # (checkpoint + WAL) are durable, so simply re-run the phase.
            journal.demote_to(SNAPSHOTTING)
        elif journal.phase == CUTOVER:
            engine._resume_post_barrier()
        elif journal.phase == DRAINED:
            engine.target_node = router.nodes.get(engine.target_id)
            engine._rearm_hold()
        router.metrics.incr("reshard.migrations_resumed")
        engine._publish_status()
        return engine

    @staticmethod
    def _plan_from_journal(
        router: ClusterRouter, journal: MigrationJournal
    ) -> ShardPlan:
        routes = {
            rid: route
            for sid in sorted(router.nodes)
            for rid, route in router.nodes[sid].core.routes.items()
        }
        return ShardPlan.from_assignment(journal.new_assignment, routes)

    def _rearm_hold(self) -> None:
        """Re-own the cutover hold after a coordinator death.

        The journal is a strict superset of whatever the router still
        holds in memory (every parked report was journaled *before* the
        router acknowledged it), so the router's copies are discarded
        and the hold re-arms from the journal — also detaching the dead
        coordinator's journal object from the park sink.
        """
        router = self.router
        if router.reshard_hold_active:
            router.end_reshard_hold()
        router.begin_reshard_hold(
            self.moved_routes,
            sink=self.journal.park,
            parked=self.journal.parked_reports(),
        )

    def _resume_post_barrier(self) -> None:
        """Rebuild the committed-but-unattached target; re-arm the hold."""
        router = self.router
        if self.target_is_new:
            found = (
                latest_checkpoint(self._target_dir / CHECKPOINT_SUBDIR)
                if self._target_dir is not None
                else None
            )
            if found is None:
                raise ValueError(
                    "journal says the cutover barrier committed but the "
                    "target checkpoint is gone; durable state is inconsistent"
                )
            source = self._source_node()  # still unpruned at this phase
            core = shard_server(source.core, self.new_plan, self.target_id)
            node = ShardNode(self.target_id, core, self.new_plan)
            node.make_durable(
                self._target_dir,
                fs=self.target_fs,
                recover=True,
                **self.durable_kwargs,
            )
            self.target_node = node
        else:
            self.target_node = router.nodes[self.target_id]
        self._rearm_hold()
        for sid in sorted(router.nodes):
            router.nodes[sid].rebind_plan(self.new_plan)
        self.target_node.rebind_plan(self.new_plan)

"""ReshardEngine: live split/merge against a durable cluster.

The chaos drill (:mod:`repro.elastic.drill`) owns the mid-stream fault
matrix; these tests pin the engine's *contracts* on a quiescent cluster
— constructor validation, the happy-path split and merge with twin
parity, clean abort rollback, the cutover barrier's forward-only rule,
and journal-driven resume after a coordinator death.
"""

from __future__ import annotations

import pytest

from repro.cluster.build import build_cluster
from repro.cluster.drill import _compare
from repro.cluster.plan import ShardPlan
from repro.elastic import engine as engine_module
from repro.elastic.engine import ReshardEngine
from repro.elastic.machine import (
    ABORTED,
    CATCHUP,
    COMMITTED,
    CUTOVER,
    MigrationJournal,
)
from repro.fusion.observations import GpsObservation
from repro.guard.chaos import FaultyFS

from tests.elastic.conftest import TWO_SHARDS, build_durable, feed

pytestmark = [pytest.mark.elastic, pytest.mark.cluster]

SPLIT = {"A00": 0, "A01": 0, "B00": 2, "B01": 1}


def split_setup(city, plan, tmp_path, *, fs_by_shard=None):
    router = build_durable(city, plan, tmp_path / "cluster", fs_by_shard)
    feed(router, city)
    new_plan = ShardPlan.from_assignment(SPLIT, city.routes)
    engine = ReshardEngine(
        router,
        new_plan,
        tmp_path / "journal",
        data_root=tmp_path / "cluster",
    )
    return router, new_plan, engine


def twin_on(city, assignment, tmp_path):
    twin_city = city.fresh_twin()
    twin = build_durable(
        twin_city,
        ShardPlan.from_assignment(assignment, twin_city.routes),
        tmp_path,
    )
    feed(twin, city)
    return twin


class TestConstructorValidation:
    def test_identical_plans_refused(self, city, plan, tmp_path):
        router = build_durable(city, plan, tmp_path / "cluster")
        with pytest.raises(ValueError, match="identical"):
            ReshardEngine(router, plan, tmp_path / "journal")

    def test_multi_pair_rebalance_refused(self, city, plan, tmp_path):
        router = build_durable(city, plan, tmp_path / "cluster")
        tangled = ShardPlan.from_assignment(
            {"A00": 2, "A01": 0, "B00": 3, "B01": 1}, city.routes
        )
        with pytest.raises(ValueError, match="exactly one shard pair"):
            ReshardEngine(router, tangled, tmp_path / "journal")

    def test_split_without_data_root_refused(self, city, plan, tmp_path):
        router = build_durable(city, plan, tmp_path / "cluster")
        new_plan = ShardPlan.from_assignment(SPLIT, city.routes)
        with pytest.raises(ValueError, match="data_root"):
            ReshardEngine(router, new_plan, tmp_path / "journal")

    def test_fresh_journal_is_written_planned(self, city, plan, tmp_path):
        _, _, engine = split_setup(city, plan, tmp_path)
        assert MigrationJournal.exists(tmp_path / "journal")
        loaded = MigrationJournal.load(tmp_path / "journal")
        assert loaded.phase == "PLANNED"
        assert loaded.moved_routes == ["B00"]
        assert (loaded.source, loaded.target) == (1, 2)
        assert engine.target_is_new


class TestSplitCommit:
    def test_runs_to_committed_with_twin_parity(self, city, plan, tmp_path):
        router, new_plan, engine = split_setup(city, plan, tmp_path)
        assert engine.run(now=city.now) == COMMITTED
        assert router.plan is new_plan
        assert sorted(router.nodes) == [0, 1, 2]
        # The moved route's sessions now live on the new shard only.
        assert all(
            session.route_id == "B00"
            for session in router.nodes[2].core.sessions.values()
        )
        assert not any(
            session.route_id == "B00"
            for session in router.nodes[1].core.sessions.values()
        )
        twin = twin_on(city, SPLIT, tmp_path / "twin")
        assert _compare(city, router, twin) == []
        assert router.metrics.counter("reshard.migrations_committed") == 1
        assert not router.reshard_hold_active
        assert router.health()["reshard"]["phase"] == COMMITTED

    def test_catchup_reads_the_source_wal_from_its_watermark(
        self, city, plan, tmp_path, monkeypatch
    ):
        """With 4-record segments, every catch-up round leaves the source
        segments before its watermark unopened, and the split still
        matches a twin built on the new plan."""
        router = build_cluster(city.server, plan)
        for sid, node in router.nodes.items():
            node.make_durable(
                tmp_path / "cluster" / f"shard-{sid:02d}",
                max_batch=4,
                max_segment_records=4,
            )
        feed(router, city)
        source_last = router.nodes[1].durable.wal.last_durable_seq
        engine = ReshardEngine(
            router,
            ShardPlan.from_assignment(SPLIT, city.routes),
            tmp_path / "journal",
            data_root=tmp_path / "cluster",
        )
        reads = []
        read_wal = engine_module.read_wal

        def spy(directory, **kwargs):
            result = read_wal(directory, **kwargs)
            reads.append((kwargs.get("after_seq", -1), result))
            return result

        monkeypatch.setattr(engine_module, "read_wal", spy)
        assert engine.run(now=city.now) == COMMITTED
        monkeypatch.undo()

        assert len(reads) == 2  # catch-up, then the cutover residue
        for after_seq, result in reads:
            # Only the last segment, which holds ``source_last``, is read.
            assert after_seq == source_last >= 8
            (opened,) = result.segments
            assert opened.first_seq <= source_last == opened.last_seq
            assert result.unopened == opened.first_seq > 0
        assert engine.journal.catchup_watermark == source_last
        twin = twin_on(city, SPLIT, tmp_path / "twin")
        assert _compare(city, router, twin) == []

    def test_queries_keep_answering_after_the_move(self, city, plan, tmp_path):
        router, _, engine = split_setup(city, plan, tmp_path)
        engine.run(now=city.now)
        # Rider queries for the moved route now resolve to shard 2 and
        # still see the sessions' trajectories.
        moved = [
            key
            for key, session in router.nodes[2].core.sessions.items()
            if session.route_id == "B00"
        ]
        assert moved
        for key in moved:
            assert router.shard_of_session(key) == 2
            assert router.current_position(key) is not None


class TestAbortRollback:
    def test_checkpoint_failure_aborts_and_restores_old_plan(
        self, city, plan, tmp_path
    ):
        faulty = FaultyFS()
        router, _, engine = split_setup(
            city, plan, tmp_path, fs_by_shard={1: faulty}
        )
        faulty.schedule_checkpoint_failures(1)
        assert engine.run(now=city.now) == ABORTED
        assert router.plan.assignment == dict(TWO_SHARDS)
        assert sorted(router.nodes) == [0, 1]
        assert not router.reshard_hold_active
        twin = twin_on(city, TWO_SHARDS, tmp_path / "twin")
        assert _compare(city, router, twin) == []
        assert router.metrics.counter("reshard.migrations_aborted") == 1
        reason = MigrationJournal.load(tmp_path / "journal").abort_reason
        assert "checkpoint" in reason

    def test_abort_forbidden_after_the_barrier(self, city, plan, tmp_path):
        router, _, engine = split_setup(city, plan, tmp_path)
        for _ in range(3):  # PLANNED -> ... -> CUTOVER (barrier committed)
            engine.advance(now=city.now)
        assert engine.phase == CUTOVER
        with pytest.raises(ValueError, match="roll forward"):
            engine.abort("too late")
        assert engine.run(now=city.now) == COMMITTED

    def test_terminal_migration_cannot_advance(self, city, plan, tmp_path):
        _, _, engine = split_setup(city, plan, tmp_path)
        engine.run(now=city.now)
        with pytest.raises(ValueError, match="already COMMITTED"):
            engine.advance(now=city.now)


class TestResume:
    def test_coordinator_death_after_catchup(self, city, plan, tmp_path):
        router, new_plan, engine = split_setup(city, plan, tmp_path)
        engine.advance(now=city.now)
        engine.advance(now=city.now)
        assert engine.phase == CATCHUP
        del engine  # the coordinator dies; only the journal survives
        resumed = ReshardEngine.resume(router, tmp_path / "journal")
        assert resumed.run(now=city.now) == COMMITTED
        assert router.plan.assignment == new_plan.assignment
        twin = twin_on(city, SPLIT, tmp_path / "twin")
        assert _compare(city, router, twin) == []
        assert router.metrics.counter("reshard.migrations_resumed") == 1

    def test_resume_of_terminal_journal_refused(self, city, plan, tmp_path):
        router, _, engine = split_setup(city, plan, tmp_path)
        engine.run(now=city.now)
        with pytest.raises(ValueError, match="nothing to resume"):
            ReshardEngine.resume(router, tmp_path / "journal")


class TestMergeCommit:
    def test_top_shard_folds_into_survivor_with_parity(self, city, tmp_path):
        start = {"A00": 0, "A01": 2, "B00": 1, "B01": 1}
        merged = {"A00": 0, "A01": 0, "B00": 1, "B01": 1}
        router = build_durable(
            city,
            ShardPlan.from_assignment(start, city.routes),
            tmp_path / "cluster",
        )
        feed(router, city)
        engine = ReshardEngine(
            router,
            ShardPlan.from_assignment(merged, city.routes),
            tmp_path / "journal",
        )
        assert not engine.target_is_new
        assert engine.run(now=city.now) == COMMITTED
        assert sorted(router.nodes) == [0, 1]
        twin = twin_on(city, merged, tmp_path / "twin")
        assert _compare(city, router, twin) == []


MERGE_ALL = {"A00": 0, "A01": 0, "B00": 0, "B01": 0}


def moved_view(core, routes, now):
    """Moved-route sessions' states (``sessions`` order) and index answers."""
    states = [s.state_dict() for s in core.sessions.values() if s.route_id in routes]
    index = {
        r: (
            core.index.active_session_keys(now, route_id=r),
            core.index.active_session_keys(now, timeout_s=now, route_id=r),
        )
        for r in sorted(routes)
    }
    return states, index


class TestHandoff:
    @pytest.mark.parametrize(
        "assignment, source, target",
        [(SPLIT, 1, 2), (MERGE_ALL, 1, 0)],
        ids=["split", "merge"],
    )
    def test_moved_sessions_arrive_whole(
        self, city, plan, tmp_path, assignment, source, target
    ):
        router = build_durable(city, plan, tmp_path / "cluster")
        feed(router, city)
        new_plan = ShardPlan.from_assignment(assignment, city.routes)
        moved = {rid for rid in city.routes if plan.shard_of(rid) != new_plan.shard_of(rid)}
        source_core = router.nodes[source].core
        now = max(
            s.last_report_t
            for s in source_core.sessions.values()
            if s.route_id in moved and s.last_report_t is not None
        )
        before = moved_view(source_core, moved, now)
        assert before[0] and all(active for active, _ in before[1].values())
        engine = ReshardEngine(
            router, new_plan, tmp_path / "journal", data_root=tmp_path / "cluster"
        )
        assert engine.run(now=city.now) == COMMITTED
        assert moved_view(router.nodes[target].core, moved, now) == before

    def test_merged_routes_are_known_to_the_survivors_fusion(
        self, city, plan, tmp_path
    ):
        router = build_durable(city, plan, tmp_path / "cluster")
        feed(router, city)
        engine = ReshardEngine(
            router,
            ShardPlan.from_assignment(MERGE_ALL, city.routes),
            tmp_path / "journal",
        )
        assert engine.run(now=city.now) == COMMITTED
        twin = twin_on(city, MERGE_ALL, tmp_path / "twin")
        route = city.routes["B00"]
        mid = route.point_at(route.length / 2)
        probe = GpsObservation(
            device_id="gps-probe",
            session_key="bus:B00:0",
            route_id="B00",
            t=city.now,
            x=mid.x,
            y=mid.y,
        )
        for cluster in (twin, router):
            assert cluster.ingest_observation(probe)
            gps = cluster.nodes[0].core.fusion.health()["sources"]["gps"]
            assert gps["rejected"] == 0

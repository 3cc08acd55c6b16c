"""Crash-recovery parity: the pipeline's central invariant.

A :class:`DurableServer` run over the synthetic city produces a WAL and
periodic checkpoints.  For a crash at **every record boundary of the
final WAL segment** we reconstruct the post-crash disk state (WAL
truncated at the boundary, checkpoints from the future deleted), recover
into a freshly configured twin, and demand state *and* rider-query
parity with an uninterrupted in-memory server that ingested the same
prefix.  Replay goes through the real ``ingest``, so parity here is
parity everywhere.
"""

from __future__ import annotations

import pytest

from repro.pipeline.checkpoint import checkpoint_paths
from repro.pipeline.durable import DurableServer
from repro.pipeline.replay import CHECKPOINT_SUBDIR, WAL_SUBDIR, recover
from repro.pipeline.wal import read_wal
from tests.pipeline.conftest import crash_dir_at, query_digest, server_digest

pytestmark = pytest.mark.durability


@pytest.fixture(scope="module")
def durable_run(tmp_path_factory):
    """One durable ingest of the city; returns (city, data_dir)."""
    from tests.pipeline.conftest import CITY_PARAMS
    from repro.eval.synth_city import build_linear_city

    city = build_linear_city(**CITY_PARAMS)
    data_dir = tmp_path_factory.mktemp("durable")
    with DurableServer(
        city.server,
        data_dir,
        max_batch=4,
        checkpoint_every=7,
        fsync=False,
        max_segment_records=8,
    ) as durable:
        accepted = durable.submit_many(city.reports)
        assert accepted == len(city.reports) == 24
        durable.flush()
    return city, data_dir


def test_run_layout(durable_run):
    city, data_dir = durable_run
    result = read_wal(data_dir / WAL_SUBDIR)
    assert result.salvaged == 24 and not result.truncated
    assert len(result.segments) == 3  # 8-record segments
    assert len(checkpoint_paths(data_dir / CHECKPOINT_SUBDIR)) == 2


def test_batching_reduced_flushes(durable_run):
    city, _ = durable_run
    m = city.server.metrics
    assert m.counter("wal.appends") == 24
    # 24 reports in batches of 4, plus the final-checkpoint flush path.
    assert m.counter("wal.flushes") <= 24 / 4 + 1
    assert m.counter("wal.appends") / m.counter("wal.flushes") >= 3.0


@pytest.mark.parametrize("cut_seq", range(15, 24))
def test_parity_at_every_final_segment_boundary(durable_run, tmp_path, cut_seq):
    city, data_dir = durable_run
    crash_dir = crash_dir_at(tmp_path, data_dir, cut_seq)

    recovered = city.fresh_twin()
    report = recover(recovered.server, crash_dir)
    assert report.error is None and not report.truncated
    assert report.last_seq == cut_seq
    assert report.checkpoint_seq <= cut_seq
    assert report.replayed == cut_seq - report.checkpoint_seq

    reference = city.fresh_twin()
    wal = read_wal(crash_dir / WAL_SUBDIR)
    reference.server.ingest_many([r.report for r in wal.records])

    assert server_digest(recovered.server) == server_digest(reference.server)
    assert query_digest(recovered) == query_digest(reference)


def test_recovered_server_keeps_ingesting(durable_run, tmp_path):
    """Recovery is not an endpoint: the rebuilt server accepts the tail."""
    city, data_dir = durable_run
    crash_dir = crash_dir_at(tmp_path, data_dir, 17)

    recovered = city.fresh_twin()
    durable = DurableServer(
        recovered.server, crash_dir, max_batch=4, fsync=False
    )
    assert durable.last_recovery is not None
    assert durable.last_recovery.last_seq == 17
    assert durable.wal.next_seq == 18
    remaining = read_wal(data_dir / WAL_SUBDIR).records[18:]
    durable.submit_many([r.report for r in remaining])
    durable.close()

    reference = city.fresh_twin()
    reference.replay()
    assert server_digest(durable.server) == server_digest(reference.server)
    assert query_digest(recovered) == query_digest(reference)


def test_recovered_health_reads_the_restored_counters(durable_run, tmp_path):
    """Guard and fusion health report the restored counters after a
    recovery, agreeing with the counters beside them (not restarting at 0)."""
    city, data_dir = durable_run
    recovered = city.fresh_twin()
    recover(recovered.server, crash_dir_at(tmp_path, data_dir, 17))
    m = recovered.server.metrics
    health = recovered.server.health()
    assert m.counter("guard.admitted") > 0
    assert health["guard"]["admitted"] == m.counter("guard.admitted")
    assert health["guard"]["rejected"] == m.counter("guard.rejected")
    assert health["fusion"]["fused_fixes"] == m.counter("fusion.fused_fixes")

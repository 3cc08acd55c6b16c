"""Recovery over a multi-segment WAL whose head the checkpoint covers.

:func:`recover` asks :func:`read_wal` for the records after the restored
checkpoint, and the reader leaves unopened every leading segment whose
successor's name shows it holds only covered records.  These tests pin
what that may and may not change: crash parity at every record boundary
(checkpoints in the middle of segments included), the report's counts,
damage in the covered head (now harmless to recovery, still reported by
``wal_stat`` and still refused by the writer), and damage or holes at or
after the checkpoint, which stop the read exactly as before.
"""

from __future__ import annotations

import pytest

from repro.pipeline.checkpoint import checkpoint_paths
from repro.pipeline.durable import DurableServer
from repro.pipeline.replay import CHECKPOINT_SUBDIR, WAL_SUBDIR, recover
from repro.pipeline.wal import WalCorruptionError, read_wal, wal_stat
from tests.pipeline.conftest import crash_dir_at, query_digest, server_digest

pytestmark = pytest.mark.durability

SEGMENT_FIRSTS = [0, 4, 8, 12, 16, 20]
CHECKPOINT_SEQS = [5, 11, 17, 23]


@pytest.fixture(scope="module")
def segmented_run(tmp_path_factory):
    """Six 4-record segments; checkpoints at 5 and 17 fall mid-segment."""
    from repro.eval.synth_city import build_linear_city
    from tests.pipeline.conftest import CITY_PARAMS

    city = build_linear_city(**CITY_PARAMS)
    data_dir = tmp_path_factory.mktemp("segmented")
    with DurableServer(
        city.server,
        data_dir,
        max_batch=2,
        checkpoint_every=5,
        checkpoint_retain=10,
        fsync=False,
        max_segment_records=4,
    ) as durable:
        assert durable.submit_many(city.reports) == 24
    return city, data_dir


def _reference(city, data_dir, cut_seq):
    """An uninterrupted in-memory server over records 0..cut_seq."""
    reference = city.fresh_twin()
    records = read_wal(data_dir / WAL_SUBDIR).records[: cut_seq + 1]
    reference.server.ingest_many([r.report for r in records])
    return reference


def _segment(crash_dir, first_seq):
    return crash_dir / WAL_SUBDIR / f"wal-{first_seq:010d}.jsonl"


def test_layout(segmented_run):
    _, data_dir = segmented_run
    result = read_wal(data_dir / WAL_SUBDIR)
    assert result.salvaged == 24 and not result.truncated
    assert [s.first_seq for s in result.segments] == SEGMENT_FIRSTS
    seqs = [
        int(p.name[len("ckpt-") : -len(".json")])
        for p in checkpoint_paths(data_dir / CHECKPOINT_SUBDIR)
    ]
    assert seqs == CHECKPOINT_SEQS


@pytest.mark.parametrize("cut_seq", range(24))
def test_parity_at_every_record_boundary(segmented_run, tmp_path, cut_seq):
    city, data_dir = segmented_run
    crash_dir = crash_dir_at(tmp_path, data_dir, cut_seq)

    recovered = city.fresh_twin()
    report = recover(recovered.server, crash_dir)
    ckpt_seq = max([s for s in CHECKPOINT_SEQS if s <= cut_seq], default=-1)
    assert report.error is None and not report.truncated
    assert report.checkpoint_seq == ckpt_seq
    assert report.last_seq == cut_seq
    assert report.replayed == cut_seq - ckpt_seq
    assert report.skipped == ckpt_seq + 1
    assert report.wal_records == cut_seq + 1

    reference = _reference(city, data_dir, cut_seq)
    assert server_digest(recovered.server) == server_digest(reference.server)
    assert query_digest(recovered) == query_digest(reference)


def test_report_counts_unopened_segments_as_skipped(segmented_run, tmp_path):
    """Checkpoint 17 sits inside segment 16..19 and the tail ends at 21,
    so segments 0..12 go unread; the counts and the summary stay exact."""
    city, data_dir = segmented_run
    report = recover(city.fresh_twin().server, crash_dir_at(tmp_path, data_dir, 21))
    assert (report.checkpoint_seq, report.last_seq) == (17, 21)
    assert (report.wal_records, report.skipped, report.replayed) == (22, 18, 4)
    assert report.unopened == 16
    text = report.summary()
    assert "wal records:    22 (16 in covered segments, not opened)" in text
    assert "replayed:       4 (skipped 18 already in checkpoint)" in text


def test_garbage_in_a_covered_segment_does_not_stop_recovery(
    segmented_run, tmp_path
):
    city, data_dir = segmented_run
    clean_twin = city.fresh_twin()
    recover(clean_twin.server, crash_dir_at(tmp_path / "clean", data_dir, 21))

    crash_dir = crash_dir_at(tmp_path / "damaged", data_dir, 21)
    covered = _segment(crash_dir, 4)
    covered.write_bytes(covered.read_bytes()[:40] + b"\x00garbage\xff\n")

    damaged_twin = city.fresh_twin()
    report = recover(damaged_twin.server, crash_dir)
    assert report.error is None and not report.truncated
    assert (report.replayed, report.last_seq) == (4, 21)
    assert server_digest(damaged_twin.server) == server_digest(clean_twin.server)
    assert query_digest(damaged_twin) == query_digest(clean_twin)

    stat = wal_stat(crash_dir / WAL_SUBDIR)
    assert stat["truncated"] and covered.name in stat["error"]
    # The writer still reads the whole log, and refuses to append after it.
    with pytest.raises(WalCorruptionError, match="mid-log corruption"):
        DurableServer(city.fresh_twin().server, crash_dir, fsync=False)


def test_flipped_byte_in_the_covered_part_of_the_read_segment_truncates(
    segmented_run, tmp_path
):
    """Record 16 is covered by checkpoint 17 but shares its segment with
    the suffix, so the segment is read in full and the flip stops it."""
    city, data_dir = segmented_run
    crash_dir = crash_dir_at(tmp_path, data_dir, 21)
    seg = _segment(crash_dir, 16)
    data = bytearray(seg.read_bytes())
    data[20] ^= 0x01
    seg.write_bytes(bytes(data))

    recovered = city.fresh_twin()
    report = recover(recovered.server, crash_dir)
    assert report.truncated and "CRC mismatch" in report.error
    assert seg.name in report.error
    assert (report.replayed, report.last_seq) == (0, 17)
    assert server_digest(recovered.server) == server_digest(
        _reference(city, data_dir, 17).server
    )
    with pytest.raises(WalCorruptionError):
        recover(city.fresh_twin().server, crash_dir, strict=True)


def test_missing_segment_between_checkpoint_and_tail_is_a_gap(
    segmented_run, tmp_path
):
    """Checkpoint 11, tail 22, segment 16..19 lost: replay stops at 15."""
    city, data_dir = segmented_run
    crash_dir = crash_dir_at(tmp_path, data_dir, 22)
    (crash_dir / CHECKPOINT_SUBDIR / "ckpt-0000000017.json").unlink()
    _segment(crash_dir, 16).unlink()

    recovered = city.fresh_twin()
    report = recover(recovered.server, crash_dir)
    assert report.checkpoint_seq == 11
    assert report.truncated and "expected 16, found 20" in report.error
    assert (report.replayed, report.last_seq) == (4, 15)
    assert server_digest(recovered.server) == server_digest(
        _reference(city, data_dir, 15).server
    )


def test_log_resuming_past_the_checkpoint_is_a_gap(segmented_run, tmp_path):
    """Only segment 20.. survives; checkpoint 17 needs 18 next, so nothing
    past the checkpoint is replayed (records 20..22 would skip 18 and 19)."""
    city, data_dir = segmented_run
    crash_dir = crash_dir_at(tmp_path, data_dir, 22)
    for first in SEGMENT_FIRSTS[:-1]:
        _segment(crash_dir, first).unlink()

    recovered = city.fresh_twin()
    report = recover(recovered.server, crash_dir)
    assert report.checkpoint_seq == 17
    assert report.truncated and "sequence gap" in report.error
    assert (report.replayed, report.last_seq) == (0, 17)


def test_recovery_from_a_fallback_checkpoint_reads_from_its_seq(
    segmented_run, tmp_path
):
    """A damaged newest checkpoint falls back to seq 11, and the segments
    after 11 (not after 17) are read and replayed."""
    city, data_dir = segmented_run
    crash_dir = crash_dir_at(tmp_path, data_dir, 22)
    (crash_dir / CHECKPOINT_SUBDIR / "ckpt-0000000017.json").write_text("{")

    recovered = city.fresh_twin()
    report = recover(recovered.server, crash_dir)
    assert report.error is None
    assert report.checkpoint_seq == 11
    assert (report.replayed, report.skipped, report.last_seq) == (11, 12, 22)
    reference = _reference(city, data_dir, 22)
    assert server_digest(recovered.server) == server_digest(reference.server)
    assert query_digest(recovered) == query_digest(reference)

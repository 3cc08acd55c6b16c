"""WAL codec, writer and tolerant-reader tests, including corruption drills.

The directed corruption cases mirror the failure taxonomy in
``repro.pipeline.wal``: torn tail, flipped CRC-covered byte, empty
segment, out-of-order sequence — each must stop the read cleanly at the
last good record, never raise from :func:`read_wal`, and report what was
salvaged.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pipeline.wal import (
    WalCorruptionError,
    WalWriter,
    decode_record,
    encode_record,
    read_wal,
    report_from_dict,
    report_to_dict,
    wal_stat,
)
from repro.radio.environment import Reading
from repro.sensing.reports import ScanReport
from tests.pipeline.conftest import make_report

pytestmark = pytest.mark.durability

# -- hypothesis round-trip ----------------------------------------------------

text_field = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=20
)
finite = st.floats(allow_nan=False, allow_infinity=False, width=64)

readings = st.lists(
    st.builds(Reading, bssid=text_field, ssid=text_field, rss_dbm=finite),
    max_size=5,
).map(tuple)

reports = st.builds(
    ScanReport,
    device_id=text_field,
    session_key=text_field,
    route_id=text_field,
    t=finite,
    readings=readings,
)


@settings(max_examples=100, deadline=None)
@given(report=reports, seq=st.integers(min_value=0, max_value=2**40))
def test_codec_round_trip(report, seq):
    line = encode_record(seq, report)
    assert line.endswith("\n")
    record = decode_record(line[:-1])
    assert record.seq == seq
    assert record.report == report


@settings(max_examples=50, deadline=None)
@given(report=reports)
def test_report_dict_round_trip(report):
    assert report_from_dict(report_to_dict(report)) == report


def test_encode_rejects_negative_seq():
    with pytest.raises(ValueError):
        encode_record(-1, make_report(0))


# -- writer basics ------------------------------------------------------------


def test_append_flush_read_back(tmp_path):
    reports_in = [make_report(i) for i in range(5)]
    with WalWriter(tmp_path, fsync=False) as w:
        seqs = [w.append(r) for r in reports_in]
        assert seqs == [0, 1, 2, 3, 4]
        assert w.pending == 5
        assert w.last_durable_seq is None
        assert w.flush() == 5
        assert w.pending == 0
        assert w.last_durable_seq == 4
    result = read_wal(tmp_path)
    assert not result.truncated and result.error is None
    assert [rec.seq for rec in result.records] == seqs
    assert [rec.report for rec in result.records] == reports_in


def test_one_flush_per_batch_counters(tmp_path):
    with WalWriter(tmp_path, fsync=False) as w:
        for i in range(8):
            w.append(make_report(i))
        w.flush()
        m = w.metrics
        assert m.counter("wal.appends") == 8
        assert m.counter("wal.flushes") == 1
        assert m.counter("wal.fsyncs") == 0  # fsync disabled


def test_rotation_by_record_count(tmp_path):
    with WalWriter(tmp_path, max_segment_records=3, fsync=False) as w:
        for i in range(7):
            w.append(make_report(i))
            w.flush()
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == [
        "wal-0000000000.jsonl",
        "wal-0000000003.jsonl",
        "wal-0000000006.jsonl",
    ]
    result = read_wal(tmp_path)
    assert result.salvaged == 7
    assert result.last_seq == 6


def test_rotation_by_bytes(tmp_path):
    with WalWriter(tmp_path, max_segment_bytes=1, fsync=False) as w:
        for i in range(3):
            w.append(make_report(i))
            w.flush()
        assert w.metrics.counter("wal.rotations") == 3
    assert len(list(tmp_path.iterdir())) == 3


def test_reopen_resumes_sequence(tmp_path):
    with WalWriter(tmp_path, fsync=False) as w:
        for i in range(4):
            w.append(make_report(i))
    with WalWriter(tmp_path, fsync=False) as w:
        assert w.next_seq == 4
        assert w.last_durable_seq == 3
        w.append(make_report(4))
    assert read_wal(tmp_path).salvaged == 5


def test_closed_writer_refuses(tmp_path):
    w = WalWriter(tmp_path, fsync=False)
    w.close()
    with pytest.raises(ValueError):
        w.append(make_report(0))
    with pytest.raises(ValueError):
        w.flush()


# -- directed corruption drills ----------------------------------------------


def _write_segments(tmp_path, n, *, max_segment_records=100):
    with WalWriter(
        tmp_path, max_segment_records=max_segment_records, fsync=False
    ) as w:
        for i in range(n):
            w.append(make_report(i))
            w.flush()


def test_torn_tail_salvages_prefix(tmp_path):
    _write_segments(tmp_path, 4)
    seg = next(tmp_path.iterdir())
    data = seg.read_bytes()
    seg.write_bytes(data[: len(data) - 7])  # crash mid-record: no newline
    result = read_wal(tmp_path)
    assert result.truncated
    assert "torn record" in result.error
    assert result.salvaged == 3
    assert result.last_seq == 2


def test_flipped_crc_byte_detected(tmp_path):
    _write_segments(tmp_path, 4)
    seg = next(tmp_path.iterdir())
    lines = seg.read_bytes().splitlines(keepends=True)
    # Flip one payload byte inside the third record, leaving framing intact.
    bad = bytearray(lines[2])
    bad[20] ^= 0x01
    lines[2] = bytes(bad)
    seg.write_bytes(b"".join(lines))
    result = read_wal(tmp_path)
    assert result.truncated
    assert "CRC mismatch" in result.error
    assert result.salvaged == 2


def test_empty_segment_file(tmp_path):
    _write_segments(tmp_path, 3, max_segment_records=3)
    # Rotation leaves wal-0000000000; fabricate a later, empty segment.
    (tmp_path / "wal-0000000003.jsonl").write_bytes(b"")
    result = read_wal(tmp_path)
    assert not result.truncated and result.error is None
    assert result.salvaged == 3
    assert result.segments[-1].records == 0


def test_out_of_order_sequence_detected(tmp_path):
    seg = tmp_path / "wal-0000000000.jsonl"
    lines = [encode_record(s, make_report(s)) for s in (0, 1, 3)]
    seg.write_text("".join(lines))
    result = read_wal(tmp_path)
    assert result.truncated
    assert "out-of-order sequence" in result.error
    assert result.salvaged == 2


def test_duplicated_record_detected(tmp_path):
    seg = tmp_path / "wal-0000000000.jsonl"
    lines = [encode_record(s, make_report(s)) for s in (0, 1, 1)]
    seg.write_text("".join(lines))
    result = read_wal(tmp_path)
    assert result.truncated
    assert result.salvaged == 2


def test_gap_across_segment_boundary_detected(tmp_path):
    (tmp_path / "wal-0000000000.jsonl").write_text(
        encode_record(0, make_report(0))
    )
    (tmp_path / "wal-0000000002.jsonl").write_text(
        encode_record(2, make_report(2))
    )
    result = read_wal(tmp_path)
    assert result.truncated
    assert result.salvaged == 1


def test_writer_repairs_torn_tail_on_open(tmp_path):
    _write_segments(tmp_path, 4)
    seg = next(tmp_path.iterdir())
    data = seg.read_bytes()
    seg.write_bytes(data[: len(data) - 7])
    with WalWriter(tmp_path, fsync=False) as w:
        assert w.metrics.counter("wal.repaired_bytes") > 0
        assert w.next_seq == 3  # the torn record 3 is gone
        w.append(make_report(3))
    result = read_wal(tmp_path)
    assert not result.truncated
    assert result.salvaged == 4


def test_writer_refuses_mid_log_corruption(tmp_path):
    _write_segments(tmp_path, 4, max_segment_records=2)
    first = sorted(tmp_path.iterdir())[0]
    data = bytearray(first.read_bytes())
    data[15] ^= 0x01
    first.write_bytes(bytes(data))
    with pytest.raises(WalCorruptionError, match="mid-log corruption"):
        WalWriter(tmp_path, fsync=False)


# -- reading after a checkpoint ------------------------------------------------


def test_after_seq_leaves_covered_segments_unopened(tmp_path):
    _write_segments(tmp_path, 10, max_segment_records=2)  # 0, 2, 4, 6, 8
    full = read_wal(tmp_path)
    for after_seq in range(-1, 12):
        result = read_wal(tmp_path, after_seq=after_seq)
        assert not result.truncated and result.error is None
        # Segment k (first seq 2k) is opened unless segment k+1 starts
        # at or before after_seq + 1; the last one is always opened.
        opened_from = min(max(0, (after_seq + 1) // 2 * 2), 8)
        assert [s.first_seq for s in result.segments] == list(
            range(opened_from, 10, 2)
        )
        assert result.unopened == opened_from
        assert result.records == full.records[opened_from:]


def test_after_seq_reads_the_last_segment_even_when_covered(tmp_path):
    _write_segments(tmp_path, 5, max_segment_records=2)  # 0, 2, 4
    result = read_wal(tmp_path, after_seq=100)
    assert [s.first_seq for s in result.segments] == [4]
    assert result.unopened == 4 and result.last_seq == 4


def test_after_seq_first_record_past_the_next_seq_is_a_gap(tmp_path):
    _write_segments(tmp_path, 6, max_segment_records=2)  # 0, 2, 4
    for name in ("wal-0000000000.jsonl", "wal-0000000002.jsonl"):
        (tmp_path / name).unlink()
    assert read_wal(tmp_path, after_seq=3).salvaged == 2
    result = read_wal(tmp_path, after_seq=2)
    assert result.truncated and result.salvaged == 0
    assert "sequence gap: expected at most 3, found 4" in result.error
    # Without a caller's sequence the first record may start anywhere.
    assert read_wal(tmp_path).salvaged == 2


def test_after_seq_checks_every_opened_segment_in_full(tmp_path):
    _write_segments(tmp_path, 6, max_segment_records=3)  # 0, 3
    first = tmp_path / "wal-0000000000.jsonl"
    lines = first.read_bytes().splitlines(keepends=True)
    first.write_bytes(lines[0] + b"garbage\n" + b"".join(lines[2:]))
    # The damage is covered but shares its segment with seq 2, the first
    # record past the caller's, so the segment is read and the read stops.
    result = read_wal(tmp_path, after_seq=1)
    assert result.truncated and result.salvaged == 1
    # Once the whole segment is covered it is not opened at all.
    result = read_wal(tmp_path, after_seq=2)
    assert not result.truncated and result.salvaged == 3


def test_after_seq_opens_segments_with_unparsable_names(tmp_path):
    _write_segments(tmp_path, 4, max_segment_records=2)  # 0, 2
    (tmp_path / "wal-0000000002.jsonl").rename(tmp_path / "wal-x.jsonl")
    result = read_wal(tmp_path, after_seq=3)
    assert [s.path.name for s in result.segments] == [
        "wal-0000000000.jsonl",
        "wal-x.jsonl",
    ]
    assert result.unopened == 0 and result.salvaged == 4


# -- wal_stat -----------------------------------------------------------------


def test_wal_stat_summary(tmp_path):
    _write_segments(tmp_path, 5, max_segment_records=2)
    stat = wal_stat(tmp_path)
    assert stat["records"] == 5
    assert stat["segments"] == 3
    assert stat["first_seq"] == 0
    assert stat["last_seq"] == 4
    assert not stat["truncated"] and stat["error"] is None
    assert [s["records"] for s in stat["per_segment"]] == [2, 2, 1]


def test_wal_stat_empty_dir(tmp_path):
    stat = wal_stat(tmp_path)
    assert stat["records"] == 0
    assert stat["first_seq"] is None and stat["last_seq"] is None

"""Durable ingest cost: WAL flush-amortisation benchmark (counter-based).

Replays the 20-route synthetic city through a :class:`DurableServer`
twice — once with per-report durability (``max_batch=1``) and once with
micro-batching — and compares the ``wal.flushes`` counters at an equal
``wal.appends`` count.  The batch size bounds the ratio from below, so
the assertion is independent of machine speed, like the traversal-count
benchmarks.

Acceptance criterion exercised here: micro-batching performs >= 5x fewer
WAL flush/fsync calls than per-report durability (the measured ratio is
the batch size, ~32x at this configuration).

The recovery read is gated the same way, by counting work: reading the
log after a checkpoint near its end opens at most the two segments that
can hold records past it, however long the log has grown.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from benchmarks.conftest import banner, show
from repro.eval.synth_city import build_linear_city
from repro.pipeline.durable import DurableServer
from repro.pipeline.wal import WalWriter, read_wal

pytestmark = pytest.mark.durability

CITY = dict(
    num_routes=20,
    sessions_per_route=10,
    reports_per_session=6,
    stops_per_route=6,
    aps_per_route=8,
    route_length_m=1500.0,
    move_m_per_report=150.0,
)
BATCH = 32


def _durable_ingest(tmp_path, *, max_batch):
    city = build_linear_city(**CITY)
    durable = DurableServer(
        city.server, tmp_path, max_batch=max_batch, fsync=False
    )
    durable.submit_many(city.reports)
    durable.close(checkpoint=False)
    return city.server.metrics


def test_flush_amortisation(tmp_path):
    per_report = _durable_ingest(tmp_path / "per-report", max_batch=1)
    batched = _durable_ingest(tmp_path / "batched", max_batch=BATCH)
    n = per_report.counter("wal.appends")
    assert batched.counter("wal.appends") == n
    flushes_1 = per_report.counter("wal.flushes")
    flushes_b = batched.counter("wal.flushes")
    ratio = flushes_1 / flushes_b

    banner("WAL flush amortisation (durable ingest, equal record counts)")
    show(f"  {'mode':<22}{'records':>9}{'flushes':>9}{'records/flush':>15}")
    show(f"  {'per-report':<22}{n:>9}{flushes_1:>9}{n / flushes_1:>15.1f}")
    show(f"  {f'batched (max={BATCH})':<22}{n:>9}{flushes_b:>9}{n / flushes_b:>15.1f}")
    show(f"  flush reduction: {ratio:.1f}x (acceptance: >= 5x)")

    assert flushes_1 == n
    assert ratio >= 5.0


SEGMENT_RECORDS = 128


def test_recovery_read_opens_only_uncovered_segments(tmp_path, monkeypatch):
    reports = build_linear_city(**CITY).reports
    with WalWriter(
        tmp_path, max_segment_records=SEGMENT_RECORDS, fsync=False
    ) as wal:
        for report in reports:
            wal.append(report)
            if wal.pending == BATCH:
                wal.flush()
    n = len(reports)
    segments = len(list(tmp_path.iterdir()))
    assert segments >= 8
    # A checkpoint inside the second-to-last segment.
    ckpt_seq = (segments - 2) * SEGMENT_RECORDS + SEGMENT_RECORDS // 2
    suffix = n - 1 - ckpt_seq

    opened: list[str] = []
    path_open = Path.open

    def counting_open(self, *args, **kwargs):
        opened.append(self.name)
        return path_open(self, *args, **kwargs)

    monkeypatch.setattr(Path, "open", counting_open)
    full = read_wal(tmp_path)
    full_opens = len(opened)
    opened.clear()
    result = read_wal(tmp_path, after_seq=ckpt_seq)
    after_opens = len(opened)
    monkeypatch.undo()

    banner("WAL recovery read (checkpoint inside the last two segments)")
    show(f"  {'read':<26}{'segments opened':>17}{'records':>9}")
    show(f"  {'whole log':<26}{full_opens:>17}{full.salvaged:>9}")
    show(f"  {f'after seq {ckpt_seq}':<26}{after_opens:>17}{result.salvaged:>9}")
    show(f"  suffix {suffix} records; acceptance: <= 2 segments opened")

    assert full_opens == segments and full.salvaged == n
    assert not result.truncated
    assert after_opens <= 2
    assert result.salvaged <= suffix + SEGMENT_RECORDS
    assert [r.seq for r in result.records if r.seq > ckpt_seq] == list(
        range(ckpt_seq + 1, n)
    )

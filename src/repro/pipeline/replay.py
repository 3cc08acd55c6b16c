"""Crash recovery: latest checkpoint + WAL suffix replay.

The recovery invariant the pipeline tests prove: for a server killed at
any record boundary, :func:`recover` run against a freshly configured
server reconstructs exactly the sessions, live travel-time store, stats,
ingest counters and rider-query answers of an uninterrupted server that
ingested the same WAL prefix.  Replay goes through the real ingest body
(:meth:`WiLocatorServer.ingest_many` with ``admitted=True`` — the WAL
only ever holds admitted reports, so admission must not run twice) —
there is no second ingestion code path to drift.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

from repro.core.server.server import WiLocatorServer
from repro.pipeline.checkpoint import latest_checkpoint, restore_into
from repro.pipeline.wal import WalCorruptionError, read_wal

__all__ = ["RecoveryReport", "recover", "WAL_SUBDIR", "CHECKPOINT_SUBDIR"]

WAL_SUBDIR = "wal"
CHECKPOINT_SUBDIR = "checkpoints"


@dataclass(frozen=True, slots=True)
class RecoveryReport:
    """What one :func:`recover` call found and did.

    ``wal_records`` is ``skipped + replayed``; ``unopened`` of the skipped
    records lie in segments the checkpoint covers, counted from their
    names without reading them.
    """

    checkpoint_path: str | None
    checkpoint_seq: int
    wal_records: int
    unopened: int
    replayed: int
    skipped: int
    truncated: bool
    error: str | None
    last_seq: int | None
    duration_s: float

    def summary(self) -> str:
        ckpt = self.checkpoint_path or "(none)"
        lines = [
            f"checkpoint:     {ckpt} (covers seq <= {self.checkpoint_seq})",
            f"wal records:    {self.wal_records} "
            + (
                f"({self.unopened} in covered segments, not opened)"
                if self.unopened
                else "readable"
            )
            + (f" (stopped early: {self.error})" if self.truncated else ""),
            f"replayed:       {self.replayed} "
            f"(skipped {self.skipped} already in checkpoint)",
            f"recovered seq:  {self.last_seq if self.last_seq is not None else '(empty log)'}",
            f"recovery time:  {self.duration_s:.3f} s",
        ]
        return "\n".join(lines)


def recover(
    server: WiLocatorServer,
    data_dir: str | Path,
    *,
    strict: bool = False,
) -> RecoveryReport:
    """Rebuild a freshly configured server from ``data_dir``.

    ``data_dir`` holds the durable layout written by
    :class:`~repro.pipeline.durable.DurableServer`: a ``wal/`` directory
    of log segments and a ``checkpoints/`` directory of snapshots.  The
    newest loadable checkpoint is restored first (a damaged newest file
    falls back to the previous one), then every readable WAL record past
    its stamped sequence is replayed through the admitted ingest path.
    WAL segments that hold only records the restored checkpoint covers
    are not opened (see :func:`~repro.pipeline.wal.read_wal`).

    With ``strict=True`` a damaged WAL raises
    :class:`~repro.pipeline.wal.WalCorruptionError` after restoring what
    it could; the default is the tolerant stop-at-tail behaviour, with
    the damage described in the returned report.
    """
    t0 = time.perf_counter()
    data_dir = Path(data_dir)
    found = latest_checkpoint(data_dir / CHECKPOINT_SUBDIR)
    if found is not None:
        ckpt_path, ckpt = found
        ckpt_seq = restore_into(server, ckpt)
        checkpoint_path = str(ckpt_path)
    else:
        ckpt_seq = -1
        checkpoint_path = None
    # Segments the restored checkpoint covers are not opened; their
    # records count as skipped all the same.
    result = read_wal(data_dir / WAL_SUBDIR, after_seq=ckpt_seq)
    # The WAL only ever contains admitted reports (DurableServer admits at
    # submission time), so the suffix replays through the admitted batch
    # path — running admission a second time would double the admission
    # counters and corrupt duplicate-suppression state.
    to_replay = [r.report for r in result.records if r.seq > ckpt_seq]
    skipped = result.unopened + len(result.records) - len(to_replay)
    server.ingest_many(to_replay, admitted=True)
    replayed = len(to_replay)
    server.metrics.incr("replay.records", replayed)
    server.metrics.incr("replay.runs")
    duration = time.perf_counter() - t0
    server.metrics.observe("replay", duration)
    if strict and result.error is not None:
        raise WalCorruptionError(result.error)
    last_seq = max(ckpt_seq, -1 if result.last_seq is None else result.last_seq)
    return RecoveryReport(
        checkpoint_path=checkpoint_path,
        checkpoint_seq=ckpt_seq,
        wal_records=skipped + replayed,
        unopened=result.unopened,
        replayed=replayed,
        skipped=skipped,
        truncated=result.truncated,
        error=result.error,
        last_seq=last_seq if last_seq >= 0 else None,
        duration_s=duration,
    )

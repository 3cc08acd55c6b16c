"""The durable server: WAL + micro-batching + periodic checkpoints.

:class:`DurableServer` wraps an in-memory :class:`WiLocatorServer` (which
stays the default everywhere else — tests, experiments, benchmarks run
the plain server) and makes its ingest stream crash-recoverable:

* every submitted report is appended to the write-ahead log
  (:mod:`repro.pipeline.wal`) and made durable with one flush per
  micro-batch (:mod:`repro.pipeline.batcher`), not one per report;
* a report mutates server state only after the batch holding it is
  durable, so recovery can never know *less* than the WAL and the WAL
  can never know less than the state;
* every ``checkpoint_every`` committed reports a snapshot stamped with
  the covered WAL sequence is published atomically
  (:mod:`repro.pipeline.checkpoint`).

Crash semantics: reports buffered in the batcher but not yet flushed are
lost on a crash — exactly as if the phones' uploads had not arrived.
Everything flushed is recovered byte-identically by
:func:`repro.pipeline.replay.recover`.

Admission control runs at *submission* time: a rejected report is
quarantined by the wrapped server's guard and never reaches the WAL, so
the log only ever contains admitted reports (and replay can trust it).
Committed batches apply through
:meth:`WiLocatorServer.ingest_admitted` — admission never runs twice.

Storage faults degrade, they do not crash: a
:class:`~repro.guard.breaker.CircuitBreaker` watches WAL flushes and
checkpoint publishes.  After ``breaker_threshold`` consecutive failures
it opens — ingest continues **in memory** with
``pipeline.degraded_reports`` counting every report that lost
durability — and after ``breaker_probe_after`` skipped reports it
half-opens and re-probes the disk.  ``health()`` surfaces the whole
story (breaker state, WAL lag, quarantine).

All pipeline counters and latencies share the wrapped server's
:class:`~repro.core.server.metrics.ServerMetrics`, so
``metrics_snapshot()`` reports the wal/batch/checkpoint/replay stages
alongside ingest and query.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

from repro.core.arrival.predictor import ArrivalPrediction
from repro.core.positioning.trajectory import TrajectoryPoint
from repro.core.server.server import WiLocatorServer
from repro.core.server.session import BusSession
from repro.core.traffic.map import TrafficMap
from repro.fusion.observations import Observation, WifiObservation
from repro.guard.breaker import CircuitBreaker
from repro.pipeline.batcher import MicroBatcher
from repro.pipeline.checkpoint import write_checkpoint
from repro.pipeline.replay import (
    CHECKPOINT_SUBDIR,
    WAL_SUBDIR,
    RecoveryReport,
    recover as run_recovery,
)
from repro.pipeline.wal import WalWriter
from repro.sensing.reports import ScanReport

__all__ = ["DurableServer"]


class DurableServer:
    """Durability wrapper around a configured :class:`WiLocatorServer`.

    Parameters
    ----------
    server:
        The freshly configured in-memory server to wrap.  Construct it
        exactly as for a non-durable deployment; queries go straight to
        it (``durable.server.predict_arrival(...)`` or via
        :meth:`__getattr__` delegation).
    data_dir:
        Root of the durable layout (``wal/`` and ``checkpoints/``).
    max_batch / max_delay_s / max_queue / overflow:
        Micro-batching knobs, see :class:`MicroBatcher`.
    checkpoint_every:
        Publish a checkpoint after at least this many committed reports
        (0 disables periodic checkpoints; :meth:`close` still writes a
        final one unless told not to).
    max_segment_records / max_segment_bytes / fsync:
        WAL knobs, see :class:`WalWriter`.
    recover:
        When True (default), replay existing durable state in
        ``data_dir`` into ``server`` before accepting new reports.
    breaker_threshold / breaker_probe_after:
        Storage circuit breaker: consecutive WAL/checkpoint failures
        before opening, and reports skipped while open before a
        half-open probe (see :class:`CircuitBreaker`).
    fs:
        Optional filesystem hooks (``open``/``fsync``/
        ``atomic_write_text``) threaded into the WAL and checkpoint
        writers — the chaos drills pass
        :class:`~repro.guard.chaos.FaultyFS`; ``None`` uses the real
        filesystem.
    """

    def __init__(
        self,
        server: WiLocatorServer,
        data_dir: str | Path,
        *,
        max_batch: int = 32,
        max_delay_s: float = 0.2,
        max_queue: int = 1024,
        overflow: str = "block",
        checkpoint_every: int = 0,
        checkpoint_retain: int = 2,
        max_segment_records: int = 1024,
        max_segment_bytes: int = 1 << 20,
        fsync: bool = True,
        recover: bool = True,
        breaker_threshold: int = 3,
        breaker_probe_after: int = 64,
        fs=None,
    ) -> None:
        self.server = server
        self.data_dir = Path(data_dir)
        self.checkpoint_every = checkpoint_every
        self.checkpoint_retain = checkpoint_retain
        self.fs = fs
        self.breaker = CircuitBreaker(
            failure_threshold=breaker_threshold,
            probe_after=breaker_probe_after,
            name="storage",
            metrics=server.metrics,
        )
        self.last_recovery: RecoveryReport | None = None
        if recover:
            self.last_recovery = run_recovery(server, self.data_dir)
        self.wal = WalWriter(
            self.data_dir / WAL_SUBDIR,
            max_segment_records=max_segment_records,
            max_segment_bytes=max_segment_bytes,
            fsync=fsync,
            metrics=server.metrics,
            fs=fs,
        )
        self.batcher = MicroBatcher(
            self._commit,
            max_batch=max_batch,
            max_delay_s=max_delay_s,
            max_queue=max_queue,
            overflow=overflow,
            metrics=server.metrics,
        )
        self._since_checkpoint = 0
        self._closed = False

    # -- durable ingestion ---------------------------------------------------

    def submit(self, report: ScanReport) -> bool:
        """Batched durable ingest; the report takes effect at batch commit.

        Admission control runs now: a rejected report is quarantined (see
        the guard's reason counters) and returns False without touching
        the WAL.  Otherwise False only when the report was dropped by the
        overflow policy.  State and position fixes become visible once
        the batch holding the report commits (max-batch reached,
        max-delay elapsed, or an explicit :meth:`flush`).
        """
        self._check_open()
        if not self.server.admit(report):
            return False
        return self.batcher.submit(report)

    def submit_many(self, reports: Iterable[ScanReport]) -> int:
        """Submit a report stream in timestamp order; returns accepted count.

        Reports are admitted in timestamp order (admission state is
        clocked by report time); quarantined ones never enter the batch.
        """
        self._check_open()
        admitted = [
            report
            for report in sorted(reports, key=lambda r: r.t)
            if self.server.admit(report)
        ]
        return self.batcher.submit_many(admitted)

    def ingest(self, report: ScanReport) -> TrajectoryPoint | None:
        """Unbatched durable ingest: WAL-commit this report alone, then apply.

        The synchronous path for callers that need the position fix
        immediately; costs one flush/fsync per report.  Any batched
        reports already waiting are committed first, preserving
        submission order in the log.
        """
        self._check_open()
        if not self.server.admit(report):
            return None
        self.batcher.flush()
        self._wal_commit([report])
        fix = self.server.ingest_admitted(report)
        self._note_committed(1)
        return fix

    def ingest_many(
        self, reports: Iterable[ScanReport], *, admitted: bool = False
    ) -> int:
        """Durable batch ingest; returns the accepted count.

        The protocol-surface twin of :meth:`submit_many`: reports are
        admitted, micro-batched into the WAL, and *committed before the
        call returns* (a front-door batch must be queryable once the
        request is acknowledged).  Before this method existed the name
        fell through ``__getattr__`` to the wrapped server's
        ``ingest_many`` — silently bypassing the WAL, so a crash lost
        reports that the caller believed durable.

        ``admitted=True`` marks a stream that already passed admission
        *and* durability (recovery replay, a committed cluster batch):
        it applies directly through the wrapped server without touching
        admission state or the log again.
        """
        self._check_open()
        if admitted:
            return len(self.server.ingest_many(reports, admitted=True))
        accepted = self.submit_many(reports)
        self.batcher.flush()
        return accepted

    def ingest_rider(self, report: ScanReport) -> TrajectoryPoint | None:
        """Rider-scan ingest (proximity grouping); served from memory.

        Rider scans are advisory evidence — the grouper may or may not
        match them to a bus, and the match depends on in-memory grouper
        state that a replay cannot reproduce — so they are deliberately
        *not* WAL-logged: durability covers the driver stream, which is
        the system of record.  Explicit (rather than ``__getattr__``)
        so the contract is visible and typed.
        """
        self._check_open()
        return self.server.ingest_rider(report)

    def ingest_observation(self, obs: Observation) -> bool:
        """Durable multi-sensor ingest of one normalized observation.

        WiFi observations are the system of record: they convert back to
        scan reports and take the batched WAL path (:meth:`submit`), so
        a crash replays them like any driver report.  Non-WiFi
        observations are advisory correction evidence with a retention
        TTL — like rider scans they are deliberately *not* WAL-logged
        and go straight to the wrapped server's fusion orchestrator,
        which rebuilds from live feeds after recovery (DESIGN.md §18).
        """
        self._check_open()
        if isinstance(obs, WifiObservation):
            accepted = self.submit(obs.to_report())
            self.server.fusion.note_wifi_observation(accepted)
            return accepted
        return self.server.ingest_observation(obs)

    def ingest_observations(self, observations: Iterable[Observation]) -> dict[str, int]:
        """Durable observation batch; same counter-delta ack as every backend."""
        self._check_open()
        submitted = accepted = 0
        for obs in sorted(observations, key=lambda o: o.t):
            submitted += 1
            if self.ingest_observation(obs):
                accepted += 1
        return {
            "submitted": submitted,
            "accepted": accepted,
            "rejected": submitted - accepted,
        }

    def fused_position(self, session_key: str, *, now: float) -> TrajectoryPoint | None:
        """Fusion-backed position (WiFi-fresh or blended); served from memory."""
        self._check_open()
        return self.server.fused_position(session_key, now=now)

    def flush(self) -> int:
        """Commit any buffered batch now; returns reports committed."""
        self._check_open()
        return self.batcher.flush()

    def _commit(self, batch: Sequence[ScanReport]) -> None:
        """Batcher sink: one WAL flush for the whole batch, then apply it.

        The batch is already admitted (see :meth:`submit`), so it applies
        through :meth:`WiLocatorServer.ingest_admitted`.  Storage failure
        does not raise: the breaker records it and the batch is applied
        in memory, loudly counted as degraded.
        """
        self._wal_commit(batch)
        for report in batch:
            self.server.ingest_admitted(report)
        self._note_committed(len(batch))

    def _wal_commit(self, batch: Sequence[ScanReport]) -> bool:
        """Try to make a batch durable; False means degraded (memory only)."""
        metrics = self.server.metrics
        if not self.breaker.allow():
            self.breaker.note_skipped(len(batch))
            metrics.incr("pipeline.degraded_reports", len(batch))
            return False
        try:
            for report in batch:
                self.wal.append(report)
            self.wal.flush()
        except OSError as exc:
            # The WAL already unwound itself (_abort_flush); the reports
            # live on in memory only.
            self.breaker.record_failure(repr(exc))
            metrics.incr("pipeline.degraded_reports", len(batch))
            return False
        self.breaker.record_success()
        return True

    def _note_committed(self, n: int) -> None:
        self._since_checkpoint += n
        if self.checkpoint_every and self._since_checkpoint >= self.checkpoint_every:
            self.checkpoint()

    # -- checkpoints ---------------------------------------------------------

    def checkpoint(self) -> Path | None:
        """Publish a checkpoint covering everything committed so far.

        Returns None when the storage breaker is open (the attempt is
        skipped) or the publish itself fails — checkpointing degrades
        like the WAL does instead of taking ingest down.
        """
        self._check_open()
        self.batcher.flush()
        return self._write_checkpoint()

    def _write_checkpoint(self) -> Path | None:
        metrics = self.server.metrics
        if not self.breaker.allow():
            self.breaker.note_skipped(1)
            metrics.incr("checkpoint.skipped")
            return None
        seq = self.wal.last_durable_seq
        try:
            with metrics.timer("checkpoint"):
                path = write_checkpoint(
                    self.data_dir / CHECKPOINT_SUBDIR,
                    self.server,
                    wal_seq=seq if seq is not None else -1,
                    retain=self.checkpoint_retain,
                    write_text=(
                        self.fs.atomic_write_text if self.fs is not None else None
                    ),
                )
        except OSError as exc:
            self.breaker.record_failure(repr(exc))
            metrics.incr("checkpoint.failures")
            return None
        self.breaker.record_success()
        metrics.incr("checkpoint.writes")
        self._since_checkpoint = 0
        return path

    def close(self, *, checkpoint: bool = True) -> None:
        """Commit buffered reports, optionally checkpoint, release the WAL.

        Never raises on storage failure: the final flush and checkpoint
        degrade through the breaker like any other.  A successful final
        checkpoint also *heals* earlier degradation — it snapshots the
        in-memory state, including reports that never reached the WAL.
        """
        if self._closed:
            return
        self.batcher.flush()
        if checkpoint:
            self._write_checkpoint()
        try:
            self.wal.close()
        except OSError as exc:
            self.breaker.record_failure(repr(exc))
            self.wal.close()  # the failed buffer was dropped; releases the segment
        self._closed = True

    def __enter__(self) -> "DurableServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise ValueError("durable server is closed")

    # -- observability -------------------------------------------------------

    def health(self) -> dict:
        """The wrapped server's health plus storage-path state.

        ``status`` follows the breaker: ``ok`` (closed), ``degraded``
        (half-open, probing) or ``failed`` (open, ingest is in-memory
        only).
        """
        metrics = self.server.metrics
        health = self.server.health()
        health["status"] = self.breaker.status
        health["breaker"] = self.breaker.snapshot()
        health["wal"] = {
            "next_seq": self.wal.next_seq,
            "pending": self.wal.pending,
            "last_durable_seq": self.wal.last_durable_seq,
            "flush_failures": metrics.counter("wal.flush_failures"),
            "dropped_records": metrics.counter("wal.dropped_records"),
        }
        health["degraded_reports"] = metrics.counter("pipeline.degraded_reports")
        return health

    # -- queries delegate to the wrapped server ------------------------------
    #
    # The ServingBackend query surface is delegated *explicitly* (typed,
    # visible to mypy and to readers); __getattr__ remains only for the
    # long tail of server attributes (routes, predictor, index, ...).

    def predict_arrival(
        self, session_key: str, stop_id: str
    ) -> ArrivalPrediction | None:
        return self.server.predict_arrival(session_key, stop_id)

    def current_position(self, session_key: str) -> TrajectoryPoint | None:
        return self.server.current_position(session_key)

    def active_sessions(
        self, *, now: float, timeout_s: float = 300.0
    ) -> list[BusSession]:
        return self.server.active_sessions(now=now, timeout_s=timeout_s)

    def traffic_map(
        self,
        now: float,
        segment_ids: Sequence[str] | None = None,
        *,
        with_anomalies: bool = True,
    ) -> TrafficMap:
        return self.server.traffic_map(
            now, segment_ids, with_anomalies=with_anomalies
        )

    def counters(self) -> dict[str, int]:
        return self.server.counters()

    def metrics_snapshot(self) -> dict:
        return self.server.metrics_snapshot()

    def __getattr__(self, name: str):
        return getattr(self.server, name)

"""Append-only write-ahead log of scan reports.

The durable ingest pipeline's source of truth: every :class:`ScanReport`
accepted by a :class:`~repro.pipeline.durable.DurableServer` is first
appended here, so a crashed server can be rebuilt by replaying the log
(see :mod:`repro.pipeline.replay`).

Format — one record per line, across size/count-rotated segment files
named ``wal-<first_seq>.jsonl``:

``<crc32 hex, 8 chars> <canonical JSON payload>\\n``

where the payload is ``{"seq": <monotonic int>, "report": {...}}`` with
sorted keys and no whitespace, and the CRC covers the payload's UTF-8
bytes.  The framing makes every failure mode detectable:

* a **torn tail** (crash mid-write) is a final line with no newline;
* a **flipped byte** fails the CRC;
* a **lost or duplicated line** breaks the dense sequence numbering.

The tolerant reader (:func:`read_wal`) stops cleanly at the first
problem, reports how many records were salvaged, and never raises for
tail damage; :class:`WalWriter` truncates a torn tail on open (the only
unreadable suffix a clean crash can produce) and refuses to append after
mid-log corruption, which would silently orphan good records.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, BinaryIO

from repro.core.server.metrics import ServerMetrics
from repro.radio.environment import Reading
from repro.sensing.reports import ScanReport

__all__ = [
    "WalCorruptionError",
    "WalRecord",
    "SegmentScan",
    "WalReadResult",
    "WalWriter",
    "report_to_dict",
    "report_from_dict",
    "encode_record",
    "decode_record",
    "read_wal",
    "wal_stat",
]

SEGMENT_PREFIX = "wal-"
SEGMENT_SUFFIX = ".jsonl"


class WalCorruptionError(ValueError):
    """A WAL record or segment failed validation where tolerance is not allowed."""


# -- record codec ------------------------------------------------------------


def report_to_dict(report: ScanReport) -> dict[str, Any]:
    """The wire form of one scan report (JSON-safe, round-trip exact)."""
    return {
        "device": report.device_id,
        "session": report.session_key,
        "route": report.route_id,
        "t": report.t,
        "readings": [[r.bssid, r.ssid, r.rss_dbm] for r in report.readings],
    }


def report_from_dict(data: dict[str, Any]) -> ScanReport:
    """Inverse of :func:`report_to_dict`."""
    return ScanReport(
        device_id=data["device"],
        session_key=data["session"],
        route_id=data["route"],
        t=float(data["t"]),
        readings=tuple(
            Reading(bssid=b, ssid=s, rss_dbm=float(rss))
            for b, s, rss in data["readings"]
        ),
    )


@dataclass(frozen=True, slots=True)
class WalRecord:
    """One decoded WAL entry."""

    seq: int
    report: ScanReport


def encode_record(seq: int, report: ScanReport) -> str:
    """One framed WAL line (crc, canonical payload, newline)."""
    if seq < 0:
        raise ValueError("sequence numbers are non-negative")
    payload = json.dumps(
        {"seq": seq, "report": report_to_dict(report)},
        separators=(",", ":"),
        sort_keys=True,
    )
    crc = zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF
    return f"{crc:08x} {payload}\n"


def decode_record(line: str) -> WalRecord:
    """Decode one line (without its newline); raises :class:`WalCorruptionError`."""
    crc_hex, sep, payload = line.partition(" ")
    if not sep or len(crc_hex) != 8:
        raise WalCorruptionError("malformed record framing")
    try:
        crc = int(crc_hex, 16)
    except ValueError as exc:
        raise WalCorruptionError("malformed CRC field") from exc
    if crc != zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF:
        raise WalCorruptionError("CRC mismatch")
    try:
        data = json.loads(payload)
        seq = data["seq"]
        if not isinstance(seq, int) or seq < 0:
            raise WalCorruptionError("bad sequence number")
        report = report_from_dict(data["report"])
    except WalCorruptionError:
        raise
    except Exception as exc:  # json/key/type errors: CRC-valid but unusable
        raise WalCorruptionError(f"undecodable payload: {exc}") from exc
    return WalRecord(seq=seq, report=report)


# -- tolerant reader ---------------------------------------------------------


def _segment_paths(directory: Path) -> list[Path]:
    return sorted(
        p
        for p in directory.glob(f"{SEGMENT_PREFIX}*{SEGMENT_SUFFIX}")
        if p.is_file()
    )


def _named_first_seq(path: Path) -> int | None:
    """The first sequence number a segment's name claims (None if unnamed)."""
    digits = path.name[len(SEGMENT_PREFIX) : -len(SEGMENT_SUFFIX)]
    return int(digits) if digits.isascii() and digits.isdigit() else None


@dataclass
class SegmentScan:
    """What the reader found in one segment file."""

    path: Path
    records: int = 0
    first_seq: int | None = None
    last_seq: int | None = None
    good_bytes: int = 0
    size_bytes: int = 0
    error: str | None = None


@dataclass
class WalReadResult:
    """Everything salvaged from a WAL directory, plus damage diagnostics.

    ``segments`` lists only the segments the reader opened;
    ``unopened`` counts, from segment names, the records in the
    covered segments it skipped (see :func:`read_wal`'s ``after_seq``).
    """

    records: list[WalRecord] = field(default_factory=list)
    segments: list[SegmentScan] = field(default_factory=list)
    truncated: bool = False
    error: str | None = None
    unopened: int = 0

    @property
    def salvaged(self) -> int:
        return len(self.records)

    @property
    def last_seq(self) -> int | None:
        return self.records[-1].seq if self.records else None


def read_wal(directory: str | Path, *, after_seq: int = -1) -> WalReadResult:
    """Read every valid record, stopping cleanly at the first damage.

    Records must be densely sequenced across segment boundaries; a gap,
    repeat, CRC failure, undecodable payload or torn (newline-less) tail
    stops the read.  Nothing after the first problem is trusted — a
    mid-log hole means later records describe state the replay cannot
    reach — so remaining bytes and segments count as ``truncated``.

    ``after_seq`` is the last sequence number the caller already holds
    (a checkpoint's).  A leading segment is then left unopened when the
    next segment's name shows every record in it is ``<= after_seq``;
    the last segment is always read, and every segment that is opened is
    checked in full as above.  The first record read must then be
    ``<= after_seq + 1``, or the read stops as a sequence gap.
    """
    directory = Path(directory)
    result = WalReadResult()
    expected: int | None = None
    paths = _segment_paths(directory)
    named = [_named_first_seq(p) for p in paths]
    start = 0
    for here, following in zip(named, named[1:]):
        if here is None or following is None or following > after_seq + 1:
            break
        start += 1
        result.unopened += following - here
    for path in paths[start:]:
        data = path.read_bytes()
        scan = SegmentScan(path=path, size_bytes=len(data))
        result.segments.append(scan)
        offset = 0
        while offset < len(data):
            nl = data.find(b"\n", offset)
            if nl == -1:
                scan.error = "torn record at tail (no trailing newline)"
                break
            try:
                line = data[offset:nl].decode("utf-8")
                record = decode_record(line)
            except (UnicodeDecodeError, WalCorruptionError) as exc:
                scan.error = str(exc)
                break
            if expected is not None and record.seq != expected:
                scan.error = (
                    f"out-of-order sequence: expected {expected}, "
                    f"found {record.seq}"
                )
                break
            if expected is None and 0 <= after_seq < record.seq - 1:
                scan.error = (
                    f"sequence gap: expected at most {after_seq + 1}, "
                    f"found {record.seq}"
                )
                break
            expected = record.seq + 1
            result.records.append(record)
            scan.records += 1
            if scan.first_seq is None:
                scan.first_seq = record.seq
            scan.last_seq = record.seq
            scan.good_bytes = nl + 1
            offset = nl + 1
        if scan.error is not None:
            result.error = f"{path.name}: {scan.error}"
            result.truncated = True
            return result
    return result


def wal_stat(directory: str | Path) -> dict[str, Any]:
    """A JSON-safe summary of a WAL directory (the ``wal-stat`` CLI)."""
    result = read_wal(directory)
    return {
        "segments": len(result.segments),
        "records": result.salvaged,
        "first_seq": result.records[0].seq if result.records else None,
        "last_seq": result.last_seq,
        "bytes": sum(s.size_bytes for s in result.segments),
        "truncated": result.truncated,
        "error": result.error,
        "per_segment": [
            {
                "file": s.path.name,
                "records": s.records,
                "first_seq": s.first_seq,
                "last_seq": s.last_seq,
                "bytes": s.size_bytes,
                "error": s.error,
            }
            for s in result.segments
        ],
    }


# -- writer ------------------------------------------------------------------


class WalWriter:
    """Append-only, segment-rotated WAL writer with batched flushes.

    :meth:`append` only buffers (assigning the record's sequence number);
    :meth:`flush` writes the buffer to the current segment and makes it
    durable with **one** ``flush``/``fsync``, which is what lets the
    micro-batcher amortise durability cost across a batch.  Rotation to a
    new segment happens between flushes once the current segment reaches
    ``max_segment_records`` or ``max_segment_bytes``.

    A failed flush (fsync error, torn write, ``ENOSPC``) never poisons
    the log: the buffered records are dropped, their sequence numbers are
    reused (the numbering stays dense), and the current segment is
    truncated back to its last known-durable byte before the ``OSError``
    propagates to the caller — see :meth:`_abort_flush`.

    Counters (in ``metrics``): ``wal.appends``, ``wal.flushes``,
    ``wal.fsyncs``, ``wal.rotations``, ``wal.repaired_bytes``,
    ``wal.flush_failures``, ``wal.dropped_records``; flush latency lands
    in the ``wal_flush`` histogram.

    Parameters
    ----------
    directory:
        The WAL directory (created if missing).
    max_segment_records / max_segment_bytes:
        Rotation thresholds, checked after each flush.
    fsync:
        Whether :meth:`flush` calls ``os.fsync`` (disable in tests and
        benchmarks where the flush *count* is what matters).
    metrics:
        Shared :class:`ServerMetrics`; a private one is created if omitted.
    fs:
        Optional filesystem hooks providing ``open(path, mode)`` and
        ``fsync(fileno)`` — the chaos drills pass
        :class:`~repro.guard.chaos.FaultyFS` here; ``None`` uses the real
        filesystem.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        max_segment_records: int = 1024,
        max_segment_bytes: int = 1 << 20,
        fsync: bool = True,
        metrics: ServerMetrics | None = None,
        fs=None,
    ) -> None:
        if max_segment_records < 1 or max_segment_bytes < 1:
            raise ValueError("rotation thresholds must be positive")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_segment_records = max_segment_records
        self.max_segment_bytes = max_segment_bytes
        self.fsync = fsync
        self.metrics = metrics if metrics is not None else ServerMetrics()
        self.fs = fs
        self._buffer: list[str] = []
        self._file: BinaryIO | None = None
        self._seg_path: Path | None = None
        self._seg_records = 0
        self._seg_bytes = 0
        self._closed = False
        existing = read_wal(self.directory)
        if existing.error is not None:
            bad = existing.segments[-1]
            if bad.path != _segment_paths(self.directory)[-1]:
                raise WalCorruptionError(
                    f"mid-log corruption in {bad.path.name} ({bad.error}); "
                    "refusing to append after lost records"
                )
            # A crash can only tear the physical tail: repair by dropping
            # the unreadable suffix of the last segment.
            dropped = bad.size_bytes - bad.good_bytes
            with open(bad.path, "rb+") as fh:
                fh.truncate(bad.good_bytes)
            self.metrics.incr("wal.repaired_bytes", dropped)
        self._next_seq = 0 if existing.last_seq is None else existing.last_seq + 1
        self.last_durable_seq: int | None = existing.last_seq

    # -- appending -----------------------------------------------------------

    @property
    def next_seq(self) -> int:
        """The sequence number the next :meth:`append` will assign."""
        return self._next_seq

    @property
    def pending(self) -> int:
        """Appended records not yet flushed."""
        return len(self._buffer)

    def append(self, report: ScanReport) -> int:
        """Buffer one record; returns its assigned sequence number."""
        if self._closed:
            raise ValueError("writer is closed")
        seq = self._next_seq
        self._buffer.append(encode_record(seq, report))
        self._next_seq += 1
        self.metrics.incr("wal.appends")
        return seq

    def flush(self) -> int:
        """Write and sync the buffer; returns the record count made durable.

        On storage failure the buffered records are dropped and the
        segment repaired (:meth:`_abort_flush`); the ``OSError``
        propagates so the caller can degrade or retry.
        """
        if self._closed:
            raise ValueError("writer is closed")
        if not self._buffer:
            return 0
        with self.metrics.timer("wal_flush"):
            n = len(self._buffer)
            payload = "".join(self._buffer).encode("utf-8")
            try:
                if self._file is None:
                    self._ensure_segment(self._next_seq - n)
                assert self._file is not None
                self._file.write(payload)
                self._file.flush()
                if self.fsync:
                    fsync_fn = self.fs.fsync if self.fs is not None else os.fsync
                    fsync_fn(self._file.fileno())
                    self.metrics.incr("wal.fsyncs")
            except OSError:
                self._abort_flush(n)
                raise
            self.metrics.incr("wal.flushes")
            self._seg_records += n
            self._seg_bytes += len(payload)
            self.last_durable_seq = self._next_seq - 1
            self._buffer.clear()
            if (
                self._seg_records >= self.max_segment_records
                or self._seg_bytes >= self.max_segment_bytes
            ):
                self._close_segment()
                self.metrics.incr("wal.rotations")
        return n

    def _abort_flush(self, n: int) -> None:
        """Unwind a failed flush without poisoning the log.

        The buffered records are dropped (the phones' uploads simply
        never landed), their sequence numbers are reused so the log stays
        densely numbered, and the segment is truncated back to its last
        known-durable byte — a torn half-record or unsynced suffix must
        not masquerade as log damage on the next recovery.
        """
        self.metrics.incr("wal.flush_failures")
        self.metrics.incr("wal.dropped_records", n)
        self._buffer.clear()
        self._next_seq -= n
        if self._file is not None:
            try:
                self._file.close()
            except OSError:  # pragma: no cover - close-on-error best effort
                pass
            self._file = None
        self._repair_segment()

    def _repair_segment(self) -> None:
        """Truncate the current segment to its last known-durable byte."""
        path = self._seg_path
        if path is None or not path.exists():
            return
        size = path.stat().st_size
        if size > self._seg_bytes:
            with open(path, "rb+") as fh:
                fh.truncate(self._seg_bytes)
            self.metrics.incr("wal.repaired_bytes", size - self._seg_bytes)

    def close(self) -> None:
        """Flush outstanding records and release the segment file."""
        if self._closed:
            return
        self.flush()
        self._close_segment()
        self._closed = True

    def __enter__(self) -> "WalWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- segment management --------------------------------------------------

    def _ensure_segment(self, first_seq: int) -> None:
        """Open the current segment, or start a new one.

        After :meth:`_abort_flush` the repaired segment is re-opened in
        append mode (its durable prefix is intact); otherwise a fresh
        segment named for ``first_seq`` begins.
        """
        if self._seg_path is None:
            name = f"{SEGMENT_PREFIX}{first_seq:010d}{SEGMENT_SUFFIX}"
            self._seg_path = self.directory / name
            self._seg_records = 0
            self._seg_bytes = 0
        open_fn = self.fs.open if self.fs is not None else open
        self._file = open_fn(self._seg_path, "ab")

    def _close_segment(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None
        self._seg_path = None

"""Periodic snapshots of live server state, stamped with a WAL sequence.

A checkpoint captures everything :meth:`WiLocatorServer.ingest` mutates —
open sessions (trajectories, extractor emission state), the live
travel-time store and the counter registry (the ``stats`` health view
derives from it) — plus the trained configuration it must match on
restore (slot scheme, anomaly thresholds).  Each file records the WAL
sequence number it covers (``wal_seq``): recovery restores the newest
loadable checkpoint and replays only WAL records with a higher sequence
(:mod:`repro.pipeline.replay`).

Files are ``ckpt-<wal_seq>.json`` in a checkpoint directory, written
atomically through :func:`repro.core.server.persistence.atomic_write_text`
and pruned to the ``retain`` newest — an interrupted write can never
shadow the previous good checkpoint.

Deliberately *not* captured: latency histograms and cache statistics
(wall-clock artefacts of one process lifetime) and the rider proximity
grouper (its horizon is seconds; replaying the WAL suffix repopulates
it for any bus still reporting).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.core.server.persistence import (
    atomic_write_text,
    check_version,
    slots_to_dict,
    store_from_dict,
    store_to_dict,
)
from repro.core.server.server import WiLocatorServer

__all__ = [
    "CHECKPOINT_VERSION",
    "checkpoint_to_dict",
    "restore_into",
    "write_checkpoint",
    "load_checkpoint",
    "checkpoint_paths",
    "latest_checkpoint",
]

CHECKPOINT_VERSION = 1
CHECKPOINT_PREFIX = "ckpt-"
CHECKPOINT_SUFFIX = ".json"


def checkpoint_to_dict(server: WiLocatorServer, *, wal_seq: int) -> dict[str, Any]:
    """Snapshot a server's replayable state as one JSON-safe payload.

    ``wal_seq`` is the highest WAL sequence whose effects the snapshot
    includes (``-1`` for a virgin server); the caller must have flushed
    the WAL at least that far before publishing the checkpoint.
    """
    return {
        "version": CHECKPOINT_VERSION,
        "wal_seq": wal_seq,
        "slots": slots_to_dict(server.slots),
        "live": store_to_dict(server.predictor.live),
        "delta": server.delta.state_dict(),
        "sessions": [s.state_dict() for s in server.sessions.values()],
        "counters": dict(server.metrics.counters),
    }


def restore_into(server: WiLocatorServer, data: dict[str, Any]) -> int:
    """Load a checkpoint into a freshly configured server; returns ``wal_seq``.

    The server must carry the same static configuration (routes, SVDs,
    known BSSIDs, history, slot scheme) the checkpointed server ran with;
    a slot-scheme mismatch is detected and raises, the rest is the
    caller's contract.  Sessions are rebuilt in their original creation
    order through :meth:`WiLocatorServer.adopt_sessions`, so indexed
    queries keep their deterministic iteration order.
    A legacy ``"stats"`` entry (checkpoints written while the server kept
    a separate stats ledger) is ignored: the counters carry the same
    values.
    """
    check_version(data, kind="checkpoint", expected=CHECKPOINT_VERSION)
    boundaries = tuple(float(b) for b in data["slots"]["boundaries"])
    if boundaries != server.slots.boundaries:
        raise ValueError(
            "checkpoint slot scheme does not match the server's: "
            f"{boundaries} != {server.slots.boundaries}"
        )
    server.predictor.live = store_from_dict(data["live"])
    server.delta.load_state(data["delta"])
    server.sessions.clear()
    server.reindex()
    server.adopt_sessions(data["sessions"])
    server.metrics.counters.clear()
    server.metrics.counters.update(data["counters"])
    return int(data["wal_seq"])


# -- checkpoint files --------------------------------------------------------


def _seq_of(path: Path) -> int:
    return int(path.name[len(CHECKPOINT_PREFIX) : -len(CHECKPOINT_SUFFIX)])


def checkpoint_paths(directory: str | Path) -> list[Path]:
    """Checkpoint files in a directory, oldest first."""
    directory = Path(directory)
    out = []
    for p in directory.glob(f"{CHECKPOINT_PREFIX}*{CHECKPOINT_SUFFIX}"):
        try:
            _seq_of(p)
        except ValueError:
            continue
        out.append(p)
    return sorted(out, key=_seq_of)


def write_checkpoint(
    directory: str | Path,
    server: WiLocatorServer,
    *,
    wal_seq: int,
    retain: int = 2,
    write_text=None,
) -> Path:
    """Atomically publish a checkpoint; prunes all but the ``retain`` newest.

    ``write_text`` overrides the atomic publish function — the chaos
    drills pass ``FaultyFS.atomic_write_text`` to exercise checkpoint
    failure; ``None`` uses the real
    :func:`~repro.core.server.persistence.atomic_write_text`.
    """
    if retain < 1:
        raise ValueError("retain must be >= 1")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{CHECKPOINT_PREFIX}{wal_seq:010d}{CHECKPOINT_SUFFIX}"
    payload = checkpoint_to_dict(server, wal_seq=wal_seq)
    (write_text or atomic_write_text)(path, json.dumps(payload))
    for old in checkpoint_paths(directory)[:-retain]:
        old.unlink()
    return path


def load_checkpoint(path: str | Path) -> dict[str, Any]:
    """Read and version-check one checkpoint file."""
    data = json.loads(Path(path).read_text())
    check_version(data, kind="checkpoint", expected=CHECKPOINT_VERSION)
    return data


def latest_checkpoint(
    directory: str | Path,
) -> tuple[Path, dict[str, Any]] | None:
    """The newest checkpoint that loads cleanly, or None.

    Unreadable or future-version files are skipped (newest first), so a
    partially retained or newer-build checkpoint never blocks recovery
    from an older good one.
    """
    for path in reversed(checkpoint_paths(directory)):
        try:
            return path, load_checkpoint(path)
        except (OSError, ValueError):
            continue
    return None

"""Persistence of the server's trained state.

The offline phase (historical travel times, slot scheme, anomaly
thresholds) is expensive to recompute; a production server snapshots it
between restarts (:mod:`repro.lifecycle.model` publishes the history
and slot scheme as one model payload built from these dicts).  Plain
JSON, same spirit as the roadnet / AP databases.

Two durability rules, shared with the checkpoint files of
:mod:`repro.pipeline.checkpoint`:

* **atomic writes** — payloads land in a ``*.tmp`` sibling first and are
  published with ``os.replace``, so a crash mid-write can never leave a
  half-written file where a reader expects a snapshot;
* **strict versioning** — every payload carries a ``version`` field that
  is checked on read (:func:`check_version`); files from a future or
  unknown format fail loudly instead of silently misparsing.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, Mapping

from repro.core.arrival.history import TravelTimeRecord, TravelTimeStore
from repro.core.arrival.seasonal import SlotScheme

FORMAT_VERSION = 1


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` via a tmp sibling + ``os.replace``."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def check_version(
    data: Mapping[str, Any], *, kind: str, expected: int = FORMAT_VERSION
) -> int:
    """Validate a payload's ``version`` field; returns it.

    Raises a descriptive :class:`ValueError` when the field is missing
    (the payload is not one of ours) or names a version this build does
    not read (written by a newer build).
    """
    version = data.get("version")
    if version is None:
        raise ValueError(f"{kind} payload has no 'version' field")
    if version != expected:
        raise ValueError(
            f"unsupported {kind} format version {version!r} "
            f"(this build reads version {expected})"
        )
    return version


def store_to_dict(store: TravelTimeStore) -> dict[str, Any]:
    """Serialise a travel-time store."""
    return {
        "version": FORMAT_VERSION,
        "records": [
            {
                "route": r.route_id,
                "segment": r.segment_id,
                "t_enter": r.t_enter,
                "t_exit": r.t_exit,
                "source": r.source,
            }
            for sid in store.segment_ids()
            for r in store.records(sid)
        ],
    }


def store_from_dict(data: dict[str, Any]) -> TravelTimeStore:
    """Rebuild a travel-time store."""
    check_version(data, kind="travel-time store")
    return TravelTimeStore(
        TravelTimeRecord(
            route_id=r["route"],
            segment_id=r["segment"],
            t_enter=float(r["t_enter"]),
            t_exit=float(r["t_exit"]),
            source=r.get("source", "observed"),
        )
        for r in data["records"]
    )


def slots_to_dict(slots: SlotScheme) -> dict[str, Any]:
    return {"version": FORMAT_VERSION, "boundaries": list(slots.boundaries)}


def slots_from_dict(data: dict[str, Any]) -> SlotScheme:
    check_version(data, kind="slot scheme")
    return SlotScheme(tuple(float(b) for b in data["boundaries"]))


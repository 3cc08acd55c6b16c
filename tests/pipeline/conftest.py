"""Shared fabric for the durability-pipeline tests.

``make_report`` fabricates deterministic scan reports for codec/WAL/
batcher tests that never touch a server; ``moving_city`` builds the
smallest synthetic city whose buses cross segment boundaries, so a
durable replay exercises sessions, trajectories *and* the live
travel-time store; ``server_digest`` reduces a server to the comparable
slice of its state (what :meth:`WiLocatorServer.ingest` mutates), used by
the crash-recovery parity tests; ``crash_dir_at`` rebuilds the disk
state a crash at one record boundary leaves behind.
"""

from __future__ import annotations

import shutil
from pathlib import Path
from typing import Any

import pytest

from repro.core.server.persistence import store_to_dict
from repro.core.server.server import WiLocatorServer
from repro.eval.synth_city import SynthCity, build_linear_city
from repro.pipeline.checkpoint import checkpoint_paths
from repro.pipeline.replay import CHECKPOINT_SUBDIR, WAL_SUBDIR
from repro.radio.environment import Reading
from repro.sensing.reports import ScanReport

CITY_PARAMS = dict(
    num_routes=2,
    sessions_per_route=2,
    reports_per_session=6,
    stops_per_route=4,
    segments_per_route=4,
    route_length_m=1000.0,
    hub_every=2,
    aps_per_route=5,
    move_m_per_report=180.0,
)


def make_report(i: int, *, route_id: str = "R000", n_readings: int = 3) -> ScanReport:
    """A deterministic synthetic report; distinct for distinct ``i``."""
    return ScanReport(
        device_id=f"dev{i}",
        session_key=f"bus:{route_id}:{i % 4}",
        route_id=route_id,
        t=1000.0 + 10.0 * i,
        readings=tuple(
            Reading(
                bssid=f"aa:bb:cc:00:{i % 7:02x}:{j:02x}",
                ssid=f"AP{j}",
                rss_dbm=-40.0 - 3.0 * j - 0.5 * (i % 5),
            )
            for j in range(n_readings)
        ),
    )


@pytest.fixture()
def moving_city() -> SynthCity:
    """Small city with moving buses (24 reports, traversals extracted)."""
    return build_linear_city(**CITY_PARAMS)


def server_digest(server: WiLocatorServer) -> dict[str, Any]:
    """Everything ingest mutates, in comparable form.

    Counters are filtered to the ``ingest.`` stage: a recovered server
    legitimately carries wal/batch/checkpoint/replay counters a plain
    in-memory reference run never increments.
    """
    return {
        "sessions": {k: s.state_dict() for k, s in server.sessions.items()},
        "live": store_to_dict(server.predictor.live),
        "stats": server.health()["stats"],
        "counters": {
            k: v
            for k, v in server.metrics.counters.items()
            if k.startswith("ingest.")
        },
    }


def query_digest(city: SynthCity) -> dict[str, Any]:
    """The rider-facing answers whose parity recovery must preserve.

    Moving buses have already passed the mid-route hub, so the terminal
    stop of a hub route is queried too — its board is non-empty, making
    the departures comparison non-trivial.
    """
    now = city.now
    terminal = city.stop_id_on(city.hub_route_ids[0], -1)
    return {
        "departures": city.api.departures(
            city.hub_stop_id, now=now, max_entries=10**9
        ),
        "departures_terminal": city.api.departures(
            terminal, now=now, max_entries=10**9
        ),
        "live_positions": city.api.live_positions(now=now),
        "active": sorted(
            s.session_key for s in city.server.active_sessions(now=now)
        ),
    }


def crash_dir_at(tmp_path: Path, data_dir: Path, cut_seq: int) -> Path:
    """Disk state after a crash once seq <= ``cut_seq`` was durable."""
    wal_src = data_dir / WAL_SUBDIR
    wal_dst = tmp_path / WAL_SUBDIR
    wal_dst.mkdir(parents=True)
    for seg in sorted(wal_src.iterdir()):
        lines = seg.read_bytes().splitlines(keepends=True)
        first_seq = int(seg.name[len("wal-") : -len(".jsonl")])
        keep = max(0, cut_seq - first_seq + 1)
        if keep == 0:
            continue
        (wal_dst / seg.name).write_bytes(b"".join(lines[:keep]))
    ckpt_src = data_dir / CHECKPOINT_SUBDIR
    ckpt_dst = tmp_path / CHECKPOINT_SUBDIR
    ckpt_dst.mkdir(parents=True)
    for p in checkpoint_paths(ckpt_src):
        seq = int(p.name[len("ckpt-") : -len(".json")])
        if seq <= cut_seq:  # a later checkpoint cannot survive the crash
            shutil.copy(p, ckpt_dst / p.name)
    return tmp_path

"""Checkpoint snapshot/restore round-trips, versioning, pruning, atomicity."""

from __future__ import annotations

import json

import pytest

from repro.pipeline.checkpoint import (
    CHECKPOINT_VERSION,
    checkpoint_paths,
    checkpoint_to_dict,
    latest_checkpoint,
    load_checkpoint,
    restore_into,
    write_checkpoint,
)
from tests.pipeline.conftest import query_digest, server_digest

pytestmark = pytest.mark.durability


@pytest.fixture()
def warm_city(moving_city):
    moving_city.replay()
    return moving_city


def test_round_trip_restores_digest(warm_city, tmp_path):
    path = write_checkpoint(tmp_path, warm_city.server, wal_seq=23)
    twin = warm_city.fresh_twin()
    data = load_checkpoint(path)
    assert restore_into(twin.server, data) == 23
    assert server_digest(twin.server) == server_digest(warm_city.server)
    assert query_digest(twin) == query_digest(warm_city)


def test_round_trip_through_json_is_exact(warm_city):
    data = checkpoint_to_dict(warm_city.server, wal_seq=5)
    rehydrated = json.loads(json.dumps(data))
    twin = warm_city.fresh_twin()
    restore_into(twin.server, rehydrated)
    assert server_digest(twin.server) == server_digest(warm_city.server)

    # Checkpoints written while the server kept a separate stats ledger
    # carry it under "stats"; they still load, to the same state.
    legacy = {**rehydrated, "stats": warm_city.server.health()["stats"]}
    legacy_twin = warm_city.fresh_twin()
    restore_into(legacy_twin.server, legacy)
    assert server_digest(legacy_twin.server) == server_digest(warm_city.server)


def test_version_mismatch_raises(warm_city):
    data = checkpoint_to_dict(warm_city.server, wal_seq=0)
    data["version"] = CHECKPOINT_VERSION + 1
    twin = warm_city.fresh_twin()
    with pytest.raises(ValueError, match="version"):
        restore_into(twin.server, data)


def test_missing_version_raises(warm_city):
    data = checkpoint_to_dict(warm_city.server, wal_seq=0)
    del data["version"]
    with pytest.raises(ValueError, match="version"):
        restore_into(warm_city.fresh_twin().server, data)


def test_slot_scheme_mismatch_raises(warm_city):
    data = checkpoint_to_dict(warm_city.server, wal_seq=0)
    data["slots"]["boundaries"] = [0.0, 3600.0]
    with pytest.raises(ValueError, match="slot scheme"):
        restore_into(warm_city.fresh_twin().server, data)


def test_unknown_route_session_raises(warm_city):
    data = checkpoint_to_dict(warm_city.server, wal_seq=0)
    data["sessions"][0]["route_id"] = "R999"
    with pytest.raises(ValueError, match="unknown route"):
        restore_into(warm_city.fresh_twin().server, data)


def test_retention_prunes_oldest(warm_city, tmp_path):
    for seq in (3, 7, 11, 15):
        write_checkpoint(tmp_path, warm_city.server, wal_seq=seq, retain=2)
    names = [p.name for p in checkpoint_paths(tmp_path)]
    assert names == ["ckpt-0000000011.json", "ckpt-0000000015.json"]


def test_write_leaves_no_temp_files(warm_city, tmp_path):
    write_checkpoint(tmp_path, warm_city.server, wal_seq=1)
    assert [p.suffix for p in tmp_path.iterdir()] == [".json"]


def test_latest_skips_damaged_newest(warm_city, tmp_path):
    good = write_checkpoint(tmp_path, warm_city.server, wal_seq=5)
    bad = tmp_path / "ckpt-0000000009.json"
    bad.write_text('{"version": 1, "wal_')  # interrupted write
    found = latest_checkpoint(tmp_path)
    assert found is not None
    path, data = found
    assert path == good
    assert data["wal_seq"] == 5


def test_latest_on_empty_dir(tmp_path):
    assert latest_checkpoint(tmp_path) is None
    assert latest_checkpoint(tmp_path / "missing") is None


def test_retain_validation(warm_city, tmp_path):
    with pytest.raises(ValueError):
        write_checkpoint(tmp_path, warm_city.server, wal_seq=0, retain=0)

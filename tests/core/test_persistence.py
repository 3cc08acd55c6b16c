import json

import pytest

from repro.core.arrival import SlotScheme, TravelTimeRecord, TravelTimeStore
from repro.core.server.persistence import (
    atomic_write_text,
    check_version,
    slots_from_dict,
    slots_to_dict,
    store_from_dict,
    store_to_dict,
)


@pytest.fixture()
def store():
    return TravelTimeStore(
        [
            TravelTimeRecord(
                route_id="9", segment_id="s0", t_enter=100.0, t_exit=160.0
            ),
            TravelTimeRecord(
                route_id="rapid", segment_id="s1", t_enter=50.0, t_exit=95.0,
                source="trained",
            ),
        ]
    )


class TestStoreRoundTrip:
    def test_roundtrip(self, store):
        restored = store_from_dict(store_to_dict(store))
        assert len(restored) == len(store)
        assert restored.records("s0")[0].travel_time == 60.0
        assert restored.records("s1")[0].source == "trained"

    def test_empty_store(self):
        restored = store_from_dict(store_to_dict(TravelTimeStore()))
        assert len(restored) == 0

    def test_bad_version(self, store):
        data = store_to_dict(store)
        data["version"] = 9
        with pytest.raises(ValueError):
            store_from_dict(data)


class TestSlotsRoundTrip:
    def test_roundtrip(self):
        slots = SlotScheme.paper_weekday()
        assert slots_from_dict(slots_to_dict(slots)) == slots

    def test_bad_version(self):
        data = slots_to_dict(SlotScheme.hourly())
        data["version"] = 9
        with pytest.raises(ValueError):
            slots_from_dict(data)


class TestAtomicWrite:
    def test_replaces_existing_content(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text("old")
        atomic_write_text(path, "new")
        assert path.read_text() == "new"

    def test_leaves_no_temp_sibling(self, tmp_path):
        path = tmp_path / "state.json"
        atomic_write_text(path, "payload")
        assert [p.name for p in tmp_path.iterdir()] == ["state.json"]


class TestCheckVersion:
    def test_accepts_expected(self):
        assert check_version({"version": 1}, kind="thing") == 1

    def test_missing_version_names_kind(self):
        with pytest.raises(ValueError, match="training snapshot"):
            check_version({}, kind="training snapshot")

    def test_mismatch_names_both_versions(self):
        with pytest.raises(ValueError, match=r"version 9.*reads version 1"):
            check_version({"version": 9}, kind="thing")

    def test_load_rejects_versionless_file(self, tmp_path):
        path = tmp_path / "history.json"
        path.write_text(json.dumps({"records": []}))
        with pytest.raises(ValueError, match="version"):
            store_from_dict(json.loads(path.read_text()))

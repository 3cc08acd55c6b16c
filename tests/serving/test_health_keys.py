"""health() key conformance across all three deployment shapes.

The ServingBackend health contract: every backend answers with the same
core keys — ``status``, ``stats``, ``sessions`` and (this PR) the
``lifecycle`` section carrying the serving model version — so an
operator dashboard reads any deployment shape without branching.
Shape-specific extensions (breaker/WAL for durable, plan/bus/shards for
the cluster) ride on top and are checked for their owners only.
"""

from __future__ import annotations

import pytest

pytestmark = pytest.mark.serving

CORE_KEYS = {"status", "stats", "sessions", "lifecycle", "fusion"}


def _key_tree(section, prefix=""):
    """Every nested key path of a dict-of-dicts, as dotted strings."""
    paths = set()
    for key, value in section.items():
        path = f"{prefix}{key}"
        paths.add(path)
        if isinstance(value, dict):
            paths |= _key_tree(value, f"{path}.")
    return paths


class TestHealthKeyParity:
    def test_core_keys_on_every_backend(self, trio):
        for name, backend in trio.items():
            health = backend.health()
            missing = CORE_KEYS - set(health)
            assert not missing, f"{name} health() lacks {sorted(missing)}"

    def test_lifecycle_section_shape(self, trio):
        for name, backend in trio.items():
            lifecycle = backend.health()["lifecycle"]
            assert set(lifecycle) == {"model_version"}, name
            assert isinstance(lifecycle["model_version"], str), name
            assert lifecycle["model_version"], name

    def test_unmanaged_backends_agree_on_offline(self, trio):
        versions = {
            name: backend.health()["lifecycle"]["model_version"]
            for name, backend in trio.items()
        }
        assert set(versions.values()) == {"offline"}, versions

    def test_sessions_key_counts_open_sessions(self, city, trio):
        stats = {}
        for name, backend in trio.items():
            backend.ingest_many(city.reports)
            backend.flush()
            health = backend.health()
            assert health["sessions"]["open"] > 0, name
            stats[name] = health["stats"]
        # The stats view derives from counters on every shape, so the
        # same stream yields the same values, not just the same keys.
        assert stats["plain"]["reports_ingested"] == len(city.reports)
        assert stats["plain"] == stats["durable"] == stats["cluster"]

    def test_durable_and_cluster_extensions_ride_on_top(self, trio):
        durable = trio["durable"].health()
        assert {"breaker", "wal", "degraded_reports"} <= set(durable)
        cluster = trio["cluster"].health()
        assert {"plan", "bus", "shards"} <= set(cluster)

    def test_cluster_surfaces_reshard_phase_and_bus_lag(self, trio):
        # The elastic observability contract: /health over a cluster
        # backend always carries the live reshard phase and per-subscriber
        # replication lag, so an operator can watch a migration (or its
        # absence) from the same endpoint as everything else.
        health = trio["cluster"].health()
        reshard = health["reshard"]
        assert reshard["phase"] == "idle"  # no migration in flight
        assert reshard["hold_active"] is False
        assert reshard["parked"] == 0
        lag = health["bus"]["lag_by_subscriber"]
        assert set(lag) == {str(sid) for sid in range(4)}
        assert all(n >= 0 for n in lag.values())

    def test_fusion_section_is_key_identical_everywhere(self, trio):
        # The fusion observability contract: the cluster's folded section
        # (samples-weighted calibration means over shards) must keep the
        # exact nested key tree of a single orchestrator — per-source
        # observations/rejections/calibration, store, anchors, audit —
        # so dashboards never branch on deployment shape.
        trees = {
            name: _key_tree(backend.health()["fusion"])
            for name, backend in trio.items()
        }
        assert trees["plain"] == trees["durable"] == trees["cluster"]
        assert {"sources", "store", "anchors", "audit", "fused_fixes"} <= trees[
            "plain"
        ]
        assert {
            "sources.gps.calibration.clock_skew_s",
            "sources.ble.observations",
            "sources.cell.rejected",
            "anchors.degraded",
        } <= trees["plain"]

    def test_cluster_reports_single_shared_version(self, trio):
        # All shards serve the same (offline) model -> the router folds
        # their versions into one; "mixed" would flag a torn deployment.
        assert trio["cluster"].health()["lifecycle"]["model_version"] == "offline"

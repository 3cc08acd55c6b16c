"""Every deployment shape satisfies the one ``ServingBackend`` protocol.

The reconciled surface — universal ``flush``, the common ``health()``
payload core, per-report decisions from ``ingest_many``, and ``commit``
as the plain server's replay loop only — is pinned here at runtime;
mypy checks the full signatures structurally via
``repro/serving/_protocol_check.py``.
"""

from __future__ import annotations

import pytest

from repro.cluster import ShardPlan, build_cluster
from repro.core.server.backend import BACKEND_METHODS, ServingBackend
from repro.eval.synth_city import build_linear_city
from repro.pipeline import DurableServer


@pytest.fixture(scope="module")
def city():
    return build_linear_city(
        num_routes=2,
        sessions_per_route=2,
        reports_per_session=4,
        stops_per_route=4,
        segments_per_route=3,
        hub_every=2,
        aps_per_route=6,
        move_m_per_report=150.0,
    )


@pytest.fixture()
def backends(city, tmp_path):
    durable = DurableServer(city.fresh_twin().server, tmp_path / "wal")
    twin = city.fresh_twin()
    cluster = build_cluster(twin.server, ShardPlan.build(twin.routes, 2))
    yield {
        "plain": city.fresh_twin().server,
        "durable": durable,
        "cluster": cluster,
    }
    durable.close()


class TestProtocolConformance:
    def test_runtime_isinstance_for_every_shape(self, backends):
        for name, backend in backends.items():
            assert isinstance(backend, ServingBackend), name

    def test_every_pinned_method_exists_and_is_callable(self, backends):
        for name, backend in backends.items():
            for method in BACKEND_METHODS:
                assert callable(getattr(backend, method, None)), (
                    name,
                    method,
                )

    def test_only_the_plain_server_takes_admitted(self, backends):
        # Applying a pre-admitted stream is the plain server's ``commit``,
        # not a protocol entry point: the WAL-backed and sharded backends
        # have no way to apply reports around their log or routing (the
        # durable server's attribute delegation refuses both names).
        for name, backend in backends.items():
            for method in ("commit", "ingest_admitted"):
                assert hasattr(backend, method) is (name == "plain"), (name, method)


class TestReconciledBehaviour:
    def test_flush_exists_everywhere_and_returns_a_count(self, backends):
        for name, backend in backends.items():
            assert backend.flush() >= 0, name

    def test_health_payloads_share_the_common_core(self, backends):
        for name, backend in backends.items():
            health = backend.health()
            assert {"status", "stats", "sessions"} <= set(health), name
            assert health["status"] == "ok", name

    def test_ingest_many_returns_one_decision_per_report(self, city, backends):
        for name, backend in backends.items():
            decisions = backend.ingest_many(city.reports)
            assert len(decisions) == len(city.reports), name
            assert all(decisions), name

    def test_admitted_streams_skip_the_guard(self, city, backends):
        """``commit`` applies a pre-admitted stream (WAL replay, a
        resharding suffix): admission control must not run again."""
        server = backends["plain"]
        server.commit(city.reports)
        counters = server.counters()
        assert counters.get("guard.admitted", 0) == 0
        assert counters.get("guard.rejected", 0) == 0
        assert counters.get("ingest.reports", 0) == len(city.reports)

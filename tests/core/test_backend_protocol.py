"""Every deployment shape satisfies the one ``ServingBackend`` protocol.

The drift this PR reconciled — ``ingest_many``'s keyword-only
``admitted`` flag, universal ``flush``, and the common ``health()``
payload core — is pinned here at runtime; mypy checks the full
signatures structurally via ``repro/serving/_protocol_check.py``.
"""

from __future__ import annotations

import inspect

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

    def test_ingest_many_takes_keyword_only_admitted(self, backends):
        for name, backend in backends.items():
            sig = inspect.signature(backend.ingest_many)
            param = sig.parameters.get("admitted")
            assert param is not None, name
            assert param.kind is inspect.Parameter.KEYWORD_ONLY, name
            assert param.default is False, name


class TestReconciledBehaviour:
    def test_flush_exists_everywhere_and_returns_a_count(self, backends):
        for name, backend in backends.items():
            assert backend.flush() >= 0, name

    def test_health_payloads_share_the_common_core(self, backends):
        for name, backend in backends.items():
            health = backend.health()
            assert {"status", "stats", "sessions"} <= set(health), name
            assert health["status"] == "ok", name

    def test_admitted_streams_skip_the_guard(self, city, backends):
        """``admitted=True`` marks a pre-admitted stream (WAL replay,
        committed-batch apply): admission control must not run again."""
        for name, backend in backends.items():
            backend.ingest_many(city.reports, admitted=True)
            backend.flush()
            counters = backend.counters()
            assert counters.get("guard.admitted", 0) == 0, name
            assert counters.get("guard.rejected", 0) == 0, name
            assert counters.get("ingest.reports", 0) == len(
                city.reports
            ), name

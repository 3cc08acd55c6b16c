"""Static conformance: all three deployment shapes satisfy the protocol.

This module exists for mypy, not for runtime: the annotated assignments
below type-check only if :class:`WiLocatorServer`,
:class:`DurableServer` and :class:`ClusterRouter` are structurally
assignable to :class:`~repro.core.server.backend.ServingBackend`
*without casts* — which is exactly the signature-drift guarantee this PR
makes.  If someone re-introduces drift (an ``ingest_many`` growing a
required argument, a ``health`` payload going missing), mypy fails
here, far from the serving code that relied on it.

Runtime cross-checks live in ``tests/core/test_backend_protocol.py``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.server.backend import ServingBackend

if TYPE_CHECKING:
    from repro.cluster.router import ClusterRouter
    from repro.core.server.server import WiLocatorServer
    from repro.pipeline.durable import DurableServer

    def _conforms(
        server: WiLocatorServer,
        durable: DurableServer,
        router: ClusterRouter,
    ) -> list[ServingBackend]:
        # no casts: structural assignability or bust
        return [server, durable, router]

"""Assemble a cluster from one full-city server configuration.

A deployment is described once — the complete route set, SVDs, BSSIDs
and offline history, i.e. exactly a configured (virgin)
:class:`WiLocatorServer` — and :func:`shard_server` carves the per-shard
subset out of it: the shard's routes and their SVDs, the full BSSID set
(radio space is global), and the history *filtered to the shard's own
segments but keeping every route's records on them* — Eq. 8's residual
needs the historical mean of whichever remote route most recently
traversed an overlapped segment, so a shard must know ``Th(i, k, l)``
for foreign routes ``k`` on its own segments even though it will never
track their buses.

:func:`build_cluster` wires the whole thing: plan -> per-shard servers
-> :class:`ShardNode` -> :class:`DeltaBus` -> :class:`ClusterRouter`.  A
durable cluster is that router plus one :meth:`ShardNode.make_durable`
per node, each over its own ``shard-NN/`` WAL/checkpoint directory.
"""

from __future__ import annotations

from repro.core.server.server import WiLocatorServer

from repro.cluster.bus import DeltaBus
from repro.cluster.node import ShardNode
from repro.cluster.plan import ShardPlan
from repro.cluster.router import ClusterRouter

__all__ = ["shard_server", "build_cluster"]


def shard_server(full: WiLocatorServer, plan: ShardPlan, shard_id: int) -> WiLocatorServer:
    """A virgin server owning just one shard's slice of ``full``'s config.

    ``full`` is the deployment blueprint (typically a freshly built,
    never-ingested server); the shard server copies its slot scheme and
    predictor knobs so replicated deltas and local traversals mean the
    same thing on every shard.
    """
    route_ids = plan.routes_of(shard_id)
    unknown = [rid for rid in route_ids if rid not in full.routes]
    if unknown:
        raise ValueError(f"plan routes missing from blueprint: {unknown}")
    routes = {rid: full.routes[rid] for rid in route_ids}
    own_segments = {sid for route in routes.values() for sid in route.segment_ids}
    predictor = full.predictor
    return WiLocatorServer(
        routes=routes,
        svds={rid: full.svds[rid] for rid in route_ids},
        known_bssids=set(full.known_bssids),
        history=predictor.history.filtered(
            lambda r: r.segment_id in own_segments
        ),
        slots=full.slots,
        recent_window_s=predictor.recent_window_s,
        max_recent=predictor.max_recent,
        use_recent=predictor.use_recent,
    )


def build_cluster(
    full: WiLocatorServer, plan: ShardPlan, *, bus: DeltaBus | None = None
) -> ClusterRouter:
    """Build an in-memory node for every planned shard; the wired router."""
    bus = bus if bus is not None else DeltaBus()
    nodes: dict[int, ShardNode] = {}
    for shard_id in plan.shard_ids():
        node = ShardNode(shard_id, shard_server(full, plan, shard_id), plan)
        bus.attach(node)
        nodes[shard_id] = node
    return ClusterRouter(plan, nodes, bus)

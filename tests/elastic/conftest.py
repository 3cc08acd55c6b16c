"""Shared fixtures for the elastic-reshard suite.

The module-scoped ``city`` is a blueprint over *two* overlapped A/B
pairs — the smallest world where a shard owns more than one route, so a
split genuinely partitions something and a merge genuinely folds.  Tests
that need a live cluster build fresh (durable or in-memory) nodes from
it per test; the blueprint itself is never ingested.
"""

from __future__ import annotations

import pytest

from repro.cluster.build import build_cluster
from repro.cluster.plan import ShardPlan
from repro.eval.synth_city import build_overlap_city

# Two pairs so shards hold multiple routes: A00/A01 query, B00/B01 feed.
TWO_SHARDS = {"A00": 0, "A01": 0, "B00": 1, "B01": 1}


@pytest.fixture(scope="module")
def city():
    return build_overlap_city(
        num_pairs=2,
        feeder_sessions=2,
        query_sessions=2,
        feeder_reports=6,
        query_reports=2,
    )


@pytest.fixture(scope="module")
def plan(city):
    return ShardPlan.from_assignment(TWO_SHARDS, city.routes)


def build_durable(city, plan, data_root, fs_by_shard=None):
    """A durable cluster over ``plan``, built the way the drill builds it."""
    router = build_cluster(city.server, plan)
    for sid, node in router.nodes.items():
        node.make_durable(
            data_root / f"shard-{sid:02d}",
            max_batch=4,
            fs=(fs_by_shard or {}).get(sid),
        )
    return router


def feed(router, city):
    """Stream the whole city through ``router`` and drain the bus."""
    router.ingest_many(sorted(city.reports, key=lambda r: (r.t, r.device_id)))
    router.flush()
    router.pump(now=city.now)

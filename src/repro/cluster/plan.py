"""Route-to-shard placement with overlap-aware replication metadata.

Sharding WiLocator by route is natural — a bus session lives entirely on
one route, so its tracker, trajectory and extracted travel times never
span shards.  What *does* span shards is Eq. 8: the temporal-consistency
residual borrows the freshest traversals of a segment by buses of **any**
route, and overlapped segments (Table I) are exactly the ones traversed
by routes that a hash placement may scatter across shards.  A
:class:`ShardPlan` therefore carries, next to the assignment itself, the
replication metadata the :class:`~repro.cluster.bus.DeltaBus` needs:

* ``published_segments(shard)`` — overlapped segments whose traversals
  the shard must announce (another shard's predictor wants them);
* ``subscribed_segments(shard)`` — overlapped segments the shard's own
  predictor must hear about from elsewhere.

Placement uses a consistent-hash ring (virtual nodes, stable
:func:`hashlib.blake2b` digests — never Python's salted ``hash``), so
growing the cluster by one shard moves only ``~1/N`` of the routes;
:meth:`ShardPlan.diff` quantifies exactly what a rebalance would move
and which subscriptions it would rewire.
"""

from __future__ import annotations

import bisect
import hashlib
from dataclasses import dataclass, field
from typing import Mapping

from repro.roadnet.overlap import shared_segments
from repro.roadnet.route import BusRoute

__all__ = ["ShardPlan", "PlanDiff"]


def _stable_hash(key: str) -> int:
    """A process-independent 64-bit hash (``hash()`` is salted per run)."""
    return int.from_bytes(
        hashlib.blake2b(key.encode(), digest_size=8).digest(), "big"
    )


@dataclass(frozen=True)
class PlanDiff:
    """What changes between two plans over the same route set."""

    moved: dict[str, tuple[int, int]]
    """route id -> (old shard, new shard) for every relocated route."""

    subscriptions_gained: dict[int, set[str]]
    """new-plan shard -> segments it must newly subscribe to."""

    subscriptions_lost: dict[int, set[str]]
    """new-plan shard -> segments it no longer needs."""

    @property
    def moved_fraction(self) -> float:
        return self.moved_total / self.routes_total if self.routes_total else 0.0

    routes_total: int = 0

    @property
    def moved_total(self) -> int:
        return len(self.moved)


@dataclass(frozen=True)
class ShardPlan:
    """An immutable placement of routes onto ``num_shards`` shards."""

    num_shards: int
    assignment: Mapping[str, int]
    """route id -> shard id, for every planned route."""

    segment_routes: Mapping[str, tuple[str, ...]]
    """segment id -> route ids traversing it (only multi-route segments)."""

    vnodes: int = 0
    _ring: tuple[tuple[int, int], ...] = field(default=(), repr=False)

    # -- construction --------------------------------------------------------

    @staticmethod
    def _overlap_of(routes: Mapping[str, BusRoute]) -> dict[str, tuple[str, ...]]:
        return {
            sid: tuple(sorted(rids))
            for sid, rids in shared_segments(list(routes.values())).items()
            if len(rids) >= 2
        }

    @classmethod
    def build(
        cls,
        routes: Mapping[str, BusRoute],
        num_shards: int,
        *,
        vnodes: int = 64,
    ) -> "ShardPlan":
        """Consistent-hash placement of ``routes`` onto ``num_shards``."""
        if num_shards < 1:
            raise ValueError("need at least one shard")
        if vnodes < 1:
            raise ValueError("need at least one virtual node per shard")
        ring = sorted(
            (_stable_hash(f"shard:{sid}:vnode:{v}"), sid)
            for sid in range(num_shards)
            for v in range(vnodes)
        )
        plan = cls(
            num_shards=num_shards,
            assignment={},
            segment_routes=cls._overlap_of(routes),
            vnodes=vnodes,
            _ring=tuple(ring),
        )
        assignment = {rid: plan.shard_of(rid) for rid in routes}
        object.__setattr__(plan, "assignment", assignment)
        return plan

    @classmethod
    def from_assignment(
        cls, assignment: Mapping[str, int], routes: Mapping[str, BusRoute]
    ) -> "ShardPlan":
        """An explicit placement (operator overrides, tests, drills)."""
        missing = set(routes) - set(assignment)
        if missing:
            raise ValueError(f"routes without a shard: {sorted(missing)}")
        if any(sid < 0 for sid in assignment.values()):
            raise ValueError("shard ids must be non-negative")
        num_shards = max(assignment.values(), default=0) + 1
        return cls(
            num_shards=num_shards,
            assignment=dict(assignment),
            segment_routes=cls._overlap_of(routes),
        )

    # -- lookups -------------------------------------------------------------

    def shard_of(self, route_id: str) -> int:
        """The shard responsible for a route (any route id resolves:
        unknown routes still hash onto the ring, landing on the shard
        that will count them unroutable — faithfully mirroring the
        single server)."""
        planned = self.assignment.get(route_id)
        if planned is not None:
            return planned
        if self._ring:
            i = bisect.bisect_right(self._ring, (_stable_hash(route_id),))
            return self._ring[i % len(self._ring)][1]
        return _stable_hash(route_id) % self.num_shards

    def shard_ids(self) -> list[int]:
        return list(range(self.num_shards))

    def routes_of(self, shard_id: int) -> list[str]:
        """Routes owned by a shard, sorted for determinism."""
        return sorted(
            rid for rid, sid in self.assignment.items() if sid == shard_id
        )

    def published_segments(self, shard_id: int) -> set[str]:
        """Overlapped segments whose local traversals other shards need."""
        return self._cross_shard_segments(shard_id)

    def subscribed_segments(self, shard_id: int) -> set[str]:
        """Overlapped segments whose remote traversals this shard needs."""
        return self._cross_shard_segments(shard_id)

    def _cross_shard_segments(self, shard_id: int) -> set[str]:
        # A segment needs replication exactly when the routes sharing it
        # straddle the shard boundary: the local side publishes what it
        # extracts and subscribes to what the remote side extracts (the
        # relation is symmetric — both predictors want all traversals).
        out: set[str] = set()
        for sid, rids in self.segment_routes.items():
            shards = {self.shard_of(rid) for rid in rids}
            if shard_id in shards and len(shards) >= 2:
                out.add(sid)
        return out

    # -- rebalance -----------------------------------------------------------

    def diff(self, other: "ShardPlan") -> PlanDiff:
        """What moving from this plan to ``other`` would relocate."""
        routes = set(self.assignment) | set(other.assignment)
        moved = {}
        for rid in sorted(routes):
            old, new = self.shard_of(rid), other.shard_of(rid)
            if old != new:
                moved[rid] = (old, new)
        gained: dict[int, set[str]] = {}
        lost: dict[int, set[str]] = {}
        for shard_id in other.shard_ids():
            before = (
                self.subscribed_segments(shard_id)
                if shard_id < self.num_shards
                else set()
            )
            after = other.subscribed_segments(shard_id)
            if after - before:
                gained[shard_id] = after - before
            if before - after:
                lost[shard_id] = before - after
        return PlanDiff(
            moved=moved,
            subscriptions_gained=gained,
            subscriptions_lost=lost,
            routes_total=len(routes),
        )

    # -- observability -------------------------------------------------------

    def snapshot(self) -> dict:
        """A JSON-safe description (cluster health / drill output)."""
        return {
            "num_shards": self.num_shards,
            "routes": len(self.assignment),
            "overlapped_segments": len(self.segment_routes),
            "shards": {
                str(sid): {
                    "routes": self.routes_of(sid),
                    "published_segments": sorted(self.published_segments(sid)),
                    "subscribed_segments": sorted(self.subscribed_segments(sid)),
                }
                for sid in self.shard_ids()
            },
        }

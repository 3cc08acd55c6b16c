"""One shard: a wrapped server plus a bounded outbox of segment deltas.

A :class:`ShardNode` owns the routes its :class:`ShardPlan` assigns to it
and runs a full :class:`WiLocatorServer` over just those routes — or,
via :meth:`make_durable`, a :class:`DurableServer` with the shard's own
WAL/checkpoint directory.  The node taps the server's ``on_traversal``
hook: every freshly extracted travel time on a *published* segment (one
that routes on other shards also traverse) is turned into a seq-numbered
:class:`SegmentDelta` and appended to the outbox for the
:class:`~repro.cluster.bus.DeltaBus` to deliver.

Replication state is crash-consistent by construction: both the next
outgoing sequence (``cluster.delta_out_seq``) and the per-origin applied
high-water marks (``cluster.applied_from.<origin>``) live in the wrapped
server's metrics counters, which checkpoints capture and recovery
restores atomically with the live travel-time store.  WAL-suffix replay
re-fires ``on_traversal`` deterministically, re-emitting post-checkpoint
deltas with their original sequence numbers — so at-least-once delivery
plus dedup-on-apply (:meth:`apply_delta`) is exact across failover.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.core.arrival.history import TravelTimeRecord
from repro.core.server.server import WiLocatorServer
from repro.fusion.observations import Observation
from repro.pipeline.durable import DurableServer
from repro.sensing.reports import ScanReport

from repro.cluster.plan import ShardPlan

__all__ = ["SegmentDelta", "ShardNode", "REPLICATED_SOURCE"]

#: Source tag of records applied from a remote shard's delta.
REPLICATED_SOURCE = "replicated"

#: Counter holding the next outgoing delta sequence number.
OUT_SEQ_COUNTER = "cluster.delta_out_seq"


def _applied_counter(origin: int) -> str:
    """Counter holding ``last applied seq + 1`` for one origin shard."""
    return f"cluster.applied_from.{origin}"


@dataclass(frozen=True, slots=True)
class SegmentDelta:
    """One freshly observed segment traversal, addressed for replication."""

    origin: int
    """Shard that extracted the traversal."""
    seq: int
    """Dense per-origin sequence number (0, 1, 2, ...)."""
    segment_id: str
    route_id: str
    slot: int
    """Time-slot index of the segment entry (the ``l`` of Eq. 8)."""
    t_enter: float
    t_exit: float

    @property
    def travel_time(self) -> float:
        return self.t_exit - self.t_enter

    def record(self) -> TravelTimeRecord:
        """The travel-time record a subscriber feeds its predictor."""
        return TravelTimeRecord(
            route_id=self.route_id,
            segment_id=self.segment_id,
            t_enter=self.t_enter,
            t_exit=self.t_exit,
            source=REPLICATED_SOURCE,
        )


class ShardNode:
    """A cluster member: shard id + server + delta outbox.

    Parameters
    ----------
    shard_id:
        This node's id in the plan.
    server:
        The shard's server — a freshly built per-shard
        :class:`WiLocatorServer` (see
        :func:`repro.cluster.build.shard_server`) or a
        :class:`DurableServer` already wrapping one.
    plan:
        The cluster's placement; fixes which segments publish and which
        apply.
    outbox_limit:
        Bound on retained deltas.  Overflow drops the oldest (counted as
        ``cluster.outbox_dropped``); a subscriber that was lagging past a
        dropped delta sees a gap, which :meth:`apply_delta` counts rather
        than hides.
    """

    def __init__(
        self,
        shard_id: int,
        server: WiLocatorServer | DurableServer,
        plan: ShardPlan,
        *,
        outbox_limit: int = 1024,
    ) -> None:
        if outbox_limit < 1:
            raise ValueError("outbox_limit must be >= 1")
        self.shard_id = shard_id
        self.server = server
        self.plan = plan
        self.outbox_limit = outbox_limit
        self.outbox: list[SegmentDelta] = []
        self.core: WiLocatorServer = (
            server.server if isinstance(server, DurableServer) else server
        )
        self._published = plan.published_segments(shard_id)
        self._subscribed = plan.subscribed_segments(shard_id)
        # Install the tap *before* any recovery replay (make_durable), so
        # replayed traversals re-emit their deltas deterministically.
        self.core.on_traversal = self._on_traversal

    def rebind_plan(self, plan: ShardPlan) -> None:
        """Adopt a new placement: recompute the publish/subscribe sets.

        Called by the resharding engine once a migration's cutover
        barrier has committed — from that point the node publishes the
        segments that are cross-shard *under the new plan* (sequence
        numbers keep running; subscribers that were behind still drain
        the old outbox entries first).
        """
        self.plan = plan
        self._published = plan.published_segments(self.shard_id)
        self._subscribed = plan.subscribed_segments(self.shard_id)

    def make_durable(self, data_dir: str | Path, **kwargs) -> DurableServer:
        """Wrap the node's core server in a per-shard :class:`DurableServer`.

        Must be called on a node built over a plain core server; the
        traversal tap is already installed, so a ``recover=True``
        construction replays the WAL suffix *through* it and the outbox
        ends up holding the post-checkpoint deltas under their original
        sequence numbers.
        """
        if isinstance(self.server, DurableServer):
            raise ValueError("node is already durable")
        self.server = DurableServer(self.core, data_dir, **kwargs)
        return self.server

    @property
    def durable(self) -> DurableServer | None:
        return self.server if isinstance(self.server, DurableServer) else None

    # -- ingest --------------------------------------------------------------

    def submit(self, report: ScanReport) -> bool:
        """Accept one driver report; True when admitted.

        Durable nodes batch through :meth:`DurableServer.submit` (the
        report takes effect at WAL commit); plain nodes admit and apply
        immediately.
        """
        durable = self.durable
        if durable is not None:
            return durable.submit(report)
        if not self.core.admit(report):
            return False
        self.core.ingest_admitted(report)
        return True

    def ingest_observation(self, obs: Observation) -> bool:
        """Accept one normalized multi-sensor observation; True when stored.

        Durable nodes route WiFi observations through their WAL
        (:meth:`DurableServer.ingest_observation`); plain nodes hand
        everything to the core server.  Either way non-WiFi observations
        land in this shard's fusion orchestrator, so observations shard
        exactly like the reports of the same route.
        """
        durable = self.durable
        if durable is not None:
            return durable.ingest_observation(obs)
        return self.core.ingest_observation(obs)

    def flush(self) -> int:
        """Commit any batched reports now (no-op for plain nodes)."""
        durable = self.durable
        return durable.flush() if durable is not None else 0

    def checkpoint(self) -> Path | None:
        durable = self.durable
        return durable.checkpoint() if durable is not None else None

    def close(self) -> None:
        durable = self.durable
        if durable is not None:
            durable.close()

    # -- delta publication ---------------------------------------------------

    def _on_traversal(self, record: TravelTimeRecord) -> None:
        if record.segment_id not in self._published:
            return
        metrics = self.core.metrics
        seq = metrics.counter(OUT_SEQ_COUNTER)
        metrics.incr(OUT_SEQ_COUNTER)
        self.outbox.append(
            SegmentDelta(
                origin=self.shard_id,
                seq=seq,
                segment_id=record.segment_id,
                route_id=record.route_id,
                slot=self.core.slots.slot_of(record.t_enter),
                t_enter=record.t_enter,
                t_exit=record.t_exit,
            )
        )
        metrics.incr("cluster.deltas_published")
        if len(self.outbox) > self.outbox_limit:
            dropped = len(self.outbox) - self.outbox_limit
            del self.outbox[:dropped]
            metrics.incr("cluster.outbox_dropped", dropped)

    @property
    def next_out_seq(self) -> int:
        return self.core.metrics.counter(OUT_SEQ_COUNTER)

    def applied_from(self, origin: int) -> int:
        """Delivery high-water mark (last seen seq + 1) for an origin."""
        return self.core.metrics.counter(_applied_counter(origin))

    # -- delta application ---------------------------------------------------

    def apply_delta(
        self,
        delta: SegmentDelta,
        *,
        now: float | None = None,
        max_staleness_s: float | None = None,
    ) -> bool:
        """Apply one replicated delta; True when it reached the predictor.

        At-least-once delivery is resolved here: a sequence number below
        the origin's high-water mark is a duplicate (dropped, counted),
        one above it reveals a gap (counted, then accepted — a lost
        delta only costs residual freshness, never correctness).  Deltas
        for segments this shard does not subscribe to are filtered, and
        ones older than ``max_staleness_s`` (relative to ``now``) are
        dropped as stale; both still advance the high-water mark so the
        stream stays dense.
        """
        metrics = self.core.metrics
        counter = _applied_counter(delta.origin)
        applied = metrics.counter(counter)
        if delta.seq < applied:
            metrics.incr("cluster.deltas_deduped")
            return False
        if delta.seq > applied:
            metrics.incr("cluster.delta_gaps", delta.seq - applied)
        metrics.incr(counter, delta.seq + 1 - applied)
        if delta.segment_id not in self._subscribed:
            metrics.incr("cluster.deltas_filtered")
            return False
        if (
            max_staleness_s is not None
            and now is not None
            and now - delta.t_exit > max_staleness_s
        ):
            metrics.incr("cluster.deltas_stale")
            return False
        self.core.predictor.observe(delta.record())
        metrics.incr("cluster.deltas_applied")
        return True

    # -- observability -------------------------------------------------------

    def counters(self) -> dict[str, int]:
        return self.core.counters()

    def metrics_snapshot(self) -> dict:
        return self.core.metrics_snapshot()

    def health(self) -> dict:
        health = self.server.health()
        health["cluster"] = {
            "shard_id": self.shard_id,
            "routes": len(self.plan.routes_of(self.shard_id)),
            "outbox": len(self.outbox),
            "next_out_seq": self.next_out_seq,
            "published_segments": len(self._published),
            "subscribed_segments": len(self._subscribed),
        }
        return health

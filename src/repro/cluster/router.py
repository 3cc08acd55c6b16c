"""The cluster's front door: routing, scatter-gather, error isolation.

:class:`ClusterRouter` presents (most of) the single-server surface over
a set of :class:`~repro.cluster.node.ShardNode` members:

* **driver ingest** routes by session -> route -> shard (the plan's
  consistent hash), so a bus session always lands on one shard;
* **rider ingest** fans the scan out: every healthy shard's proximity
  grouper is probed read-only (:meth:`WiLocatorServer.rider_candidate`)
  and the scan commits to the shard whose driver matched best;
* **queries** scatter-gather with per-shard error isolation — a shard
  that is down, or whose :class:`~repro.guard.breaker.CircuitBreaker`
  has opened after repeated faults, is skipped and the remaining shards'
  answers are served *degraded* rather than failing the call.  Every
  skip and error lands under the router's ``cluster.*`` counters.

The router never hides a caller bug: :class:`UnknownStopError` from a
shard propagates, exactly as the single server raises it.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import ClassVar, Iterable, Mapping, Sequence

from repro.core.arrival.predictor import ArrivalPrediction
from repro.core.positioning.trajectory import TrajectoryPoint
from repro.core.server.api import (
    DepartureEntry,
    LivePositions,
    RiderAPI,
    TripOption,
    check_query,
)
from repro.core.server.metrics import ServerMetrics
from repro.core.server.server import UnknownStopError
from repro.core.server.session import BusSession
from repro.core.traffic.anomaly import Anomaly, merge_anomalies
from repro.core.traffic.classifier import SegmentStatus
from repro.core.traffic.map import TrafficMap
from repro.fusion.observations import Observation, WifiObservation
from repro.fusion.orchestrator import fold_fusion_health
from repro.guard.breaker import CircuitBreaker
from repro.sensing.reports import ScanReport

from repro.cluster.bus import DeltaBus
from repro.cluster.node import ShardNode
from repro.cluster.plan import ShardPlan

__all__ = ["ClusterRouter"]

_SKIPPED = object()


class ClusterRouter:
    """Scatter-gather facade over the shard nodes of one plan."""

    #: WL010: the hold set and parked queue *are* the zero-loss cutover —
    #: a write outside these methods is a side door around the hold.
    __shared_state__: ClassVar[dict[str, tuple[str, ...]]] = {
        "_held_routes": ("begin_reshard_hold", "end_reshard_hold"),
        "_parked": (
            "begin_reshard_hold",
            "end_reshard_hold",
            "ingest",
            "ingest_many",
            "ingest_observation",
        ),
    }

    def __init__(
        self,
        plan: ShardPlan,
        nodes: Mapping[int, ShardNode],
        bus: DeltaBus,
        *,
        breaker_threshold: int = 3,
        breaker_probe_after: int = 8,
    ) -> None:
        missing = set(plan.shard_ids()) - set(nodes)
        if missing:
            raise ValueError(f"plan shards without a node: {sorted(missing)}")
        self.plan = plan
        self.nodes = dict(nodes)
        self.bus = bus
        self.metrics = ServerMetrics()
        self._breaker_threshold = breaker_threshold
        self._breaker_probe_after = breaker_probe_after
        self.breakers = {sid: self._new_breaker(sid) for sid in self.nodes}
        self._down: set[int] = set()
        self._session_shard: dict[str, int] = {}
        self._rider_apis: dict[int, RiderAPI] = {}
        self._held_routes: set[str] = set()
        self._parked: list[ScanReport] = []
        self._park_sink = None
        #: Live reshard state-machine status (maintained by
        #: :class:`repro.elastic.engine.ReshardEngine`); surfaced under
        #: the ``reshard`` key of :meth:`health`.
        self.reshard_status: dict = {"phase": "idle"}

    def _new_breaker(self, shard_id: int) -> CircuitBreaker:
        return CircuitBreaker(
            failure_threshold=self._breaker_threshold,
            probe_after=self._breaker_probe_after,
            name=f"shard{shard_id}",
            metrics=self.metrics,
        )

    # -- membership / failover ----------------------------------------------

    def live_shard_ids(self) -> list[int]:
        return [sid for sid in sorted(self.nodes) if sid not in self._down]

    def crash_shard(self, shard_id: int) -> None:
        """Administratively mark a shard dead (the failover drill's kill).

        Its node object is abandoned where it stands — no close, no
        flush — exactly like a process crash; queries degrade around it
        until :meth:`restore_shard`.
        """
        if shard_id not in self.nodes:
            raise ValueError(f"unknown shard {shard_id}")
        self._down.add(shard_id)
        self.metrics.incr("cluster.shard_crashes")

    def restore_shard(self, shard_id: int, node: ShardNode) -> None:
        """Rejoin a recovered shard and rewire the delta bus to it."""
        if node.shard_id != shard_id:
            raise ValueError("node's shard id does not match")
        self.nodes[shard_id] = node
        self._down.discard(shard_id)
        self.bus.replace_node(node)
        self.breakers[shard_id].record_success()
        self.metrics.incr("cluster.shard_restores")

    def apply_topology(
        self,
        plan: ShardPlan,
        *,
        attach: ShardNode | None = None,
        detach: int | None = None,
    ) -> None:
        """Adopt a migration's post-cutover topology (engine-only).

        ``plan`` becomes the routing plan; ``attach`` joins a node for a
        brand-new shard id (split), ``detach`` removes a drained one
        (merge).  Delta-bus rewiring — attach order, cursor priming —
        is the resharding engine's job; here the router swaps routing
        state and drops every cache keyed by the old placement.
        """
        if attach is not None:
            if attach.shard_id in self.nodes:
                raise ValueError(f"shard {attach.shard_id} already a member")
            self.nodes[attach.shard_id] = attach
            self.breakers[attach.shard_id] = self._new_breaker(attach.shard_id)
        if detach is not None:
            if detach not in self.nodes:
                raise ValueError(f"unknown shard {detach}")
            del self.nodes[detach]
            del self.breakers[detach]
            self._down.discard(detach)
        missing = set(plan.shard_ids()) - set(self.nodes)
        if missing:
            raise ValueError(f"plan shards without a node: {sorted(missing)}")
        self.plan = plan
        self._session_shard.clear()
        self._rider_apis.clear()

    # -- reshard hold (cutover double-write) ---------------------------------

    @property
    def reshard_hold_active(self) -> bool:
        return bool(self._held_routes)

    def begin_reshard_hold(
        self,
        route_ids: Iterable[str],
        *,
        sink=None,
        parked: Sequence[ScanReport] = (),
    ) -> None:
        """Park ingest for the given routes instead of routing it.

        During a migration's cutover window the moving routes have no
        authoritative owner; their reports are *parked* — accepted,
        retained in arrival order, and (via ``sink``, typically the
        migration journal) double-written to durable storage — then
        resubmitted by :meth:`end_reshard_hold`'s caller once the new
        owner is live.  ``parked`` pre-loads reports already journaled
        by an interrupted coordinator (resume path).
        """
        if self._held_routes:
            raise ValueError("a reshard hold is already active")
        held = set(route_ids)
        if not held:
            raise ValueError("cannot hold zero routes")
        self._held_routes = held
        self._parked = list(parked)
        self._park_sink = sink

    def end_reshard_hold(self) -> list[ScanReport]:
        """Lift the hold; returns the parked reports for resubmission."""
        parked, self._parked = self._parked, []
        self._held_routes = set()
        self._park_sink = None
        return parked

    # -- error isolation -----------------------------------------------------

    def _guarded(self, shard_id: int, fn, *args, **kwargs):
        """Run one shard call behind its breaker; ``_SKIPPED`` on degrade."""
        if shard_id in self._down or not self.breakers[shard_id].allow():
            self.breakers[shard_id].note_skipped(1)
            self.metrics.incr("cluster.query_shard_skipped")
            return _SKIPPED
        try:
            result = fn(*args, **kwargs)
        except UnknownStopError:
            raise  # a caller bug, not a shard fault
        except Exception as exc:  # noqa: BLE001 - isolation boundary
            self.breakers[shard_id].record_failure(repr(exc))
            self.metrics.incr("cluster.shard_errors")
            return _SKIPPED
        self.breakers[shard_id].record_success()
        return result

    # -- driver ingest -------------------------------------------------------

    def shard_of_session(self, session_key: str) -> int | None:
        """Which shard tracks a session, or None if never seen."""
        shard_id = self._session_shard.get(session_key)
        if shard_id is not None:
            return shard_id
        for sid in sorted(self.nodes):
            if session_key in self.nodes[sid].core.sessions:
                self._session_shard[session_key] = sid
                return sid
        return None

    def ingest(self, report: ScanReport) -> bool:
        """Route one driver report to its shard; True when admitted.

        A report for a downed shard is refused (False, counted
        ``cluster.ingest_rejected``) — callers park and resubmit after
        :meth:`restore_shard`, mirroring a load balancer's 503.  A
        report for a route under a reshard hold is *accepted* but
        parked (counted ``reshard.parked_reports``): zero-loss cutover
        means the caller never sees the migration.
        """
        if report.route_id in self._held_routes:
            self._parked.append(report)
            if self._park_sink is not None:
                self._park_sink(report)
            self.metrics.incr("reshard.parked_reports")
            return True
        shard_id = self.plan.shard_of(report.route_id)
        if shard_id in self._down:
            self.metrics.incr("cluster.ingest_rejected")
            return False
        accepted = self._guarded(shard_id, self.nodes[shard_id].submit, report)
        if accepted is _SKIPPED:
            self.metrics.incr("cluster.ingest_rejected")
            return False
        self.metrics.incr("cluster.ingest_routed")
        if accepted:
            self._session_shard[report.session_key] = shard_id
        return bool(accepted)

    def ingest_many(
        self, reports: Iterable[ScanReport], *, admitted: bool = False
    ) -> int:
        """Route a report stream in timestamp order; returns admitted count.

        ``admitted=True`` marks a stream that already passed admission
        control *and* durability elsewhere (a recovery replay being
        re-routed, a committed batch handed over during resharding): the
        reports apply straight through each shard core's
        ``ingest_admitted`` — running admission again would corrupt
        duplicate-suppression state, exactly as on the single server.
        The keyword existed only on :class:`WiLocatorServer` before this
        method grew it; the :class:`~repro.core.server.backend.ServingBackend`
        protocol requires it everywhere.
        """
        if not admitted:
            return sum(
                1 for r in sorted(reports, key=lambda r: r.t) if self.ingest(r)
            )
        routed = 0
        for report in sorted(reports, key=lambda r: r.t):
            if report.route_id in self._held_routes:
                self._parked.append(report)
                if self._park_sink is not None:
                    self._park_sink(report)
                self.metrics.incr("reshard.parked_reports")
                continue
            shard_id = self.plan.shard_of(report.route_id)
            if shard_id in self._down:
                self.metrics.incr("cluster.ingest_rejected")
                continue
            got = self._guarded(
                shard_id, self.nodes[shard_id].core.ingest_admitted, report
            )
            if got is _SKIPPED:
                self.metrics.incr("cluster.ingest_rejected")
                continue
            self.metrics.incr("cluster.ingest_routed")
            self._session_shard[report.session_key] = shard_id
            routed += 1
        return routed

    def ingest_observation(self, obs: Observation) -> bool:
        """Route one multi-sensor observation to its route's shard.

        Observations shard exactly like the reports of the same route
        (``plan.shard_of(route_id)``), so a session's WiFi anchor and
        its BLE/GPS/cell correction evidence always live on the same
        node.  A WiFi observation is system-of-record traffic in an
        envelope: under a reshard hold it converts back to a scan
        report and parks exactly like :meth:`ingest` (the envelope is
        not a side door around the zero-loss cutover).  Non-WiFi
        observations are soft TTL-bounded evidence and skip parking.
        A downed or broken shard refuses the observation
        (``fusion.route_rejected``).
        """
        if isinstance(obs, WifiObservation) and obs.route_id in self._held_routes:
            report = obs.to_report()
            self._parked.append(report)
            if self._park_sink is not None:
                self._park_sink(report)
            self.metrics.incr("reshard.parked_reports")
            return True
        shard_id = self.plan.shard_of(obs.route_id)
        if shard_id in self._down:
            self.metrics.incr("fusion.route_rejected")
            return False
        got = self._guarded(
            shard_id, self.nodes[shard_id].ingest_observation, obs
        )
        if got is _SKIPPED:
            self.metrics.incr("fusion.route_rejected")
            return False
        self.metrics.incr("fusion.routed")
        if got:
            self._session_shard.setdefault(obs.session_key, shard_id)
        return bool(got)

    def ingest_observations(self, observations: Iterable[Observation]) -> dict[str, int]:
        """Route an observation batch; same counter-delta ack as every backend."""
        submitted = accepted = 0
        for obs in sorted(observations, key=lambda o: o.t):
            submitted += 1
            if self.ingest_observation(obs):
                accepted += 1
        return {
            "submitted": submitted,
            "accepted": accepted,
            "rejected": submitted - accepted,
        }

    def fused_position(self, session_key: str, *, now: float) -> TrajectoryPoint | None:
        """Fusion-backed position from the shard tracking the session."""
        shard_id = self.shard_of_session(session_key)
        if shard_id is None or shard_id in self._down:
            return None
        got = self._guarded(
            shard_id, self.nodes[shard_id].core.fused_position, session_key, now=now
        )
        return None if got is _SKIPPED else got

    def flush(self) -> int:
        """Flush every live shard's batched reports."""
        return sum(
            flushed
            for sid in self.live_shard_ids()
            if (flushed := self._guarded(sid, self.nodes[sid].flush))
            is not _SKIPPED
        )

    def pump(self, *, now: float | None = None) -> int:
        """One replication round over the live shards."""
        return self.bus.pump(now=now, only=set(self.live_shard_ids()))

    # -- rider ingest --------------------------------------------------------

    def ingest_rider(self, report: ScanReport) -> TrajectoryPoint | None:
        """Fan a rider scan to candidate shards; commit to the best match.

        Every live shard's grouper is probed read-only; the scan is then
        ingested on the shard whose contemporaneous driver scan was most
        similar (ties break toward the lowest shard id).  No match
        anywhere counts ``cluster.rider_unmatched`` and drops the scan,
        like the single server's unmatched branch.
        """
        best_sid: int | None = None
        best_sim = 0.0
        for sid in self.live_shard_ids():
            decision = self._guarded(
                sid, self.nodes[sid].core.rider_candidate, report
            )
            if decision is _SKIPPED or decision.session_key is None:
                continue
            if decision.similarity > best_sim:
                best_sid, best_sim = sid, decision.similarity
        if best_sid is None:
            self.metrics.incr("cluster.rider_unmatched")
            return None
        self.metrics.incr("cluster.rider_routed")
        fix = self._guarded(
            best_sid, self.nodes[best_sid].core.ingest_rider, report
        )
        return None if fix is _SKIPPED else fix

    # -- rider trip-plan queries (scatter-gather over per-shard RiderAPIs) ----

    def _rider_api(self, shard_id: int) -> RiderAPI:
        """The shard's :class:`RiderAPI`, rebuilt if the node was replaced."""
        api = self._rider_apis.get(shard_id)
        core = self.nodes[shard_id].core
        if api is None or api.server is not core:
            api = self._rider_apis[shard_id] = RiderAPI(core)
        return api

    def _stop_known(self, stop_id: str) -> bool:
        """Whether any reachable shard's route set serves the stop."""
        for sid in self.live_shard_ids():
            got = self._guarded(sid, self._rider_api(sid).stops_named, stop_id)
            if got is not _SKIPPED and got:
                return True
        return False

    def departures(
        self, stop_id: str, *, now: float, max_entries: int = 10
    ) -> list[DepartureEntry]:
        """The stop's departures board, merged across every live shard.

        Shards serving the stop contribute their boards; the merge is
        re-sorted with the single server's deterministic key, so a
        cluster and a single node produce byte-identical boards over the
        same traffic.  Raises :class:`UnknownStopError` when no
        reachable shard's routes serve the stop (the caller-bug
        contract), never when a covering shard is merely down.
        """
        t0 = time.perf_counter()
        self.metrics.incr("query.departures")
        try:
            check_query(now, max_entries)
            if not self._stop_known(stop_id):
                raise UnknownStopError(f"no stop {stop_id!r} on any route")
            entries: list[DepartureEntry] = []
            for sid in self.live_shard_ids():
                try:
                    got = self._guarded(
                        sid,
                        self._rider_api(sid).departures,
                        stop_id,
                        now=now,
                        max_entries=max_entries,
                    )
                except UnknownStopError:
                    continue  # this shard's routes do not serve the stop
                if got is not _SKIPPED:
                    entries.extend(got)
            entries.sort(key=lambda e: (e.eta_t, e.route_id, e.session_key))
            return entries[:max_entries]
        finally:
            self.metrics.observe("query", time.perf_counter() - t0)

    def plan_trip(
        self, from_stop_id: str, to_stop_id: str, *, now: float
    ) -> list[TripOption]:
        """Direct ride options merged across shards (routes never span
        shards, so every option lives wholly on one shard).

        Stop existence is resolved cluster-wide first: a shard that
        serves only one of the two stops contributes no options but must
        not fail the query (on the single server both stops resolve
        globally and the route intersection is simply empty).
        """
        t0 = time.perf_counter()
        self.metrics.incr("query.plan_trip")
        try:
            check_query(now)
            if not self._stop_known(from_stop_id):
                raise UnknownStopError(f"no stop {from_stop_id!r} on any route")
            if not self._stop_known(to_stop_id):
                raise UnknownStopError(f"no stop {to_stop_id!r} on any route")
            options: list[TripOption] = []
            for sid in self.live_shard_ids():
                try:
                    got = self._guarded(
                        sid,
                        self._rider_api(sid).plan_trip,
                        from_stop_id,
                        to_stop_id,
                        now=now,
                    )
                except UnknownStopError:
                    continue  # shard serves at most one of the stops
                if got is not _SKIPPED:
                    options.extend(got)
            options.sort(
                key=lambda o: (o.alight_t, o.board_t, o.route_id, o.session_key)
            )
            return options
        finally:
            self.metrics.observe("query", time.perf_counter() - t0)

    def live_positions(self, *, now: float) -> LivePositions:
        """Current position of every active bus on every live shard."""
        t0 = time.perf_counter()
        self.metrics.incr("query.live_positions")
        try:
            check_query(now)
            parts = []
            for sid in self.live_shard_ids():
                got = self._guarded(
                    sid, self._rider_api(sid).live_positions, now=now
                )
                if got is not _SKIPPED:
                    parts.append(got)
            return LivePositions.merge(parts)
        finally:
            self.metrics.observe("query", time.perf_counter() - t0)

    # -- scatter-gather queries ----------------------------------------------

    def predict_arrival(
        self, session_key: str, stop_id: str
    ) -> ArrivalPrediction | None:
        """The session's shard answers; a downed shard degrades to None."""
        shard_id = self.shard_of_session(session_key)
        if shard_id is None:
            return None
        pred = self._guarded(
            shard_id, self.nodes[shard_id].core.predict_arrival,
            session_key, stop_id,
        )
        if pred is _SKIPPED:
            self.metrics.incr("cluster.predict_degraded")
            return None
        return pred

    def current_position(self, session_key: str) -> TrajectoryPoint | None:
        shard_id = self.shard_of_session(session_key)
        if shard_id is None:
            return None
        fix = self._guarded(
            shard_id, self.nodes[shard_id].core.current_position, session_key
        )
        return None if fix is _SKIPPED else fix

    def active_sessions(
        self, *, now: float, timeout_s: float = 300.0
    ) -> list[BusSession]:
        """All live shards' active sessions, merged by session key."""
        merged: list[BusSession] = []
        for sid in self.live_shard_ids():
            got = self._guarded(
                sid,
                self.nodes[sid].core.active_sessions,
                now=now,
                timeout_s=timeout_s,
            )
            if got is not _SKIPPED:
                merged.extend(got)
        merged.sort(key=lambda s: s.session_key)
        return merged

    def detect_anomalies(
        self, now: float, *, lookback_s: float = 3600.0
    ) -> list[Anomaly]:
        found: list[Anomaly] = []
        for sid in self.live_shard_ids():
            got = self._guarded(
                sid,
                self.nodes[sid].core.detect_anomalies,
                now,
                lookback_s=lookback_s,
            )
            if got is not _SKIPPED:
                found.extend(got)
        return merge_anomalies(found)

    def traffic_map(
        self,
        now: float,
        segment_ids: Sequence[str] | None = None,
        *,
        with_anomalies: bool = True,
    ) -> TrafficMap:
        """Union of the live shards' maps.

        Shards disagree only in confidence, never in substance — their
        live stores converge through the delta bus — so for a segment
        several shards cover, the first non-UNKNOWN state (lowest shard
        id) wins; UNKNOWN only survives when every covering shard says
        UNKNOWN.
        """
        merged = TrafficMap(t=now)
        anomalies: list[Anomaly] = []
        for sid in self.live_shard_ids():
            got = self._guarded(
                sid,
                self.nodes[sid].core.traffic_map,
                now,
                segment_ids,
                with_anomalies=with_anomalies,
            )
            if got is _SKIPPED:
                continue
            anomalies.extend(got.anomalies)
            for seg_id, state in got.states.items():
                have = merged.states.get(seg_id)
                if have is None or (
                    have.status is SegmentStatus.UNKNOWN
                    and state.status is not SegmentStatus.UNKNOWN
                ):
                    merged.states[seg_id] = state
        merged.anomalies = merge_anomalies(anomalies)
        return merged

    # -- observability -------------------------------------------------------

    def _shard_totals(self) -> Counter[str]:
        """Every counter summed over the live shards."""
        totals: Counter[str] = Counter()
        for sid in self.live_shard_ids():
            totals.update(self.nodes[sid].counters())
        return totals

    def counters(self) -> dict[str, int]:
        """The live shards' totals merged with the router's own counters."""
        merged = self._shard_totals()
        merged.update(self.metrics.counters)
        return dict(merged)

    def metrics_snapshot(self) -> dict:
        """Router counters plus per-shard snapshots and cluster totals."""
        shards = {
            str(sid): (
                {"down": True}
                if sid in self._down
                else self.nodes[sid].metrics_snapshot()
            )
            for sid in sorted(self.nodes)
        }
        return {
            "cluster": self.metrics.snapshot(),
            "totals": dict(sorted(self._shard_totals().items())),
            "shards": shards,
        }

    def health(self) -> dict:
        """Cluster status: degraded the moment any shard is impaired.

        Carries the same ``status`` / ``stats`` / ``sessions`` core keys
        as the single-node backends (the
        :class:`~repro.core.server.backend.ServingBackend` health
        contract) — ``stats`` sums the reachable shards' ingest counters
        and ``sessions.open`` their open sessions — plus the
        cluster-specific ``plan`` / ``bus`` / ``breakers`` / ``shards``
        sections.
        """
        shards = {}
        worst = "ok"
        stats_total: dict[str, int] = {}
        open_sessions = 0
        for sid in sorted(self.nodes):
            if sid in self._down:
                shards[str(sid)] = {"status": "down"}
                worst = "degraded"
                continue
            got = self._guarded(sid, self.nodes[sid].health)
            if got is _SKIPPED:
                shards[str(sid)] = {"status": "unreachable"}
                worst = "degraded"
                continue
            shards[str(sid)] = got
            if got.get("status") != "ok":
                worst = "degraded"
            for name, value in got.get("stats", {}).items():
                if isinstance(value, int):
                    stats_total[name] = stats_total.get(name, 0) + value
            open_sessions += got.get("sessions", {}).get("open", 0)
        # One model version when every reachable shard agrees; "mixed"
        # mid-rollout; "unknown" when no shard could be asked at all.
        versions = {
            shard.get("lifecycle", {}).get("model_version")
            for shard in shards.values()
            if "lifecycle" in shard
        }
        if not versions:
            model_version = "unknown"
        elif len(versions) == 1:
            model_version = next(iter(versions))
        else:
            model_version = "mixed"
        return {
            "status": worst,
            "stats": dict(sorted(stats_total.items())),
            "sessions": {"open": open_sessions},
            "lifecycle": {"model_version": model_version},
            "fusion": fold_fusion_health(
                shard["fusion"]
                for _, shard in sorted(shards.items())
                if "fusion" in shard
            ),
            "reshard": {
                **self.reshard_status,
                "hold_active": self.reshard_hold_active,
                "parked": len(self._parked),
            },
            "plan": self.plan.snapshot(),
            "bus": self.bus.health(),
            "breakers": {
                str(sid): b.snapshot() for sid, b in sorted(self.breakers.items())
            },
            "shards": shards,
        }

"""The WiLocator back-end server (Section V.A).

All computation is shifted here: the server receives scan reports from
phones, tracks every bus on its route's Signal Voronoi Diagram, extracts
segment travel times from the trajectories as buses cross intersections,
feeds them to the arrival-time predictor and the traffic-map builder, and
answers rider queries (where is my bus / when does it arrive / how is
traffic).

Queries route through a :class:`~repro.roadnet.index.RouteIndex` — an
inverted stop index plus global and per-route active-session structures
maintained incrementally by :meth:`WiLocatorServer.ingest` — and every hot
stage is instrumented through :class:`~repro.core.server.metrics.ServerMetrics`
(see :meth:`WiLocatorServer.metrics_snapshot`).

The class is deliberately synchronous and in-memory: the "distributed"
link (phone -> server) is the :class:`ScanReport` value, which keeps the
whole system deterministic and unit-testable.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, Mapping, Sequence

from repro.core.arrival.history import TravelTimeRecord, TravelTimeStore
from repro.core.arrival.predictor import ArrivalPrediction, ArrivalTimePredictor
from repro.core.arrival.seasonal import SlotScheme
from repro.core.positioning.locator import SVDPositioner
from repro.core.positioning.tracker import BusTracker
from repro.core.positioning.trajectory import TrajectoryPoint
from repro.core.server.backend import observation_ack
from repro.core.server.metrics import ServerMetrics
from repro.core.server.session import BusSession
from repro.core.svd.road_svd import RoadSVD
from repro.core.traffic.anomaly import (
    Anomaly,
    AnomalyDetector,
    DeltaEstimator,
    merge_anomalies,
)
from repro.core.traffic.classifier import TrafficClassifier
from repro.core.traffic.map import TrafficMap, TrafficMapBuilder
from repro.fusion.observations import Observation, WifiObservation
from repro.fusion.orchestrator import FusionOrchestrator
from repro.guard.admission import IngestGuard
from repro.guard.validate import AdmissionDecision, GuardConfig
from repro.roadnet.index import RouteIndex, UnknownStopError
from repro.roadnet.route import BusRoute
from repro.sensing.reports import ScanReport

__all__ = ["WiLocatorServer", "UnknownStopError"]

#: The ``stats`` health view: key -> the counters whose sum it reports.
#: Every ``guard.admit`` lands in exactly one of admitted / rejected /
#: internal_errors (WL007), so the last two together are the quarantined.
_STATS_VIEW: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("reports_ingested", ("ingest.reports",)),
    ("reports_unroutable", ("ingest.unroutable",)),
    ("reports_quarantined", ("guard.rejected", "guard.internal_errors")),
    ("positions_fixed", ("ingest.positions_fixed",)),
    ("traversals_extracted", ("ingest.traversals_extracted",)),
    ("sessions_opened", ("ingest.sessions_opened",)),
)


def _ingest_stats(counters: Mapping[str, int]) -> dict[str, int]:
    """The ``stats`` section of ``health()`` / ``metrics_snapshot()``,
    derived from the counter registry (the only ingest ledger)."""
    return {
        key: sum(counters.get(name, 0) for name in names)
        for key, names in _STATS_VIEW
    }


class WiLocatorServer:
    """The complete WiLocator pipeline behind a single ``ingest`` call.

    Parameters
    ----------
    routes:
        route id -> :class:`BusRoute` for every operated route.
    svds:
        route id -> that route's :class:`RoadSVD` (order 2-3 recommended).
    known_bssids:
        Geo-tagged APs the positioner may use.
    history:
        Offline-training travel-time store (see
        :mod:`repro.core.server.training`).
    slots:
        Time-slot scheme; defaults to the paper's five weekday slots.
    delta:
        Anomaly threshold estimator (trained offline); a fresh default
        estimator is used when omitted.
    guard / guard_config:
        Admission control (see :mod:`repro.guard`).  By default the
        server builds an :class:`IngestGuard` with the permissive
        default :class:`GuardConfig`, sharing the server's metrics; pass
        ``guard_config=GuardConfig.strict()`` for the deployment
        profile, or a fully built ``guard`` to share one across servers.
    """

    def __init__(
        self,
        routes: Mapping[str, BusRoute],
        svds: Mapping[str, RoadSVD],
        known_bssids: set[str],
        history: TravelTimeStore,
        *,
        slots: SlotScheme | None = None,
        delta: DeltaEstimator | None = None,
        recent_window_s: float = 1800.0,
        max_recent: int = 5,
        use_recent: bool = True,
        guard: IngestGuard | None = None,
        guard_config: GuardConfig | None = None,
        fusion: FusionOrchestrator | None = None,
    ) -> None:
        missing = set(routes) - set(svds)
        if missing:
            raise ValueError(f"routes without an SVD: {sorted(missing)}")
        self.routes = dict(routes)
        self.svds = dict(svds)
        self.known_bssids = set(known_bssids)
        self.slots = slots or SlotScheme.paper_weekday()
        self.predictor = ArrivalTimePredictor(
            history,
            self.slots,
            recent_window_s=recent_window_s,
            max_recent=max_recent,
            use_recent=use_recent,
        )
        self.classifier = TrafficClassifier(history, self.slots)
        self.map_builder = TrafficMapBuilder(self.classifier)
        self.delta = delta or DeltaEstimator()
        self.anomaly_detector = AnomalyDetector(self.delta)
        self.sessions: dict[str, BusSession] = {}
        #: Optional tap on freshly extracted segment traversals.  Invoked
        #: once per :class:`TravelTimeRecord` right after the predictor
        #: observes it — the cluster layer's :class:`ShardNode` uses it to
        #: publish cross-shard segment deltas, and the lifecycle manager
        #: chains onto it for shadow scoring.  Must not raise.
        self.on_traversal: Callable[[TravelTimeRecord], None] | None = None
        #: Optional extra anomaly source folded into :meth:`detect_anomalies`
        #: (``now -> anomalies``) — the lifecycle drift monitor publishes
        #: per-segment drift alarms onto the rider-facing traffic map here.
        self.extra_anomalies: Callable[[float], list[Anomaly]] | None = None
        #: Which trained model is serving.  ``"offline"`` until a lifecycle
        #: manager installs a registry version; surfaced through
        #: :meth:`health` on every backend.
        self.model_version: str = "offline"
        self.index = RouteIndex(self.routes)
        self.metrics = ServerMetrics()
        if guard is not None and guard_config is not None:
            raise ValueError("pass either guard or guard_config, not both")
        self.guard = (
            guard
            if guard is not None
            else IngestGuard(guard_config, metrics=self.metrics)
        )
        #: Multi-sensor fusion state (PR 9).  The server *drives* the
        #: orchestrator — WiFi fixes anchor it from ``_apply``, non-WiFi
        #: observations reach it via :meth:`ingest_observation` — because
        #: ``repro.fusion`` ranks below ``core`` and never imports it.
        self.fusion = (
            fusion
            if fusion is not None
            else FusionOrchestrator(self.routes, metrics=self.metrics)
        )
        from repro.sensing.grouping import ProximityGrouper

        self._grouper = ProximityGrouper()

    # -- ingestion -----------------------------------------------------------

    def admit(self, report: ScanReport) -> AdmissionDecision:
        """Run admission control on one report (never raises).

        Rejected reports are quarantined and counted by the guard.
        """
        return self.guard.admit(report)

    def ingest(self, report: ScanReport) -> TrajectoryPoint | None:
        """Process one uploaded scan; returns the new position fix.

        Every report passes admission control first: rejects land in the
        guard's quarantine ring (with a reason code) and never touch
        positioning state.
        """
        return self.commit((report,))[0] if self.admit(report) else None

    def submit(self, report: ScanReport) -> AdmissionDecision:
        """Admit one report and commit it at once; returns its decision.

        The unbuffered twin of
        :meth:`~repro.pipeline.durable.DurableServer.submit`, so a shard
        submits the same way over either server.
        """
        decision = self.admit(report)
        if decision:
            self.commit((report,))
        return decision

    def commit(self, batch: Iterable[ScanReport]) -> list[TrajectoryPoint | None]:
        """Apply an admitted batch in the order given; the per-report fixes.

        The one loop by which admitted reports reach state: plain ingest,
        the durable pipeline's batch commit, a shard's submit, WAL
        recovery and the resharding catch-up all end here.  Admission
        never runs — re-admitting would corrupt duplicate-suppression
        state and double the admission counters — so callers admit first
        or replay a log that holds only admitted reports.
        """
        return [self.ingest_admitted(report) for report in batch]

    def ingest_admitted(self, report: ScanReport) -> TrajectoryPoint | None:
        """Apply one report that already passed :meth:`admit`."""
        return self._apply(report, time.perf_counter())

    def _apply(self, report: ScanReport, t0: float) -> TrajectoryPoint | None:
        """The post-admission ingest body (route, track, extract, index)."""
        self.metrics.incr("ingest.reports")
        route = self.routes.get(report.route_id)
        if route is None:
            # Route identification failed or unknown route: the scan is
            # unusable for tracking (Section V.A.1).
            self.metrics.incr("ingest.unroutable")
            self.metrics.observe("ingest", time.perf_counter() - t0)
            return None
        report = self.guard.screen_readings(report)
        session = self.sessions.get(report.session_key)
        if session is None:
            session = BusSession(
                session_key=report.session_key,
                route_id=report.route_id,
                tracker=self._tracker(report.route_id),
            )
            self.sessions[report.session_key] = session
            self.index.open_session(report.session_key, report.route_id)
            self.metrics.incr("ingest.sessions_opened")
        self._grouper.observe_driver(report)
        t_fix = time.perf_counter()
        point, records = session.process(report)
        self.metrics.observe("position_fix", time.perf_counter() - t_fix)
        self.index.note_report(report.session_key, report.t)
        if point is not None:
            self.metrics.incr("ingest.positions_fixed")
            self.fusion.note_wifi_fix(
                report.session_key, report.route_id, point.arc_length, report.t
            )
        for record in records:
            self.predictor.observe(record)
            self.metrics.incr("ingest.traversals_extracted")
            if self.on_traversal is not None:
                self.on_traversal(record)
        self.metrics.observe("ingest", time.perf_counter() - t0)
        return point

    def ingest_many(self, reports: Iterable[ScanReport]) -> list[AdmissionDecision]:
        """Admit a batch in timestamp order, then commit what was admitted.

        Returns each report's :class:`AdmissionDecision`, aligned with
        the time-sorted order.  Admission is clocked by report time and
        reads nothing a commit writes, so deciding the whole batch first
        leaves state, stats and counters exactly as per-report
        :meth:`ingest` calls would.
        """
        ordered = sorted(reports, key=lambda r: r.t)
        decisions = [self.admit(report) for report in ordered]
        self.commit([r for r, ok in zip(ordered, decisions) if ok])
        return decisions

    # -- session state -------------------------------------------------------

    def _tracker(self, route_id: str) -> BusTracker:
        return BusTracker(SVDPositioner(self.svds[route_id], self.known_bssids))

    def adopt_sessions(self, states: Iterable[dict]) -> int:
        """Rebuild sessions from their ``state_dict()`` and index them.

        The one path by which sessions enter a server other than ingest:
        checkpoint restore and both reshard hand-offs.  Sessions are
        inserted in the given order (appended after any already open),
        so indexed queries keep a deterministic iteration order.
        Returns how many were adopted; a session on a route this server
        does not operate raises ``ValueError``.
        """
        adopted = 0
        for data in states:
            route_id = data["route_id"]
            if route_id not in self.svds:
                raise ValueError(f"checkpointed session on unknown route {route_id!r}")
            session = BusSession.from_state(data, self._tracker(route_id))
            self.sessions[session.session_key] = session
            self._register(session)
            adopted += 1
        return adopted

    def reindex(self) -> None:
        """Install a fresh :class:`RouteIndex` over the current route set,
        re-registering every open session in ``sessions`` order (after a
        route set change or a wholesale session swap)."""
        self.index = RouteIndex(self.routes)
        for session in self.sessions.values():
            self._register(session)

    def _register(self, session: BusSession) -> None:
        key = session.session_key
        self.index.open_session(key, session.route_id)
        if session.last_report_t is not None:
            self.index.note_report(key, session.last_report_t)

    # -- multi-sensor observations (PR 9) ------------------------------------

    def ingest_observation(self, obs: Observation) -> bool:
        """Accept one normalized observation of any modality.

        WiFi observations convert back to :class:`ScanReport` and take
        the full guarded ingest path (admission, quarantine, duplicate
        suppression — an observation envelope is not a side door).
        Non-WiFi observations go to the fusion orchestrator, which
        retains them as calibrated correction evidence.  Truthy iff the
        observation took effect.

        The WiFi ack is the report's own :class:`AdmissionDecision` —
        never a delta of shared guard counters, which an interleaved
        rejection from another caller would corrupt.  Admission is the
        acceptance bar: an admitted report for an unknown route still
        acks ``True`` (and counts ``ingest.unroutable``), exactly as
        ``/v1/scans`` accounts the same report.
        """
        if isinstance(obs, WifiObservation):
            # One "fusion" sample per report covering only the envelope's
            # own work: the guarded ingest in the middle is excluded by
            # stopping the clock around it.
            t0 = time.perf_counter()
            report = obs.to_report()
            overhead = time.perf_counter() - t0
            decision = self.admit(report)
            if decision:
                self.commit((report,))
            t1 = time.perf_counter()
            self.fusion.note_wifi_observation(bool(decision))
            self.metrics.observe(
                "fusion", overhead + (time.perf_counter() - t1)
            )
            return bool(decision)
        with self.metrics.timer("fusion"):
            return self.fusion.observe(obs)

    def ingest_observations(self, observations: Iterable[Observation]) -> dict[str, int]:
        """Accept an observation batch in timestamp order.

        Returns the observation ack every backend shares, counted from
        the per-observation results: ``{"submitted", "accepted",
        "rejected"}``.
        """
        return observation_ack(self.ingest_observation, observations)

    def fused_position(self, session_key: str, *, now: float) -> TrajectoryPoint | None:
        """Best current position, falling back to fusion when WiFi is stale.

        With a fresh WiFi anchor this is exactly :meth:`current_position`
        (fusion never perturbs a healthy track); during scan drought the
        calibrated BLE/GPS/cell blend answers instead, tagged
        ``method="fused:..."`` so clients can see the provenance.
        """
        est = self.fusion.estimate(session_key, now=now)
        if est is None:
            return None
        route = self.routes.get(est.route_id)
        if route is None:
            return None
        arc = min(max(est.arc, 0.0), route.length)
        return TrajectoryPoint(
            t=est.t,
            arc_length=arc,
            point=route.point_at(arc),
            method=f"fused:{est.source}",
        )

    def flush(self) -> int:
        """Make buffered ingest visible — a plain server buffers nothing.

        Exists so every :class:`~repro.core.server.backend.ServingBackend`
        can be flushed uniformly; the durable and cluster backends
        implement real batch commits under the same name.
        """
        return 0

    def ingest_rider(self, report: ScanReport) -> TrajectoryPoint | None:
        """Process a rider's scan whose bus is unknown (Section V.A.1).

        Riders do not know their session key; the server matches the scan
        to the most similar contemporaneous *driver* scan (the proximity
        grouping) and ingests it under that bus — or drops it when no bus
        matches (rider waiting at a stop, walking, ...).

        Driver reports must flow through :meth:`ingest` as usual; they
        feed the grouper automatically.
        """
        t0 = time.perf_counter()
        if not self.admit(report):
            return None
        decision = self._grouper.assign(report)
        if decision.session_key is None:
            # Unmatched rider scans are still ingested work: count them
            # and observe the latency like the driver-path unroutable
            # branch does, so the histograms reconcile with the counters.
            self.metrics.incr("ingest.reports")
            self.metrics.incr("ingest.unroutable")
            self.metrics.incr("ingest.rider_unmatched")
            self.metrics.observe("ingest", time.perf_counter() - t0)
            return None
        session = self.sessions.get(decision.session_key)
        if session is None:
            # The grouper matched a driver whose session the server no
            # longer tracks (dropped, or fed out-of-band): unroutable.
            self.metrics.incr("ingest.reports")
            self.metrics.incr("ingest.unroutable")
            self.metrics.observe("ingest", time.perf_counter() - t0)
            return None
        regrouped = ScanReport(
            device_id=report.device_id,
            session_key=decision.session_key,
            route_id=session.route_id,
            t=report.t,
            readings=report.readings,
        )
        return self._apply(regrouped, t0)

    def rider_candidate(self, report: ScanReport):
        """Which bus would :meth:`ingest_rider` assign this scan to?

        A read-only probe of the proximity grouper (no admission, no
        state change) returning the grouper's
        :class:`~repro.sensing.grouping.GroupingDecision`.  The cluster
        router polls every shard with this before committing the rider's
        scan to the best-matching shard.
        """
        return self._grouper.assign(report)

    # -- rider queries ----------------------------------------------------------

    def current_position(self, session_key: str) -> TrajectoryPoint | None:
        """Latest fix of a tracked bus, or None."""
        session = self.sessions.get(session_key)
        if session is None:
            return None
        return session.trajectory.last

    def active_sessions(
        self, *, now: float, timeout_s: float = 300.0
    ) -> list[BusSession]:
        """Sessions still reporting as of ``now``.

        Served from the index's active-session heap: cost follows the
        number of active sessions, not the number ever opened.
        """
        return [
            self.sessions[key]
            for key in self.index.active_session_keys(now, timeout_s=timeout_s)
        ]

    def timed_predict_arrival(
        self, route: BusRoute, current_arc: float, t: float, stop
    ) -> ArrivalPrediction | None:
        """One predictor call, recorded in the ``predict`` histogram."""
        t0 = time.perf_counter()
        pred = self.predictor.predict_arrival(route, current_arc, t, stop)
        self.metrics.observe("predict", time.perf_counter() - t0)
        self.metrics.incr("predict.calls")
        return pred

    def predict_arrival(
        self, session_key: str, stop_id: str
    ) -> ArrivalPrediction | None:
        """When will this bus reach the given stop on its route?

        Raises :class:`UnknownStopError` when the stop is not on the bus's
        route (a :class:`KeyError` subclass, as the seed raised).
        """
        session = self.sessions.get(session_key)
        if session is None or session.trajectory.last is None:
            return None
        route = self.routes[session.route_id]
        entry = self.index.stop_on_route(route.route_id, stop_id)
        last = session.trajectory.last
        return self.timed_predict_arrival(route, last.arc_length, last.t, entry.stop)

    def predict_all_arrivals(self, session_key: str) -> list[ArrivalPrediction]:
        """Predictions for every remaining stop of a tracked bus."""
        session = self.sessions.get(session_key)
        if session is None or session.trajectory.last is None:
            return []
        route = self.routes[session.route_id]
        last = session.trajectory.last
        return self.predictor.predict_all_stops(route, last.arc_length, last.t)

    # -- observability ---------------------------------------------------------

    def counters(self) -> dict[str, int]:
        """A copy of the counter registry (the one ingest ledger)."""
        return dict(self.metrics.counters)

    def metrics_snapshot(self) -> dict:
        """Counters, latency histograms, cache rates and index state.

        The rank-vector match caches live inside the per-route
        :class:`RoadSVD` objects; their hit/miss totals are folded into
        the ``caches`` section under ``svd_match``.
        """
        snap = self.metrics.snapshot()
        hits = misses = 0
        for svd in {id(s): s for s in self.svds.values()}.values():
            info = svd.cache_info()
            hits += info["hits"]
            misses += info["misses"]
        total = hits + misses
        snap["caches"]["svd_match"] = {
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / total if total else 0.0,
        }
        snap["stats"] = _ingest_stats(snap["counters"])
        snap["index"] = self.index.snapshot()
        return snap

    def health(self) -> dict:
        """Operator-facing health: guard state, counters, open sessions.

        :class:`~repro.pipeline.durable.DurableServer` extends this with
        the storage breaker and WAL state; the ``health`` CLI subcommand
        renders it.
        """
        return {
            "status": "ok",
            "guard": self.guard.health(),
            "stats": _ingest_stats(self.metrics.counters),
            "sessions": {"open": len(self.sessions)},
            "lifecycle": {"model_version": self.model_version},
            "fusion": self.fusion.health(),
        }

    # -- traffic map ----------------------------------------------------------

    def detect_anomalies(self, now: float, *, lookback_s: float = 3600.0) -> list[Anomaly]:
        """Anomalies evidenced by any session active within the look-back."""
        found: list[Anomaly] = []
        for key in self.index.active_session_keys(now, timeout_s=lookback_s):
            found.extend(
                self.anomaly_detector.detect(self.sessions[key].trajectory)
            )
        if self.extra_anomalies is not None:
            found.extend(self.extra_anomalies(now))
        return merge_anomalies(found)

    def traffic_map(
        self,
        now: float,
        segment_ids: Sequence[str] | None = None,
        *,
        with_anomalies: bool = True,
    ) -> TrafficMap:
        """The current real-time traffic map."""
        if segment_ids is None:
            seen: set[str] = set()
            ordered: list[str] = []
            for route in self.routes.values():
                for sid in route.segment_ids:
                    if sid not in seen:
                        seen.add(sid)
                        ordered.append(sid)
            segment_ids = ordered
        anomalies = self.detect_anomalies(now) if with_anomalies else []
        return self.map_builder.build(
            segment_ids, self.predictor.live, now, anomalies=anomalies
        )

"""The fusion orchestrator: calibrated rank fusion over every modality.

WiFi rank/SVD positioning stays **authoritative**: every position fix
the core server computes is fed back here as a *session anchor*
(:meth:`FusionOrchestrator.note_wifi_fix`), and as long as the anchor is
fresh, :meth:`estimate` simply returns it — fused observations never
perturb a healthy WiFi track, which is what makes the healthy-phase
"no regression" guarantee exact rather than statistical.

When WiFi degrades (scan drought, AP outage — the anchor goes stale),
the retained BLE/GPS/cell observations take over: each is reduced to a
route arc at observe time (GPS via nearest-chord projection, BLE via an
RSSI-weighted centroid of surveyed beacon arcs, cell via the surveyed
span midpoint), then blended by calibrated weight — per-source trust
over learned position noise, decayed by skew-corrected age.  The blend
is clamped to a **bounded correction** around the last anchor (a
drift cone growing at ``drift_mps``), so a miscalibrated feed can pull
an estimate only as far as the bus could plausibly have travelled.

Calibration is learned online: any non-WiFi observation landing within
``co_window_s`` of a WiFi anchor of the same session — before *or*
after, so lagging clocks calibrate too — yields one clock-skew and one
motion-compensated position-error sample (see
:mod:`repro.fusion.calibration`).  Everything here is soft state —
TTL-bounded, rebuilt from live feeds after restart, deliberately not
checkpointed (DESIGN.md §18).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.geometry import Point
from repro.fusion.audit import AuditTrail
from repro.fusion.calibration import SourceCalibration
from repro.fusion.geometry import RouteGeometry
from repro.fusion.observations import (
    OBSERVATION_SOURCES,
    BleObservation,
    CellObservation,
    GpsObservation,
    Observation,
    WifiObservation,
)
from repro.fusion.retention import ObservationStore, RetentionPolicy, StoredObservation
from repro.roadnet.route import BusRoute

__all__ = [
    "FusionConfig",
    "SessionAnchor",
    "FusedEstimate",
    "FusionOrchestrator",
    "fold_fusion_health",
]

#: Orchestrator-level reject reasons (tails of ``fusion.rejected.<reason>``;
#: disjoint from the adapters' normalize taxonomy, same family).
INGEST_REASONS: frozenset[str] = frozenset({
    "unknown_route",
    "unmapped",
    "off_route",
    "wifi_kind",
})


class LocalCounters:
    """Fallback metrics sink for a standalone orchestrator.

    ``repro.fusion`` ranks *below* ``core`` and must not import
    :class:`~repro.core.server.metrics.ServerMetrics`; the orchestrator
    only needs ``incr`` and a ``counters`` dict, which the server's
    metrics object satisfies structurally.  When no sink is attached
    (tests, the health fold's template orchestrator) counters land in
    this plain dict.
    """

    __slots__ = ("counters",)

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}

    def incr(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n


@dataclass(frozen=True)
class FusionConfig:
    """Tuning of anchor freshness, correction bounds and source priors."""

    #: Anchor age (s) below which WiFi stays authoritative and fusion is a
    #: pass-through.  Just over one healthy report interval: one missed
    #: scan is noise, two is degradation.
    wifi_fresh_s: float = 12.0
    #: Max gap (s) between a WiFi anchor and a following observation for
    #: the pair to count as co-observed (one calibration sample).
    co_window_s: float = 6.0
    #: Base half-width (m) of the bounded-correction cone around a stale
    #: anchor, plus its growth rate (m/s of anchor age).
    max_correction_m: float = 30.0
    drift_mps: float = 15.0
    #: Staleness time-constant (s) in observation weights.
    recency_tau_s: float = 30.0
    #: GPS fixes further off-route than this are rejected outright.
    max_off_route_m: float = 150.0
    #: Arc step (m) of the per-route projection tables.
    geometry_step_m: float = 20.0
    retention: RetentionPolicy = field(default_factory=RetentionPolicy)
    audit_capacity: int = 512
    #: Per-source operator trust priors (calibration refines weights, not
    #: trust; a coarse cell handoff never outvotes a GPS fix).
    trust: Mapping[str, float] = field(
        default_factory=lambda: {"ble": 0.8, "cell": 0.3, "gps": 1.0, "wifi": 1.0}
    )
    #: Per-source position-noise priors (m), used until calibrated.
    noise_prior_m: Mapping[str, float] = field(
        default_factory=lambda: {"ble": 40.0, "cell": 250.0, "gps": 15.0, "wifi": 5.0}
    )


@dataclass(frozen=True, slots=True)
class SessionAnchor:
    """The last authoritative WiFi fix of one session.

    ``speed_mps`` is the along-route speed observed between the two most
    recent anchors (0 until a second anchor exists); calibration uses it
    to predict where the bus *should* be at an observation's timestamp,
    so genuine travel between anchor and observation is not booked as
    feed position noise.
    """

    route_id: str
    arc: float
    t: float
    speed_mps: float = 0.0


@dataclass(frozen=True, slots=True)
class FusedEstimate:
    """One fused position answer, attributable via ``contributors``."""

    session_key: str
    route_id: str
    t: float
    arc: float
    #: ``"wifi"`` (fresh anchor), ``"fused"`` (blend), or ``"wifi_stale"``
    #: (no live observations; the stale anchor is the best we have).
    source: str
    contributors: tuple[str, ...]
    bounded: bool


class FusionOrchestrator:
    """Routes normalized observations into calibrated session estimates.

    The orchestrator owns only fusion state (anchors, retention store,
    calibration, audit); admission and positioning stay with the guard
    and the core server, which drive this object (``repro.fusion`` sits
    *below* ``core`` in the layering DAG and never imports it).
    """

    def __init__(
        self,
        routes: Mapping[str, BusRoute] | None = None,
        *,
        config: FusionConfig | None = None,
        metrics: Any = None,
    ) -> None:
        self.config = config or FusionConfig()
        #: Any sink with ``incr(name, n=1)`` and a ``counters`` dict; the
        #: owning server passes its ServerMetrics so fusion.* counters land
        #: beside ingest.* (and health reads ``fusion.fused_fixes`` back).
        self.metrics = metrics if metrics is not None else LocalCounters()
        #: Held by reference: the owning server's route map, so a route
        #: the server gains or drops (resharding) is known or unknown
        #: here too.
        self._routes: Mapping[str, BusRoute] = routes if routes is not None else {}
        self._geometry: dict[str, RouteGeometry] = {}
        self._beacon_arcs: dict[str, dict[str, float]] = {}
        self._cell_spans: dict[str, dict[str, tuple[float, float]]] = {}
        self.store = ObservationStore(self.config.retention)
        self.audit = AuditTrail(self.config.audit_capacity)
        self._anchors: dict[str, SessionAnchor] = {}
        self._calibrations: dict[str, SourceCalibration] = {}
        self._observed: dict[str, int] = {src: 0 for src in OBSERVATION_SOURCES}
        self._rejected: dict[str, int] = {src: 0 for src in OBSERVATION_SOURCES}

    # -- survey / registry ---------------------------------------------------

    def register_beacons(self, route_id: str, arcs: Mapping[str, float]) -> None:
        """Survey BLE beacons: beacon id → arc along ``route_id``."""
        self._beacon_arcs.setdefault(route_id, {}).update(arcs)

    def register_cells(
        self, route_id: str, spans: Mapping[str, tuple[float, float]]
    ) -> None:
        """Survey cell coverage: cell id → (arc_lo, arc_hi) along the route."""
        self._cell_spans.setdefault(route_id, {}).update(
            {cid: (float(lo), float(hi)) for cid, (lo, hi) in spans.items()}
        )

    def calibration(self, source: str) -> SourceCalibration:
        cal = self._calibrations.get(source)
        if cal is None:
            cal = SourceCalibration(
                source=source,
                noise_m=float(self.config.noise_prior_m.get(source, 25.0)),
                trust=float(self.config.trust.get(source, 0.5)),
            )
            self._calibrations[source] = cal
        return cal

    def _route_geometry(self, route_id: str) -> RouteGeometry | None:
        geom = self._geometry.get(route_id)
        if geom is None:
            route = self._routes.get(route_id)
            if route is None:
                return None
            geom = self._geometry[route_id] = RouteGeometry(
                route, step_m=self.config.geometry_step_m
            )
        return geom

    # -- the WiFi side of the contract --------------------------------------

    def note_wifi_fix(
        self, session_key: str, route_id: str, arc: float, t: float
    ) -> None:
        """Record an authoritative rank/SVD fix as the session's anchor."""
        anchor = self._anchors.get(session_key)
        if anchor is not None and t < anchor.t:
            return  # never move an anchor backwards in time
        speed = 0.0
        if anchor is not None and anchor.route_id == route_id:
            if t > anchor.t:
                # Along-route speed between consecutive anchors; clamped
                # at 0 because an arc regression is fix noise, not a bus
                # driving its route backwards.
                speed = max(0.0, (arc - anchor.arc) / (t - anchor.t))
            else:
                speed = anchor.speed_mps
        self._anchors[session_key] = SessionAnchor(
            route_id=route_id, arc=arc, t=t, speed_mps=speed
        )
        self.metrics.incr("fusion.anchors")

    def note_wifi_observation(self, admitted: bool) -> None:
        """Account one WiFi observation routed through guarded ingest."""
        self.metrics.incr("fusion.observations")
        self.metrics.incr("fusion.wifi_reports")
        self._observed["wifi"] += 1
        if not admitted:
            self._rejected["wifi"] += 1

    def wifi_degraded(self, session_key: str, *, now: float) -> bool:
        """Scan drought / outage: no anchor, or the anchor has gone stale."""
        anchor = self._anchors.get(session_key)
        return anchor is None or now - anchor.t > self.config.wifi_fresh_s

    # -- observation intake --------------------------------------------------

    def observe(self, obs: Observation) -> bool:
        """Retain one normalized non-WiFi observation; truthy iff stored.

        Reduces the observation to a route arc, feeds co-observation
        calibration, and appends it to the retention store and audit
        trail.  WiFi observations must go through guarded ingest instead
        (they are rejected here with reason ``wifi_kind``).
        """
        source = obs.source
        self.metrics.incr("fusion.observations")
        if source in self._observed:
            self._observed[source] += 1
        if isinstance(obs, WifiObservation):
            return not self._reject(obs, "wifi_kind", "wifi routes through admit()")
        if obs.route_id not in self._routes:
            return not self._reject(obs, "unknown_route", obs.route_id)
        if isinstance(obs, GpsObservation):
            geom = self._route_geometry(obs.route_id)
            assert geom is not None  # route membership checked above
            arc, off_route = geom.project(Point(obs.x, obs.y))
            if off_route > self.config.max_off_route_m:
                return not self._reject(obs, "off_route", f"{off_route:.0f}m")
        else:
            maybe_arc = self._obs_arc(obs)
            if maybe_arc is None:
                return not self._reject(obs, "unmapped", "no surveyed position")
            arc = maybe_arc
        self._calibrate(obs, arc)
        cal = self.calibration(source)
        entry = StoredObservation(
            source=source,
            route_id=obs.route_id,
            t=cal.corrected_t(obs.t),
            arc=arc,
            quality=1.0,
        )
        evicted = self.store.append(obs.session_key, entry)
        if evicted:
            self.metrics.incr("fusion.expired", evicted)
        self.metrics.incr("fusion.stored")
        self.audit.append(
            obs.t, source, obs.session_key, "stored", f"arc={arc:.1f}"
        )
        return True

    def observe_many(self, observations: Iterable[Observation]) -> int:
        """Retain a batch in timestamp order; returns the stored count."""
        return sum(
            1
            for obs in sorted(observations, key=lambda o: o.t)
            if self.observe(obs)
        )

    def _reject(self, obs: Observation, reason: str, detail: str) -> bool:
        """Account one reject; returns True for ``return not ...`` callers."""
        source = obs.source
        if source in self._rejected:
            self._rejected[source] += 1
        self.metrics.incr("fusion.rejected")
        self.metrics.incr(f"fusion.rejected.{reason}")
        self.audit.append(obs.t, source, obs.session_key, "rejected", reason)
        return True

    def _obs_arc(self, obs: Observation) -> float | None:
        """Reduce one observation to a route arc, or None when unmapped."""
        if isinstance(obs, GpsObservation):
            geom = self._route_geometry(obs.route_id)
            if geom is None:
                return None
            arc, _ = geom.project(Point(obs.x, obs.y))
            return arc
        if isinstance(obs, BleObservation):
            surveyed = self._beacon_arcs.get(obs.route_id, {})
            total_w = 0.0
            total_arc = 0.0
            for sighting in obs.sightings:
                arc = surveyed.get(sighting.beacon_id)
                if arc is None:
                    continue
                # Pseudo-RSS is -distance-like: closer beacons weigh more.
                w = 1.0 / (1.0 + max(0.0, -sighting.rssi_dbm))
                total_w += w
                total_arc += w * arc
            if total_w <= 0.0:
                return None
            return total_arc / total_w
        if isinstance(obs, CellObservation):
            span = self._cell_spans.get(obs.route_id, {}).get(obs.cell_id)
            if span is None:
                return None
            return (span[0] + span[1]) / 2.0
        return None

    def _calibrate(self, obs: Observation, arc: float) -> None:
        """One co-observation against the session's WiFi anchor, if any.

        The window is symmetric (``|gap| <= co_window_s``) so a feed
        whose clock *lags* the anchor still calibrates (its skew is
        negative).  The position-error sample is taken against the
        anchor-relative *predicted* arc — the anchor advanced at its
        observed speed over the de-skewed gap — so genuine travel
        between anchor and observation is not booked as feed noise
        (at 8 m/s a 6 s gap is ~50 m of real motion).
        """
        anchor = self._anchors.get(obs.session_key)
        if anchor is None or obs.route_id != anchor.route_id:
            return
        gap = obs.t - anchor.t
        if abs(gap) > self.config.co_window_s:
            return
        cal = self.calibration(obs.source)
        elapsed = gap - cal.clock_skew_s
        expected_arc = anchor.arc + anchor.speed_mps * elapsed
        cal.update(gap, arc - expected_arc)
        self.metrics.incr("fusion.calibrations")
        self.audit.append(
            obs.t,
            obs.source,
            obs.session_key,
            "calibrated",
            f"skew={cal.clock_skew_s:.2f}s noise={cal.noise_m:.1f}m",
        )

    # -- fused estimation ----------------------------------------------------

    def estimate(self, session_key: str, *, now: float) -> FusedEstimate | None:
        """The best current position of one session.

        Fresh anchor → the anchor, untouched.  Stale anchor → the
        calibrated blend of retained observations, clamped to the
        anchor's drift cone.  Nothing at all → ``None``.
        """
        anchor = self._anchors.get(session_key)
        if anchor is not None and now - anchor.t <= self.config.wifi_fresh_s:
            return FusedEstimate(
                session_key=session_key,
                route_id=anchor.route_id,
                t=anchor.t,
                arc=anchor.arc,
                source="wifi",
                contributors=("wifi",),
                bounded=False,
            )
        expired = self.store.prune(session_key, now)
        if expired:
            self.metrics.incr("fusion.expired", expired)
        entries = self.store.entries(session_key)
        # Arcs of different routes are incomparable: blend only entries
        # of one route — the anchor's, or (for a session that only ever
        # sent non-WiFi evidence) the route of its newest observation.
        if anchor is not None:
            route_id = anchor.route_id
        elif entries:
            route_id = max(entries, key=lambda e: e.t).route_id
        else:
            route_id = ""
        entries = [e for e in entries if e.route_id == route_id]
        if not entries:
            if anchor is None:
                return None
            self.metrics.incr("fusion.fallback_anchor")
            return FusedEstimate(
                session_key=session_key,
                route_id=anchor.route_id,
                t=anchor.t,
                arc=anchor.arc,
                source="wifi_stale",
                contributors=("wifi",),
                bounded=False,
            )
        total_w = 0.0
        total_arc = 0.0
        contributors = []
        for entry in entries:
            cal = self.calibration(entry.source)
            age = max(0.0, now - entry.t)
            w = cal.weight(age, recency_tau_s=self.config.recency_tau_s)
            total_w += w
            total_arc += w * entry.arc
            contributors.append(f"{entry.source}@{entry.t:.1f}")
        arc = total_arc / total_w
        bounded = False
        if anchor is not None:
            cone = self.config.max_correction_m + self.config.drift_mps * max(
                0.0, now - anchor.t
            )
            lo, hi = anchor.arc - cone, anchor.arc + cone
            if arc < lo or arc > hi:
                arc = min(hi, max(lo, arc))
                bounded = True
                self.metrics.incr("fusion.corrections_bounded")
        self.metrics.incr("fusion.fused_fixes")
        self.audit.append(
            now,
            "fusion",
            session_key,
            "fused_fix",
            f"arc={arc:.1f} from {'+'.join(contributors)}",
        )
        return FusedEstimate(
            session_key=session_key,
            route_id=route_id,
            t=now,
            arc=arc,
            source="fused",
            contributors=tuple(contributors),
            bounded=bounded,
        )

    # -- observability -------------------------------------------------------

    def health(self) -> dict[str, Any]:
        """The ``fusion`` health section (key-identical on every backend)."""
        degraded = 0
        tracked = len(self._anchors)
        if tracked:
            newest = max(a.t for a in self._anchors.values())
            degraded = sum(
                1
                for a in self._anchors.values()
                if newest - a.t > self.config.wifi_fresh_s
            )
        return {
            "sources": {
                src: {
                    "observations": self._observed[src],
                    "rejected": self._rejected[src],
                    "calibration": self.calibration(src).snapshot(),
                }
                for src in OBSERVATION_SOURCES
            },
            "store": self.store.snapshot(),
            "anchors": {"tracked": tracked, "degraded": degraded},
            "audit": self.audit.snapshot(),
            "fused_fixes": self.metrics.counters.get("fusion.fused_fixes", 0),
        }


def fold_fusion_health(sections: Iterable[Mapping[str, Any]]) -> dict[str, Any]:
    """Fold per-shard fusion health sections into one (cluster router).

    Integers sum; calibration floats fold as samples-weighted means so a
    shard that has actually calibrated a feed dominates untouched peers.
    The folded dict is key-identical to a single orchestrator's
    :meth:`FusionOrchestrator.health`, preserving dashboard parity.
    """
    folded = FusionOrchestrator().health()
    sections = list(sections)
    if not sections:
        return folded
    for src in OBSERVATION_SOURCES:
        out = folded["sources"][src]
        per_shard = [s["sources"][src] for s in sections]
        out["observations"] = sum(p["observations"] for p in per_shard)
        out["rejected"] = sum(p["rejected"] for p in per_shard)
        cals = [p["calibration"] for p in per_shard]
        samples = sum(c["samples"] for c in cals)
        cal = out["calibration"]
        cal["samples"] = samples
        for key in ("clock_skew_s", "noise_m", "trust"):
            if samples:
                cal[key] = (
                    sum(c[key] * c["samples"] for c in cals) / samples
                )
            else:
                cal[key] = sum(c[key] for c in cals) / len(cals)
    for key in ("sessions", "observations"):
        folded["store"][key] = sum(s["store"][key] for s in sections)
    for key in ("tracked", "degraded"):
        folded["anchors"][key] = sum(s["anchors"][key] for s in sections)
    for key in ("records", "appended", "dropped"):
        folded["audit"][key] = sum(s["audit"][key] for s in sections)
    folded["fused_fixes"] = sum(s["fused_fixes"] for s in sections)
    return folded

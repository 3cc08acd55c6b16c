"""FusionOrchestrator semantics: anchors, calibration, retention, bounds.

WiFi stays authoritative (fresh anchor → exact pass-through); non-WiFi
evidence is reduced to route arcs, calibrated against co-observed
anchors, TTL-retained, and blended only under degradation — with every
correction clamped to the anchor's drift cone and every decision written
to the audit trail.
"""

from __future__ import annotations

import pytest

from repro.fusion.calibration import SourceCalibration
from repro.fusion.observations import (
    BeaconSighting,
    BleObservation,
    CellObservation,
    GpsObservation,
    WifiObservation,
)
from repro.fusion.orchestrator import (
    INGEST_REASONS,
    FusionConfig,
    FusionOrchestrator,
    fold_fusion_health,
)
from repro.fusion.retention import (
    ObservationStore,
    RetentionPolicy,
    StoredObservation,
)
from repro.geometry import Point
from repro.roadnet.network import RoadNetwork
from repro.roadnet.route import BusRoute, BusStop

pytestmark = pytest.mark.fusion

SESSION = "bus:R1:0"


def make_route(route_id: str = "R1", length: float = 1000.0) -> BusRoute:
    net = RoadNetwork()
    seg_ids = []
    seg_len = length / 2
    for i in range(2):
        sid = f"{route_id}_s{i}"
        net.add_straight_segment(
            sid,
            f"{route_id}_n{i}",
            Point(i * seg_len, 0.0),
            f"{route_id}_n{i + 1}",
            Point((i + 1) * seg_len, 0.0),
        )
        seg_ids.append(sid)
    stops = [
        BusStop(stop_id=f"{route_id}_st0", segment_id=seg_ids[0], offset=0.0),
        BusStop(stop_id=f"{route_id}_st1", segment_id=seg_ids[-1], offset=seg_len),
    ]
    return BusRoute(route_id, net, seg_ids, stops)


def make_orchestrator(routes=None, **config_kwargs) -> FusionOrchestrator:
    orch = FusionOrchestrator(
        routes if routes is not None else {"R1": make_route()},
        config=FusionConfig(**config_kwargs),
    )
    orch.register_beacons("R1", {"b0": 0.0, "b1": 100.0, "b2": 200.0})
    orch.register_cells("R1", {"c0": (0.0, 500.0), "c1": (500.0, 1000.0)})
    return orch


def gps(t: float, x: float, y: float = 0.0, session: str = SESSION) -> GpsObservation:
    return GpsObservation(
        device_id="d", session_key=session, route_id="R1", t=t, x=x, y=y
    )


class TestAnchors:
    def test_fresh_anchor_is_an_exact_passthrough(self):
        orch = make_orchestrator()
        orch.note_wifi_fix(SESSION, "R1", 100.0, 1000.0)
        est = orch.estimate(SESSION, now=1005.0)
        assert est.source == "wifi"
        assert est.arc == 100.0
        assert est.contributors == ("wifi",)
        assert not orch.wifi_degraded(SESSION, now=1005.0)

    def test_anchor_never_moves_backwards_in_time(self):
        orch = make_orchestrator()
        orch.note_wifi_fix(SESSION, "R1", 100.0, 1000.0)
        orch.note_wifi_fix(SESSION, "R1", 50.0, 900.0)  # late arrival
        assert orch.estimate(SESSION, now=1001.0).arc == 100.0

    def test_stale_anchor_without_evidence_falls_back_marked(self):
        orch = make_orchestrator()
        orch.note_wifi_fix(SESSION, "R1", 100.0, 1000.0)
        est = orch.estimate(SESSION, now=1100.0)
        assert est.source == "wifi_stale"
        assert est.arc == 100.0
        assert orch.wifi_degraded(SESSION, now=1100.0)
        assert orch.metrics.counters["fusion.fallback_anchor"] == 1

    def test_unknown_session_estimates_to_none(self):
        assert make_orchestrator().estimate("ghost", now=0.0) is None


class TestObserve:
    def test_gps_stores_and_fuses_when_wifi_is_stale(self):
        orch = make_orchestrator()
        orch.note_wifi_fix(SESSION, "R1", 100.0, 1000.0)
        assert orch.observe(gps(1020.0, x=300.0))
        est = orch.estimate(SESSION, now=1020.0)
        assert est.source == "fused"
        assert est.arc == pytest.approx(300.0, abs=1.0)
        assert any(c.startswith("gps@") for c in est.contributors)

    def test_ble_reduces_to_rssi_weighted_beacon_centroid(self):
        orch = make_orchestrator()
        obs = BleObservation(
            device_id="d",
            session_key=SESSION,
            route_id="R1",
            t=10.0,
            sightings=(
                BeaconSighting(beacon_id="b1", rssi_dbm=0.0),  # at the beacon
                BeaconSighting(beacon_id="b2", rssi_dbm=-100.0),  # far away
            ),
        )
        assert orch.observe(obs)
        est = orch.estimate(SESSION, now=10.0)
        assert est.source == "fused"
        assert 100.0 < est.arc < 150.0  # dominated by the close beacon

    def test_cell_reduces_to_span_midpoint(self):
        orch = make_orchestrator()
        obs = CellObservation(
            device_id="d", session_key=SESSION, route_id="R1", t=10.0, cell_id="c1"
        )
        assert orch.observe(obs)
        assert orch.estimate(SESSION, now=10.0).arc == pytest.approx(750.0)

    def test_session_without_anchor_estimates_on_its_route(self):
        # A session that only ever sent non-WiFi evidence still gets a
        # position: the estimate's route comes from the stored entries.
        orch = make_orchestrator()
        assert orch.observe(gps(10.0, x=300.0))
        est = orch.estimate(SESSION, now=10.0)
        assert est is not None
        assert est.route_id == "R1"
        assert est.source == "fused"
        assert est.arc == pytest.approx(300.0, abs=1.0)

    def test_blend_filters_to_a_single_route(self):
        # Arcs of different routes are incomparable: only the newest
        # entry's route contributes when a session spans routes.
        orch = make_orchestrator({"R1": make_route(), "R2": make_route("R2")})
        assert orch.observe(gps(5.0, x=200.0))
        assert orch.observe(
            GpsObservation(
                device_id="d",
                session_key=SESSION,
                route_id="R2",
                t=10.0,
                x=600.0,
                y=0.0,
            )
        )
        est = orch.estimate(SESSION, now=10.0)
        assert est.route_id == "R2"
        assert est.arc == pytest.approx(600.0, abs=1.0)  # R1's 200 m excluded

    def test_observe_many_counts_stored(self):
        orch = make_orchestrator()
        stored = orch.observe_many(
            [gps(20.0, x=100.0), gps(10.0, x=50.0), gps(15.0, x=900.0, y=999.0)]
        )
        assert stored == 2  # the off-route fix rejects


class TestRejects:
    def test_reasons_are_closed_and_counted(self):
        orch = make_orchestrator()
        wifi = WifiObservation(
            device_id="d", session_key=SESSION, route_id="R1", t=1.0, readings=()
        )
        assert not orch.observe(wifi)  # wifi_kind: must use guarded ingest
        assert not orch.observe(gps(1.0, x=10.0, session="s2").__class__(
            device_id="d", session_key="s2", route_id="R404", t=1.0, x=10.0, y=0.0
        ))  # unknown_route
        assert not orch.observe(gps(2.0, x=10.0, y=400.0))  # off_route
        ble = BleObservation(
            device_id="d",
            session_key=SESSION,
            route_id="R1",
            t=3.0,
            sightings=(BeaconSighting(beacon_id="ghost", rssi_dbm=-1.0),),
        )
        assert not orch.observe(ble)  # unmapped
        counters = orch.metrics.counters
        assert counters["fusion.rejected"] == 4
        for reason in ("wifi_kind", "unknown_route", "off_route", "unmapped"):
            assert reason in INGEST_REASONS
            assert counters[f"fusion.rejected.{reason}"] == 1


class TestCalibration:
    def test_co_observation_learns_clock_skew(self):
        orch = make_orchestrator()
        orch.note_wifi_fix(SESSION, "R1", 100.0, 1000.0)
        # GPS stamped 2.5 s after the anchor, at the anchor's position.
        assert orch.observe(gps(1002.5, x=100.0))
        cal = orch.calibration("gps")
        assert cal.samples == 1
        assert cal.clock_skew_s == pytest.approx(2.5)
        assert cal.noise_m == pytest.approx(0.0)
        # The stored entry's timestamp is mapped back onto the anchor clock.
        assert orch.store.entries(SESSION)[0].t == pytest.approx(1000.0)

    def test_lagging_clock_calibrates_with_negative_skew(self):
        orch = make_orchestrator()
        orch.note_wifi_fix(SESSION, "R1", 100.0, 1000.0)
        # GPS stamped 3 s *before* the anchor, at the anchor's position:
        # the feed's clock lags, and the symmetric window still learns it.
        assert orch.observe(gps(997.0, x=100.0))
        cal = orch.calibration("gps")
        assert cal.samples == 1
        assert cal.clock_skew_s == pytest.approx(-3.0)
        assert cal.noise_m == pytest.approx(0.0)

    def test_travel_between_anchor_and_observation_is_not_noise(self):
        orch = make_orchestrator()
        orch.note_wifi_fix(SESSION, "R1", 100.0, 1000.0)
        orch.note_wifi_fix(SESSION, "R1", 180.0, 1010.0)  # 8 m/s observed
        # 4 s after the anchor the bus really is 32 m further along; a
        # perfect GPS fix there must calibrate as zero noise, not 32 m.
        assert orch.observe(gps(1014.0, x=212.0))
        assert orch.calibration("gps").noise_m == pytest.approx(0.0, abs=1e-9)

    def test_out_of_window_observations_do_not_calibrate(self):
        orch = make_orchestrator(co_window_s=6.0)
        orch.note_wifi_fix(SESSION, "R1", 100.0, 1000.0)
        assert orch.observe(gps(1007.0, x=150.0))  # gap 7 s > window
        assert orch.calibration("gps").samples == 0

    def test_weight_decays_with_age_and_noise(self):
        cal = SourceCalibration(source="gps", noise_m=10.0, trust=1.0)
        assert cal.weight(0.0) > cal.weight(30.0) > cal.weight(300.0)
        noisier = SourceCalibration(source="cell", noise_m=250.0, trust=1.0)
        assert noisier.weight(0.0) < cal.weight(0.0)


class TestBoundedCorrections:
    def test_blend_is_clamped_to_the_drift_cone(self):
        orch = make_orchestrator(max_correction_m=10.0, drift_mps=0.0)
        orch.note_wifi_fix(SESSION, "R1", 100.0, 1000.0)
        assert orch.observe(gps(1020.0, x=900.0))  # wildly ahead of the anchor
        est = orch.estimate(SESSION, now=1020.0)
        assert est.bounded
        assert est.arc == pytest.approx(110.0)  # anchor + max_correction
        assert orch.metrics.counters["fusion.corrections_bounded"] == 1

    def test_cone_grows_with_anchor_age(self):
        orch = make_orchestrator(max_correction_m=10.0, drift_mps=15.0)
        orch.note_wifi_fix(SESSION, "R1", 100.0, 1000.0)
        assert orch.observe(gps(1020.0, x=300.0))
        est = orch.estimate(SESSION, now=1020.0)  # cone = 10 + 15*20 = 310
        assert not est.bounded
        assert est.arc == pytest.approx(300.0, abs=1.0)


class TestRetention:
    def test_expired_evidence_is_pruned_before_fusing(self):
        orch = make_orchestrator(retention=RetentionPolicy(ttl_s=5.0))
        orch.note_wifi_fix(SESSION, "R1", 100.0, 1000.0)
        assert orch.observe(gps(1001.0, x=200.0))
        est = orch.estimate(SESSION, now=1100.0)  # evidence long expired
        assert est.source == "wifi_stale"
        assert orch.metrics.counters["fusion.expired"] >= 1
        assert orch.store.snapshot()["observations"] == 0

    def test_prune_scans_the_whole_ring(self):
        # Per-source skew correction can leave a stale entry *behind* a
        # fresher head; prune must not stop at the first fresh entry.
        store = ObservationStore(RetentionPolicy(ttl_s=10.0))
        store.append(
            "s",
            StoredObservation(
                source="gps", route_id="R1", t=100.0, arc=1.0, quality=1.0
            ),
        )
        store.append(
            "s",
            StoredObservation(
                source="ble", route_id="R1", t=50.0, arc=2.0, quality=1.0
            ),
        )
        assert store.prune("s", now=105.0) == 1
        assert [e.t for e in store.entries("s")] == [100.0]


class TestAuditAndHealth:
    def test_audit_records_every_decision(self):
        orch = make_orchestrator()
        orch.note_wifi_fix(SESSION, "R1", 100.0, 1000.0)
        orch.observe(gps(1002.0, x=110.0))
        orch.observe(gps(1003.0, x=110.0, y=400.0))  # off_route reject
        orch.estimate(SESSION, now=1050.0)
        events = [r.event for r in orch.audit.for_session(SESSION)]
        assert "stored" in events and "rejected" in events and "fused_fix" in events
        seqs = [r.seq for r in orch.audit.recent()]
        assert seqs == sorted(seqs)

    def test_fold_is_key_identical_and_sums(self):
        a = make_orchestrator()
        b = make_orchestrator()
        a.note_wifi_fix(SESSION, "R1", 100.0, 1000.0)
        a.observe(gps(1002.0, x=110.0))
        b.observe(gps(5.0, x=300.0, session="bus:R1:1"))
        folded = fold_fusion_health([a.health(), b.health()])

        def keys(d, prefix=""):
            out = set()
            for k, v in d.items():
                out.add(prefix + k)
                if isinstance(v, dict):
                    out |= keys(v, prefix + k + ".")
            return out

        assert keys(folded) == keys(a.health())
        assert folded["sources"]["gps"]["observations"] == 2
        assert folded["store"]["observations"] == 2
        assert folded["anchors"]["tracked"] == 1
        # a's calibrated skew dominates: b never co-observed
        assert folded["sources"]["gps"]["calibration"]["samples"] == 1

    def test_fold_of_nothing_is_the_empty_shape(self):
        folded = fold_fusion_health([])
        assert folded["fused_fixes"] == 0
        assert folded["anchors"] == {"tracked": 0, "degraded": 0}

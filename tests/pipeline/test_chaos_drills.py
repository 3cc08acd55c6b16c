"""Chaos drills: corrupted streams and failing storage, end to end.

Four drill families, all fed by the deterministic injectors in
:mod:`repro.guard.chaos`:

* **Per-fault exactness** — each stream fault, injected alone at p=1,
  lands in the quarantine under exactly the reason
  :data:`~repro.guard.chaos.REASON_OF_FAULT` promises, one rejection
  per injected fault.
* **Soak** — a mixed-fault corruption of the synthetic city's stream
  through a strict guard: the server never raises, every delivered
  report is either admitted or quarantined, reason counters reconcile
  *exactly* with the injector's fault counts, and per-session positions
  stay within a bound derived from how many reports each session lost.
* **Breaker degradation** — injected fsync failures open the storage
  breaker; ingest continues in memory (loudly counted as degraded), the
  half-open probe recovers, and the final checkpoint heals the reports
  that never reached the WAL.
* **Fault-recovery parity** — a torn write or fsync failure mid-run
  degrades exactly one batch; everything the WAL acknowledged recovers
  byte-identically, and a healing final checkpoint recovers everything.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.guard import GuardConfig, IngestGuard
from repro.guard.chaos import REASON_OF_FAULT, ChaosConfig, ChaosInjector, FaultyFS
from repro.pipeline.durable import DurableServer
from repro.pipeline.replay import recover
from repro.pipeline.wal import read_wal
from repro.radio import Reading
from repro.sensing import ScanReport
from tests.pipeline.conftest import CITY_PARAMS, query_digest, server_digest

pytestmark = [pytest.mark.chaos, pytest.mark.durability]

MOVE_M = CITY_PARAMS["move_m_per_report"]


def build_city():
    from repro.eval.synth_city import build_linear_city

    return build_linear_city(**CITY_PARAMS)


def drill_guard_config(**overrides) -> GuardConfig:
    """The strict profile adapted to the synthetic city's pseudo-RSS.

    Synthetic readings use ``rss = -distance_m`` (so a dBm band would
    falsely reject them) and session timestamps 10 s apart; the band
    still catches the injector's positive-dBm spikes, and a 5 s
    monotonicity window catches single-step reorders.
    """
    base = dict(
        rss_band_dbm=(-1e9, 0.0),
        reject_negative_t=False,
        monotonicity_window_s=5.0,
        rate_per_s=None,
        bssid_screening=False,
    )
    base.update(overrides)
    return GuardConfig.strict(**base)


def clean_stream(n=20, session="bus:1"):
    return [
        ScanReport(
            device_id=f"d{i % 3}",
            session_key=session,
            route_id="r1",
            t=10.0 * i,
            readings=(
                Reading(bssid="a", ssid="a", rss_dbm=-40.0),
                Reading(bssid="b", ssid="b", rss_dbm=-60.0),
            ),
        )
        for i in range(n)
    ]


# -- per-fault exactness ------------------------------------------------------


@pytest.mark.parametrize(
    "fault, chaos",
    [
        ("duplicate", ChaosConfig(duplicate_p=1.0)),
        ("reorder", ChaosConfig(reorder_p=1.0)),
        ("clock_skew", ChaosConfig(clock_skew_p=1.0)),
        ("rss_spike", ChaosConfig(rss_spike_p=1.0, rss_spike_dbm=40.0)),
        ("truncate", ChaosConfig(truncate_p=1.0)),
        ("byzantine", ChaosConfig(byzantine_devices=frozenset({"d1"}))),
    ],
)
def test_each_fault_files_under_its_promised_reason(fault, chaos):
    inj = ChaosInjector(chaos, seed=3)
    delivered = inj.corrupt(clean_stream())
    guard = IngestGuard(
        drill_guard_config(rss_band_dbm=(-110.0, 0.0))
    )
    for report in delivered:
        guard.admit(report)
    assert inj.injected[fault] > 0
    reason = REASON_OF_FAULT[fault]
    assert guard.quarantine.counts == {reason: inj.injected[fault]}
    assert guard.metrics.counter("guard.admitted") == len(delivered) - inj.injected[fault]


def test_drops_leave_no_trace():
    inj = ChaosInjector(ChaosConfig(drop_p=1.0), seed=0)
    delivered = inj.corrupt(clean_stream(8))
    guard = IngestGuard(drill_guard_config())
    for report in delivered:
        guard.admit(report)
    assert inj.injected["drop"] == 7
    assert len(delivered) == 1
    assert guard.metrics.counter("guard.admitted") == 1
    assert guard.metrics.counter("guard.rejected") == 0


# -- the mixed-fault soak -----------------------------------------------------


# More buses and longer sessions than the recovery-parity city: the
# mixed-fault soak needs enough rolls to exercise every fault type.
SOAK_CITY_PARAMS = {**CITY_PARAMS, "sessions_per_route": 4, "reports_per_session": 8}

SOAK_CHAOS = ChaosConfig(
    drop_p=0.08,
    duplicate_p=0.08,
    reorder_p=0.08,
    clock_skew_p=0.06,
    rss_spike_p=0.06,
    rss_spike_dbm=40.0,
    truncate_p=0.06,
    byzantine_devices=frozenset({"dev:R001:1"}),
)


class TestChaosSoak:
    @pytest.fixture(scope="class")
    def soak(self):
        """Corrupted run vs clean twin over the same synthetic city."""
        from repro.eval.synth_city import build_linear_city

        city = build_linear_city(**SOAK_CITY_PARAMS)
        server = city.server
        server.guard = IngestGuard(drill_guard_config(), metrics=server.metrics)
        clean = sorted(city.reports, key=lambda r: r.t)
        inj = ChaosInjector(SOAK_CHAOS, seed=5)
        delivered = inj.corrupt(clean)
        assert all(r.readings for r in clean)  # spike/empty checks stay exact

        admitted_by_session: Counter = Counter()
        for report in delivered:  # delivered order — sorting would undo faults
            before = server.metrics.counter("guard.admitted")
            server.ingest(report)
            if server.metrics.counter("guard.admitted") > before:
                admitted_by_session[report.session_key] += 1

        reference = city.fresh_twin()
        reference.server.ingest_many(clean)
        return city, reference, inj, delivered, admitted_by_session

    def test_every_delivered_report_got_a_verdict(self, soak):
        city, _, inj, delivered, _ = soak
        metrics = city.server.metrics
        admitted = metrics.counter("guard.admitted")
        rejected = metrics.counter("guard.rejected")
        assert admitted + rejected == len(delivered)
        stats = city.server.health()["stats"]
        assert stats["reports_ingested"] == admitted
        assert stats["reports_quarantined"] == rejected

    def test_reason_counters_reconcile_exactly(self, soak):
        city, _, inj, _, _ = soak
        counts = city.server.guard.quarantine.counts
        for fault, reason in REASON_OF_FAULT.items():
            assert counts.get(reason, 0) == inj.injected[fault], (
                f"{fault}: quarantined {counts.get(reason, 0)} != "
                f"injected {inj.injected[fault]}"
            )
        assert sum(counts.values()) == inj.total_injected - inj.injected["drop"]
        # the seed actually exercised the mix
        exercised = {f for f, n in inj.injected.items() if n > 0}
        assert exercised == set(inj.injected)  # the seed hit every fault type

    def test_positions_within_lost_report_bound(self, soak):
        city, reference, _, _, admitted_by_session = soak
        per_session = SOAK_CITY_PARAMS["reports_per_session"]
        compared = 0
        for key, ref_session in reference.server.sessions.items():
            session = city.server.sessions.get(key)
            if session is None:
                # every report of this session was faulted away
                assert admitted_by_session[key] == 0
                continue
            lost = per_session - admitted_by_session[key]
            assert lost >= 0
            ref_last = ref_session.trajectory.last
            got_last = session.trajectory.last
            if ref_last is None or got_last is None:
                continue
            bound = (lost + 1) * MOVE_M
            assert abs(got_last.arc_length - ref_last.arc_length) <= bound, (
                f"{key}: position drifted {abs(got_last.arc_length - ref_last.arc_length):.0f} m "
                f"with only {lost} lost reports (bound {bound:.0f} m)"
            )
            compared += 1
        assert compared >= 2  # the drill must actually compare moving buses

    def test_rider_queries_still_answer(self, soak):
        city, _, _, _, _ = soak
        departures = city.api.departures(city.hub_stop_id, now=city.now)
        positions = city.api.live_positions(now=city.now)
        assert isinstance(departures, list)
        assert positions  # tracked buses survived the corruption


# -- storage breaker: degrade, probe, recover, heal ---------------------------


class TestBreakerDegradation:
    def test_fsync_storm_degrades_then_recovers(self, tmp_path):
        city = build_city()
        fs = FaultyFS()
        fs.schedule_fsync_failures(2)
        durable = DurableServer(
            city.server,
            tmp_path,
            max_batch=4,
            fsync=True,
            breaker_threshold=2,
            breaker_probe_after=8,
            fs=fs,
        )
        reports = sorted(city.reports, key=lambda r: r.t)

        # Batches 1-2 hit the injected fsync failures: the breaker opens.
        for report in reports[:8]:
            assert durable.submit(report)
        assert durable.health()["status"] == "failed"
        assert durable.breaker.snapshot()["state"] == "open"

        # Batches 3-4 are skipped (in-memory only); batch 5 is the
        # half-open probe and succeeds; batch 6 is durable again.
        for report in reports[8:]:
            assert durable.submit(report)
        health = durable.health()
        assert health["status"] == "ok"
        assert health["degraded_reports"] == 16
        assert health["wal"]["flush_failures"] == 2

        m = city.server.metrics
        assert m.counter("breaker.storage.opened") == 1
        assert m.counter("breaker.storage.probes") == 1
        assert m.counter("breaker.storage.recovered") == 1
        assert m.counter("ingest.reports") == 24  # ingest never stopped
        assert fs.pending_faults == 0

        # Only the two post-recovery batches are on disk...
        durable.close(checkpoint=False)
        assert read_wal(durable.data_dir / "wal").salvaged == 8

    def test_final_checkpoint_heals_degraded_reports(self, tmp_path):
        city = build_city()
        fs = FaultyFS()
        fs.schedule_fsync_failures(2)
        with DurableServer(
            city.server,
            tmp_path,
            max_batch=4,
            fsync=True,
            breaker_threshold=2,
            breaker_probe_after=8,
            fs=fs,
        ) as durable:
            for report in sorted(city.reports, key=lambda r: r.t):
                durable.submit(report)
        # close() checkpointed the in-memory state, WAL'd or not
        assert city.server.metrics.counter("checkpoint.writes") == 1

        recovered = city.fresh_twin()
        report = recover(recovered.server, tmp_path)
        assert report.error is None
        assert server_digest(recovered.server) == server_digest(city.server)
        assert query_digest(recovered) == query_digest(city)


# -- fault-recovery parity ----------------------------------------------------


SCHEDULE = {
    "torn_write": lambda fs: fs.schedule_torn_writes(1),
    "fsync_failure": lambda fs: fs.schedule_fsync_failures(1),
}


class TestFaultRecoveryParity:
    def _run(self, tmp_path, schedule, *, final_checkpoint):
        city = build_city()
        fs = FaultyFS()
        durable = DurableServer(
            city.server, tmp_path, max_batch=4, fsync=True, fs=fs
        )
        reports = sorted(city.reports, key=lambda r: r.t)
        for report in reports[:12]:
            durable.submit(report)
        durable.flush()
        SCHEDULE[schedule](fs)
        for report in reports[12:16]:  # exactly this batch loses durability
            durable.submit(report)
        for report in reports[16:]:
            durable.submit(report)
        durable.close(checkpoint=final_checkpoint)

        assert city.server.metrics.counter("ingest.reports") == 24
        assert durable.breaker.snapshot()["state"] == "closed"  # one blip < threshold
        m = city.server.metrics
        assert m.counter("wal.flush_failures") == 1
        assert m.counter("pipeline.degraded_reports") == 4
        return city

    @pytest.mark.parametrize("schedule", sorted(SCHEDULE))
    def test_durable_records_recover_exactly(self, tmp_path, schedule):
        city = self._run(tmp_path, schedule, final_checkpoint=False)

        wal = read_wal(tmp_path / "wal")
        assert wal.salvaged == 20 and not wal.truncated  # dense despite the fault

        recovered = city.fresh_twin()
        report = recover(recovered.server, tmp_path)
        assert report.error is None and report.replayed == 20

        reference = city.fresh_twin()
        reference.server.ingest_many([r.report for r in wal.records])
        assert server_digest(recovered.server) == server_digest(reference.server)
        assert query_digest(recovered) == query_digest(reference)

    @pytest.mark.parametrize("schedule", sorted(SCHEDULE))
    def test_final_checkpoint_recovers_everything(self, tmp_path, schedule):
        city = self._run(tmp_path, schedule, final_checkpoint=True)

        recovered = city.fresh_twin()
        report = recover(recovered.server, tmp_path)
        assert report.error is None
        assert server_digest(recovered.server) == server_digest(city.server)
        assert query_digest(recovered) == query_digest(city)

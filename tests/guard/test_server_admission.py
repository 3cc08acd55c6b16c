"""Admission control wired through the live server."""

import math

from repro.eval.synth_city import build_linear_city
from repro.guard import GuardConfig, IngestGuard
from repro.radio import Reading
from repro.sensing import ScanReport

CITY = dict(
    num_routes=2,
    sessions_per_route=2,
    reports_per_session=6,
    stops_per_route=4,
    segments_per_route=4,
    route_length_m=1000.0,
    hub_every=2,
    aps_per_route=5,
    move_m_per_report=180.0,
)


def bad_report(t=43000.0, readings=()):
    return ScanReport(
        device_id="evil", session_key="bus:x", route_id="R000", t=t,
        readings=readings,
    )


class TestServerAdmission:
    def test_clean_stream_fully_admitted(self):
        city = build_linear_city(**CITY)
        server = city.server
        for r in sorted(city.reports, key=lambda r: r.t):
            server.ingest(r)
        stats = server.health()["stats"]
        assert stats["reports_ingested"] == len(city.reports)
        assert stats["reports_quarantined"] == 0
        assert server.metrics.counter("guard.admitted") == len(city.reports)
        assert server.metrics.latency("admission").count == len(city.reports)
        assert server.metrics.latency("ingest").count == len(city.reports)

    def test_garbage_is_quarantined_not_raised(self):
        city = build_linear_city(**CITY)
        server = city.server
        nan_reading = (Reading(bssid="x", ssid="x", rss_dbm=math.nan),)
        assert server.ingest(bad_report(readings=nan_reading)) is None
        assert server.ingest(bad_report(t=math.inf)) is None
        assert server.ingest(bad_report()) is None  # empty readings
        stats = server.health()["stats"]
        assert stats["reports_quarantined"] == 3
        assert stats["reports_ingested"] == 0
        counts = server.guard.quarantine.counts
        assert counts == {
            "rss_not_finite": 1, "bad_timestamp": 1, "empty_readings": 1,
        }
        assert server.metrics.counter("guard.rejected.rss_not_finite") == 1
        # rejects never touch the ingest histogram
        assert server.metrics.latency("ingest").count == 0

    def test_duplicate_upload_suppressed(self):
        city = build_linear_city(**CITY)
        server = city.server
        reports = sorted(city.reports, key=lambda r: r.t)
        for r in reports:
            server.ingest(r)
        assert server.ingest(reports[-1]) is None  # exact re-upload
        assert server.guard.quarantine.counts == {"duplicate": 1}
        assert server.health()["stats"]["reports_ingested"] == len(reports)

    def test_rate_limiter_throttles_noisy_device(self):
        guard_config = GuardConfig(rate_per_s=1.0, rate_burst=2.0)
        city = build_linear_city(**CITY)
        server = city.server
        server.guard = IngestGuard(guard_config, metrics=server.metrics)
        base = sorted(city.reports, key=lambda r: r.t)[0]
        # 5 distinct uploads from one device at the same instant
        for i in range(5):
            r = ScanReport(
                device_id=base.device_id,
                session_key=base.session_key,
                route_id=base.route_id,
                t=base.t + i * 1e-3,
                readings=base.readings,
            )
            server.ingest(r)
        counts = server.guard.quarantine.counts
        assert counts.get("rate_limited") == 3  # burst of 2 admitted
        assert server.health()["stats"]["reports_ingested"] == 2

    def test_custom_guard_and_config_conflict(self):
        import pytest

        city = build_linear_city(**CITY)
        with pytest.raises(ValueError):
            type(city.server)(
                routes=city.server.routes,
                svds=city.server.svds,
                known_bssids=city.server.known_bssids,
                history=city.server.predictor.history,
                guard=IngestGuard(),
                guard_config=GuardConfig.strict(),
            )

    def test_health_shape(self):
        city = build_linear_city(**CITY)
        server = city.server
        server.ingest(sorted(city.reports, key=lambda r: r.t)[0])
        health = server.health()
        assert health["status"] == "ok"
        assert health["guard"]["admitted"] == 1
        assert health["sessions"]["open"] == 1
        assert "quarantine" in health["guard"]

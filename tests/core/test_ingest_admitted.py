"""Batch-ingest admission accounting: once per report, never twice.

``ingest_many(admitted=True)`` exists for callers whose stream already
passed admission control (WAL replay, a shard applying a committed
batch): re-admitting would corrupt duplicate-suppression state and
double the admission counters.  These tests pin the contract from both
sides — the default batch path admits exactly once per report, and the
pre-admitted path adds nothing on top of the caller's own ``admit``.
"""

import pytest

from repro.eval.synth_city import build_overlap_city


@pytest.fixture()
def city():
    return build_overlap_city(
        num_pairs=1, feeder_sessions=1, query_sessions=1, feeder_reports=4
    )


def admission_counts(server):
    return {
        "admitted": server.metrics.counter("guard.admitted"),
        "checks": server.metrics.latency("admission").count,
        "ingest_observed": server.metrics.latency("ingest").count,
    }


class TestIngestManyAdmission:
    def test_default_batch_admits_exactly_once_per_report(self, city):
        batch = city.fresh_twin()
        batch.server.ingest_many(city.reports)
        counts = admission_counts(batch.server)
        assert counts["admitted"] == len(city.reports)
        assert counts["checks"] == len(city.reports)
        assert counts["ingest_observed"] == len(city.reports)

    def test_batch_matches_per_report_ingest(self, city):
        loop = city.fresh_twin()
        for report in sorted(city.reports, key=lambda r: r.t):
            loop.server.ingest(report)
        batch = city.fresh_twin()
        batch.server.ingest_many(city.reports)
        assert admission_counts(batch.server) == admission_counts(loop.server)
        assert (
            batch.server.health()["stats"]["reports_ingested"]
            == loop.server.health()["stats"]["reports_ingested"]
        )

    def test_preadmitted_batch_never_readmits(self, city):
        twin = city.fresh_twin()
        server = twin.server
        stream = sorted(city.reports, key=lambda r: r.t)
        for report in stream:
            assert server.admit(report)
        before = admission_counts(server)
        assert before["admitted"] == len(city.reports)
        server.ingest_many(stream, admitted=True)
        after = admission_counts(server)
        # Application ran (the histogram observed every report) but the
        # admission counters did not move a second time.
        assert after["admitted"] == before["admitted"]
        assert after["checks"] == before["checks"]
        assert after["ingest_observed"] == len(city.reports)
        assert server.health()["stats"]["reports_ingested"] == len(city.reports)

    def test_readmitting_would_have_been_wrong(self, city):
        """The dedup window rejects a second admission of the same report.

        This is exactly why ``admitted=True`` must skip the guard: a
        replayed batch has, by definition, been admitted before.
        """
        twin = city.fresh_twin()
        server = twin.server
        report = min(city.reports, key=lambda r: r.t)
        assert server.admit(report)
        assert not server.admit(report)  # duplicate-suppressed
        assert server.health()["stats"]["reports_quarantined"] == 1

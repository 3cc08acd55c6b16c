"""Property test: admission is total — any report gets a verdict, never a raise.

The validator fronts a network-facing ingest path, so it must be total
over arbitrary :class:`ScanReport` contents: NaN/inf RSS, huge reading
lists, negative and non-finite timestamps, unhashable garbage — every
input is either admitted or quarantined with a reason from the taxonomy.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.guard import GuardConfig, IngestGuard, REASONS, ReportValidator
from repro.radio import Reading
from repro.sensing import ScanReport

finite_or_weird = st.floats(
    allow_nan=True, allow_infinity=True, width=64
)

readings = st.lists(
    st.builds(
        Reading,
        bssid=st.text(max_size=8),
        ssid=st.text(max_size=8),
        rss_dbm=finite_or_weird,
    ),
    max_size=80,  # crosses the strict profile's 64-reading bound
).map(tuple)

reports = st.builds(
    ScanReport,
    device_id=st.text(max_size=6),
    session_key=st.text(max_size=6),
    route_id=st.text(max_size=6),
    t=finite_or_weird,
    readings=readings,
)

CONFIGS = [GuardConfig(), GuardConfig.strict()]


@settings(max_examples=200, deadline=None)
@given(report=reports, data=st.data())
def test_validator_never_raises(report, data):
    cfg = data.draw(st.sampled_from(CONFIGS))
    v = ReportValidator(cfg)
    decision = v.check(report)
    assert decision.admitted in (True, False)
    if decision.admitted:
        assert decision.reason is None
        v.note_admitted(report)  # state update on garbage must not raise either
        assert v.server_clock is not None and math.isfinite(v.server_clock)
    else:
        assert decision.reason in REASONS


@settings(max_examples=100, deadline=None)
@given(batch=st.lists(reports, max_size=12), data=st.data())
def test_guard_admit_is_total_over_streams(batch, data):
    cfg = data.draw(st.sampled_from(CONFIGS))
    guard = IngestGuard(cfg)
    for report in batch:
        decision = guard.admit(report)
        assert decision.admitted or decision.reason in REASONS
    rejected = guard.metrics.counter("guard.rejected")
    assert guard.metrics.counter("guard.admitted") + rejected == len(batch)
    assert guard.quarantine.total == rejected
    assert sum(guard.quarantine.counts.values()) == rejected

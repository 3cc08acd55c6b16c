"""Admission validation for uploaded scan reports.

The ingest stream is adversarial by construction: crowd-sensed scans
arrive noisy, duplicated, reordered, clock-skewed and occasionally
plain garbage (Section IV.C "AP dynamics" and every server-side WiFi
deployment since).  :class:`ReportValidator` decides, per report,
whether the server may trust it — and *never* raises while deciding:
a malformed report is a verdict, not an exception.

Reason-code taxonomy (the ``guard.rejected.<reason>`` counters and the
quarantine ring speak these):

================== ======================================================
``malformed``       the report broke the validator itself (wrong types)
``bad_timestamp``   non-finite (or, under strict configs, negative) ``t``
``clock_skew``      ``t`` implausibly far from the server clock
``empty_readings``  no APs in the scan — nothing to rank-match
``oversized_readings`` more APs than any real scan produces
``rss_not_finite``  NaN/inf RSS among the readings
``rss_out_of_band`` RSS outside the configured plausible dBm band
``unsorted_readings`` readings not strongest-first (wire contract)
``duplicate``       exact re-upload of an already-admitted report
``out_of_order``    older than the session's admitted frontier - window
``rate_limited``    the device exceeded its token bucket
================== ======================================================

Thresholds live in :class:`GuardConfig`.  The default configuration is
deliberately permissive — structural checks only — because simulation
streams use pseudo-RSS scales (e.g. ``-distance``) that a dBm band would
falsely reject; :meth:`GuardConfig.strict` is the paper-plausible
profile the chaos drills and deployments run with.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass

from repro.sensing.reports import AdmissionDecision, ScanReport

__all__ = [
    "ADMITTED",
    "AdmissionDecision",
    "QUEUE_FULL",
    "SHARD_UNAVAILABLE",
    "GuardConfig",
    "ReportValidator",
    "REASONS",
    "REASON_MALFORMED",
    "REASON_BAD_TIMESTAMP",
    "REASON_CLOCK_SKEW",
    "REASON_EMPTY_READINGS",
    "REASON_OVERSIZED_READINGS",
    "REASON_RSS_NOT_FINITE",
    "REASON_RSS_OUT_OF_BAND",
    "REASON_UNSORTED_READINGS",
    "REASON_DUPLICATE",
    "REASON_OUT_OF_ORDER",
    "REASON_RATE_LIMITED",
]

REASON_MALFORMED = "malformed"
REASON_BAD_TIMESTAMP = "bad_timestamp"
REASON_CLOCK_SKEW = "clock_skew"
REASON_EMPTY_READINGS = "empty_readings"
REASON_OVERSIZED_READINGS = "oversized_readings"
REASON_RSS_NOT_FINITE = "rss_not_finite"
REASON_RSS_OUT_OF_BAND = "rss_out_of_band"
REASON_UNSORTED_READINGS = "unsorted_readings"
REASON_DUPLICATE = "duplicate"
REASON_OUT_OF_ORDER = "out_of_order"
REASON_RATE_LIMITED = "rate_limited"

REASONS: tuple[str, ...] = (
    REASON_MALFORMED,
    REASON_BAD_TIMESTAMP,
    REASON_CLOCK_SKEW,
    REASON_EMPTY_READINGS,
    REASON_OVERSIZED_READINGS,
    REASON_RSS_NOT_FINITE,
    REASON_RSS_OUT_OF_BAND,
    REASON_UNSORTED_READINGS,
    REASON_DUPLICATE,
    REASON_OUT_OF_ORDER,
    REASON_RATE_LIMITED,
)


ADMITTED = AdmissionDecision(True)

#: Verdicts the layers above the guard add: the durable batcher dropped
#: an admitted report (``overflow="drop"``), or the report's shard is
#: down or failing.  Neither is quarantined or counted under ``guard.*``.
QUEUE_FULL = AdmissionDecision(False, "queue_full", "ingest queue full")
SHARD_UNAVAILABLE = AdmissionDecision(
    False, "shard_unavailable", "the report's shard is down or failing"
)


def _reject(reason: str, detail: str = "") -> AdmissionDecision:
    return AdmissionDecision(False, reason, detail)


@dataclass(frozen=True)
class GuardConfig:
    """Thresholds for admission control (``None`` disables a check).

    Parameters
    ----------
    rss_band_dbm:
        ``(lo, hi)`` plausible RSS band; ``None`` checks finiteness only
        (simulation streams use pseudo-RSS scales a dBm band would
        falsely reject).
    max_readings:
        Upper bound on APs per scan; real scans top out in the dozens.
    require_sorted:
        Enforce the strongest-first wire contract of ``ScanReport``.
    reject_negative_t:
        Treat ``t < 0`` as a bad timestamp (strict profile only; some
        simulation clocks legitimately start near zero).
    max_future_skew_s / max_past_skew_s:
        Bound on a report's distance ahead of / behind the server clock
        (the max admitted timestamp — the only clock a deterministic,
        simulation-driven server has).
    monotonicity_window_s:
        Per-session out-of-order tolerance: a report older than the
        session's admitted frontier minus this window is rejected.
    dedup_window:
        How many recently admitted ``(device, session, t)`` keys to
        remember for duplicate suppression (0 disables).
    rate_per_s / rate_burst:
        Per-device token bucket (``rate_per_s=None`` disables).
    max_tracked_devices / max_tracked_sessions:
        LRU bounds on the limiter / monotonicity state, so admission
        memory cannot grow with the number of devices ever seen.
    quarantine_capacity:
        Size of the bounded quarantine ring for rejected reports.
    bssid_screening:
        Whether demoted BSSIDs are actually dropped from reports before
        rank matching.  Off by default: a *moving* bus legitimately
        loses the APs behind it, so naive vanish counting demotes
        healthy infrastructure; AP health is still tracked and reported
        either way.
    flap_threshold / flap_horizon_s / demote_cooldown_s:
        BSSID health: a BSSID that vanished ``flap_threshold`` times
        within ``flap_horizon_s`` is demoted (dropped before rank
        matching when ``bssid_screening`` is on) for
        ``demote_cooldown_s``.
    """

    rss_band_dbm: tuple[float, float] | None = None
    max_readings: int = 512
    require_sorted: bool = True
    reject_negative_t: bool = False
    max_future_skew_s: float | None = None
    max_past_skew_s: float | None = None
    monotonicity_window_s: float | None = None
    dedup_window: int = 4096
    rate_per_s: float | None = None
    rate_burst: float = 60.0
    max_tracked_devices: int = 4096
    max_tracked_sessions: int = 4096
    quarantine_capacity: int = 256
    bssid_screening: bool = False
    flap_threshold: int = 3
    flap_horizon_s: float = 180.0
    demote_cooldown_s: float = 120.0

    @classmethod
    def strict(cls, **overrides) -> "GuardConfig":
        """The paper-plausible deployment profile (chaos drills use this)."""
        base: dict = dict(
            rss_band_dbm=(-110.0, 0.0),
            max_readings=64,
            require_sorted=True,
            reject_negative_t=True,
            max_future_skew_s=600.0,
            max_past_skew_s=6 * 3600.0,
            monotonicity_window_s=30.0,
            dedup_window=4096,
            rate_per_s=2.0,
            rate_burst=30.0,
            bssid_screening=True,
        )
        base.update(overrides)
        return cls(**base)


class ReportValidator:
    """Stateful admission checks; :meth:`check` never raises.

    The validator keeps three bounded pieces of state, all updated only
    when a report is *admitted* (:meth:`note_admitted`): the server
    clock (max admitted timestamp), a per-session admitted-``t``
    frontier for the monotonicity window, and an LRU set of recent
    ``(device, session, t)`` keys for duplicate suppression.
    """

    def __init__(self, config: GuardConfig | None = None) -> None:
        self.config = config or GuardConfig()
        self.server_clock: float | None = None
        self._session_last_t: OrderedDict[str, float] = OrderedDict()
        self._recent: OrderedDict[tuple, None] = OrderedDict()

    # -- checking ------------------------------------------------------------

    def check(self, report: ScanReport) -> AdmissionDecision:
        """Decide one report; pure (no state update), exception-free."""
        try:
            return self._check(report)
        except Exception as exc:  # garbage fields must quarantine, not raise
            return _reject(REASON_MALFORMED, repr(exc))

    def _check(self, report: ScanReport) -> AdmissionDecision:
        cfg = self.config
        t = float(report.t)
        if not math.isfinite(t):
            return _reject(REASON_BAD_TIMESTAMP, f"t={report.t!r}")
        if cfg.reject_negative_t and t < 0.0:
            return _reject(REASON_BAD_TIMESTAMP, f"negative t={t!r}")
        clock = self.server_clock
        if clock is not None:
            if cfg.max_future_skew_s is not None and t > clock + cfg.max_future_skew_s:
                return _reject(
                    REASON_CLOCK_SKEW,
                    f"t={t:.1f} is {t - clock:.1f}s ahead of server clock {clock:.1f}",
                )
            if cfg.max_past_skew_s is not None and t < clock - cfg.max_past_skew_s:
                return _reject(
                    REASON_CLOCK_SKEW,
                    f"t={t:.1f} is {clock - t:.1f}s behind server clock {clock:.1f}",
                )
        readings = report.readings
        n = len(readings)
        if n == 0:
            return _reject(REASON_EMPTY_READINGS)
        if n > cfg.max_readings:
            return _reject(
                REASON_OVERSIZED_READINGS, f"{n} readings > {cfg.max_readings}"
            )
        band = cfg.rss_band_dbm
        prev = math.inf
        sorted_ok = True
        for r in readings:
            rss = float(r.rss_dbm)
            if not math.isfinite(rss):
                return _reject(REASON_RSS_NOT_FINITE, f"{r.bssid}: rss={r.rss_dbm!r}")
            if band is not None and not band[0] <= rss <= band[1]:
                return _reject(
                    REASON_RSS_OUT_OF_BAND,
                    f"{r.bssid}: {rss:.1f} dBm outside [{band[0]}, {band[1]}]",
                )
            if rss > prev:
                sorted_ok = False
            prev = rss
        if cfg.require_sorted and not sorted_ok:
            return _reject(REASON_UNSORTED_READINGS)
        if cfg.dedup_window > 0 and self._dedup_key(report, t) in self._recent:
            return _reject(
                REASON_DUPLICATE,
                f"device={report.device_id!r} session={report.session_key!r} t={t:.3f}",
            )
        if cfg.monotonicity_window_s is not None:
            last = self._session_last_t.get(report.session_key)
            if last is not None and t < last - cfg.monotonicity_window_s:
                return _reject(
                    REASON_OUT_OF_ORDER,
                    f"t={t:.1f} behind session frontier {last:.1f} "
                    f"- window {cfg.monotonicity_window_s:.1f}",
                )
        return ADMITTED

    # -- state ---------------------------------------------------------------

    @staticmethod
    def _dedup_key(report: ScanReport, t: float) -> tuple:
        return (report.device_id, report.session_key, t)

    def note_admitted(self, report: ScanReport) -> None:
        """Advance clock, session frontier and dedup memory (bounded)."""
        cfg = self.config
        t = float(report.t)
        if self.server_clock is None or t > self.server_clock:
            self.server_clock = t
        if cfg.dedup_window > 0:
            recent = self._recent
            recent[self._dedup_key(report, t)] = None
            while len(recent) > cfg.dedup_window:
                recent.popitem(last=False)
        if cfg.monotonicity_window_s is not None:
            frontier = self._session_last_t
            last = frontier.get(report.session_key)
            frontier[report.session_key] = t if last is None else max(last, t)
            frontier.move_to_end(report.session_key)
            while len(frontier) > cfg.max_tracked_sessions:
                frontier.popitem(last=False)

    def snapshot(self) -> dict:
        """Bounded-state sizes, for health reporting."""
        return {
            "server_clock": self.server_clock,
            "tracked_sessions": len(self._session_last_t),
            "dedup_entries": len(self._recent),
        }

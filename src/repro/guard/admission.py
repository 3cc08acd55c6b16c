"""The ingest guard: admission control composed into one front door.

:class:`IngestGuard` is what the server actually talks to.  It wires the
:class:`~repro.guard.validate.ReportValidator`, the per-device
:class:`~repro.guard.ratelimit.DeviceRateLimiter`, the bounded
:class:`~repro.guard.quarantine.QuarantineRing` and the
:class:`~repro.guard.bssid_health.BssidHealthTracker` behind two calls:

* :meth:`admit` — decide one report, record the decision (metrics +
  quarantine), and update admission state on success.  Never raises.
* :meth:`screen_readings` — after routing, feed the AP-health tracker
  and strip demoted BSSIDs before rank matching.

Metrics written (all through the shared :class:`ServerMetrics`):
``guard.admitted``, ``guard.rejected``, ``guard.rejected.<reason>``,
``guard.rate_limited_devices`` is derivable from the reason counters;
``guard.bssid_demotions`` and ``guard.readings_filtered`` track AP
health; ``guard.internal_errors`` counts double faults (quarantine
itself failed); the ``admission`` latency histogram times :meth:`admit`.
All names are declared in :mod:`repro.core.server.metric_names` (WL002).
"""

from __future__ import annotations

from repro.core.server.metrics import ServerMetrics
from repro.guard.bssid_health import BssidHealthTracker
from repro.guard.quarantine import QuarantineRing
from repro.guard.ratelimit import DeviceRateLimiter
from repro.guard.validate import (
    REASON_MALFORMED,
    REASON_RATE_LIMITED,
    AdmissionDecision,
    GuardConfig,
    ReportValidator,
)
from repro.sensing.reports import ScanReport

__all__ = ["IngestGuard"]

_REJECT_MALFORMED = AdmissionDecision(False, REASON_MALFORMED, "guard internal error")


class IngestGuard:
    """Admission control + AP health for one server's ingest stream."""

    def __init__(
        self,
        config: GuardConfig | None = None,
        *,
        metrics: ServerMetrics | None = None,
    ) -> None:
        self.config = config or GuardConfig()
        self.metrics = metrics if metrics is not None else ServerMetrics()
        self.validator = ReportValidator(self.config)
        self.quarantine = QuarantineRing(self.config.quarantine_capacity)
        self.ratelimiter: DeviceRateLimiter | None = None
        if self.config.rate_per_s is not None:
            self.ratelimiter = DeviceRateLimiter(
                rate_per_s=self.config.rate_per_s,
                burst=self.config.rate_burst,
                max_devices=self.config.max_tracked_devices,
            )
        self.bssid_health = BssidHealthTracker(
            flap_threshold=self.config.flap_threshold,
            flap_horizon_s=self.config.flap_horizon_s,
            demote_cooldown_s=self.config.demote_cooldown_s,
            max_tracked_sessions=self.config.max_tracked_sessions,
        )

    # -- admission -----------------------------------------------------------

    def admit(self, report: ScanReport) -> AdmissionDecision:
        """Decide, record and account one report.  Never raises."""
        try:
            with self.metrics.timer("admission"):
                decision = self.validator.check(report)
                if decision and self.ratelimiter is not None:
                    now = float(report.t)
                    if not self.ratelimiter.allow(report.device_id, now):
                        decision = AdmissionDecision(
                            False,
                            REASON_RATE_LIMITED,
                            f"device={report.device_id!r} over "
                            f"{self.config.rate_per_s}/s "
                            f"(burst {self.config.rate_burst})",
                        )
                if decision:
                    self.validator.note_admitted(report)
                    self.metrics.incr("guard.admitted")
                else:
                    self._quarantine(report, decision)
                return decision
        except Exception:  # the guard must never take ingest down with it
            try:
                self._quarantine(report, _REJECT_MALFORMED)
            except Exception:
                # Double fault: even quarantine failed.  The report is lost,
                # but the loss itself must stay countable (WL005).
                self.metrics.incr("guard.internal_errors")
            return _REJECT_MALFORMED

    def _quarantine(self, report: ScanReport, decision: AdmissionDecision) -> None:
        reason = decision.reason or REASON_MALFORMED
        self.quarantine.push(
            report,
            reason,
            decision.detail,
            server_clock=self.validator.server_clock,
        )
        self.metrics.incr("guard.rejected")
        self.metrics.incr(f"guard.rejected.{reason}")

    # -- AP health -----------------------------------------------------------

    def screen_readings(self, report: ScanReport) -> ScanReport:
        """Track AP health for an admitted report; drop demoted BSSIDs.

        Dropping only happens under ``config.bssid_screening`` (the
        strict profile) — health is tracked and reported either way.
        Returns the same object when nothing is filtered.
        """
        newly = self.bssid_health.observe(report)
        if newly:
            self.metrics.incr("guard.bssid_demotions", len(newly))
        if not self.config.bssid_screening or not self.bssid_health.has_demotions():
            return report
        screened = self.bssid_health.filter_report(report)
        if screened is not report:
            self.metrics.incr(
                "guard.readings_filtered",
                len(report.readings) - len(screened.readings),
            )
        return screened

    # -- observability -------------------------------------------------------

    def health(self) -> dict:
        """One nested dict an operator can read at a glance."""
        return {
            "admitted": self.metrics.counter("guard.admitted"),
            "rejected": self.metrics.counter("guard.rejected")
            + self.metrics.counter("guard.internal_errors"),
            "validator": self.validator.snapshot(),
            "ratelimiter": (
                self.ratelimiter.snapshot() if self.ratelimiter is not None else None
            ),
            "quarantine": self.quarantine.snapshot(),
            "bssid_health": self.bssid_health.snapshot(),
        }

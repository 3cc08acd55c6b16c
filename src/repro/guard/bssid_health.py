"""AP/BSSID health tracking: demote flapping access points.

Section IV.C observes that APs appear and vanish — and that a vanished
AP merely coarsens the Signal Voronoi Diagram locally rather than
breaking it.  This module operationalizes that: a BSSID that keeps
*vanishing* from a session's consecutive scans (power cycling, mobile
hotspot, marginal coverage) is demoted for a cooldown, and demoted
BSSIDs are dropped from reports before rank matching — the positioner
then works on the stable subset of the radio environment.

A vanish event is recorded when a BSSID present in a session's previous
scan is absent from its next one.  ``flap_threshold`` vanishes within
``flap_horizon_s`` (across *all* sessions — several buses losing the
same AP is stronger evidence than one) demote the BSSID until the last
event plus ``demote_cooldown_s``.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import replace

from repro.sensing.reports import ScanReport

__all__ = ["BssidHealthTracker"]


class BssidHealthTracker:
    """Sliding-window flap/vanish detector with bounded state."""

    def __init__(
        self,
        *,
        flap_threshold: int = 3,
        flap_horizon_s: float = 180.0,
        demote_cooldown_s: float = 120.0,
        max_tracked_sessions: int = 4096,
        max_tracked_bssids: int = 8192,
    ) -> None:
        if flap_threshold < 1:
            raise ValueError("flap_threshold must be >= 1")
        if flap_horizon_s <= 0 or demote_cooldown_s < 0:
            raise ValueError("horizon must be positive, cooldown non-negative")
        self.flap_threshold = flap_threshold
        self.flap_horizon_s = flap_horizon_s
        self.demote_cooldown_s = demote_cooldown_s
        self.max_tracked_sessions = max_tracked_sessions
        self.max_tracked_bssids = max_tracked_bssids
        self._session_seen: OrderedDict[str, frozenset[str]] = OrderedDict()
        self._vanishes: OrderedDict[str, deque[float]] = OrderedDict()
        self._demoted_until: dict[str, float] = {}

    # -- observation ---------------------------------------------------------

    def observe(self, report: ScanReport) -> list[str]:
        """Record one admitted, routed scan; returns newly demoted BSSIDs."""
        t = report.t
        cur = frozenset(r.bssid for r in report.readings)
        prev = self._session_seen.get(report.session_key)
        newly: list[str] = []
        if prev is not None:
            for bssid in prev - cur:
                if self._note_vanish(bssid, t):
                    newly.append(bssid)
        self._session_seen[report.session_key] = cur
        self._session_seen.move_to_end(report.session_key)
        while len(self._session_seen) > self.max_tracked_sessions:
            self._session_seen.popitem(last=False)
        return newly

    def _note_vanish(self, bssid: str, t: float) -> bool:
        events = self._vanishes.get(bssid)
        if events is None:
            events = self._vanishes[bssid] = deque(maxlen=max(8, self.flap_threshold))
        events.append(t)
        self._vanishes.move_to_end(bssid)
        while len(self._vanishes) > self.max_tracked_bssids:
            evicted, _ = self._vanishes.popitem(last=False)
            self._demoted_until.pop(evicted, None)
        recent = sum(1 for ts in events if ts >= t - self.flap_horizon_s)
        if recent >= self.flap_threshold:
            was = self.is_demoted(bssid, t)
            self._demoted_until[bssid] = t + self.demote_cooldown_s
            return not was
        return False

    # -- queries -------------------------------------------------------------

    def is_demoted(self, bssid: str, t: float) -> bool:
        until = self._demoted_until.get(bssid)
        return until is not None and t <= until

    def has_demotions(self) -> bool:
        """Cheap fast-path test: has anything ever been demoted (and not pruned)?"""
        return bool(self._demoted_until)

    def filter_report(self, report: ScanReport) -> ScanReport:
        """Drop demoted BSSIDs from a report's readings.

        Never empties a report: if every reading would be dropped the
        original report is returned unchanged (a coarse fix beats no
        fix).  Returns the *same* object when nothing is demoted, so the
        clean-stream path stays allocation-free.
        """
        if not self._demoted_until:
            return report
        t = report.t
        kept = tuple(
            r for r in report.readings if not self.is_demoted(r.bssid, t)
        )
        if not kept or len(kept) == len(report.readings):
            return report
        return replace(report, readings=kept)

    def snapshot(self) -> dict:
        return {
            "tracked_sessions": len(self._session_seen),
            "tracked_bssids": len(self._vanishes),
            "demotions_on_record": len(self._demoted_until),
        }

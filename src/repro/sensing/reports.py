"""Scan reports: the messages phones upload to the server.

This is the wire format of the system's only "distributed" link.  A report
carries what Section V.A.2 lists — SSID, BSSID and RSS of every visible AP
plus a timestamp — together with the device id, the *session key* that
groups reports from riders on the same physical bus (the proximity
grouping of Section V.A.1) and the identified route.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.radio.environment import Reading


@dataclass(frozen=True, slots=True)
class ScanReport:
    """One uploaded WiFi scan.

    Attributes
    ----------
    device_id:
        The reporting smartphone.
    session_key:
        Server-side identity of the physical bus the device is riding;
        reports with the same key describe the same vehicle.
    route_id:
        The identified bus route ("" when identification failed).
    t:
        Scan timestamp, absolute simulation seconds.
    readings:
        Visible APs, strongest first.
    """

    device_id: str
    session_key: str
    route_id: str
    t: float
    readings: tuple[Reading, ...] = field(default_factory=tuple)

    @property
    def bssids(self) -> list[str]:
        """BSSIDs in reading order (strongest first)."""
        return [r.bssid for r in self.readings]

    def rss_of(self, bssid: str) -> float | None:
        """RSS of a given AP in this scan, or None if not seen."""
        for r in self.readings:
            if r.bssid == bssid:
                return r.rss_dbm
        return None

    @staticmethod
    def merge(reports: Sequence["ScanReport"]) -> "ScanReport":
        """Fuse same-bus, same-instant reports from several riders.

        Multiple riders on one bus scan almost simultaneously; averaging
        their readings per AP is the paper's "average RSS rank from an AP
        sensed by multiple devices remains relatively stable" observation
        put to work.  The merged report keeps the first report's identity
        fields and the earliest timestamp.

        Raises :class:`ValueError` on an empty sequence or when the
        reports span more than one session key — merging scans of
        *different* buses would fabricate a bus that never existed.
        """
        if not reports:
            raise ValueError("cannot merge zero reports")
        keys = {rep.session_key for rep in reports}
        if len(keys) > 1:
            raise ValueError(
                "cannot merge reports from different sessions: "
                f"{sorted(keys)!r} — merge fuses scans of one physical bus"
            )
        sums: dict[str, list[float]] = {}
        ssids: dict[str, str] = {}
        for rep in reports:
            for r in rep.readings:
                sums.setdefault(r.bssid, []).append(r.rss_dbm)
                ssids.setdefault(r.bssid, r.ssid)
        merged = [
            Reading(bssid=b, ssid=ssids[b], rss_dbm=sum(v) / len(v))
            for b, v in sums.items()
        ]
        merged.sort(key=lambda r: (-r.rss_dbm, r.bssid))
        first = reports[0]
        return ScanReport(
            device_id=first.device_id,
            session_key=first.session_key,
            route_id=first.route_id,
            t=min(rep.t for rep in reports),
            readings=tuple(merged),
        )


@dataclass(frozen=True, slots=True)
class AdmissionDecision:
    """The verdict on one report: admitted, or refused with a reason.

    The guard decides (:mod:`repro.guard.validate` names its reasons);
    every backend's ``ingest_many`` returns one per report, so a caller
    learns each report's fate from return values alone.
    """

    admitted: bool
    reason: str | None = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.admitted

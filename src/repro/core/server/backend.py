"""``ServingBackend`` — the one protocol every deployment shape serves.

Three backends grew the same de-facto surface across PRs 1–4 — the plain
in-memory :class:`~repro.core.server.server.WiLocatorServer`, the
WAL-backed :class:`~repro.pipeline.durable.DurableServer`, and the
sharded :class:`~repro.cluster.router.ClusterRouter` — but with naming
and signature drift (``health()`` payloads disagreed on their common
keys, the plain server had no ``flush``).  The serving front door
(:mod:`repro.serving`) must treat all three as drop-in interchangeable
behind the same wire API, so this module pins the shared surface down as
a typed :class:`typing.Protocol` and the drift is reconciled at the
implementations:

* ``ingest`` returns the position fix when the backend computes one
  synchronously (single server), or the report's
  :class:`~repro.sensing.reports.AdmissionDecision` (durable, cluster)
  — the union return type is the honest intersection;
* ``ingest_many`` returns one ``AdmissionDecision`` per report, in
  timestamp order, on every backend; the front door builds its ack from
  them.  Applying a stream that already passed admission is not part of
  the protocol: the plain server's ``commit`` is the one loop for it
  (WAL recovery and the resharding engine's suffix replay call it on a
  bare :class:`WiLocatorServer`);
* ``flush`` exists everywhere (a plain server simply has nothing
  buffered) so the front door can force batched ingest visible without
  isinstance dispatch;
* ``health()`` payloads share the ``status`` / ``stats`` / ``sessions``
  core on every backend (plus backend-specific sections); ``stats`` is a
  view derived from the counters, never a second ledger;
* ``counters()`` is the one way to read the counter registry whatever
  its layout: a single server's own counters, or for the cluster the
  live shards' totals merged with the router's counters.

The protocol is :func:`~typing.runtime_checkable`, so conformance tests
assert ``isinstance(backend, ServingBackend)`` for all three shapes and
mypy checks the full signatures structurally (see
``repro/serving/_protocol_check.py``).
"""

from __future__ import annotations

from typing import Callable, Iterable, Protocol, Sequence, runtime_checkable

from repro.core.arrival.predictor import ArrivalPrediction
from repro.core.positioning.trajectory import TrajectoryPoint
from repro.core.server.session import BusSession
from repro.core.traffic.map import TrafficMap
from repro.fusion.observations import Observation
from repro.sensing.reports import AdmissionDecision, ScanReport

__all__ = ["ServingBackend", "BACKEND_METHODS", "observation_ack"]

#: The method names the protocol pins down (used by conformance tests).
BACKEND_METHODS: tuple[str, ...] = (
    "ingest",
    "ingest_many",
    "ingest_observations",
    "ingest_rider",
    "flush",
    "predict_arrival",
    "current_position",
    "active_sessions",
    "traffic_map",
    "counters",
    "metrics_snapshot",
    "health",
)


def observation_ack(
    ingest_observation: Callable[[Observation], object],
    observations: Iterable[Observation],
) -> dict[str, int]:
    """Feed a batch to ``ingest_observation`` in timestamp order and
    build the ack :meth:`ServingBackend.ingest_observations` returns."""
    submitted = accepted = 0
    for obs in sorted(observations, key=lambda o: o.t):
        submitted += 1
        if ingest_observation(obs):
            accepted += 1
    return {
        "submitted": submitted,
        "accepted": accepted,
        "rejected": submitted - accepted,
    }


@runtime_checkable
class ServingBackend(Protocol):
    """What a deployment must serve to sit behind the HTTP front door."""

    def ingest(self, report: ScanReport) -> TrajectoryPoint | AdmissionDecision | None:
        """Accept one driver report.

        The plain server returns the new position fix (or ``None``); the
        durable server and the cluster router return the report's
        decision.  Either way, truthiness means "the report took effect".
        """
        ...

    def ingest_many(self, reports: Iterable[ScanReport]) -> list[AdmissionDecision]:
        """Accept a report stream in timestamp order; one decision per
        report, truthy when it was admitted (or parked)."""
        ...

    def ingest_observations(
        self, observations: Iterable[Observation]
    ) -> dict[str, int]:
        """Accept a multi-sensor observation batch in timestamp order.

        WiFi observations take the backend's guarded (and, where it
        exists, durable) report path; BLE/GPS/cell observations feed
        the fusion orchestrator as correction evidence.  Returns the
        shared observation ack ``{"submitted", "accepted", "rejected"}``
        counted from the per-observation results — byte-identical across
        backends on clean input.
        """
        ...

    def ingest_rider(self, report: ScanReport) -> TrajectoryPoint | None:
        """Accept a rider scan whose bus is unknown (proximity grouping)."""
        ...

    def flush(self) -> int:
        """Make any buffered/batched ingest visible; returns reports flushed."""
        ...

    def predict_arrival(
        self, session_key: str, stop_id: str
    ) -> ArrivalPrediction | None:
        """ETA of one tracked bus at one stop; raises ``UnknownStopError``
        when the stop is not on the bus's route."""
        ...

    def current_position(self, session_key: str) -> TrajectoryPoint | None:
        """Latest fix of a tracked bus, or ``None``."""
        ...

    def active_sessions(
        self, *, now: float, timeout_s: float = 300.0
    ) -> list[BusSession]:
        """Sessions still reporting as of ``now``."""
        ...

    def traffic_map(
        self,
        now: float,
        segment_ids: Sequence[str] | None = None,
        *,
        with_anomalies: bool = True,
    ) -> TrafficMap:
        """The current real-time traffic map."""
        ...

    def counters(self) -> dict[str, int]:
        """A fresh ``name -> value`` copy of every ingest/query counter."""
        ...

    def metrics_snapshot(self) -> dict:
        """Counters, latency histograms and backend-specific state."""
        ...

    def health(self) -> dict:
        """Operator-facing health; always carries ``status``, ``stats``
        and ``sessions`` keys."""
        ...

"""The serving application: endpoint table, handlers, SLO accounting.

:class:`ServingApp` is the synchronous heart of the front door — a
``Request -> Response`` dispatcher that any
:class:`~repro.core.server.backend.ServingBackend` (plain, durable or
sharded cluster) plugs into via :func:`make_app`.  The HTTP shell in
:mod:`repro.serving.http` is byte framing only; everything observable —
routing, the closed error taxonomy, per-endpoint latency SLOs — lives
here and is exercised socket-free by the conformance suite.

Identical responses across backends
-----------------------------------
Every backend's ``ingest_many`` returns one
:class:`~repro.sensing.reports.AdmissionDecision` per report, so the
ingest ack ``{"submitted": n, "accepted": admitted}`` and the choice of
error (503 when every report met an impaired shard, 429 when the ingest
queue dropped, 422 otherwise) come from return values alone.  On the
same traffic all three backends therefore produce byte-identical acks.

Endpoints
---------
=========================  ====  ========================================
path                       verb  backend call
=========================  ====  ========================================
``/v1/scans``              POST  ``ingest_many`` + ``flush`` (driver)
``/v1/rider-scans``        POST  ``ingest_rider`` per report
``/v1/observations``       POST  adapter-normalized multi-sensor batch
                                 via ``ingest_observations`` + ``flush``
``/v1/departures``         GET   departures board for one stop
``/v1/trip-plan``          GET   direct ride options between two stops
``/v1/positions``          GET   all live bus positions
``/v1/position``           GET   ``current_position`` of one session
``/v1/arrival``            GET   ``predict_arrival`` for session + stop
``/v1/sessions``           GET   ``active_sessions`` summaries
``/v1/traffic-map``        GET   ``traffic_map``
``/v1/models``             GET   model lifecycle status (serving version,
                                 shadow scores, drift alarms)
``/health``                GET   ``health`` (503 unless status is ok)
``/metrics``               GET   serving + backend metric snapshots
=========================  ====  ========================================

With a :class:`~repro.lifecycle.manager.LifecycleManager` attached
(``make_app(..., lifecycle=manager)``), ``/v1/models`` reports the full
lifecycle status and every ``/v1/arrival`` query is *mirrored* to the
shadow candidate — computed and discarded, never returned to the rider.
Without one, ``/v1/models`` still answers from the backend's health
(the serving model version), byte-identically across backends.

Query endpoints take their clock as a ``now`` query parameter — the same
keyword-only-clock rule as the in-process API.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping, Protocol

from repro.core.server.api import (
    LivePositions,
    PositionRow,
    RiderAPI,
    UnknownStopError,
)
from repro.core.server.backend import ServingBackend
from repro.core.server.metrics import ServerMetrics
from repro.fusion.adapters import normalize_payload
from repro.fusion.observations import Observation
from repro.guard.validate import QUEUE_FULL, SHARD_UNAVAILABLE
from repro.pipeline.wal import report_from_dict
from repro.radio.environment import Reading
from repro.sensing.reports import ScanReport
from repro.serving.errors import WireError, WireErrorCode
from repro.serving.http import Request, Response, canonical_json
from repro.serving.wire import summarize_session, to_wire

if TYPE_CHECKING:
    from repro.lifecycle.manager import LifecycleManager

__all__ = ["Endpoint", "ENDPOINTS", "ServingApp", "make_app", "QuerySurface"]


@dataclass(frozen=True, slots=True)
class Endpoint:
    """One routed endpoint: verb, path, metric stage, latency SLO."""

    name: str
    method: str
    path: str
    stage: str
    slo_s: float


# The stage strings are exact names declared in
# repro.core.server.metric_names.METRIC_NAMES (checked by a unit test).
ENDPOINTS: tuple[Endpoint, ...] = (
    Endpoint("scans", "POST", "/v1/scans", "serving.scans", 0.250),
    Endpoint(
        "rider_scans", "POST", "/v1/rider-scans", "serving.rider_scans", 0.250
    ),
    Endpoint(
        "observations",
        "POST",
        "/v1/observations",
        "serving.observations",
        0.250,
    ),
    Endpoint(
        "departures", "GET", "/v1/departures", "serving.departures", 0.100
    ),
    Endpoint("trip_plan", "GET", "/v1/trip-plan", "serving.trip_plan", 0.100),
    Endpoint("positions", "GET", "/v1/positions", "serving.positions", 0.100),
    Endpoint("position", "GET", "/v1/position", "serving.position", 0.100),
    Endpoint("arrival", "GET", "/v1/arrival", "serving.arrival", 0.100),
    Endpoint("sessions", "GET", "/v1/sessions", "serving.sessions", 0.100),
    Endpoint(
        "traffic_map", "GET", "/v1/traffic-map", "serving.traffic_map", 0.100
    ),
    Endpoint("models", "GET", "/v1/models", "serving.models", 0.100),
    Endpoint("health", "GET", "/health", "serving.health", 0.100),
    Endpoint("metrics", "GET", "/metrics", "serving.metrics", 0.100),
)


class QuerySurface(Protocol):
    """The rider-query trio every deployment shape answers."""

    def departures(self, stop_id, *, now, max_entries=10): ...

    def plan_trip(self, from_stop_id, to_stop_id, *, now): ...

    def live_positions(self, *, now): ...


def _require_float(
    query: Mapping[str, str], key: str, default: str | None = None
) -> float:
    """A finite number (``nan`` and ``inf`` are not clocks or windows)."""
    raw = query.get(key, default)
    if raw is None:
        raise WireError(
            WireErrorCode.BAD_REQUEST, f"missing query parameter {key!r}"
        )
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise WireError(
            WireErrorCode.BAD_REQUEST,
            f"query parameter {key!r} must be a finite number, got {raw!r}",
        )
    return value


def _require_count(query: Mapping[str, str], key: str, default: str) -> int:
    """An integer >= 0."""
    raw = query.get(key, default)
    try:
        value = int(raw)
    except ValueError:
        value = -1
    if value < 0:
        raise WireError(
            WireErrorCode.BAD_REQUEST,
            f"query parameter {key!r} must be an integer >= 0, got {raw!r}",
        )
    return value


def _require_str(query: Mapping[str, str], key: str) -> str:
    value = query.get(key, "")
    if not value:
        raise WireError(
            WireErrorCode.BAD_REQUEST, f"missing query parameter {key!r}"
        )
    return value


def _encode_row(row: PositionRow) -> str:
    """Fill a row's empty wire slot with its ``"key":{...}`` member."""
    row.wire = canonical_json(row.key) + ":" + canonical_json(to_wire(row.position))
    return row.wire


class ServingApp:
    """Routes requests on one :class:`ServingBackend`; fully synchronous."""

    def __init__(
        self,
        backend: ServingBackend,
        queries: QuerySurface,
        *,
        slos: Mapping[str, float] | None = None,
        metrics: ServerMetrics | None = None,
        lifecycle: "LifecycleManager | None" = None,
    ) -> None:
        self.backend = backend
        self.queries = queries
        self.lifecycle = lifecycle
        self.metrics = metrics if metrics is not None else ServerMetrics()
        overrides = dict(slos or {})
        self.endpoints: dict[str, dict[str, Endpoint]] = {}
        self.slo_s: dict[str, float] = {}
        for ep in ENDPOINTS:
            self.endpoints.setdefault(ep.path, {})[ep.method] = ep
            self.slo_s[ep.name] = overrides.get(ep.name, ep.slo_s)
        self._handlers: dict[str, Callable[[Request], Response]] = {
            "scans": self._h_scans,
            "rider_scans": self._h_rider_scans,
            "observations": self._h_observations,
            "departures": self._h_departures,
            "trip_plan": self._h_trip_plan,
            "positions": self._h_positions,
            "position": self._h_position,
            "arrival": self._h_arrival,
            "sessions": self._h_sessions,
            "traffic_map": self._h_traffic_map,
            "models": self._h_models,
            "health": self._h_health,
            "metrics": self._h_metrics,
        }

    # -- dispatch -------------------------------------------------------------

    def dispatch(self, request: Request) -> Response:
        """Route one request; never raises, never returns a bare 500."""
        self.metrics.incr("serving.requests")
        methods = self.endpoints.get(request.path)
        if methods is None:
            return self._error(
                WireError(
                    WireErrorCode.NOT_FOUND,
                    f"no such path {request.path!r}",
                )
            )
        ep = methods.get(request.method)
        if ep is None:
            return self._error(
                WireError(
                    WireErrorCode.BAD_REQUEST,
                    f"{request.method} not allowed on {request.path!r}",
                    allowed=sorted(methods),
                )
            )
        t0 = time.perf_counter()
        try:
            response = self._handlers[ep.name](request)
        except WireError as err:
            response = self._error(err)
        except UnknownStopError as exc:
            response = self._error(
                WireError(WireErrorCode.UNKNOWN_STOP, str(exc.args[0]))
            )
        except Exception as exc:  # noqa: BLE001 - the no-bare-500 guarantee
            response = self._error(
                WireError(
                    WireErrorCode.INTERNAL,
                    f"unhandled {type(exc).__name__} in {ep.name!r}",
                )
            )
        finally:
            dt = time.perf_counter() - t0
            self.metrics.observe(ep.stage, dt)
            if dt > self.slo_s[ep.name]:
                self.metrics.incr("serving.slo_violations")
                self.metrics.incr(f"serving.slo.{ep.name}")
        return response

    def _error(self, err: WireError) -> Response:
        self.metrics.incr("serving.errors")
        self.metrics.incr(f"serving.errors.{err.code.value}")
        return Response(err.status, err.body())

    # -- ingest ---------------------------------------------------------------

    def _parse_reports(self, request: Request) -> list[ScanReport]:
        data = request.json()
        if not isinstance(data, dict) or not isinstance(
            data.get("reports"), list
        ):
            raise WireError(
                WireErrorCode.BAD_REQUEST,
                'ingest body must be {"reports": [...]}',
            )
        items = data["reports"]
        if not items:
            raise WireError(WireErrorCode.BAD_REQUEST, "empty reports list")
        # Hot path: inlined WAL-dialect decode (report_from_dict per item
        # costs ~2x on large batches).  On any malformation, fall back to
        # the strict decoder per item just to name the failing index.
        try:
            return [
                ScanReport(
                    item["device"],
                    item["session"],
                    item["route"],
                    float(item["t"]),
                    tuple(
                        Reading(b, s, rss) for b, s, rss in item["readings"]
                    ),
                )
                for item in items
            ]
        except (KeyError, TypeError, ValueError):
            pass
        for i, item in enumerate(items):
            try:
                report_from_dict(item)
            except (KeyError, TypeError, ValueError) as exc:
                raise WireError(
                    WireErrorCode.BAD_REQUEST,
                    f"reports[{i}] is not a scan report: {exc}",
                    index=i,
                ) from None
        raise WireError(  # pragma: no cover - fast/strict decoder drift
            WireErrorCode.BAD_REQUEST, "reports failed to decode"
        )

    def _h_scans(self, request: Request) -> Response:
        reports = self._parse_reports(request)
        try:
            decisions = self.backend.ingest_many(reports)
            self.backend.flush()
        except ValueError as exc:
            raise WireError(WireErrorCode.UNAVAILABLE, str(exc)) from None
        accepted = sum(1 for decision in decisions if decision)
        if accepted == 0:
            if all(d == SHARD_UNAVAILABLE for d in decisions):
                health = self.backend.health()
                if health.get("status") != "ok":
                    raise WireError(
                        WireErrorCode.UNAVAILABLE,
                        "cluster refused the batch (shards impaired)",
                        submitted=len(reports),
                    )
            if QUEUE_FULL in decisions:
                raise WireError(
                    WireErrorCode.RATE_LIMITED,
                    "ingest queue full, retry later",
                    submitted=len(reports),
                )
            raise WireError(
                WireErrorCode.REJECTED,
                "admission control rejected every report",
                submitted=len(reports),
            )
        return Response(
            200, {"submitted": len(reports), "accepted": accepted}
        )

    def _h_observations(self, request: Request) -> Response:
        """Multi-sensor ingest: normalize every item, then one backend batch.

        Normalization rejects are reason-coded per item (never a raised
        parse error — the adapters are total); a batch where *nothing*
        normalized is a 422 naming the first failing index, mirroring
        ``/v1/scans``.  The ack adds a ``rejected`` field because
        observations reject at two stages (adapter and orchestrator);
        ``ingest_observations`` returns the same counter dict on every
        backend, so acks stay byte-identical across deployment shapes.
        """
        data = request.json()
        if not isinstance(data, dict) or not isinstance(
            data.get("observations"), list
        ):
            raise WireError(
                WireErrorCode.BAD_REQUEST,
                'ingest body must be {"observations": [...]}',
            )
        items = data["observations"]
        if not items:
            raise WireError(
                WireErrorCode.BAD_REQUEST, "empty observations list"
            )
        observations: list[Observation] = []
        first_failure: tuple[int, str, str] | None = None
        for i, item in enumerate(items):
            result = normalize_payload(item)
            if result.observation is not None:
                observations.append(result.observation)
            elif first_failure is None:
                first_failure = (i, result.reason or "malformed", result.detail)
        if not observations:
            assert first_failure is not None  # items is non-empty
            i, reason, detail = first_failure
            raise WireError(
                WireErrorCode.REJECTED,
                f"observations[{i}] rejected: {reason} ({detail})"
                if detail
                else f"observations[{i}] rejected: {reason}",
                submitted=len(items),
            )
        try:
            ack = self.backend.ingest_observations(observations)
            self.backend.flush()
        except ValueError as exc:
            raise WireError(WireErrorCode.UNAVAILABLE, str(exc)) from None
        return Response(
            200,
            {
                "submitted": len(items),
                "accepted": ack["accepted"],
                "rejected": (len(items) - len(observations)) + ack["rejected"],
            },
        )

    def _h_rider_scans(self, request: Request) -> Response:
        reports = self._parse_reports(request)
        matched = 0
        try:
            for report in reports:
                if self.backend.ingest_rider(report) is not None:
                    matched += 1
            self.backend.flush()
        except ValueError as exc:
            raise WireError(WireErrorCode.UNAVAILABLE, str(exc)) from None
        return Response(
            200, {"submitted": len(reports), "matched": matched}
        )

    # -- rider queries --------------------------------------------------------

    def _h_departures(self, request: Request) -> Response:
        stop = _require_str(request.query, "stop")
        now = _require_float(request.query, "now")
        limit = _require_count(request.query, "limit", "10")
        entries = self.queries.departures(stop, now=now, max_entries=limit)
        return Response(
            200, {"departures": [to_wire(e) for e in entries]}
        )

    def _h_trip_plan(self, request: Request) -> Response:
        from_stop = _require_str(request.query, "from")
        to_stop = _require_str(request.query, "to")
        now = _require_float(request.query, "now")
        options = self.queries.plan_trip(from_stop, to_stop, now=now)
        return Response(200, {"options": [to_wire(o) for o in options]})

    def _h_positions(self, request: Request) -> Response:
        now = _require_float(request.query, "now")
        rows = LivePositions.of(self.queries.live_positions(now=now)).rows
        # Each row's ``"key":{...}`` member is encoded once, into the
        # row's wire slot; the board keeps a row until its bus moves.
        members = [row.wire or _encode_row(row) for row in rows]
        body = '{"positions":{' + ",".join(members) + "}}"
        return Response(200, encoded=body.encode("utf-8"))

    def _h_position(self, request: Request) -> Response:
        session = _require_str(request.query, "session")
        point = self.backend.current_position(session)
        if point is None:
            raise WireError(
                WireErrorCode.NOT_FOUND,
                f"no tracked position for session {session!r}",
            )
        return Response(200, {"position": to_wire(point)})

    def _h_arrival(self, request: Request) -> Response:
        session = _require_str(request.query, "session")
        stop = _require_str(request.query, "stop")
        if self.lifecycle is not None:
            # Shadow the query against the candidate model (computed and
            # discarded — the rider only ever sees the serving answer).
            self.lifecycle.mirror_arrival(session, stop)
        try:
            prediction = self.backend.predict_arrival(session, stop)
        except UnknownStopError:
            raise
        except KeyError as exc:
            raise WireError(
                WireErrorCode.NOT_FOUND, f"unknown session or stop: {exc}"
            ) from None
        if prediction is None:
            raise WireError(
                WireErrorCode.NOT_FOUND,
                f"no prediction for session {session!r} at stop {stop!r}",
            )
        return Response(200, {"arrival": to_wire(prediction)})

    def _h_sessions(self, request: Request) -> Response:
        now = _require_float(request.query, "now")
        timeout = _require_float(request.query, "timeout", "300")
        sessions = self.backend.active_sessions(now=now, timeout_s=timeout)
        return Response(
            200,
            {
                "sessions": [
                    to_wire(summarize_session(s))
                    for s in sorted(sessions, key=lambda s: s.session_key)
                ]
            },
        )

    def _h_traffic_map(self, request: Request) -> Response:
        now = _require_float(request.query, "now")
        return Response(
            200, {"traffic_map": to_wire(self.backend.traffic_map(now))}
        )

    def _h_models(self, request: Request) -> Response:
        if self.lifecycle is not None:
            return Response(
                200, {"models": {"managed": True, **self.lifecycle.status()}}
            )
        # Unmanaged deployments still answer: the serving model version
        # travels in every backend's health payload.
        lifecycle = self.backend.health().get("lifecycle", {})
        return Response(
            200,
            {
                "models": {
                    "managed": False,
                    "serving": {
                        "version": lifecycle.get("model_version", "offline")
                    },
                }
            },
        )

    # -- operations -----------------------------------------------------------

    def _h_health(self, request: Request) -> Response:
        health = self.backend.health()
        status = 200 if health.get("status") == "ok" else 503
        return Response(status, {"health": health})

    def _h_metrics(self, request: Request) -> Response:
        return Response(
            200,
            {
                "serving": self.metrics.snapshot(),
                "backend": self.backend.metrics_snapshot(),
            },
        )


def _query_surface(backend: Any) -> QuerySurface:
    """Pick the query implementation for a backend's deployment shape.

    The cluster router answers rider queries itself (scatter-gather with
    deterministic merge); a durable server exposes its wrapped in-memory
    server; a plain server is queried through :class:`RiderAPI` directly.
    """
    if hasattr(backend, "departures") and hasattr(backend, "plan_trip"):
        return backend
    inner = getattr(backend, "server", backend)
    return RiderAPI(inner)


def make_app(
    backend: ServingBackend,
    *,
    slos: Mapping[str, float] | None = None,
    lifecycle: "LifecycleManager | None" = None,
) -> ServingApp:
    """Wire a :class:`ServingApp` over any backend deployment shape.

    Pass a :class:`~repro.lifecycle.manager.LifecycleManager` to expose
    the full lifecycle status on ``/v1/models`` and mirror rider arrival
    queries to the shadow candidate.
    """
    return ServingApp(
        backend, _query_surface(backend), slos=slos, lifecycle=lifecycle
    )

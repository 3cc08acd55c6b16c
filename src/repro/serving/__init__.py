"""The HTTP serving front door (stdlib asyncio, no frameworks).

``repro.serving`` turns any
:class:`~repro.core.server.backend.ServingBackend` — a plain
:class:`~repro.core.server.WiLocatorServer`, a durable
:class:`~repro.pipeline.durable.DurableServer`, or a sharded
:class:`~repro.cluster.router.ClusterRouter` — into a JSON HTTP service:

* :mod:`repro.serving.app` — endpoint table, handlers, SLO accounting;
* :mod:`repro.serving.http` — hand-rolled HTTP/1.1 over asyncio;
* :mod:`repro.serving.wire` — the one ``to_wire``/``from_wire`` codec;
* :mod:`repro.serving.errors` — the closed wire-error taxonomy;
* :mod:`repro.serving.loadgen` — the latency percentile the end-to-end
  benchmark (``perfbench/run.py``) reports.

Start one from the CLI: ``python -m repro.cli serve``.
"""

from repro.serving.app import ENDPOINTS, Endpoint, ServingApp, make_app
from repro.serving.errors import HTTP_STATUS_OF, WireError, WireErrorCode
from repro.serving.http import HttpServer, Request, Response, parse_request
from repro.serving.session_summary import SessionSummary
from repro.serving.wire import WIRE_KINDS, from_wire, summarize_session, to_wire

__all__ = [
    "ServingApp",
    "make_app",
    "Endpoint",
    "ENDPOINTS",
    "HttpServer",
    "Request",
    "Response",
    "parse_request",
    "WireError",
    "WireErrorCode",
    "HTTP_STATUS_OF",
    "SessionSummary",
    "to_wire",
    "from_wire",
    "summarize_session",
    "WIRE_KINDS",
]

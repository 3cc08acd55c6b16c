"""One request stream, three backends, byte-identical responses.

The API-surface contract of this PR: a client cannot tell whether it is
talking to the plain in-memory server, the durable pipeline or the
4-shard cluster.  The same ordered request list is driven through
``HttpServer.handle_bytes`` (the exact production dispatch path, no
socket) against all three, and every deterministic response — ingest
acks, rider queries, the whole error taxonomy — must match to the byte.
``/health`` and ``/metrics`` legitimately differ per deployment shape
and are checked structurally instead.
"""

from __future__ import annotations

import json

import pytest

from repro.pipeline.wal import report_to_dict
from repro.serving import HttpServer, make_app

from tests.serving.conftest import http_request, parse_response

pytestmark = pytest.mark.serving


def _scan_body(reports) -> bytes:
    payload = {"reports": [report_to_dict(r) for r in reports]}
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


#: label -> request path whose query parameter (the label's prefix) is
#: malformed; ``{now}`` is a valid clock.
_BAD_PARAMETERS: dict[str, str] = {
    "limit_not_a_number": "/v1/departures?stop=HUB&now={now}&limit=abc",
    "limit_negative": "/v1/departures?stop=HUB&now={now}&limit=-1",
    "limit_fraction": "/v1/departures?stop=HUB&now={now}&limit=1.5",
    "now_nan": "/v1/departures?stop=HUB&now=nan&limit=10",
    "now_infinite": "/v1/positions?now=inf",
    "now_negative_infinite": "/v1/trip-plan?from=HUB&to=HUB&now=-inf",
    "now_not_a_number": "/v1/traffic-map?now=soon",
    "timeout_not_a_number": "/v1/sessions?now={now}&timeout=x",
    "timeout_nan": "/v1/sessions?now={now}&timeout=nan",
}


def _conformance_requests(city) -> list[tuple[str, bytes]]:
    """The ordered (label, raw bytes) stream every backend must answer."""
    ingest = _scan_body(city.reports)
    session = city.reports[0].session_key
    route = city.reports[0].route_id
    last_stop = city.stop_id_on(route, len(city.routes[route].stops) - 1)
    # The hub sits mid-route; buses approaching it can still be boarded
    # there and ridden one stop onward, so hub -> next stop has options.
    ride_to = city.stop_id_on(city.hub_route_ids[0], 4)
    now = city.now
    bad = {
        label: path.replace("HUB", city.hub_stop_id).format(now=now)
        for label, path in _BAD_PARAMETERS.items()
    }
    return [
        ("ingest", http_request("POST", "/v1/scans", ingest)),
        (
            "departures",
            http_request(
                "GET",
                f"/v1/departures?stop={city.hub_stop_id}&now={now}&limit=10",
            ),
        ),
        (
            "trip_plan",
            http_request(
                "GET",
                f"/v1/trip-plan?from={city.hub_stop_id}&to={ride_to}&now={now}",
            ),
        ),
        ("positions", http_request("GET", f"/v1/positions?now={now}")),
        (
            "position",
            http_request("GET", f"/v1/position?session={session}"),
        ),
        (
            "arrival",
            http_request(
                "GET", f"/v1/arrival?session={session}&stop={last_stop}"
            ),
        ),
        ("sessions", http_request("GET", f"/v1/sessions?now={now}")),
        ("traffic_map", http_request("GET", f"/v1/traffic-map?now={now}")),
        # -- the error taxonomy, one probe per observable failure --------
        (
            "unknown_stop",
            http_request("GET", f"/v1/departures?stop=nope&now={now}"),
        ),
        (
            "position_not_found",
            http_request("GET", "/v1/position?session=zz"),
        ),
        (
            "arrival_not_found",
            http_request("GET", f"/v1/arrival?session=zz&stop={last_stop}"),
        ),
        ("path_not_found", http_request("GET", "/v1/nope")),
        ("method_not_allowed", http_request("DELETE", "/v1/scans")),
        (
            "malformed_json",
            http_request("POST", "/v1/scans", b"{not json"),
        ),
        (
            "empty_reports",
            http_request("POST", "/v1/scans", b'{"reports":[]}'),
        ),
        (
            "missing_now",
            http_request("GET", f"/v1/departures?stop={city.hub_stop_id}"),
        ),
        # Query parameters: a clock and a window are finite numbers, a
        # limit an integer >= 0; anything else is the caller's 422.
        *[
            (label, http_request("GET", path))
            for label, path in bad.items()
        ],
        (
            "zero_limit",
            http_request(
                "GET",
                f"/v1/departures?stop={city.hub_stop_id}&now={now}&limit=0",
            ),
        ),
        # Re-posting the whole stream: admission control's duplicate
        # suppression rejects every report -> the 422 "rejected" path.
        ("duplicate_ingest", http_request("POST", "/v1/scans", ingest)),
    ]


@pytest.fixture()
def answers(city, trio):
    """label -> {backend name -> raw response bytes} for the full stream."""
    requests = _conformance_requests(city)
    out: dict[str, dict[str, bytes]] = {label: {} for label, _ in requests}
    for name, backend in trio.items():
        server = HttpServer(make_app(backend).dispatch)
        for label, raw in requests:
            out[label][name] = server.handle_bytes(raw)
    return out


class TestByteIdenticalResponses:
    def test_every_deterministic_response_is_identical(self, answers):
        for label, by_backend in answers.items():
            distinct = set(by_backend.values())
            assert len(distinct) == 1, (
                f"{label!r} diverges across backends: "
                + " / ".join(
                    f"{name}={raw[:120]!r}"
                    for name, raw in sorted(by_backend.items())
                )
            )

    def test_ingest_ack_accepts_everything_once(self, city, answers):
        status, body = parse_response(answers["ingest"]["plain"])
        assert status == 200
        assert body == {
            "submitted": len(city.reports),
            "accepted": len(city.reports),
        }

    def test_queries_return_live_payloads(self, answers):
        for label, key in [
            ("departures", "departures"),
            ("trip_plan", "options"),
            ("positions", "positions"),
            ("sessions", "sessions"),
        ]:
            status, body = parse_response(answers[label]["plain"])
            assert status == 200, label
            assert body[key], f"{label} came back empty"

    def test_error_statuses_match_the_frozen_taxonomy(self, answers):
        expected = {
            "unknown_stop": (404, "unknown_stop"),
            "position_not_found": (404, "not_found"),
            "arrival_not_found": (404, "not_found"),
            "path_not_found": (404, "not_found"),
            "method_not_allowed": (422, "bad_request"),
            "malformed_json": (422, "bad_request"),
            "empty_reports": (422, "bad_request"),
            "missing_now": (422, "bad_request"),
            "duplicate_ingest": (422, "rejected"),
        }
        for label, (status, code) in expected.items():
            got_status, body = parse_response(answers[label]["plain"])
            assert got_status == status, label
            assert body["error"]["code"] == code, label

    def test_malformed_query_parameters_are_named_422s(self, answers):
        for label in _BAD_PARAMETERS:
            status, body = parse_response(answers[label]["plain"])
            assert status == 422, label
            assert body["error"]["code"] == "bad_request", label
            parameter = label.split("_", 1)[0]
            assert f"query parameter {parameter!r}" in body["error"]["message"], label
        status, body = parse_response(answers["zero_limit"]["plain"])
        assert (status, body) == (200, {"departures": []})

    def test_never_a_bare_500(self, answers):
        for label, by_backend in answers.items():
            for name, raw in by_backend.items():
                assert not raw.startswith(b"HTTP/1.1 5"), (label, name)
                status, body = parse_response(raw)
                if status != 200:
                    assert "error" in body, (label, name)


class TestStructuralEndpoints:
    """/health and /metrics differ per deployment shape by design."""

    def test_health_is_ok_on_every_backend(self, trio):
        for name, backend in trio.items():
            server = HttpServer(make_app(backend).dispatch)
            status, body = parse_response(
                server.handle_bytes(http_request("GET", "/health"))
            )
            assert status == 200, name
            assert body["health"]["status"] == "ok", name

    def test_metrics_carry_both_planes(self, city, trio):
        for name, backend in trio.items():
            server = HttpServer(make_app(backend).dispatch)
            server.handle_bytes(
                http_request("POST", "/v1/scans", _scan_body(city.reports))
            )
            status, body = parse_response(
                server.handle_bytes(http_request("GET", "/metrics"))
            )
            assert status == 200, name
            assert body["serving"]["counters"]["serving.requests"] == 2, name
            assert "backend" in body, name

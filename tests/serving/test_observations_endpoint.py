"""POST /v1/observations: one envelope, three backends, identical acks.

The multi-sensor front door accepts a batch of kind-tagged observation
payloads, normalizes each through the total adapters, and submits the
batch to whichever backend sits behind the app.  The ack is the shared
observation ack, so the conformance check is byte-equality across
plain / durable / cluster — and the failure modes (bad body, nothing
normalizable) are reason-coded wire errors, never 500s.
"""

from __future__ import annotations

import json

import pytest

from repro.fusion.observations import WifiObservation, obs_to_wire
from repro.serving import HttpServer, make_app

from tests.serving.conftest import http_request, parse_response

pytestmark = [pytest.mark.serving, pytest.mark.fusion]


def _observation_payloads(city, n=3):
    rid = sorted(city.routes)[0]
    reports = city.bus_reports(
        rid, f"bus:{rid}:obs", t_start=city.now, speed_mps=8.0
    )[:n]
    payloads = [obs_to_wire(WifiObservation.from_report(r)) for r in reports]
    truth = city.routes[rid].point_at(200.0)
    payloads.append(
        {
            "kind": "gps",
            "device": "d",
            "session": f"bus:{rid}:obs",
            "route": rid,
            "t": city.now + 25.0,
            "x": truth.x,
            "y": truth.y,
        }
    )
    return payloads


def _post(backend, payloads) -> tuple[int, dict]:
    app = make_app(backend)
    raw = HttpServer(app.dispatch).handle_bytes(
        http_request(
            "POST",
            "/v1/observations",
            json.dumps({"observations": payloads}, separators=(",", ":")).encode(),
        )
    )
    return parse_response(raw)


class TestAckParity:
    def test_acks_are_byte_identical_across_backends(self, city, trio):
        payloads = _observation_payloads(city)
        responses = {
            name: _post(backend, payloads) for name, backend in trio.items()
        }
        statuses = {status for status, _ in responses.values()}
        assert statuses == {200}
        bodies = {json.dumps(body, sort_keys=True) for _, body in responses.values()}
        assert len(bodies) == 1, responses
        _, body = responses["plain"]
        assert body == {"submitted": 4, "accepted": 4, "rejected": 0}

    def test_normalize_rejects_are_counted_not_fatal(self, city, trio):
        payloads = _observation_payloads(city, n=2)
        payloads.insert(1, {"kind": "gps", "t": "not-a-number"})  # malformed
        for name, backend in trio.items():
            status, body = _post(backend, payloads)
            assert status == 200, name
            assert body["submitted"] == 4, name
            assert body["rejected"] == 1, name
            assert body["accepted"] == 3, name


class TestErrorPaths:
    def test_wrong_body_shape_is_bad_request(self, trio):
        status, body = _post(trio["plain"], None)
        assert status == 422
        assert body["error"]["code"] == "bad_request"

    def test_empty_batch_is_bad_request(self, city, trio):
        app = make_app(trio["plain"])
        raw = HttpServer(app.dispatch).handle_bytes(
            http_request("POST", "/v1/observations", b'{"observations": []}')
        )
        status, body = parse_response(raw)
        assert status == 422
        assert body["error"]["code"] == "bad_request"
        assert "empty" in body["error"]["message"]

    def test_nothing_normalizable_is_422_naming_the_first_index(self, trio):
        status, body = _post(trio["plain"], [{"kind": "obs_pigeon"}, 42])
        assert status == 422
        assert "observations[0] rejected: unsupported_kind" in body["error"]["message"]

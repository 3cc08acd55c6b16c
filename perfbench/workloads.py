"""The benchmark's three workloads: city, backend and seeded request stream.

Every workload is a pure function of its name and a seed: the city is
built deterministically by ``repro.eval.synth_city``, and the request
stream (the exact bytes the server receives) is drawn from a
``random.Random(seed)``.  The server process never sees the seed.

The stream runs on a virtual clock: request *i* happens at
``city.now + i * CLOCK_STEP_S``.  A scan clones one city session into a
fresh namespace with its report times shifted to that moment, and a query
asks about that moment.  Buses therefore leave the active set 300 s of
virtual time after their last report, and after the 2000 warm-up
requests of the rider workloads the live fleet holds steady at about the
city's own size instead of growing for the whole run.

A run sends the warm-up, then ``ROUNDS`` rounds of one closed-loop chunk
and one open-loop chunk each.  Chunk sizes are fixed request counts
derived from ``--seconds`` and the nominal rates below, so every run of
one workload and seed sends the same requests, leaves the server in the
same state and writes the same WAL, however fast the program under test
is.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace

from repro.eval.synth_city import SynthCity, build_linear_city
from repro.pipeline.wal import report_to_dict
from repro.radio.environment import Reading

__all__ = [
    "WorkloadSpec",
    "WORKLOADS",
    "ROUNDS",
    "WARMUP_FULL",
    "build_city",
    "build_stream",
    "chunk_sizes",
    "probe_requests",
    "stream_now",
]

ROUNDS = 8
"""Closed-loop + open-loop rounds per run."""
WARMUP_FULL = 200
"""The warm-up sends only the scans of its requests, except its last
``WARMUP_FULL``, which it sends in full: queries leave the fleet as it is,
and these warm the query paths."""
CLOSED_SHARE = 0.4
"""Share of ``--seconds`` the closed-loop chunks are sized to fill."""
OPEN_SHARE = 0.6
"""Share of ``--seconds`` the open-loop chunks are sized to fill."""

CLOCK_STEP_S = 0.15
"""Virtual seconds between consecutive requests of the stream."""

# The paper's product: a tracked fleet answering rider queries.
RIDER_CITY = dict(
    num_routes=40,
    sessions_per_route=20,
    reports_per_session=6,
    stops_per_route=10,
    segments_per_route=5,
    route_length_m=2000.0,
    hub_every=4,
    aps_per_route=10,
    move_m_per_report=180.0,
)

# AP-dense: jittered scans rank-match to many near-miss tiles.
NOISY_CITY = dict(
    num_routes=8,
    sessions_per_route=20,
    reports_per_session=6,
    stops_per_route=10,
    segments_per_route=5,
    route_length_m=2000.0,
    hub_every=2,
    aps_per_route=24,
    move_m_per_report=180.0,
)

NOISE_SIGMA = 40.0
"""Gaussian RSS jitter of ``noisy_scans``, in pseudo-RSS units (metres)."""

# Endpoint counts per block of 20 requests: the 40/30/15/15 mix of
# ``repro.serving.loadgen.Workload``, drawn as shuffled blocks so every
# run and seed carries the exact mix (only the order and the cloned
# sessions vary with the seed).
RIDER_BLOCK = (("scans", 8), ("departures", 6), ("positions", 3), ("trip_plan", 3))


@dataclass(frozen=True)
class WorkloadSpec:
    """One named workload.

    ``warmup`` requests go first, unmeasured.  ``closed_rps`` is the
    nominal closed-loop rate that sizes the closed-loop chunks;
    ``open_rps`` is the fixed offered rate of the open-loop chunks, a
    fifth to an eighth of the closed-loop rate measured on the reference
    machine (2 vCPU, Python 3.11), which leaves headroom for that
    machine's speed swings and the server's garbage-collection pauses.
    ``recovery_scans`` is how many scans of the stream the timed
    recovery's WAL holds.
    """

    name: str
    backend: str  # "durable" or "cluster"
    mix: str  # "rider" or "noisy"
    city: dict
    warmup: int
    closed_rps: float
    open_rps: float
    recovery_scans: int


WORKLOADS: dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        # By request 2000 the warm-replayed fleet has gone inactive (300 s
        # after its last report) and the cloned fleet has reached its
        # steady size.
        WorkloadSpec("rider_mix", "durable", "rider", RIDER_CITY, 2000, 410.0, 80.0, 1200),
        WorkloadSpec("noisy_scans", "durable", "noisy", NOISY_CITY, 500, 760.0, 100.0, 2000),
        # Same requests as rider_mix, so the difference is the router's.
        WorkloadSpec("cluster_mix", "cluster", "rider", RIDER_CITY, 2000, 410.0, 80.0, 1200),
    )
}


def build_city(spec: WorkloadSpec) -> SynthCity:
    """The workload's city with a virgin server (nothing ingested)."""
    return build_linear_city(**spec.city)


def chunk_sizes(spec: WorkloadSpec, seconds: float) -> tuple[int, int, int]:
    """(warm-up, closed-loop chunk, open-loop chunk) request counts for ``seconds``.

    Chunks are whole mix blocks, so every chunk carries the exact mix.
    """
    block = sum(k for _, k in RIDER_BLOCK)

    def chunk(share: float, rate: float) -> int:
        return block * max(1, round(share * seconds * rate / ROUNDS / block))

    return (
        spec.warmup,
        chunk(CLOSED_SHARE, spec.closed_rps),
        chunk(OPEN_SHARE, spec.open_rps),
    )


def stream_now(city: SynthCity, i: int) -> float:
    """Virtual time of request ``i`` of the stream."""
    return city.now + i * CLOCK_STEP_S


def _request(method: str, path: str, body: bytes = b"") -> bytes:
    head = f"{method} {path} HTTP/1.1\r\n"
    if body:
        head += f"Content-Length: {len(body)}\r\n"
    return (head + "\r\n").encode("latin-1") + body


def _scan_request(
    sessions: list[list], rng: random.Random, tag: str, shift_s: float, sigma: float
) -> bytes:
    """One session's reports cloned into namespace ``tag``, ``shift_s`` later.

    Fresh session and device ids per request keep the admission guard's
    duplicate suppression out of the measurement.  With ``sigma`` > 0
    every reading gets Gaussian RSS jitter and the scan is re-ranked.
    """
    reports = []
    for r in sessions[rng.randrange(len(sessions))]:
        readings = r.readings
        if sigma:
            readings = tuple(
                sorted(
                    (Reading(x.bssid, x.ssid, x.rss_dbm + rng.gauss(0.0, sigma))
                     for x in readings),
                    key=lambda x: (-x.rss_dbm, x.bssid),
                )
            )
        clone = replace(
            r,
            session_key=f"{r.session_key}:{tag}",
            device_id=f"{r.device_id}:{tag}",
            t=r.t + shift_s,
            readings=readings,
        )
        reports.append(report_to_dict(clone))
    body = json.dumps({"reports": reports}, separators=(",", ":")).encode()
    return _request("POST", "/v1/scans", body)


def _query(city: SynthCity, endpoint: str, now: float, rng: random.Random) -> bytes:
    if endpoint == "departures":
        return _request("GET", f"/v1/departures?stop={city.hub_stop_id}&now={now}&limit=10")
    if endpoint == "positions":
        return _request("GET", f"/v1/positions?now={now}")
    route_id = city.hub_route_ids[rng.randrange(len(city.hub_route_ids))]
    return _request(
        "GET",
        f"/v1/trip-plan?from={city.stop_id_on(route_id, 0)}&to={city.hub_stop_id}&now={now}",
    )


def build_stream(spec: WorkloadSpec, city: SynthCity, seed: int, n: int) -> list[tuple[str, bytes]]:
    """The first ``n`` (endpoint, raw request) pairs of the seeded stream.

    Request shapes match ``repro.serving.loadgen.Workload``: scans clone
    one city session, departures ask the hub's board, positions list every
    bus, a trip plan rides from a random hub route's first stop to the hub.
    """
    rng = random.Random(seed)
    by_session: dict[str, list] = {}
    for report in city.reports:
        by_session.setdefault(report.session_key, []).append(report)
    sessions = [by_session[k] for k in sorted(by_session)]
    if spec.mix == "noisy":
        block, sigma = ["scans"], NOISE_SIGMA
    else:
        block, sigma = [name for name, k in RIDER_BLOCK for _ in range(k)], 0.0
    out: list[tuple[str, bytes]] = []
    order: list[str] = []
    while len(out) < n:
        if not order:
            order = list(block)
            rng.shuffle(order)
        endpoint = order.pop()
        i = len(out)
        if endpoint == "scans":
            raw = _scan_request(sessions, rng, f"lg{i}", i * CLOCK_STEP_S, sigma)
        else:
            raw = _query(city, endpoint, stream_now(city, i), rng)
        out.append((endpoint, raw))
    return out


def probe_requests(city: SynthCity, now: float) -> list[tuple[str, bytes]]:
    """The fixed correctness probes at ``now``: hub board, every position, one trip."""
    hub_route = city.hub_route_ids[0]
    last_stop = city.stop_id_on(hub_route, len(city.routes[hub_route].stops) - 1)
    return [
        (
            "departures",
            _request("GET", f"/v1/departures?stop={city.hub_stop_id}&now={now}&limit=10"),
        ),
        ("positions", _request("GET", f"/v1/positions?now={now}")),
        (
            "trip_plan",
            _request("GET", f"/v1/trip-plan?from={city.hub_stop_id}&to={last_stop}&now={now}"),
        ),
    ]

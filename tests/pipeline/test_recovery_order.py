"""Recovery replays the WAL in sequence order, the order it was applied.

A durable server applies each committed batch in WAL order, and a
request's batch is sorted by time only within itself: fed one request
per bus, the log interleaves the buses request by request, not by
timestamp.  Recovery must replay that same order, or the recovered live
travel-time store holds the same records in a different order than the
server that crashed (and its checkpoints differ byte for byte).
"""

from __future__ import annotations

from itertools import groupby

from repro.eval.synth_city import build_linear_city
from repro.pipeline import DurableServer
from repro.pipeline.replay import recover

from tests.pipeline.conftest import CITY_PARAMS, server_digest

PER_BUS_CITY = dict(CITY_PARAMS, sessions_per_route=3, reports_per_session=12)


def test_recovery_after_one_request_per_bus_matches_the_live_server(tmp_path):
    city = build_linear_city(**PER_BUS_CITY)
    by_session = sorted(city.reports, key=lambda r: (r.session_key, r.t))
    durable = DurableServer(city.server, tmp_path, fsync=False)
    for _, reports in groupby(by_session, key=lambda r: r.session_key):
        durable.ingest_many(list(reports))
    live = server_digest(durable.server)
    assert live["live"] and live["counters"]["ingest.reports"] == 2 * 3 * 12
    # Crash: no close, no checkpoint; everything acknowledged is in the WAL.
    twin = city.fresh_twin()
    report = recover(twin.server, tmp_path)
    assert report.checkpoint_path is None and report.replayed == 72
    assert server_digest(twin.server) == live

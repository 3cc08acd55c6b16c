"""Round-trip property of the wire codec.

``from_wire(json.loads(json.dumps(to_wire(x)))) == x`` for every
supported result type — the codec is the *only* serialisation surface
(the ad-hoc ``LivePosition.as_tuple`` view is gone), so exact
invertibility through real JSON is the whole contract.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.arrival.predictor import ArrivalPrediction
from repro.core.positioning.trajectory import TrajectoryPoint
from repro.core.server.api import DepartureEntry, LivePosition, TripOption
from repro.core.traffic.anomaly import Anomaly
from repro.core.traffic.classifier import SegmentStatus
from repro.core.traffic.map import SegmentState, TrafficMap
from repro.fusion.observations import (
    BeaconSighting,
    BleObservation,
    CellObservation,
    GpsObservation,
    WifiObservation,
)
from repro.geometry import Point
from repro.radio.environment import Reading
from repro.sensing.reports import ScanReport
from repro.serving import WIRE_KINDS, SessionSummary, from_wire, to_wire
from repro.serving.app import ServingApp
from repro.serving.http import Request, encode_response

pytestmark = pytest.mark.serving

finite = st.floats(allow_nan=False, allow_infinity=False)
ident = st.text(min_size=1, max_size=12)


def roundtrip(obj):
    wired = json.loads(json.dumps(to_wire(obj)))
    assert wired["kind"] in WIRE_KINDS
    return from_wire(wired)


departures = st.builds(
    DepartureEntry,
    route_id=ident,
    session_key=ident,
    stop_id=ident,
    eta_t=finite,
    eta_in_s=finite,
    distance_away_m=finite,
)
trip_options = st.builds(
    TripOption,
    route_id=ident,
    session_key=ident,
    board_stop_id=ident,
    alight_stop_id=ident,
    board_t=finite,
    alight_t=finite,
)
live_positions = st.builds(
    LivePosition,
    session_key=ident,
    route_id=ident,
    x=finite,
    y=finite,
    lat=st.none() | finite,
    lon=st.none() | finite,
    t=finite,
)
arrivals = st.builds(
    ArrivalPrediction,
    route_id=ident,
    stop_id=ident,
    t_query=finite,
    t_arrival=finite,
    segments_ahead=st.integers(0, 50),
    stops_ahead=st.integers(0, 50),
)
trajectory_points = st.builds(
    TrajectoryPoint,
    t=finite,
    arc_length=finite,
    point=st.builds(Point, x=finite, y=finite),
    method=st.sampled_from(["svd", "dead_reckoning", "snap"]),
)
session_summaries = st.builds(
    SessionSummary,
    session_key=ident,
    route_id=ident,
    reports_seen=st.integers(0, 10_000),
    last_report_t=st.none() | finite,
)
segment_states = st.builds(
    SegmentState,
    segment_id=ident,
    status=st.sampled_from(SegmentStatus),
    age_s=st.none() | finite,
    inferred=st.booleans(),
)
anomalies = st.builds(
    Anomaly,
    route_id=ident,
    segment_id=ident,
    arc_start=finite,
    arc_end=finite,
    t_start=finite,
    t_end=finite,
)
traffic_maps = st.builds(
    TrafficMap,
    t=finite,
    states=st.lists(segment_states, max_size=5, unique_by=lambda s: s.segment_id).map(
        lambda states: {s.segment_id: s for s in states}
    ),
    anomalies=st.lists(anomalies, max_size=3),
)
scan_reports = st.builds(
    ScanReport,
    device_id=ident,
    session_key=ident,
    route_id=ident,
    t=finite,
    readings=st.tuples(
        *[
            st.builds(Reading, bssid=ident, ssid=ident, rss_dbm=finite)
            for _ in range(2)
        ]
    ),
)

readings = st.lists(
    st.builds(Reading, bssid=ident, ssid=ident, rss_dbm=finite), max_size=3
).map(tuple)
wifi_observations = st.builds(
    WifiObservation,
    device_id=ident,
    session_key=ident,
    route_id=ident,
    t=finite,
    readings=readings,
)
ble_observations = st.builds(
    BleObservation,
    device_id=ident,
    session_key=ident,
    route_id=ident,
    t=finite,
    sightings=st.lists(
        st.builds(BeaconSighting, beacon_id=ident, rssi_dbm=finite), max_size=3
    ).map(tuple),
)
gps_observations = st.builds(
    GpsObservation,
    device_id=ident,
    session_key=ident,
    route_id=ident,
    t=finite,
    x=finite,
    y=finite,
    accuracy_m=finite,
)
cell_observations = st.builds(
    CellObservation,
    device_id=ident,
    session_key=ident,
    route_id=ident,
    t=finite,
    cell_id=ident,
)

every_kind = (
    departures
    | trip_options
    | live_positions
    | arrivals
    | trajectory_points
    | session_summaries
    | segment_states
    | anomalies
    | traffic_maps
    | scan_reports
    | wifi_observations
    | ble_observations
    | gps_observations
    | cell_observations
)


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(every_kind)
    def test_json_roundtrip_is_exact(self, obj):
        assert roundtrip(obj) == obj

    def test_every_declared_kind_is_generated(self):
        # the union above must cover the codec — a new kind without a
        # strategy would silently shrink the property's coverage
        assert WIRE_KINDS == {
            "departure",
            "trip_option",
            "live_position",
            "arrival",
            "trajectory_point",
            "session",
            "segment_state",
            "anomaly",
            "traffic_map",
            "scan_report",
            "obs_wifi",
            "obs_ble",
            "obs_gps",
            "obs_cell",
        }


class TestCodecEdges:
    def test_unknown_type_is_a_typeerror(self):
        with pytest.raises(TypeError, match="no wire codec"):
            to_wire(object())

    def test_untagged_payload_is_a_valueerror(self):
        with pytest.raises(ValueError, match="no 'kind' tag"):
            from_wire({"route": "R1"})

    def test_unknown_kind_is_a_valueerror(self):
        with pytest.raises(ValueError, match="unknown wire kind"):
            from_wire({"kind": "carrier_pigeon"})

    def test_as_tuple_is_gone(self):
        assert not hasattr(LivePosition, "as_tuple")


any_float = st.floats()
any_positions = st.builds(
    LivePosition,
    session_key=st.text(max_size=8),
    route_id=st.text(max_size=8),
    x=any_float,
    y=any_float,
    lat=st.none() | any_float,
    lon=st.none() | any_float,
    t=any_float,
)


class _Positions:
    """A query surface whose live map the test sets before each call."""

    def __init__(self) -> None:
        self.current: dict[str, LivePosition] = {}

    def live_positions(self, *, now):
        return self.current


class TestPositionsBody:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_assembled_body_is_the_canonical_dump(self, data):
        # Successive maps keep some record objects from the previous one
        # (their encoded rows are reused) and draw new ones, with
        # non-ASCII keys, missing lat/lon and non-finite floats.
        surface = _Positions()
        app = ServingApp(backend=None, queries=surface)
        previous: dict[str, LivePosition] = {}
        for _ in range(data.draw(st.integers(1, 4))):
            kept = data.draw(st.sets(st.sampled_from(sorted(previous)))) if previous else set()
            fresh = data.draw(st.dictionaries(st.text(max_size=8), any_positions, max_size=6))
            current = {**{k: previous[k] for k in kept}, **fresh}
            surface.current = current
            raw = encode_response(
                app.dispatch(Request("GET", "/v1/positions", {"now": "0"}, {}, b""))
            )
            want = json.dumps(
                {"positions": {k: to_wire(v) for k, v in current.items()}},
                separators=(",", ":"),
                sort_keys=True,
            )
            assert raw.partition(b"\r\n\r\n")[2] == want.encode()
            previous = current

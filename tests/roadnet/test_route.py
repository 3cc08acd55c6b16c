import pytest

from repro.roadnet import BusRoute, BusStop, RoadNetworkError
from tests.conftest import make_straight_route


@pytest.fixture()
def route():
    return make_straight_route(length_m=1000.0, num_segments=4, num_stops=5)[1]


class TestRouteGeometry:
    def test_length(self, route):
        assert route.length == pytest.approx(1000.0)

    def test_num_stops(self, route):
        assert route.num_stops == 5

    def test_segment_start_arc(self, route):
        assert route.segment_start_arc("s0") == 0.0
        assert route.segment_start_arc("s2") == pytest.approx(500.0)

    def test_segment_spans(self, route):
        # Bit-equal to the start arc plus the segment length, in route order.
        assert route.segment_spans == tuple(
            (seg.segment_id, route.segment_start_arc(seg.segment_id),
             route.segment_start_arc(seg.segment_id) + seg.length)
            for seg in route.segments
        )
        assert [sid for sid, _, _ in route.segment_spans] == ["s0", "s1", "s2", "s3"]

    def test_segment_start_arc_unknown(self, route):
        with pytest.raises(RoadNetworkError):
            route.segment_start_arc("zz")

    def test_segment_index(self, route):
        assert route.segment_index("s3") == 3

    def test_contains_segment(self, route):
        assert route.contains_segment("s1")
        assert not route.contains_segment("zz")


class TestStops:
    def test_stop_arcs_evenly_spaced(self, route):
        arcs = route.stop_arc_lengths()
        assert arcs == pytest.approx([0, 250, 500, 750, 1000])

    def test_stops_after(self, route):
        ahead = route.stops_after(400.0)
        assert [route.stop_arc_length(s) for s in ahead] == pytest.approx(
            [500, 750, 1000]
        )

    def test_stops_after_end(self, route):
        assert route.stops_after(1000.0) == []

    def test_needs_two_stops(self):
        net, route = make_straight_route()
        with pytest.raises(RoadNetworkError):
            BusRoute("bad", net, list(route.segment_ids), route.stops[:1])

    def test_stop_off_route_rejected(self):
        net, route = make_straight_route()
        bad = BusStop("x", "not_a_segment", 0.0)
        with pytest.raises(RoadNetworkError):
            BusRoute("bad", net, list(route.segment_ids), [bad, bad])

    def test_stop_offset_out_of_segment_rejected(self):
        net, route = make_straight_route(num_segments=2)
        bad = BusStop("x", "s0", 9999.0)
        with pytest.raises(RoadNetworkError):
            BusRoute("bad", net, list(route.segment_ids), [route.stops[0], bad])

    def test_unordered_stops_rejected(self):
        net, route = make_straight_route(num_segments=2)
        s_late = BusStop("a", "s1", 400.0)
        s_early = BusStop("b", "s0", 100.0)
        with pytest.raises(RoadNetworkError):
            BusRoute("bad", net, list(route.segment_ids), [s_late, s_early])


class TestPositionAt:
    def test_first_segment(self, route):
        pos = route.position_at(100.0)
        assert pos.segment_id == "s0"
        assert pos.segment_offset == pytest.approx(100.0)

    def test_boundary_belongs_to_later_segment(self, route):
        pos = route.position_at(250.0)
        assert pos.segment_id == "s1"
        assert pos.segment_offset == pytest.approx(0.0)

    def test_route_end(self, route):
        pos = route.position_at(1000.0)
        assert pos.segment_id == "s3"
        assert pos.segment_offset == pytest.approx(250.0)

    def test_clamps_out_of_range(self, route):
        assert route.position_at(-10.0).arc_length == 0.0
        assert route.position_at(2000.0).arc_length == pytest.approx(1000.0)

    def test_point_on(self, route):
        pos = route.position_at(333.0)
        assert pos.point_on(route).x == pytest.approx(333.0)


class TestSegmentsBetween:
    def test_interior_span(self, route):
        assert route.segments_between(200.0, 600.0) == ["s0", "s1", "s2"]

    def test_exact_boundaries(self, route):
        assert route.segments_between(250.0, 500.0) == ["s1"]

    def test_rejects_reversed(self, route):
        with pytest.raises(ValueError):
            route.segments_between(500.0, 100.0)


class TestRevisitRejected:
    def test_route_cannot_repeat_segment(self):
        net, route = make_straight_route(num_segments=2)
        with pytest.raises(RoadNetworkError):
            BusRoute(
                "loop", net, ["s0", "s1", "s0"], list(route.stops)
            )

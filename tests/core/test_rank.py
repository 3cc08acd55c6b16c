import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.radio.environment import Reading
from repro.sensing.rank import (
    full_ranking_from_readings,
    has_rank_tie,
    rank_agreement,
    signature_distance,
    signature_from_readings,
    signature_from_rss,
)


class TestSignatureFromRss:
    def test_orders_descending(self):
        sig = signature_from_rss({"a": -70.0, "b": -50.0, "c": -60.0}, 3)
        assert sig == ("b", "c", "a")

    def test_truncates_to_order(self):
        sig = signature_from_rss({"a": -70.0, "b": -50.0, "c": -60.0}, 2)
        assert sig == ("b", "c")

    def test_ties_break_by_bssid(self):
        sig = signature_from_rss({"b": -50.0, "a": -50.0}, 2)
        assert sig == ("a", "b")

    def test_known_filter(self):
        sig = signature_from_rss(
            {"a": -40.0, "b": -50.0}, 2, known={"b"}
        )
        assert sig == ("b",)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            signature_from_rss({"a": -50.0}, 0)

    def test_empty_rss(self):
        assert signature_from_rss({}, 3) == ()


class TestSignatureFromReadings:
    def test_matches_rss_version(self):
        readings = [Reading("a", "x", -70.0), Reading("b", "y", -50.0)]
        assert signature_from_readings(readings, 2) == ("b", "a")

    def test_full_ranking(self):
        readings = [
            Reading("a", "x", -70.0),
            Reading("b", "y", -50.0),
            Reading("c", "z", -60.0),
        ]
        assert full_ranking_from_readings(readings) == ("b", "c", "a")


class TestSignatureDistance:
    def test_perfect_prefix_is_zero(self):
        assert signature_distance(("a", "b", "c"), ("a", "b")) == 0.0

    def test_swap_costs_two(self):
        assert signature_distance(("b", "a", "c"), ("a", "b")) == 2.0

    def test_missing_ap_penalty(self):
        obs = ("a", "c")
        assert signature_distance(obs, ("a", "z")) == pytest.approx(
            len(obs) + 1
        )

    def test_empty_tile_signature(self):
        assert signature_distance(("a",), ()) == 2.0

    def test_deeper_displacement_costs_more(self):
        near = signature_distance(("a", "x", "b"), ("a", "b"))
        far = signature_distance(("a", "x", "y", "b"), ("a", "b"))
        assert far > near

    @given(
        st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=6, unique=True)
    )
    @settings(max_examples=50)
    def test_self_distance_zero(self, names):
        sig = tuple(names)
        assert signature_distance(sig, sig) == 0.0

    @given(
        st.lists(st.sampled_from("abcdefgh"), min_size=2, max_size=8, unique=True),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=50)
    def test_distance_nonnegative(self, names, k):
        obs = tuple(names)
        tile = tuple(reversed(names[:k]))
        assert signature_distance(obs, tile) >= 0.0


class TestRankAgreement:
    def test_perfect(self):
        assert rank_agreement(("a", "b", "c"), ("a", "b")) == 1.0

    def test_empty_tile(self):
        assert rank_agreement(("a",), ()) == 0.0

    def test_bounded(self):
        v = rank_agreement(("a", "b"), ("z", "w"))
        assert 0.0 <= v <= 1.0


class TestHasRankTie:
    def test_tie_within_epsilon(self):
        readings = [Reading("a", "x", -50.0), Reading("b", "y", -50.5)]
        assert has_rank_tie(readings, epsilon_db=1.0)

    def test_no_tie_beyond_epsilon(self):
        readings = [Reading("a", "x", -50.0), Reading("b", "y", -55.0)]
        assert not has_rank_tie(readings, epsilon_db=1.0)

    def test_single_reading_no_tie(self):
        assert not has_rank_tie([Reading("a", "x", -50.0)], epsilon_db=1.0)

    def test_known_filter_applies(self):
        readings = [
            Reading("a", "x", -50.0),
            Reading("b", "y", -50.2),
            Reading("c", "z", -60.0),
        ]
        # Without 'b', the top two usable are a and c: no tie.
        assert not has_rank_tie(readings, epsilon_db=1.0, known={"a", "c"})

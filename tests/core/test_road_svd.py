import numpy as np
import pytest

from repro.core.svd import RoadSVD
from repro.radio import RadioEnvironment
from tests.conftest import make_line_aps, make_straight_route


@pytest.fixture()
def route():
    return make_straight_route(length_m=1000.0, num_segments=2)[1]


@pytest.fixture()
def clean_env():
    """No shadowing: ranks follow pure distance."""
    return RadioEnvironment(
        make_line_aps(10), shadowing_sigma_db=0.0, fading_sigma_db=0.0, seed=0
    )


@pytest.fixture()
def svd(route, clean_env):
    return RoadSVD.from_environment(route, clean_env, order=2, step_m=2.0)


class TestPartitionInvariants:
    def test_tiles_cover_route(self, svd, route):
        assert svd.tiles[0].arc_start == pytest.approx(0.0)
        assert svd.tiles[-1].arc_end == pytest.approx(route.length)

    def test_tiles_contiguous_disjoint(self, svd):
        for a, b in zip(svd.tiles, svd.tiles[1:]):
            assert b.arc_start == pytest.approx(a.arc_end)

    def test_adjacent_tiles_differ(self, svd):
        for a, b in zip(svd.tiles, svd.tiles[1:]):
            assert a.signature != b.signature

    def test_positive_lengths(self, svd):
        assert all(t.length > 0 for t in svd.tiles)

    def test_rank_constant_within_tile(self, svd, route, clean_env):
        """Proposition 1: RSS rank order is constant inside each tile."""
        from repro.sensing.rank import signature_from_rss

        for tile in svd.tiles[:20]:
            for frac in (0.25, 0.75):
                arc = tile.arc_start + frac * tile.length
                p = route.point_at(arc)
                rss = {
                    b: clean_env.mean_rss(p, b)
                    for b in clean_env.visible_aps(p)
                }
                assert signature_from_rss(rss, svd.order) == tile.signature


class TestOrders:
    def test_higher_order_refines(self, route, clean_env):
        """Proposition 2: higher order means finer tiles."""
        svd1 = RoadSVD.from_environment(route, clean_env, order=1)
        svd2 = RoadSVD.from_environment(route, clean_env, order=2)
        svd3 = RoadSVD.from_environment(route, clean_env, order=3)
        assert svd1.num_tiles <= svd2.num_tiles <= svd3.num_tiles

    def test_higher_order_boundaries_nest(self, route, clean_env):
        svd1 = RoadSVD.from_environment(route, clean_env, order=1, step_m=2.0)
        svd2 = RoadSVD.from_environment(route, clean_env, order=2, step_m=2.0)
        b1 = {round(t.arc_end, 1) for t in svd1.tiles[:-1]}
        b2 = {round(t.arc_end, 1) for t in svd2.tiles[:-1]}
        assert b1 <= b2

    def test_reordered_matches_fresh_build(self, svd, route, clean_env):
        re3 = svd.reordered(3)
        fresh = RoadSVD.from_environment(route, clean_env, order=3, step_m=2.0)
        assert [t.signature for t in re3.tiles] == [
            t.signature for t in fresh.tiles
        ]

    def test_rejects_bad_order(self, route, clean_env):
        with pytest.raises(ValueError):
            RoadSVD.from_environment(route, clean_env, order=0)


class TestEuclideanSpecialCase:
    def test_distance_svd_equals_env_svd_without_shadowing(
        self, route, clean_env
    ):
        """With equal powers and no shadowing, SVD == Voronoi ranking."""
        by_env = RoadSVD.from_environment(route, clean_env, order=2, step_m=2.0)
        by_dist = RoadSVD.from_distance(
            route, clean_env.aps, order=2, step_m=2.0, max_range_m=160.0
        )
        env_sigs = [by_env.tile_at(a).signature for a in np.linspace(5, 995, 100)]
        dist_sigs = [by_dist.tile_at(a).signature for a in np.linspace(5, 995, 100)]
        agree = sum(e == d for e, d in zip(env_sigs, dist_sigs))
        assert agree >= 95  # boundary pixels may differ by one sample

    def test_shadowing_bends_the_diagram(self, route):
        shadowed = RadioEnvironment(
            make_line_aps(10), shadowing_sigma_db=6.0, fading_sigma_db=0.0, seed=0
        )
        by_env = RoadSVD.from_environment(route, shadowed, order=2, step_m=2.0)
        by_dist = RoadSVD.from_distance(
            route, shadowed.aps, order=2, step_m=2.0, max_range_m=160.0
        )
        env_sigs = [by_env.tile_at(a).signature for a in np.linspace(5, 995, 100)]
        dist_sigs = [by_dist.tile_at(a).signature for a in np.linspace(5, 995, 100)]
        agree = sum(e == d for e, d in zip(env_sigs, dist_sigs))
        assert agree < 95  # the SVD genuinely differs from the VD


class TestQueries:
    def test_tile_at_respects_boundaries(self, svd):
        t = svd.tiles[3]
        assert svd.tile_at(t.arc_start) is t
        assert svd.tile_at(t.arc_end - 0.001) is t

    def test_tile_at_clamps(self, svd, route):
        assert svd.tile_at(-5.0) is svd.tiles[0]
        assert svd.tile_at(route.length + 5.0) is svd.tiles[-1]

    def test_tiles_with_signature(self, svd):
        sig = svd.tiles[5].signature
        assert svd.tiles[5] in svd.tiles_with_signature(sig)

    def test_best_matches_exact(self, svd, route, clean_env):
        arc = 437.0
        p = route.point_at(arc)
        rss = {b: clean_env.mean_rss(p, b) for b in clean_env.visible_aps(p)}
        obs = tuple(b for b, _ in sorted(rss.items(), key=lambda kv: -kv[1]))
        tile, dist = svd.best_matches(obs, top=1)[0]
        assert dist == 0.0
        assert tile.contains(arc)

    def test_best_matches_window_filters(self, svd, route, clean_env):
        arc = 437.0
        p = route.point_at(arc)
        rss = {b: clean_env.mean_rss(p, b) for b in clean_env.visible_aps(p)}
        obs = tuple(b for b, _ in sorted(rss.items(), key=lambda kv: -kv[1]))
        matches = svd.best_matches(obs, top=3, arc_window=(400.0, 500.0))
        for tile, _ in matches:
            assert tile.arc_end > 400.0 and tile.arc_start < 500.0

    def test_mean_tile_length(self, svd, route):
        assert svd.mean_tile_length() == pytest.approx(
            route.length / svd.num_tiles
        )


class TestAPDynamics:
    def test_without_aps_removes_signature_members(self, svd):
        victim = svd.tiles[0].signature[0]
        reduced = svd.without_aps([victim])
        for tile in reduced.tiles:
            assert victim not in tile.signature

    def test_without_aps_coarsens_locally(self, svd):
        victim = svd.tiles[0].signature[0]
        reduced = svd.without_aps([victim])
        assert reduced.num_tiles <= svd.num_tiles

    def test_without_aps_preserves_coverage(self, svd, route):
        victim = svd.tiles[0].signature[0]
        reduced = svd.without_aps([victim])
        assert reduced.tiles[0].arc_start == pytest.approx(0.0)
        assert reduced.tiles[-1].arc_end == pytest.approx(route.length)

    def test_positioning_survives_outage(self, svd, route, clean_env):
        """Section III.B: the new estimate stays near the true location."""
        victim = svd.tile_at(500.0).signature[0]
        reduced = svd.without_aps([victim])
        p = route.point_at(500.0)
        rss = {
            b: clean_env.mean_rss(p, b)
            for b in clean_env.visible_aps(p)
            if b != victim
        }
        obs = tuple(b for b, _ in sorted(rss.items(), key=lambda kv: -kv[1]))
        tile, dist = reduced.best_matches(obs, top=1)[0]
        assert dist == 0.0
        assert abs(tile.midpoint_arc - 500.0) < 60.0


class TestBoundaryBetween:
    def test_finds_swap_boundary(self, svd):
        # Two adjacent tiles with swapped leaders define an SVE crossing.
        for t0, t1 in zip(svd.tiles, svd.tiles[1:]):
            a, b = t0.signature[0], t1.signature[0]
            if a != b:
                boundary = svd.boundary_between(t0.arc_end, a, b)
                assert boundary == pytest.approx(t0.arc_end)
                break
        else:  # pragma: no cover
            pytest.skip("no leader swap found")

    def test_none_for_unrelated_aps(self, svd):
        assert svd.boundary_between(0.0, "zz:zz", "yy:yy") is None

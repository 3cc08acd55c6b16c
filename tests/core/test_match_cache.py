"""The RoadSVD rank-vector match cache: hits, eviction, invalidation, parity."""

import pytest

from repro.core.svd.road_svd import RoadSVD
from repro.radio import RadioEnvironment
from repro.sensing.rank import signature_distance
from tests.conftest import make_line_aps, make_straight_route


@pytest.fixture(scope="module")
def scene():
    net, route = make_straight_route(length_m=1000.0, num_segments=4)
    env = RadioEnvironment(make_line_aps(10), seed=0)
    return route, env


def make_svd(scene, **kwargs):
    route, env = scene
    samples = RoadSVD.from_environment(route, env, order=2)._samples
    return RoadSVD(route, 2, samples, **kwargs)


def seed_best_matches(svd, observed, *, top=3, arc_window=None):
    """The seed algorithm, reimplemented literally: score candidates from
    the membership index (with full-sweep fallback), filter by window,
    fall back to unrestricted when the window kills every candidate."""
    candidate_ids = set()
    for bssid in observed[: max(svd.order, 3)]:
        candidate_ids.update(svd._by_member.get(bssid, ()))
    if not candidate_ids:
        candidate_ids = set(range(len(svd.tiles)))
    scored = [
        (svd.tiles[i], signature_distance(observed, svd.tiles[i].signature))
        for i in candidate_ids
    ]
    if arc_window is not None:
        lo, hi = arc_window
        windowed = [
            ts for ts in scored if ts[0].arc_end > lo and ts[0].arc_start < hi
        ]
        if windowed:
            scored = windowed
    scored.sort(key=lambda ts: (ts[1], -len(ts[0].signature), ts[0].arc_start))
    return scored[:top]


class TestHitMiss:
    def test_first_query_misses_then_hits(self, scene):
        svd = make_svd(scene)
        observed = svd.tiles[3].signature
        assert svd.cache_info()["hits"] == 0
        svd.best_matches(observed)
        info = svd.cache_info()
        assert (info["hits"], info["misses"]) == (0, 1)
        svd.best_matches(observed)
        svd.best_matches(observed, top=5)  # different top, same cache key
        info = svd.cache_info()
        assert (info["hits"], info["misses"]) == (2, 1)
        assert info["hit_rate"] == pytest.approx(2 / 3)

    def test_window_filter_hits_cache(self, scene):
        svd = make_svd(scene)
        observed = svd.tiles[3].signature
        svd.best_matches(observed)
        svd.best_matches(observed, arc_window=(0.0, 500.0))
        assert svd.cache_info()["hits"] == 1

    def test_clear_keeps_statistics(self, scene):
        svd = make_svd(scene)
        observed = svd.tiles[0].signature
        svd.best_matches(observed)
        svd.clear_match_cache()
        info = svd.cache_info()
        assert info["size"] == 0
        assert info["misses"] == 1
        svd.best_matches(observed)
        assert svd.cache_info()["misses"] == 2


class TestEviction:
    def test_lru_eviction(self, scene):
        svd = make_svd(scene, match_cache_size=2)
        sigs = [t.signature for t in svd.tiles[:3]]
        svd.best_matches(sigs[0])
        svd.best_matches(sigs[1])
        svd.best_matches(sigs[0])  # refresh 0: now 1 is least-recent
        svd.best_matches(sigs[2])  # evicts 1
        assert svd.cache_info()["size"] == 2
        hits_before = svd.cache_info()["hits"]
        svd.best_matches(sigs[1])  # must re-score
        info = svd.cache_info()
        assert info["hits"] == hits_before
        assert info["misses"] == 4

    def test_zero_size_disables_caching(self, scene):
        svd = make_svd(scene, match_cache_size=0)
        observed = svd.tiles[0].signature
        svd.best_matches(observed)
        svd.best_matches(observed)
        info = svd.cache_info()
        assert info["hits"] == 0
        assert info["misses"] == 2
        assert info["size"] == 0


class TestApChurnInvalidation:
    def test_without_aps_starts_fresh(self, scene):
        svd = make_svd(scene)
        observed = svd.tiles[0].signature
        svd.best_matches(observed)
        dropped = svd.without_aps([svd.tiles[0].signature[0]])
        info = dropped.cache_info()
        assert info == {
            "hits": 0, "misses": 0, "size": 0, "maxsize": 256, "hit_rate": 0.0,
        }
        # and the rebuilt diagram scores against its own (coarser) tiles
        dropped.best_matches(observed)
        assert dropped.cache_info()["misses"] == 1

    def test_reordered_starts_fresh(self, scene):
        svd = make_svd(scene)
        svd.best_matches(svd.tiles[0].signature)
        assert svd.reordered(3).cache_info()["size"] == 0


class TestParityWithSeedAlgorithm:
    def observations(self, svd):
        obs = [t.signature for t in svd.tiles]
        # permuted / truncated / foreign-AP variants
        obs += [tuple(reversed(sig)) for sig in obs[:5] if len(sig) > 1]
        obs += [sig[:1] for sig in obs[:5] if sig]
        obs += [("not-an-ap",), ("not-an-ap", "also-fake")]
        return obs

    def test_unwindowed_parity(self, scene):
        svd = make_svd(scene)
        for observed in self.observations(svd):
            assert svd.best_matches(observed, top=5) == seed_best_matches(
                svd, observed, top=5
            ), observed

    def test_windowed_parity(self, scene):
        svd = make_svd(scene)
        windows = [(0.0, 200.0), (300.0, 600.0), (900.0, 1000.0), (-50.0, 10.0)]
        for observed in self.observations(svd):
            for window in windows:
                assert svd.best_matches(
                    observed, top=5, arc_window=window
                ) == seed_best_matches(
                    svd, observed, top=5, arc_window=window
                ), (observed, window)

    def test_cached_path_equals_cold_path(self, scene):
        warm = make_svd(scene)
        observed = warm.tiles[4].signature
        first = warm.best_matches(observed, arc_window=(100.0, 400.0))
        second = warm.best_matches(observed, arc_window=(100.0, 400.0))
        assert warm.cache_info()["hits"] >= 1
        assert first == second

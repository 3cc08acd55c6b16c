"""Road-restricted Signal Voronoi Diagram.

The bus's mobility constraint (it never leaves its route) means the only
part of the 2-D SVD that matters for positioning is its intersection with
the route polyline.  :class:`RoadSVD` computes that intersection directly:
it samples the mean RSS rank signature densely along the route's arc
length and merges runs of identical signature into :class:`RoadTile`
sub-segments.  Each tile is exactly one "road sub-segment inside a Signal
Tile" of Definition 5, and its midpoint is the Tile Mapping image (for a
road-restricted tile, the nearest road point to the tile centroid *is* on
the tile's own stretch of road).

Two construction modes mirror the paper:

* :meth:`RoadSVD.from_distance` — rank APs by geometric distance, i.e.
  assume all propagation factors equal across APs.  This is what the
  prototype does ("we simply regard that all the factors affecting signal
  propagation are the same for APs") and needs nothing but geo-tags.
* :meth:`RoadSVD.from_environment` — rank by the true mean RSS field
  (oracle).  The gap between the two quantifies what the equal-factors
  assumption costs; with zero shadowing and equal powers they coincide
  (the "SVD degenerates to the Voronoi diagram" special case).

AP dynamics are handled exactly as Section III.B describes: removing an
AP only locally coarsens the diagram.  :meth:`without_aps` rebuilds from
the cached per-sample RSS vectors without touching the environment.
"""

from __future__ import annotations

import bisect
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from repro.geometry import Point
from repro.radio.ap import AccessPoint
from repro.radio.environment import RadioEnvironment
from repro.roadnet.route import BusRoute
from repro.sensing.rank import Signature, signature_distance, signature_from_rss


@dataclass(frozen=True, slots=True)
class RoadTile:
    """A maximal route stretch with a constant rank signature.

    ``arc_start``/``arc_end`` are route arc lengths; ``signature`` is the
    top-k mean-RSS ranking that holds throughout the stretch.
    """

    arc_start: float
    arc_end: float
    signature: Signature

    @property
    def length(self) -> float:
        return self.arc_end - self.arc_start

    @property
    def midpoint_arc(self) -> float:
        """The Tile Mapping image of this tile, in route arc length."""
        return (self.arc_start + self.arc_end) / 2.0

    def contains(self, arc: float) -> bool:
        return self.arc_start <= arc < self.arc_end


# A sample is (arc_length, {bssid: mean_rss}) restricted to detectable APs.
_Sample = tuple[float, dict[str, float]]


class RoadSVD:
    """The SVD of one route: ordered tiles over the route's arc length.

    Tile matching keeps an LRU cache keyed by the observed rank vector:
    repeated scans with an identical ranking (a bus dwelling at a stop, or
    several riders on one bus) skip the candidate scoring entirely.  The
    cache never needs explicit invalidation for AP churn — AP dynamics go
    through :meth:`without_aps`/:meth:`reordered`, which build a *new*
    diagram with a fresh, empty cache.
    """

    def __init__(
        self,
        route: BusRoute,
        order: int,
        samples: list[_Sample],
        *,
        match_cache_size: int = 256,
    ):
        if order < 1:
            raise ValueError("order must be >= 1")
        if len(samples) < 2:
            raise ValueError("need at least two samples")
        self.route = route
        self.order = order
        self._samples = samples
        self.tiles: list[RoadTile] = self._merge(samples, order)
        self._starts = [t.arc_start for t in self.tiles]
        self._by_signature: dict[Signature, list[int]] = {}
        self._by_member: dict[str, list[int]] = {}
        for i, tile in enumerate(self.tiles):
            self._by_signature.setdefault(tile.signature, []).append(i)
            for bssid in tile.signature:
                self._by_member.setdefault(bssid, []).append(i)
        self._match_cache: OrderedDict[Signature, list[tuple[RoadTile, float]]] = (
            OrderedDict()
        )
        self._match_cache_size = max(int(match_cache_size), 0)
        self._match_cache_hits = 0
        self._match_cache_misses = 0

    # -- construction -------------------------------------------------------

    @staticmethod
    def _merge(samples: list[_Sample], order: int) -> list[RoadTile]:
        tiles: list[RoadTile] = []
        run_sig: Signature | None = None
        run_start = samples[0][0]
        prev_arc = samples[0][0]
        for arc, rss in samples:
            sig = signature_from_rss(rss, order)
            if run_sig is None:
                run_sig, run_start = sig, arc
            elif sig != run_sig:
                # Close the run at the midpoint between the last sample of
                # the old run and the first of the new one.
                boundary = (prev_arc + arc) / 2.0
                tiles.append(RoadTile(run_start, boundary, run_sig))
                run_sig, run_start = sig, boundary
            prev_arc = arc
        tiles.append(RoadTile(run_start, samples[-1][0], run_sig or ()))
        # Drop zero-length artefacts (can appear at the route ends).
        return [t for t in tiles if t.length > 1e-9]

    @classmethod
    def from_field(
        cls,
        route: BusRoute,
        rss_field: Callable[[Point], dict[str, float]],
        *,
        order: int = 2,
        step_m: float = 2.0,
    ) -> "RoadSVD":
        """Build from an arbitrary mean-RSS field function."""
        samples: list[_Sample] = []
        for arc, point in route.polyline.sample(step_m):
            samples.append((arc, rss_field(point)))
        return cls(route, order, samples)

    @classmethod
    def from_environment(
        cls,
        route: BusRoute,
        env: RadioEnvironment,
        *,
        order: int = 2,
        step_m: float = 2.0,
        geo_tagged_only: bool = True,
    ) -> "RoadSVD":
        """Oracle construction from the environment's true mean field."""
        usable = {
            ap.bssid
            for ap in env.aps
            if ap.geo_tagged or not geo_tagged_only
        }

        def field(point: Point) -> dict[str, float]:
            out: dict[str, float] = {}
            for bssid in env.nearby_bssids(point, env.max_detection_range_m()):
                if bssid not in usable:
                    continue
                rss = env.mean_rss(point, bssid)
                if rss >= env.detection_threshold_dbm:
                    out[bssid] = rss
            return out

        return cls.from_field(route, field, order=order, step_m=step_m)

    @classmethod
    def from_observations(
        cls,
        route: BusRoute,
        observations: Iterable[tuple[float, Mapping[str, float]]],
        *,
        order: int = 2,
        bin_m: float = 5.0,
        min_samples_per_bin: int = 1,
    ) -> "RoadSVD":
        """Learn the diagram from position-annotated RSS observations.

        This is the paper's own construction: "the server constructs the
        Signal Voronoi Diagram according to the *average rank* of RSS
        values from each of surrounding WiFi APs."  ``observations`` are
        ``(route_arc, {bssid: rss})`` pairs — e.g. calibration rides with
        GPS in the open, or accumulated tracked scans.  Readings are
        averaged per AP within ``bin_m`` arc bins; fast fading cancels in
        the average and the surviving mean ranks define the tiles.

        Bins with fewer than ``min_samples_per_bin`` observations are
        skipped (their stretch merges into the neighbouring tiles).
        """
        if bin_m <= 0:
            raise ValueError("bin size must be positive")
        sums: dict[int, dict[str, list[float]]] = {}
        counts: dict[int, int] = {}
        for arc, rss in observations:
            if not 0.0 <= arc <= route.length:
                continue
            b = int(arc // bin_m)
            bin_acc = sums.setdefault(b, {})
            counts[b] = counts.get(b, 0) + 1
            for bssid, value in rss.items():
                bin_acc.setdefault(bssid, [0.0, 0.0])
                bin_acc[bssid][0] += value
                bin_acc[bssid][1] += 1.0
        samples: list[_Sample] = []
        for b in sorted(sums):
            if counts[b] < min_samples_per_bin:
                continue
            mean_rss = {
                bssid: total / n for bssid, (total, n) in sums[b].items()
            }
            arc_center = min((b + 0.5) * bin_m, route.length)
            if samples and arc_center <= samples[-1][0]:
                continue  # clamped tail bin duplicates the previous arc
            samples.append((arc_center, mean_rss))
        if len(samples) < 2:
            raise ValueError(
                "not enough annotated observations to learn a diagram"
            )
        # Anchor the ends so the diagram covers the whole route.
        if samples[0][0] > 0.0:
            samples.insert(0, (0.0, samples[0][1]))
        if samples[-1][0] < route.length:
            samples.append((route.length, samples[-1][1]))
        return cls(route, order, samples)

    @classmethod
    def from_distance(
        cls,
        route: BusRoute,
        aps: Sequence[AccessPoint],
        *,
        order: int = 2,
        step_m: float = 2.0,
        max_range_m: float = 200.0,
    ) -> "RoadSVD":
        """Server-side construction from geo-tags only.

        Ranks APs by proximity (equal-factors assumption): the pseudo-RSS
        of an AP is minus its distance, cut off at ``max_range_m``.
        """
        usable = [ap for ap in aps if ap.geo_tagged]

        def field(point: Point) -> dict[str, float]:
            out: dict[str, float] = {}
            for ap in usable:
                d = point.distance_to(ap.position)
                if d <= max_range_m:
                    out[ap.bssid] = -d
            return out

        return cls.from_field(route, field, order=order, step_m=step_m)

    # -- queries --------------------------------------------------------------

    @property
    def num_tiles(self) -> int:
        return len(self.tiles)

    def mean_tile_length(self) -> float:
        return self.route.length / max(len(self.tiles), 1)

    def tile_at(self, arc: float) -> RoadTile:
        """The tile containing the given route arc length (clamped)."""
        if arc <= self.tiles[0].arc_start:
            return self.tiles[0]
        i = bisect.bisect_right(self._starts, arc) - 1
        return self.tiles[min(max(i, 0), len(self.tiles) - 1)]

    def tiles_with_signature(self, signature: Signature) -> list[RoadTile]:
        """All tiles whose signature equals ``signature`` exactly."""
        return [self.tiles[i] for i in self._by_signature.get(signature, [])]

    def _scored_matches(self, observed: Signature) -> list[tuple[RoadTile, float]]:
        """All candidate tiles scored against ``observed``, best first.

        The window-independent part of :meth:`best_matches`, memoised in an
        LRU cache keyed by the observed rank vector.  Candidate generation
        is index-accelerated by signature membership, falling back to a
        full sweep when nothing shares an AP with the observation.  Ties in
        distance prefer the more specific (longer) signature, then the
        earlier tile — a short coverage-fringe signature must not shadow an
        exact full-rank match elsewhere on the route.
        """
        cached = self._match_cache.get(observed)
        if cached is not None:
            self._match_cache_hits += 1
            self._match_cache.move_to_end(observed)
            return cached
        self._match_cache_misses += 1
        candidate_ids: set[int] = set()
        for bssid in observed[: max(self.order, 3)]:
            candidate_ids.update(self._by_member.get(bssid, ()))
        if not candidate_ids:
            candidate_ids = set(range(len(self.tiles)))
        scored = [
            (self.tiles[i], signature_distance(observed, self.tiles[i].signature))
            for i in candidate_ids
        ]
        scored.sort(key=lambda ts: (ts[1], -len(ts[0].signature), ts[0].arc_start))
        if self._match_cache_size:
            self._match_cache[observed] = scored
            while len(self._match_cache) > self._match_cache_size:
                self._match_cache.popitem(last=False)
        return scored

    def best_matches(
        self,
        observed: Signature,
        *,
        top: int = 3,
        arc_window: tuple[float, float] | None = None,
    ) -> list[tuple[RoadTile, float]]:
        """Tiles ranked by signature distance to the observed ranking.

        Exact prefix matches come back with distance 0; the list is the
        candidate set the positioner chooses from (with the mobility
        constraint as tie-breaker).  ``arc_window`` restricts candidates to
        tiles overlapping the given arc interval (the tracker's feasible
        window); when no candidate overlaps the window the unrestricted
        ranking is used instead.  Scoring is served from the rank-vector
        LRU cache (see :meth:`cache_info`).
        """
        scored = self._scored_matches(observed)
        if arc_window is not None:
            lo, hi = arc_window
            windowed = [
                ts for ts in scored if ts[0].arc_end > lo and ts[0].arc_start < hi
            ]
            if windowed:
                scored = windowed
        return scored[:top]

    def cache_info(self) -> dict[str, int | float]:
        """Hit/miss statistics of the rank-vector match cache."""
        hits, misses = self._match_cache_hits, self._match_cache_misses
        total = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "size": len(self._match_cache),
            "maxsize": self._match_cache_size,
            "hit_rate": hits / total if total else 0.0,
        }

    def clear_match_cache(self) -> None:
        """Drop all cached match rankings (statistics are kept)."""
        self._match_cache.clear()

    def boundary_between(self, arc_hint: float, bssid_a: str, bssid_b: str) -> float | None:
        """Arc of the tile boundary nearest ``arc_hint`` where APs a, b swap rank.

        Used for the paper's tie rule: a scan with (near-)equal RSS from
        two APs lies on the Signal Voronoi Edge between them, which on the
        road is the boundary between the tile led by ``a`` and the tile
        led by ``b`` (or where they swap at any signature position).
        """
        best: float | None = None
        for t0, t1 in zip(self.tiles, self.tiles[1:]):
            s0, s1 = t0.signature, t1.signature
            if bssid_a in s0 and bssid_b in s0 and bssid_a in s1 and bssid_b in s1:
                swapped = (s0.index(bssid_a) < s0.index(bssid_b)) != (
                    s1.index(bssid_a) < s1.index(bssid_b)
                )
            elif {bssid_a, bssid_b} & set(s0) and {bssid_a, bssid_b} & set(s1):
                swapped = s0[0] in (bssid_a, bssid_b) and s1[0] in (
                    bssid_a,
                    bssid_b,
                ) and s0[0] != s1[0]
            else:
                continue
            if swapped:
                boundary = t0.arc_end
                if best is None or abs(boundary - arc_hint) < abs(best - arc_hint):
                    best = boundary
        return best

    def without_aps(self, bssids: Iterable[str]) -> "RoadSVD":
        """Rebuild the diagram as if the given APs had vanished.

        Uses the cached samples, so this is cheap — matching the paper's
        point that AP dynamics only require a local, structural update.
        """
        dropped = set(bssids)
        filtered: list[_Sample] = [
            (arc, {b: v for b, v in rss.items() if b not in dropped})
            for arc, rss in self._samples
        ]
        return RoadSVD(self.route, self.order, filtered)

    def reordered(self, order: int) -> "RoadSVD":
        """The same diagram at a different order (cheap, cached samples)."""
        return RoadSVD(self.route, order, self._samples)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"RoadSVD(route={self.route.route_id!r}, order={self.order}, "
            f"{len(self.tiles)} tiles, mean {self.mean_tile_length():.1f} m)"
        )

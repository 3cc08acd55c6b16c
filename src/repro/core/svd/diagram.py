"""2-D grid Signal Voronoi Diagram.

A discretised implementation of Definitions 1 and 2 over a rectangular
region: every grid cell gets the rank signature of the mean RSS field at
its centre; maximal same-signature regions are the Signal Cells (order 1)
or Signal Tiles (order >= 2).  The class also exposes the structural
elements the paper draws in Fig. 2 — Signal Voronoi Edges, joint points,
tile boundaries with lengths, bisector joints — and the *off-road tile
rule* of Section III.B: a tile that does not intersect the road maps to
the road stretch of its neighbour with the longest shared boundary.

The grid diagram is meant for neighbourhood-scale analysis (figures,
structure tests, the off-road rule); route-scale positioning uses the
arc-length :class:`~repro.core.svd.road_svd.RoadSVD`.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

import numpy as np

from repro.core.svd.cells import SignalCell, SignalTile, TileBoundary
from repro.geometry import Point, Polyline
from repro.radio.ap import AccessPoint
from repro.radio.environment import RadioEnvironment
from repro.sensing.rank import Signature


class GridSVD:
    """Grid-sampled Signal Voronoi Diagram of a rectangular region.

    Parameters
    ----------
    rss_field:
        ``point -> {bssid: mean_rss}`` over detectable APs.
    bounds:
        ``(min_corner, max_corner)`` of the region.
    order:
        Signature length (1 = Signal Cells, 2 = Signal Tiles, ...).
    resolution_m:
        Grid cell edge length.
    """

    def __init__(
        self,
        rss_field: Callable[[Point], dict[str, float]],
        bounds: tuple[Point, Point],
        *,
        order: int = 2,
        resolution_m: float = 5.0,
    ) -> None:
        if order < 1:
            raise ValueError("order must be >= 1")
        if resolution_m <= 0:
            raise ValueError("resolution must be positive")
        lo, hi = bounds
        if hi.x <= lo.x or hi.y <= lo.y:
            raise ValueError("degenerate bounds")
        self.order = order
        self.resolution_m = resolution_m
        self._lo = lo
        nx = max(2, int(np.ceil((hi.x - lo.x) / resolution_m)))
        ny = max(2, int(np.ceil((hi.y - lo.y) / resolution_m)))
        self._nx, self._ny = nx, ny

        # Signature per grid cell, encoded as integer labels.
        self._sig_of_label: list[Signature] = []
        label_of_sig: dict[Signature, int] = {}
        labels = np.empty((ny, nx), dtype=np.int32)
        for iy in range(ny):
            for ix in range(nx):
                p = self._cell_center(ix, iy)
                rss = rss_field(p)
                items = sorted(rss.items(), key=lambda kv: (-kv[1], kv[0]))
                sig = tuple(b for b, _ in items[:order])
                lab = label_of_sig.get(sig)
                if lab is None:
                    lab = len(self._sig_of_label)
                    label_of_sig[sig] = lab
                    self._sig_of_label.append(sig)
                labels[iy, ix] = lab
        self._labels = labels

        self._tiles: dict[Signature, SignalTile] = self._region_stats()
        self._boundaries: dict[frozenset[Signature], TileBoundary] = (
            self._boundary_stats()
        )

    @classmethod
    def from_environment(
        cls,
        env: RadioEnvironment,
        bounds: tuple[Point, Point],
        *,
        order: int = 2,
        resolution_m: float = 5.0,
        geo_tagged_only: bool = True,
    ) -> "GridSVD":
        """Diagram of the environment's true mean field."""
        usable = {
            ap.bssid for ap in env.aps if ap.geo_tagged or not geo_tagged_only
        }

        def field(point: Point) -> dict[str, float]:
            out = {}
            for bssid in env.nearby_bssids(point, env.max_detection_range_m()):
                if bssid not in usable:
                    continue
                rss = env.mean_rss(point, bssid)
                if rss >= env.detection_threshold_dbm:
                    out[bssid] = rss
            return out

        return cls(field, bounds, order=order, resolution_m=resolution_m)

    @classmethod
    def from_aps_by_distance(
        cls,
        aps: Sequence[AccessPoint],
        bounds: tuple[Point, Point],
        *,
        order: int = 2,
        resolution_m: float = 5.0,
        max_range_m: float = 250.0,
    ) -> "GridSVD":
        """Equal-factors diagram: rank by distance (classical Voronoi for
        order 1)."""

        def field(point: Point) -> dict[str, float]:
            out = {}
            for ap in aps:
                d = point.distance_to(ap.position)
                if d <= max_range_m:
                    out[ap.bssid] = -d
            return out

        return cls(field, bounds, order=order, resolution_m=resolution_m)

    # -- internals ------------------------------------------------------------

    def _cell_center(self, ix: int, iy: int) -> Point:
        return Point(
            self._lo.x + (ix + 0.5) * self.resolution_m,
            self._lo.y + (iy + 0.5) * self.resolution_m,
        )

    def _region_stats(self) -> dict[Signature, SignalTile]:
        cell_area = self.resolution_m**2
        sums: dict[int, list[float]] = {}
        for iy in range(self._ny):
            for ix in range(self._nx):
                lab = int(self._labels[iy, ix])
                p = self._cell_center(ix, iy)
                acc = sums.setdefault(lab, [0.0, 0.0, 0.0])
                acc[0] += p.x
                acc[1] += p.y
                acc[2] += 1.0
        tiles = {}
        for lab, (sx, sy, n) in sums.items():
            sig = self._sig_of_label[lab]
            tiles[sig] = SignalTile(
                signature=sig,
                centroid=Point(sx / n, sy / n),
                area_m2=n * cell_area,
                num_grid_cells=int(n),
            )
        return tiles

    def _boundary_stats(self) -> dict[frozenset[Signature], TileBoundary]:
        edges: dict[frozenset[Signature], int] = {}
        lab = self._labels
        for iy in range(self._ny):
            for ix in range(self._nx):
                here = int(lab[iy, ix])
                if ix + 1 < self._nx and int(lab[iy, ix + 1]) != here:
                    key = frozenset(
                        (
                            self._sig_of_label[here],
                            self._sig_of_label[int(lab[iy, ix + 1])],
                        )
                    )
                    edges[key] = edges.get(key, 0) + 1
                if iy + 1 < self._ny and int(lab[iy + 1, ix]) != here:
                    key = frozenset(
                        (
                            self._sig_of_label[here],
                            self._sig_of_label[int(lab[iy + 1, ix])],
                        )
                    )
                    edges[key] = edges.get(key, 0) + 1
        out = {}
        for key, count in edges.items():
            a, b = sorted(key)
            out[key] = TileBoundary(
                signature_a=a,
                signature_b=b,
                length_m=count * self.resolution_m,
            )
        return out

    # -- structure queries ------------------------------------------------------

    @property
    def tiles(self) -> list[SignalTile]:
        """All tiles (or cells, at order 1), largest first."""
        return sorted(
            self._tiles.values(), key=lambda t: (-t.area_m2, t.signature)
        )

    def tile(self, signature: Signature) -> SignalTile:
        try:
            return self._tiles[signature]
        except KeyError:
            raise KeyError(f"no tile with signature {signature}") from None

    def has_tile(self, signature: Signature) -> bool:
        return signature in self._tiles

    def signal_cells(self) -> list[SignalCell]:
        """First-order view: aggregate tiles by their leading site."""
        cell_area = self.resolution_m**2
        agg: dict[str, list[float]] = {}
        for t in self._tiles.values():
            if not t.signature:
                continue
            acc = agg.setdefault(t.site, [0.0, 0.0, 0.0])
            acc[0] += t.centroid.x * t.num_grid_cells
            acc[1] += t.centroid.y * t.num_grid_cells
            acc[2] += t.num_grid_cells
        return [
            SignalCell(
                site=site,
                centroid=Point(sx / n, sy / n),
                area_m2=n * cell_area,
                num_grid_cells=int(n),
            )
            for site, (sx, sy, n) in sorted(agg.items())
        ]

    def boundaries(self) -> list[TileBoundary]:
        return sorted(
            self._boundaries.values(),
            key=lambda b: (-b.length_m, b.signature_a, b.signature_b),
        )

    def boundaries_of(self, signature: Signature) -> list[TileBoundary]:
        """Boundaries of one tile, longest first."""
        out = [b for b in self._boundaries.values() if b.involves(signature)]
        out.sort(key=lambda b: -b.length_m)
        return out

    def signal_voronoi_edges(self) -> list[TileBoundary]:
        """Boundaries between different Signal *Cells* (the SVEs)."""
        return [
            b
            for b in self.boundaries()
            if b.signature_a
            and b.signature_b
            and b.signature_a[0] != b.signature_b[0]
        ]

    def joint_points(self) -> list[Point]:
        """Grid corners where three or more Signal Cells meet."""
        lab = self._labels
        out = []
        for iy in range(self._ny - 1):
            for ix in range(self._nx - 1):
                quad = {
                    self._sig_of_label[int(lab[iy + dy, ix + dx])][0]
                    for dy in (0, 1)
                    for dx in (0, 1)
                    if self._sig_of_label[int(lab[iy + dy, ix + dx])]
                }
                if len(quad) >= 3:
                    out.append(
                        Point(
                            self._lo.x + (ix + 1) * self.resolution_m,
                            self._lo.y + (iy + 1) * self.resolution_m,
                        )
                    )
        return out

    def contains_point(self, point: Point) -> bool:
        """Whether the point lies inside the gridded region."""
        ix = int((point.x - self._lo.x) / self.resolution_m)
        iy = int((point.y - self._lo.y) / self.resolution_m)
        return 0 <= ix < self._nx and 0 <= iy < self._ny

    def signature_at(self, point: Point) -> Signature:
        """The signature of the grid cell containing ``point`` (clamped
        to the region border for boundary points)."""
        ix = int((point.x - self._lo.x) / self.resolution_m)
        iy = int((point.y - self._lo.y) / self.resolution_m)
        ix = min(max(ix, 0), self._nx - 1)
        iy = min(max(iy, 0), self._ny - 1)
        return self._sig_of_label[int(self._labels[iy, ix])]

    # -- the off-road tile-mapping rule ------------------------------------------

    def tiles_intersecting(
        self, polyline: Polyline, *, step_m: float = 2.0
    ) -> dict[Signature, tuple[float, float]]:
        """Signatures whose tiles the polyline crosses, with arc spans."""
        spans: dict[Signature, tuple[float, float]] = {}
        for arc, point in polyline.sample(step_m):
            if not self.contains_point(point):
                continue
            sig = self.signature_at(point)
            if sig in spans:
                lo, hi = spans[sig]
                spans[sig] = (min(lo, arc), max(hi, arc))
            else:
                spans[sig] = (arc, arc)
        return spans

    def map_tile_to_road(
        self, signature: Signature, road: Polyline, *, step_m: float = 2.0
    ) -> float:
        """Tile Mapping with the off-road rule (Section III.B).

        If the tile intersects the road, return the arc length of the road
        point nearest the tile centroid *within the intersection span*.
        Otherwise walk to the neighbouring tile with the longest shared
        boundary that does intersect the road and map onto its span.
        Raises ``LookupError`` when no road-touching tile is reachable.
        """
        spans = self.tiles_intersecting(road, step_m=step_m)

        def project_within(sig: Signature) -> float:
            lo, hi = spans[sig]
            proj = road.project(self.tile(sig).centroid)
            return min(max(proj.arc_length, lo), hi)

        if signature in spans:
            return project_within(signature)
        visited = {signature}
        frontier = [signature]
        while frontier:
            candidates: list[tuple[float, Signature]] = []
            for sig in frontier:
                for b in self.boundaries_of(sig):
                    other = b.other(sig)
                    if other in visited:
                        continue
                    candidates.append((b.length_m, other))
            candidates.sort(key=lambda lb: -lb[0])
            for _, other in candidates:
                if other in spans:
                    return project_within(other)
            frontier = [sig for _, sig in candidates]
            visited.update(frontier)
        raise LookupError("no road-intersecting tile reachable from signature")

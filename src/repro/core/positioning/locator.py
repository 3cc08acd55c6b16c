"""SVD-based position estimation from a single scan (Section III.B).

Given one scan report, :class:`SVDPositioner` produces a point on the
route:

1. Build the observed rank signature from the scan's usable (geo-tagged)
   readings.
2. *Tie rule*: if the two strongest readings are within ``tie_epsilon_db``
   the bus sits on the Signal Voronoi Edge between those APs; that edge's
   road crossing (the nearest such tile boundary) is the estimate —
   the points ``o``/``p`` of Fig. 2.
3. Otherwise find the best-matching road tiles by signature distance
   (exact match when the readings are clean; nearest signature when noise
   scrambled the ranks or the matched 2-D tile would not touch the road —
   on the arc-length diagram the nearest-signature tile plays the role of
   the longest-boundary neighbour of Section III.B) and map through the
   Tile Mapping (Definition 5): the tile's midpoint arc.
4. The mobility constraint enters as an optional feasible arc window from
   the tracker, restricting candidates before matching.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.svd.road_svd import RoadSVD, RoadTile
from repro.geometry import Point
from repro.sensing.rank import (
    Signature,
    full_ranking_from_readings,
    has_rank_tie,
)
from repro.sensing.reports import ScanReport


@dataclass(frozen=True, slots=True)
class PositionEstimate:
    """One positioning result on a route."""

    arc_length: float
    point: Point
    method: str
    signature_distance: float
    tile: RoadTile | None = None


class SVDPositioner:
    """Positions scans on one route using its :class:`RoadSVD`.

    Parameters
    ----------
    svd:
        The route's road-restricted diagram.
    known_bssids:
        APs usable by the server (geo-tagged); readings from other APs
        are ignored, as in the prototype.
    tie_epsilon_db:
        RSS gap under which the two strongest APs count as equal-ranked.
    candidates:
        How many best-matching tiles to consider.
    """

    def __init__(
        self,
        svd: RoadSVD,
        known_bssids: set[str] | None = None,
        *,
        tie_epsilon_db: float = 1.0,
        candidates: int = 5,
    ) -> None:
        if candidates < 1:
            raise ValueError("need at least one candidate")
        self.svd = svd
        self.known_bssids = known_bssids
        self.tie_epsilon_db = tie_epsilon_db
        self.candidates = candidates

    @property
    def route(self):
        return self.svd.route

    def observed_signature(self, report: ScanReport) -> Signature:
        """The scan's full usable ranking, strongest first."""
        return full_ranking_from_readings(report.readings, known=self.known_bssids)

    def locate(
        self,
        report: ScanReport,
        *,
        arc_window: tuple[float, float] | None = None,
    ) -> PositionEstimate | None:
        """Estimate the route position for one scan.

        Returns None when the scan contains no usable readings.
        ``arc_window`` is the tracker's feasible interval (mobility
        constraint); candidates outside it are only used when nothing
        inside matches.
        """
        observed = self.observed_signature(report)
        if not observed:
            return None

        hint = (
            (arc_window[0] + arc_window[1]) / 2.0
            if arc_window is not None
            else self.svd.route.length / 2.0
        )

        # Tie rule: equal ranks put the bus on the corresponding SVE.
        if len(observed) >= 2 and has_rank_tie(
            report.readings, self.tie_epsilon_db, known=self.known_bssids
        ):
            boundary = self.svd.boundary_between(hint, observed[0], observed[1])
            if boundary is not None and (
                arc_window is None
                or arc_window[0] <= boundary <= arc_window[1]
            ):
                return PositionEstimate(
                    arc_length=boundary,
                    point=self.route.point_at(boundary),
                    method="tie-boundary",
                    signature_distance=0.0,
                    tile=self.svd.tile_at(boundary),
                )

        matches = self.svd.best_matches(
            observed, top=self.candidates, arc_window=arc_window
        )
        if not matches:  # pragma: no cover - diagram always has tiles
            return None
        tile, dist = matches[0]
        method = "tile" if dist == 0.0 else "nearest-signature"
        arc = tile.midpoint_arc
        return PositionEstimate(
            arc_length=arc,
            point=self.route.point_at(arc),
            method=method,
            signature_distance=dist,
            tile=tile,
        )

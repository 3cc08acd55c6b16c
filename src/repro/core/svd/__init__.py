"""Signal Voronoi Diagrams (Section III.A).

Two complementary implementations:

* :class:`RoadSVD` — the production structure: the SVD restricted to a bus
  route's polyline, as an ordered list of arc-length tiles.  Positioning
  only ever needs this restriction (the mobility constraint).
* :class:`GridSVD` — a 2-D grid diagram exposing the full structure of
  Fig. 2 (Signal Cells, Tiles, SVEs, joint points, boundary lengths) and
  the off-road tile-mapping rule.

Plus the rank-signature algebra both build on, and the Euclidean special
case (classical Voronoi) used for server-side construction from geo-tags.
"""

from repro.core.svd.cells import SignalCell, SignalTile, TileBoundary
from repro.core.svd.diagram import GridSVD
from repro.core.svd.euclidean import (
    bisector_crossing_on_segment,
    distance_rank_signature,
    nearest_ap,
)
from repro.core.svd.road_svd import RoadSVD, RoadTile
from repro.sensing.rank import (
    Signature,
    full_ranking_from_readings,
    has_rank_tie,
    rank_agreement,
    signature_distance,
    signature_from_readings,
    signature_from_rss,
)

__all__ = [
    "Signature",
    "signature_from_rss",
    "signature_from_readings",
    "full_ranking_from_readings",
    "signature_distance",
    "rank_agreement",
    "has_rank_tie",
    "RoadSVD",
    "RoadTile",
    "GridSVD",
    "SignalCell",
    "SignalTile",
    "TileBoundary",
    "distance_rank_signature",
    "nearest_ap",
    "bisector_crossing_on_segment",
]

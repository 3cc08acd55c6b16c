"""The Euclidean special case of the SVD.

Section III.A: "only in the ideal case where all of these parameters are
equal for all APs will the SVD be the same as the VD.  Therefore, the
conventional Voronoi Diagram is just a special case of SVD."  These
helpers provide that special case directly from AP geo-tags: rank by
distance.  They are used by the equivalence tests and by the
distance-based (server-side) SVD construction.
"""

from __future__ import annotations

from typing import Sequence

from repro.geometry import Point
from repro.radio.ap import AccessPoint
from repro.sensing.rank import Signature


def distance_rank_signature(
    point: Point,
    aps: Sequence[AccessPoint],
    order: int,
    *,
    max_range_m: float | None = None,
) -> Signature:
    """Top-``order`` APs by proximity to ``point`` (nearest first)."""
    if order < 1:
        raise ValueError("order must be >= 1")
    scored = []
    for ap in aps:
        d = point.distance_to(ap.position)
        if max_range_m is None or d <= max_range_m:
            scored.append((d, ap.bssid))
    scored.sort()
    return tuple(b for _, b in scored[:order])


def nearest_ap(point: Point, aps: Sequence[AccessPoint]) -> AccessPoint:
    """The Voronoi generator whose cell contains ``point``."""
    if not aps:
        raise ValueError("need at least one AP")
    return min(aps, key=lambda ap: (point.distance_to(ap.position), ap.bssid))


def bisector_crossing_on_segment(
    a: Point, b: Point, p: Point, q: Point
) -> float | None:
    """Where the perpendicular bisector of sites p, q crosses segment ab.

    Returns the parameter ``t`` in [0, 1] along ``a + t(b - a)``, or None
    when the bisector misses the segment.  Used to locate the exact
    Voronoi-edge crossing of a road in the Euclidean special case
    (the points ``s, o`` of Fig. 2).
    """
    # f(t) = |x(t) - p|^2 - |x(t) - q|^2 is linear in t; solve f(t) = 0.
    def f(t: float) -> float:
        x = Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))
        return x.distance_to(p) ** 2 - x.distance_to(q) ** 2

    f0, f1 = f(0.0), f(1.0)
    if f0 == f1:
        return 0.0 if f0 == 0.0 else None
    t = f0 / (f0 - f1)
    if 0.0 <= t <= 1.0:
        return t
    return None

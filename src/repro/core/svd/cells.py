"""Signal Cells and Signal Tiles (Definitions 1 and 2)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.geometry import Point
from repro.sensing.rank import Signature


@dataclass(frozen=True, slots=True)
class SignalCell:
    """A first-order region: all points hearing ``site`` strongest.

    ``area_m2`` and ``centroid`` are estimated from the grid
    discretisation that produced the cell.
    """

    site: str
    centroid: Point
    area_m2: float
    num_grid_cells: int

    @property
    def signature(self) -> Signature:
        return (self.site,)


@dataclass(frozen=True, slots=True)
class SignalTile:
    """A higher-order region: constant top-k RSS rank signature.

    For order 2 this is ``ST(p_i, p_nj)`` of Definition 2 — the part of
    ``SC(p_i)`` where ``p_nj`` is the runner-up.  Within the tile the
    mean-RSS values of the signature's APs are ordered (Proposition 1).
    """

    signature: Signature
    centroid: Point
    area_m2: float
    num_grid_cells: int

    @property
    def site(self) -> str:
        """The generator of the parent Signal Cell."""
        return self.signature[0]


@dataclass(frozen=True, slots=True)
class TileBoundary:
    """Shared boundary between two adjacent tiles.

    ``length_m`` approximates the boundary length (shared grid-edge
    count x resolution).  The boundary between two first-order cells is a
    Signal Voronoi Edge (Definition 1); between higher-order tiles of the
    same cell it is a tile boundary, meeting others at bisector joints.
    """

    signature_a: Signature
    signature_b: Signature
    length_m: float

    def involves(self, signature: Signature) -> bool:
        return signature in (self.signature_a, self.signature_b)

    def other(self, signature: Signature) -> Signature:
        if signature == self.signature_a:
            return self.signature_b
        if signature == self.signature_b:
            return self.signature_a
        raise KeyError(f"{signature} is not a side of this boundary")

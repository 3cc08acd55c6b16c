"""RSS rank signatures and distances between them.

The paper's key observation: instantaneous RSS is noisy (±10 dB at a fixed
point) but the *rank order* of RSS from different APs is relatively stable.
A *signature* here is the tuple of BSSIDs ordered by descending RSS,
truncated to the diagram order:

* order 1 — ``(strongest,)`` → Signal Cells;
* order 2 — ``(strongest, runner-up)`` → Signal Tiles (Definition 2);
* order k — top-k prefix → the k-th order diagram; the full permutation
  is the finest tile of Proposition 1.

Matching a noisy observed ranking to the diagram's signatures needs a
distance; :func:`signature_distance` is a Spearman-footrule-style metric on
the tile's signature positions, with a fixed penalty for APs the scan did
not see at all.

The module lives in :mod:`repro.sensing` (not ``core.svd``) because a
ranking is a property of one *scan*: it depends only on the radio layer's
:class:`~repro.radio.environment.Reading` and is needed below ``core`` —
rider-to-bus grouping ranks contemporaneous scans long before the server's
SVD matching sees them.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.radio.environment import Reading

Signature = tuple[str, ...]


def signature_from_rss(
    rss: Mapping[str, float], order: int, *, known: set[str] | None = None
) -> Signature:
    """Top-``order`` BSSIDs by descending RSS.

    ``known`` restricts to BSSIDs the server can use (geo-tagged APs);
    unknown APs are ignored, as the prototype does (Section V.B).  Exact
    RSS ties break by BSSID for determinism.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    items = [
        (b, v) for b, v in rss.items() if known is None or b in known
    ]
    items.sort(key=lambda kv: (-kv[1], kv[0]))
    return tuple(b for b, _ in items[:order])


def signature_from_readings(
    readings: Sequence[Reading], order: int, *, known: set[str] | None = None
) -> Signature:
    """Signature of one scan's readings."""
    return signature_from_rss(
        {r.bssid: r.rss_dbm for r in readings}, order, known=known
    )


def full_ranking_from_readings(
    readings: Sequence[Reading], *, known: set[str] | None = None
) -> Signature:
    """The complete observed ranking (all usable APs, strongest first)."""
    return signature_from_rss(
        {r.bssid: r.rss_dbm for r in readings},
        order=max(len(readings), 1),
        known=known,
    )


def signature_distance(observed: Signature, tile_signature: Signature) -> float:
    """How badly an observed ranking fits a tile's signature.

    For each AP at position ``i`` of the tile signature, add
    ``|i - position in observed|``; APs missing from the observed ranking
    cost ``len(observed) + 1`` each (they should have been visible).
    0 means the observed ranking starts exactly with the tile's signature.

    The metric is intentionally asymmetric: the tile signature is the
    short reference prefix, the observation is the (longer, noisy)
    evidence.
    """
    if not tile_signature:
        return float(len(observed) + 1)
    pos = {b: i for i, b in enumerate(observed)}
    miss_cost = float(len(observed) + 1)
    total = 0.0
    for i, b in enumerate(tile_signature):
        j = pos.get(b)
        total += miss_cost if j is None else abs(i - j)
    return total


def rank_agreement(observed: Signature, tile_signature: Signature) -> float:
    """Normalised agreement in [0, 1]; 1 means a perfect prefix match."""
    if not tile_signature:
        return 0.0
    worst = len(tile_signature) * (len(observed) + 1)
    if worst == 0:
        return 0.0
    return 1.0 - min(signature_distance(observed, tile_signature) / worst, 1.0)


def has_rank_tie(
    readings: Sequence[Reading], epsilon_db: float, *, known: set[str] | None = None
) -> bool:
    """Whether the two strongest usable readings are within ``epsilon_db``.

    The paper treats (near-)equal ranks specially: the point then lies on
    a Signal Voronoi Edge / tile boundary, which pins the position to the
    boundary's road crossing.
    """
    usable = [r for r in readings if known is None or r.bssid in known]
    if len(usable) < 2:
        return False
    usable = sorted(usable, key=lambda r: -r.rss_dbm)
    return abs(usable[0].rss_dbm - usable[1].rss_dbm) <= epsilon_db

"""Filter bounds for prefix-filtering joins over top-k rankings.

Everything in this module is a pure function of ``k`` and the distance
threshold.  Thresholds appear in two flavours throughout the library:

* **normalized** — the user-facing value in ``[0, 1]`` used by the paper's
  evaluation (e.g. ``theta = 0.3``);
* **raw** — the integer-valued Footrule mass ``theta * k * (k + 1)``.

The conversion helpers live here so no other module hand-rolls it.

Derivations (checked by the property tests in
``tests/test_bounds_properties.py``):

* *Minimum overlap* — two rankings overlapping in ``o`` items have Footrule
  distance at least ``(k - o) * (k - o + 1)``: each side's ``k - o`` private
  items contribute at least ``k - rank`` and are cheapest when packed at the
  bottom ranks.  Requiring this to stay <= theta yields
  ``o >= 0.5 * (1 + 2k - sqrt(1 + 4 * theta_raw))`` (prior work [18] of the
  authors, restated in Section 4).
* *Overlap prefix* — if rankings are (conceptually) sorted in a canonical
  item order and two rankings must share at least ``o`` items, then each
  must index its first ``p = k - o + 1`` items: two rankings whose prefixes
  are disjoint share at most ``k - p = o - 1 < o`` items.
* *Ordered prefix* (Lemma 4.1) — keeping the rankings in rank order, the
  smallest Footrule distance two rankings can have when their first ``p``
  items are disjoint is ``L(p, k) = 2 * p**2`` (equal domains, the top-p
  items swapped into positions ``p .. 2p-1``), so
  ``p_o = floor(sqrt(theta_raw) / sqrt(2)) + 1`` suffices as long as
  ``theta_raw < k**2 / 2``.
* *Position filter* (prior work [19], used in Section 4) — for equal-length
  top-k lists the signed rank displacements sum to zero, so a single shared
  item displaced by more than ``theta_raw / 2`` already forces
  ``F > theta_raw``.
"""

from __future__ import annotations

import math

from .distances import max_footrule


def normalize_threshold(theta_raw: float, k: int) -> float:
    """Convert a raw Footrule threshold to the normalized ``[0, 1]`` scale."""
    return theta_raw / max_footrule(k)


def raw_threshold(theta: float, k: int) -> float:
    """Convert a normalized threshold to raw Footrule mass.

    The result is intentionally *not* floored: verification compares the
    integer distance with ``<=`` against this float.  A product within
    1e-9 of an integer is snapped to it, because the float product can
    land just below a threshold the caller wrote exactly
    (``0.70 * 650 == 454.99999999999994``) and would then reject
    distance 455, i.e. normalized distance exactly 0.70.
    """
    if theta < 0:
        raise ValueError(f"threshold must be non-negative, got {theta}")
    raw = theta * max_footrule(k)
    if 1e-9 < raw % 1.0 < 1.0 - 1e-9:
        return raw
    return float(round(raw))


def admits_disjoint_pairs(theta_raw: float, k: int) -> bool:
    """True when even item-disjoint rankings satisfy the threshold.

    Happens only at ``theta_raw >= k * (k + 1)`` (normalized theta = 1).
    Inverted-index joins cannot retrieve pairs sharing zero items, so the
    algorithms fall back to the exhaustive join in this degenerate regime
    (where every pair is a result anyway).
    """
    return theta_raw >= max_footrule(k)


def min_footrule_at_overlap(k: int, overlap: int) -> int:
    """Smallest Footrule distance achievable with exactly ``overlap`` shared items."""
    if not 0 <= overlap <= k:
        raise ValueError(f"overlap must be in [0, {k}], got {overlap}")
    private = k - overlap
    return private * (private + 1)


def min_overlap(theta_raw: float, k: int) -> int:
    """Minimum number of shared items of any result pair at threshold ``theta_raw``.

    ``o = ceil(0.5 * (1 + 2k - sqrt(1 + 4 * theta_raw)))``, clamped to
    ``[0, k]``.  A non-positive value means even disjoint rankings can be
    within the threshold.
    """
    o = math.ceil(0.5 * (1 + 2 * k - math.sqrt(1 + 4 * theta_raw)))
    return min(max(o, 0), k)


def overlap_prefix_size(theta_raw: float, k: int) -> int:
    """Prefix size under the canonical (frequency) ordering: ``k - o + 1``.

    When the minimum overlap is zero no prefix can prune anything and the
    full ranking (size ``k``) must be indexed.
    """
    o = min_overlap(theta_raw, k)
    if o <= 0:
        return k
    return min(k - o + 1, k)


def ordered_prefix_size(theta_raw: float, k: int) -> int:
    """Ordered prefix size of Lemma 4.1: ``floor(sqrt(theta_raw / 2)) + 1``.

    Only valid for ``theta_raw < k**2 / 2`` (about 0.45 normalized for
    k = 10); beyond that the lemma's packing argument breaks down and we
    conservatively fall back to the full ranking.
    """
    if theta_raw >= k * k / 2:
        return k
    p = math.floor(math.sqrt(theta_raw / 2.0)) + 1
    return min(p, k)


def min_footrule_disjoint_prefix(p: int, k: int) -> int:
    """``L(p, k) = 2 p^2`` — cheapest distance with disjoint size-p prefixes.

    Valid for ``p <= k / 2`` (Lemma 4.1's regime); used by tests to confirm
    the prefix derivation against exhaustively constructed rankings.
    """
    if not 0 <= p <= k:
        raise ValueError(f"p must be in [0, {k}], got {p}")
    return 2 * p * p


def position_filter_bound(theta_raw: float) -> float:
    """Maximum rank difference a shared item of a result pair can have.

    If some shared item ``i`` has ``|tau(i) - sigma(i)| > theta_raw / 2``
    then ``F(tau, sigma) > theta_raw`` and the pair can be pruned without
    verification.
    """
    return theta_raw / 2.0


def passes_position_filter(rank_a: int, rank_b: int, theta_raw: float) -> bool:
    """Position-filter check for one shared item at ranks ``rank_a``/``rank_b``."""
    return abs(rank_a - rank_b) <= position_filter_bound(theta_raw)


def jaccard_min_overlap(theta: float, k: int) -> int:
    """Minimum overlap of two size-k sets with Jaccard *distance* <= theta.

    With ``|A| = |B| = k`` and overlap ``o``: ``J_dist = 1 - o / (2k - o)``,
    so ``o >= k * (1 - theta) * 2 / (2 - ... )`` — solving,
    ``o >= ceil(k * (1 - theta) * 2 / (2 - (1 - theta)))`` simplifies to
    ``o >= ceil(2k(1-theta) / (1+ (1-theta)))``.  Used by the Jaccard join
    extension.
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"jaccard threshold must be in [0, 1], got {theta}")
    similarity = 1.0 - theta
    if similarity <= 0.0:
        return 0
    o = math.ceil(2 * k * similarity / (1 + similarity))
    return min(max(o, 0), k)


def jaccard_prefix_size(theta: float, k: int) -> int:
    """Prefix size for the Jaccard-distance join extension."""
    o = jaccard_min_overlap(theta, k)
    if o <= 0:
        return k
    return min(k - o + 1, k)

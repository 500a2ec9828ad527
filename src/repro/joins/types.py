"""Shared types of the similarity-join algorithms."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..rankings.bounds import raw_threshold
from ..rankings.dataset import RankingDataset
from ..rankings.distances import footrule, max_footrule


def canonical_pair(rid_a: int, rid_b: int) -> tuple:
    """Order a result pair by id — the paper's (τi, τj), τi < τj convention."""
    if rid_a == rid_b:
        raise ValueError(f"self-pair for ranking {rid_a}")
    if rid_a < rid_b:
        return (rid_a, rid_b)
    return (rid_b, rid_a)


@dataclass
class JoinStats:
    """Counters an algorithm accumulates while running.

    ``candidates`` counts pairs that reached the filter pipeline,
    ``position_filtered`` those killed by the position filter,
    ``triangle_filtered``/``triangle_accepted`` the expansion-phase
    shortcuts, and ``verified`` the full Footrule computations — the cost
    the filters exist to avoid.  ``dedup_skipped`` counts pairs the
    rarest-common-prefix-item rule skipped because another group owns
    them — duplicates that would otherwise be re-verified and then
    dropped in a dedicated shuffle.
    """

    candidates: int = 0
    position_filtered: int = 0
    dedup_skipped: int = 0
    triangle_filtered: int = 0
    triangle_accepted: int = 0
    verified: int = 0
    results: int = 0
    clusters: int = 0
    cluster_members: int = 0
    singletons: int = 0
    repartitioned_groups: int = 0

    def merge(self, other: "JoinStats") -> "JoinStats":
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        return self


@dataclass
class JoinResult:
    """Outcome of a similarity join.

    ``pairs`` holds ``(rid_i, rid_j, raw_distance)`` with ``rid_i < rid_j``.
    The distance is ``None`` for pairs an algorithm admitted without
    verification (same-cluster members, triangle-inequality accepts) — call
    :meth:`with_distances` to fill them in.
    """

    pairs: list
    theta: float
    k: int
    stats: JoinStats = field(default_factory=JoinStats)
    phase_seconds: dict = field(default_factory=dict)
    algorithm: str = ""

    def pair_set(self) -> set:
        """The result as a set of id pairs (what correctness tests compare)."""
        return {(i, j) for i, j, _ in self.pairs}

    def __len__(self) -> int:
        return len(self.pairs)

    @property
    def theta_raw(self) -> float:
        return raw_threshold(self.theta, self.k)

    def normalized_pairs(self) -> list:
        """Pairs with distances normalized to [0, 1] (None preserved)."""
        top = max_footrule(self.k)
        return [
            (i, j, None if d is None else d / top) for i, j, d in self.pairs
        ]

    def with_distances(self, dataset: RankingDataset) -> "JoinResult":
        """Fill in distances the algorithm skipped computing."""
        by_id = dataset.by_id()
        filled = [
            (i, j, footrule(by_id[i], by_id[j]) if d is None else d)
            for i, j, d in self.pairs
        ]
        return JoinResult(
            pairs=filled,
            theta=self.theta,
            k=self.k,
            stats=self.stats,
            phase_seconds=dict(self.phase_seconds),
            algorithm=self.algorithm,
        )

    @property
    def total_seconds(self) -> float:
        return sum(self.phase_seconds.values())

"""Dictionary encoding of ranking items to dense integers.

The join token pipeline replaces arbitrary hashable items with dense int
codes assigned in the *canonical frequency order*: the rarest item gets
code 0, the most frequent the largest code (ties broken by item id, like
:func:`repro.rankings.ordering.frequency_order_key`).  Two properties make
this the right code assignment:

* comparing codes *is* comparing canonical positions, so "the rarest
  common prefix item of a pair" is simply the minimum shared code — the
  O(p) merge-walk the rarest-item deduplication rule runs per candidate;
* the codes are small contiguous ints, so prefix tokens and encoded
  rankings pickle to a fraction of the bytes of the original payloads —
  the quantity ``StageMetrics.shuffle_bytes`` measures.

Footrule distances only depend on item *identity* and positions, so a join
over encoded rankings returns byte-identical ``(rid_i, rid_j, distance)``
results to one over the originals.

:class:`ColumnarStore` is the columnar form of the broadcast ranking
store: instead of a ``rid -> OrderedRanking`` dict of Python objects it
holds one contiguous ``(n, k)`` int32 matrix of encoded items in rank
order plus a ``rid -> row`` index.  The vectorized verification kernels
(:mod:`repro.joins.kernels`) slice whole candidate groups out of it as
numpy arrays; the scalar kernels go through the lazy
``store[rid].ranking`` view, which materializes (and caches) a
ranking object only when a verification actually touches that rid —
rank tables are never eagerly built for every ranking on the
driver.  Broadcasting the store ships two array buffers instead of n
objects, which makes the ``processes`` backend's per-stage broadcast
near-zero-copy (fork inherits the buffers copy-on-write).
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from .ordering import OrderedRanking, frequency_order_key
from .ranking import Ranking


class ItemEncoder:
    """Bidirectional item <-> dense-code table in canonical order.

    Built from a global frequency table (the output of the ordering
    phase's counting job); codes ascend with ``(frequency, item)``, so
    ``code_a < code_b`` iff item ``a`` precedes item ``b`` in the
    canonical frequency order.
    """

    __slots__ = ("items", "code_of")

    def __init__(self, frequencies: Mapping):
        self.items: tuple = tuple(
            sorted(frequencies, key=frequency_order_key(frequencies))
        )
        self.code_of: dict = {
            item: code for code, item in enumerate(self.items)
        }

    def __len__(self) -> int:
        return len(self.items)

    def encode(self, item) -> int:
        try:
            return self.code_of[item]
        except KeyError:
            raise KeyError(
                f"item {item!r} is not in the encoder's dictionary; the "
                "encoder must be built from the frequencies of the joined "
                "dataset itself"
            ) from None

    def decode(self, code: int):
        return self.items[code]

    def drift_from(self, frozen: "ItemEncoder") -> dict:
        """How far this (live) dictionary has drifted from a frozen snapshot.

        The serving layer freezes the canonical order when an index is
        (re)built; as rankings arrive and leave, the *true* frequency
        order walks away from the frozen one.  Correctness never depends
        on the frozen order matching reality (any agreed total order
        works for the prefix bound), but posting-list balance does, so
        drift is the re-canonicalization trigger.  Returns:

        * ``new_item_fraction`` — share of live items absent from the
          frozen dictionary (they all sort as maximally rare);
        * ``mean_displacement`` — mean |live code - frozen code| of the
          shared items, normalized by the live dictionary size (0 means
          the orders agree exactly, 1 would mean every item moved across
          the whole dictionary);
        * ``score`` — their sum, the scalar a threshold compares against.
        """
        size = len(self.items)
        if size == 0:
            return {
                "num_items": 0,
                "new_item_fraction": 0.0,
                "mean_displacement": 0.0,
                "score": 0.0,
            }
        frozen_code = frozen.code_of
        new_items = 0
        total_displacement = 0
        shared = 0
        for code, item in enumerate(self.items):
            old = frozen_code.get(item)
            if old is None:
                new_items += 1
            else:
                shared += 1
                total_displacement += abs(code - old)
        new_fraction = new_items / size
        displacement = (
            total_displacement / shared / size if shared else 0.0
        )
        return {
            "num_items": size,
            "new_item_fraction": new_fraction,
            "mean_displacement": displacement,
            "score": new_fraction + displacement,
        }


def encode_ordered(ranking: Ranking, encoder: ItemEncoder) -> OrderedRanking:
    """Encode and frequency-order one ranking in a single pass.

    The encoded ranking keeps the original rid and rank order; the
    canonical ``(code, original_rank)`` pairs fall out of a plain sort by
    code because code order equals the canonical ``(frequency, item)``
    order.
    """
    code_of = encoder.code_of
    codes = tuple(code_of[item] for item in ranking.items)
    pairs = sorted((code, rank) for rank, code in enumerate(codes))
    return OrderedRanking(Ranking(ranking.rid, codes), pairs)


def encode_rank_ordered(
    ranking: Ranking, encoder: ItemEncoder
) -> OrderedRanking:
    """Encode one ranking keeping the rank order as the canonical order.

    The counterpart of the ``"ordered"`` prefix scheme (Lemma 4.1): the
    prefix is the top-``p`` items themselves, so the pairs stay in rank
    order instead of being re-sorted by code.
    """
    code_of = encoder.code_of
    codes = tuple(code_of[item] for item in ranking.items)
    pairs = [(code, rank) for rank, code in enumerate(codes)]
    return OrderedRanking(Ranking(ranking.rid, codes), pairs)


class _StoreEntry:
    """Lazy scalar view of one store row (``entry.ranking`` compatible)."""

    __slots__ = ("ranking",)

    def __init__(self, ranking: Ranking):
        self.ranking = ranking


class ColumnarStore:
    """Columnar broadcast store of encoded rankings.

    Layout: ``rids`` is an ``(n,)`` int64 array, ``codes`` an ``(n, k)``
    int32 matrix whose row ``i`` holds ranking ``rids[i]``'s encoded
    items in *original rank order* (so ``codes[i, r]`` is the item at
    rank ``r`` — the column index is the rank, which is why no separate
    ranks array is stored).  ``row_of`` maps rid -> row for O(1) lookup.

    The store stands in for a ``rid -> OrderedRanking`` dict of Python
    objects.  Vectorized kernels read the arrays directly; scalar
    kernels go through ``store[rid].ranking``, which materializes the
    ranking object on demand and caches it (rank tables stay lazy inside
    :class:`~repro.rankings.ranking.Ranking` itself).  The cache is
    dropped on pickling so a broadcast ships only the two arrays plus
    the rid index.
    """

    __slots__ = (
        "rids", "codes", "row_of", "num_codes", "_cache", "_row_lookup",
    )

    def __init__(self, rids: np.ndarray, codes: np.ndarray, num_codes: int):
        self.rids = rids
        self.codes = codes
        self.row_of: dict = {int(rid): row for row, rid in enumerate(rids)}
        self.num_codes = num_codes
        self._cache: dict = {}
        self._row_lookup = None

    @classmethod
    def from_ordered(
        cls, ordered: Iterable[OrderedRanking], num_codes: int
    ) -> "ColumnarStore":
        """Build from encoded ordered rankings (all of equal length k)."""
        ordered = list(ordered)
        rids = np.fromiter(
            (o.rid for o in ordered), dtype=np.int64, count=len(ordered)
        )
        if ordered:
            k = len(ordered[0].ranking.items)
            codes = np.empty((len(ordered), k), dtype=np.int32)
            for row, o in enumerate(ordered):
                items = o.ranking.items
                if len(items) != k:
                    raise ValueError(
                        "ColumnarStore requires equal-length rankings; got "
                        f"k={len(items)} for rid {o.rid}, expected {k}"
                    )
                codes[row] = items
        else:
            codes = np.empty((0, 0), dtype=np.int32)
        return cls(rids, codes, num_codes)

    @property
    def k(self) -> int:
        return self.codes.shape[1]

    def __len__(self) -> int:
        return len(self.row_of)

    def __iter__(self):
        """Iterate rids in store (collect) order, like a dict."""
        return iter(self.row_of)

    def __contains__(self, rid) -> bool:
        return rid in self.row_of

    def __getitem__(self, rid) -> _StoreEntry:
        entry = self._cache.get(rid)
        if entry is None:
            row = self.row_of[rid]
            ranking = Ranking(rid, (int(c) for c in self.codes[row]))
            entry = self._cache[rid] = _StoreEntry(ranking)
        return entry

    def rows_of(self, rids: np.ndarray) -> np.ndarray:
        """Vectorized rid -> row translation for whole rid arrays.

        The batch kernels localize one group's members per call; a
        Python dict lookup per member dominated that setup, so this
        resolves the whole array through one ``searchsorted`` against a
        lazily built sorted index.  Every rid must be present in the
        store (kernels only look up rids the token stream produced).
        """
        lookup = self._row_lookup
        if lookup is None:
            order = np.argsort(self.rids, kind="stable")
            lookup = self._row_lookup = (self.rids[order], order)
        sorted_rids, order = lookup
        return order[np.searchsorted(sorted_rids, rids)]

    def materialized_count(self) -> int:
        """How many rids have been materialized as scalar objects."""
        return len(self._cache)

    def __getstate__(self):
        return (self.rids, self.codes, self.num_codes)

    def __setstate__(self, state):
        rids, codes, num_codes = state
        self.rids = rids
        self.codes = codes
        self.row_of = {int(rid): row for row, rid in enumerate(rids)}
        self.num_codes = num_codes
        self._cache = {}
        self._row_lookup = None

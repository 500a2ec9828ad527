"""Independent correctness oracle of the benchmark ladder.

numpy + stdlib only; imports nothing from ``repro``.  Rankings are rows
of an ``(n, k)`` integer matrix (column = rank, value = item id) next to
an ``(n,)`` rid vector.  Thresholds are whole hundredths and every
comparison is integer: a pair is a result iff

    100 * d  <=  theta_hundredths * k * (k + 1)

so the oracle has no floating-point boundary (ROADMAP 4a is about the
program's float ``raw_threshold``; the ladder's thresholds 0.25 and 0.05
give non-integer raw thresholds for k = 10 and k = 25, so program and
oracle agree whichever way that bug is fixed).

Distance: Fagin et al.'s top-k Footrule with the artificial rank ``k``
for absent items, ranks running ``0 .. k-1``.
"""

from __future__ import annotations

import hashlib

import numpy as np


def dataset_sha256(rids: np.ndarray, items: np.ndarray) -> str:
    """Fingerprint of a generated dataset (rids and item matrix)."""
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(rids, dtype=np.int64).tobytes())
    digest.update(np.ascontiguousarray(items, dtype=np.int64).tobytes())
    return digest.hexdigest()


def pairs_sha256(pairs) -> str:
    """SHA-256 of a result's ``(rid_i, rid_j)`` pairs, sorted."""
    array = np.asarray(sorted(pairs), dtype=np.int64).reshape(-1, 2)
    return hashlib.sha256(array.tobytes()).hexdigest()


def within(distances: np.ndarray, theta_hundredths: int, k: int) -> np.ndarray:
    return 100 * distances <= theta_hundredths * k * (k + 1)


def footrule_to_rows(items: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Footrule distance from ``query`` (k items) to every row of ``items``.

    ``seen[r, p]`` is the query's rank of the item row ``r`` holds at rank
    ``p`` (``k`` when the query lacks it).  Items of the row cost
    ``|p - seen|``; items only the query holds cost ``k`` minus their rank
    there, which is the full mass ``k (k + 1) / 2`` less the shared part.
    """
    n, k = items.shape
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    query = np.asarray(query, dtype=np.int64)
    rank_in_query = np.full(int(max(items.max(), query.max())) + 1, k, dtype=np.int64)
    rank_in_query[query] = np.arange(k)
    seen = rank_in_query[items]
    row_side = np.abs(seen - np.arange(k)).sum(axis=1)
    shared_mass = np.where(seen < k, k - seen, 0).sum(axis=1)
    return row_side + k * (k + 1) // 2 - shared_mass


class Corpus:
    """A mutable set of rankings the oracle answers range queries over.

    Candidates come from a bound the program does not use: an item the
    query holds at rank ``j`` costs ``k - j`` when the other ranking
    lacks it, so every result contains each query item with
    ``100 * (k - j) > theta_hundredths * k * (k + 1)``.  Rows holding the
    rarest such item are scanned exactly; with no such item (large
    thresholds) every row is.
    """

    def __init__(self, rids, items):
        self.k = int(np.asarray(items).shape[1])
        self._rows: dict = {}
        self._holders: dict = {}
        for rid, row in zip(np.asarray(rids).tolist(), np.asarray(items).tolist()):
            self.insert(rid, row)

    def __len__(self) -> int:
        return len(self._rows)

    def insert(self, rid: int, row) -> None:
        if rid in self._rows:
            raise KeyError(f"rid {rid} already present")
        row = tuple(int(item) for item in row)
        self._rows[rid] = row
        for item in row:
            self._holders.setdefault(item, set()).add(rid)

    def delete(self, rid: int) -> None:
        for item in self._rows.pop(rid):
            self._holders[item].discard(rid)

    def range_query(self, query, theta_hundredths: int, exclude_rid=None) -> list:
        """``(rid, distance)`` of every stored ranking within the threshold,
        sorted by ``(distance, rid)``."""
        k = self.k
        query = [int(item) for item in query]
        required = [
            item for j, item in enumerate(query)
            if 100 * (k - j) > theta_hundredths * k * (k + 1)
        ]
        if required:
            rarest = min(required, key=lambda item: len(self._holders.get(item, ())))
            rids = sorted(self._holders.get(rarest, ()))
        else:
            rids = sorted(self._rows)
        if exclude_rid is not None:
            rids = [rid for rid in rids if rid != exclude_rid]
        if not rids:
            return []
        rows = np.asarray([self._rows[rid] for rid in rids], dtype=np.int64)
        distances = footrule_to_rows(rows, np.asarray(query, dtype=np.int64))
        keep = within(distances, theta_hundredths, k)
        found = [
            (rid, int(d)) for rid, d, ok in zip(rids, distances.tolist(), keep.tolist())
            if ok
        ]
        found.sort(key=lambda pair: (pair[1], pair[0]))
        return found


def join_partners(rids, items, probe_rows, theta_hundredths: int) -> dict:
    """For each probe row index: the set of rids within the threshold."""
    rids = np.asarray(rids, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    k = items.shape[1]
    partners = {}
    for row in probe_rows:
        distances = footrule_to_rows(items, items[row])
        keep = within(distances, theta_hundredths, k)
        keep[row] = False
        partners[int(rids[row])] = set(rids[keep].tolist())
    return partners


def check_join(pairs, expected: dict) -> list:
    """Mismatches between a join result and :func:`join_partners`.

    ``pairs`` are the join's ``(rid_i, rid_j)`` pairs.  Returns one
    message per probe rid whose partner set differs (empty = correct).
    """
    of_rid: dict = {rid: set() for rid in expected}
    for a, b in pairs:
        if a in of_rid:
            of_rid[a].add(b)
        if b in of_rid:
            of_rid[b].add(a)
    return [
        f"rid {rid}: join has {len(of_rid[rid])} partners, oracle {len(want)} "
        f"(missing {sorted(want - of_rid[rid])[:5]}, extra {sorted(of_rid[rid] - want)[:5]})"
        for rid, want in expected.items() if of_rid[rid] != want
    ]


def delta_pairs(corpus: Corpus, arrivals, theta_hundredths: int) -> set:
    """The pair set a delta join of ``arrivals`` into ``corpus`` must emit.

    Each arrival pairs with everything stored when it arrives, then is
    stored itself; ``corpus`` ends up holding the arrivals.
    """
    pairs = set()
    for rid, row in arrivals:
        for other, _distance in corpus.range_query(row, theta_hundredths):
            pairs.add((rid, other) if rid < other else (other, rid))
        corpus.insert(rid, row)
    return pairs

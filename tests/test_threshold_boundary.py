"""Threshold boundary sweep against an independent Footrule oracle.

``raw_threshold`` turns a normalized theta into raw Footrule mass with a
float product, and every join *and* ``bruteforce_join`` share it, so the
equivalence suites cannot see a pair dropped at normalized distance
exactly theta (``0.70 * 650 == 454.99999999999994`` rejects distance
455).  The oracle below is pure Python, decides membership in integer
arithmetic, and imports nothing from ``repro.joins`` or
``repro.rankings.bounds``.
"""

import random

import pytest

from repro import Context, similarity_join
from repro.joins import bruteforce_join
from repro.rankings import Ranking, RankingDataset, raw_threshold

KS = (5, 10, 25)


def oracle_footrule(a, b):
    """Top-k Footrule: ranks ``0..k-1``, a missing item sits at rank ``k``."""
    k = len(a)
    rank_a = {item: pos for pos, item in enumerate(a)}
    rank_b = {item: pos for pos, item in enumerate(b)}
    return sum(
        abs(rank_a.get(item, k) - rank_b.get(item, k))
        for item in rank_a.keys() | rank_b.keys()
    )


def oracle_join(rows, hundredths):
    """Pairs ``(i, j)``, ``i < j``, with ``d / k(k+1) <= hundredths / 100``."""
    k = len(rows[0])
    return {
        (i, j)
        for i in range(len(rows))
        for j in range(i + 1, len(rows))
        if 100 * oracle_footrule(rows[i], rows[j]) <= hundredths * k * (k + 1)
    }


def near_duplicates(k):
    """14 top-k lists, a few edits apart, covering many raw distances."""
    rng = random.Random(k)
    base = list(range(k))
    rows = [tuple(base)]
    fresh = k
    for _ in range(13):
        row = list(rng.choice(rows))
        for _ in range(rng.randint(1, 3)):
            pos = rng.randrange(k - 1)
            if rng.random() < 0.5:
                row[pos], row[pos + 1] = row[pos + 1], row[pos]
            else:
                row[rng.randrange(k // 2, k)] = fresh
                fresh += 1
        rows.append(tuple(row))
    return rows


def dataset(rows):
    return RankingDataset([Ranking(i, row) for i, row in enumerate(rows)])


@pytest.mark.parametrize("k", KS)
def test_raw_threshold_admits_exactly_the_integer_distances(k):
    top = k * (k + 1)
    for hundredths in range(101):
        theta_raw = raw_threshold(hundredths / 100, k)
        admitted = [d for d in range(top + 1) if d <= theta_raw]
        assert admitted == list(range(hundredths * top // 100 + 1)), (
            k, hundredths, theta_raw
        )


def test_the_known_boundary_is_snapped_and_others_are_untouched():
    assert raw_threshold(0.70, 25) == 455
    assert raw_threshold(0.25, 10) == 0.25 * 110  # 27.5: not a boundary
    assert raw_threshold(0.05, 25) == 0.05 * 650  # 32.5


@pytest.mark.parametrize("k", KS)
def test_bruteforce_matches_oracle_at_every_hundredth(k):
    rows = near_duplicates(k)
    ds = dataset(rows)
    on_boundary = 0
    for hundredths in range(101):
        expected = oracle_join(rows, hundredths)
        assert bruteforce_join(ds, hundredths / 100).pair_set() == expected
        on_boundary += any(
            100 * oracle_footrule(rows[i], rows[j])
            == hundredths * k * (k + 1)
            for i, j in expected
        )
    assert on_boundary > 0  # the sweep really put pairs exactly at theta


@pytest.mark.parametrize("algorithm", ["vj", "cl"])
@pytest.mark.parametrize("k", KS)
def test_joins_match_oracle_at_integer_thresholds(k, algorithm):
    rows = near_duplicates(k)
    ds = dataset(rows)
    for hundredths in range(101):
        if hundredths * k * (k + 1) % 100:
            continue  # theta * k(k+1) is not an integer: no boundary
        theta = hundredths / 100
        kwargs = {"theta_c": min(0.03, theta)} if algorithm == "cl" else {}
        result = similarity_join(
            ds, theta, algorithm=algorithm, ctx=Context(2), **kwargs
        )
        assert result.pair_set() == oracle_join(rows, hundredths), (
            k, hundredths
        )

"""The top-N pick of the capped budget solvers, against two classic selections.

``sdiptc_inf`` and ``sdiptc_bh`` keep the N edges with the largest gains,
ties going to the smaller id, by one stable sort.  Here that choice is
compared on stars (whose gains equal their slacks) with an independent
answer: the N smallest keys (-gain, id), found by a randomized quickselect
or by the worst-case linear median-of-medians rule of Blum, Floyd, Pratt,
Rivest and Tarjan.  The two selections live only in this file, as oracles.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from srdtree import NOutOfRange, sdiptc_bh, sdiptc_inf

from strategies import star


def _quickselect(keys, k):
    """k-th smallest key (0-based), by partitioning around random pivots."""
    rng = random.Random(k)
    while True:
        pivot = keys[rng.randrange(len(keys))]
        lower = [key for key in keys if key < pivot]
        if k < len(lower):
            keys = lower
        elif k == len(lower):
            return pivot
        else:
            keys = [key for key in keys if key > pivot]
            k -= len(lower) + 1


def _median_of_medians(keys, k):
    """k-th smallest key (0-based), pivoting on the median of 5-medians."""
    if len(keys) <= 5:
        return sorted(keys)[k]
    medians = [sorted(keys[i:i + 5])[(len(keys[i:i + 5]) - 1) // 2]
               for i in range(0, len(keys), 5)]
    pivot = _median_of_medians(medians, (len(medians) - 1) // 2)
    lower = [key for key in keys if key < pivot]
    if k < len(lower):
        return _median_of_medians(lower, k)
    if k == len(lower):
        return pivot
    return _median_of_medians([key for key in keys if key > pivot], k - len(lower) - 1)


ENGINES = {"quickselect": _quickselect, "median_of_medians": _median_of_medians}


def top_ids(engine, gains, n):
    """Ids 1..len(gains) of the n largest gains, smaller ids first on ties."""
    keys = [(-gain, eid) for eid, gain in enumerate(gains, start=1)]
    if not 1 <= n <= len(keys):
        raise IndexError(f"no {n}-th largest of {len(keys)} gains")
    nth = ENGINES[engine](keys, n - 1)
    return {eid for neg, eid in keys if (neg, eid) <= nth}


def solver_choices(slacks, n):
    """Edges each capped budget solver raises on the star with these slacks."""
    # unit costs and a budget past every slack: each gain is the slack
    tree, attrs = star(costs=[1] * len(slacks), slacks=slacks)
    return (sdiptc_inf(tree, attrs, 1.0 + max(slacks), n).modified_edges,
            sdiptc_bh(tree, attrs, 1.0, n).modified_edges)


def assert_solvers_pick(engine, slacks, n, expected):
    assert top_ids(engine, slacks, n) == expected
    for chosen in solver_choices(slacks, n):
        assert chosen == frozenset(e for e in expected if slacks[e - 1] > 0)


@pytest.mark.parametrize("engine", ENGINES)
class TestFrozenExamples:
    def test_distinct_values(self, engine):
        assert_solvers_pick(engine, (4, 1, 2), 1, {1})

    def test_tie_at_threshold_prefers_small_id(self, engine):
        assert_solvers_pick(engine, (4, 4, 2), 1, {1})

    def test_tie_below_threshold(self, engine):
        assert_solvers_pick(engine, (5, 3, 3, 1), 3, {1, 2, 3})

    def test_take_all(self, engine):
        assert_solvers_pick(engine, (1.5, 0.5), 2, {1, 2})


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("n", [0, 4, -1])
def test_out_of_range_n(engine, n):
    with pytest.raises(IndexError):
        top_ids(engine, (1, 2, 3), n)
    tree, attrs = star(costs=(1, 1, 1), slacks=(1, 2, 3))
    for solver in (sdiptc_inf, sdiptc_bh):
        with pytest.raises(NOutOfRange):
            solver(tree, attrs, 4.0, n)


# duplicate-heavy gains stress the tie rule
gain_lists = st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=40)


@pytest.mark.parametrize("engine", ENGINES)
@given(slacks=gain_lists, data=st.data())
def test_agrees_with_full_sort(engine, slacks, data):
    n = data.draw(st.integers(min_value=1, max_value=len(slacks)))
    ranked = sorted(range(1, len(slacks) + 1), key=lambda e: (-slacks[e - 1], e))
    assert_solvers_pick(engine, slacks, n, set(ranked[:n]))

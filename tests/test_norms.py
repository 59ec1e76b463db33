"""Both price norms share one notion of a changed edge and one capped gate.

An edge is changed exactly when its weight differs from w, however small
the raise.  Whether N changes can reach a demand does not depend on how
the changes are priced, so the two capped demand solvers must call the
same demands infeasible, also where gaps are 0, a few ulps wide or tied.
"""

import math

import pytest
from hypothesis import example, given

from srdtree import (
    Status,
    mcsdipt_bh,
    mcsdipt_inf,
    mcsdiptc_bh,
    mcsdiptc_inf,
    srd,
)

from strategies import dusty_trees, one_edge, tiny_gap_star


def top_raise_total(tree, attrs, cap):
    """srd of w with the cap largest full-raise gains raised to u, ties to
    the smaller id."""
    w, u = attrs.w, attrs.u
    gain = {e: L * (u[e] - w[e]) for e, L in tree.counts.items()}
    top = sorted(gain, key=lambda e: (-gain[e], e))[:cap]
    return srd(tree, {**w, **{e: u[e] for e in top}})


@example(ta=tiny_gap_star())
@example(ta=one_edge(0.0, 2.2e-16))
@given(dusty_trees())
def test_norms_agree_on_infeasible(ta):
    tree, attrs = ta
    for cap in range(1, tree.n + 1):
        reach = top_raise_total(tree, attrs, cap)
        for demand in (srd(tree, attrs.u), reach, math.nextafter(reach, math.inf)):
            inf = mcsdiptc_inf(tree, attrs, demand, cap)
            bh = mcsdiptc_bh(tree, attrs, demand, cap)
            assert (inf.status is Status.INFEASIBLE) == (bh.status is Status.INFEASIBLE)
            assert (inf.status is Status.INFEASIBLE) == (demand > reach)


@pytest.mark.parametrize("solve", [
    pytest.param(mcsdipt_inf, id="mcsdipt_inf"),
    pytest.param(lambda t, a, d: mcsdiptc_inf(t, a, d, 1), id="mcsdiptc_inf"),
    pytest.param(mcsdipt_bh, id="mcsdipt_bh"),
    pytest.param(lambda t, a, d: mcsdiptc_bh(t, a, d, 1), id="mcsdiptc_bh"),
])
def test_one_edge_raised_by_one_ulp(solve):
    # the whole reachable increase is 2.2e-16, and reaching it is a change
    tree, attrs = one_edge(0.0, 2.2e-16)
    demand = srd(tree, attrs.u)
    rep = solve(tree, attrs, demand)
    assert rep.status is Status.FEASIBLE
    assert rep.modified_edges == frozenset({1})
    assert srd(tree, rep.weights) == demand

"""An uncapped problem is its capped twin with every edge allowed to change.

sdipt_inf, sdipt_bh, mcsdipt_inf and mcsdipt_bh must answer exactly as
sdiptc_inf, sdiptc_bh, mcsdiptc_inf and mcsdiptc_bh do at N = n, down to
the repr of every number.  So must mcsdiptc_inf at any N that leaves every
edge with a positive gain free to change.
"""

from fractions import Fraction

from hypothesis import assume, given
from hypothesis import strategies as st

from srdtree import (
    mcsdipt_bh,
    mcsdipt_inf,
    mcsdiptc_bh,
    mcsdiptc_inf,
    sdipt_bh,
    sdipt_inf,
    sdiptc_bh,
    sdiptc_inf,
    srd,
)

from strategies import tied_trees, tree_and_attrs

trees = st.booleans().flatmap(lambda exact: tree_and_attrs(exact=exact))


def fingerprint(rep):
    weights = None if rep.weights is None else {e: repr(x) for e, x in rep.weights.items()}
    return (rep.status, weights, repr(rep.cost), repr(rep.objective),
            rep.modified_edges, rep.breakpoint, rep.iterations)


@given(trees, st.fractions(min_value=0, max_value=400, max_denominator=8))
def test_budget_solvers(ta, budget):
    tree, attrs = ta
    if isinstance(attrs.w[1], float):
        budget = float(budget)
    assert fingerprint(sdipt_inf(tree, attrs, budget)) == \
        fingerprint(sdiptc_inf(tree, attrs, budget, tree.n))
    assert fingerprint(sdipt_bh(tree, attrs, budget)) == \
        fingerprint(sdiptc_bh(tree, attrs, budget, tree.n))


@given(trees, st.fractions(min_value=-1, max_value=2, max_denominator=16))
def test_demand_solver(ta, share):
    # demands below, between and at the ends of [srd(w), srd(u)], and above
    tree, attrs = ta
    low, high = srd(tree, attrs.w), srd(tree, attrs.u)
    for demand in (low + share * (high - low), high):
        if isinstance(attrs.w[1], float):
            demand = float(demand)
        assert fingerprint(mcsdipt_bh(tree, attrs, demand)) == \
            fingerprint(mcsdiptc_bh(tree, attrs, demand, tree.n))
        assert fingerprint(mcsdipt_inf(tree, attrs, demand)) == \
            fingerprint(mcsdiptc_inf(tree, attrs, demand, tree.n))


@given(st.sampled_from([float, Fraction]).flatmap(lambda num: tied_trees(num=num)),
       st.fractions(min_value=0, max_value=1, max_denominator=16))
def test_cap_at_the_gaining_edges(ta, share):
    # some gaps are 0, so N = the number of edges that can gain is below n
    tree, attrs = ta
    gaining = sum(attrs.u[e] > attrs.w[e] for e in tree.edge_ids)
    assume(0 < gaining < tree.n)
    low, high = srd(tree, attrs.w), srd(tree, attrs.u)
    for demand in (low + share * (high - low), high):
        assert fingerprint(mcsdiptc_inf(tree, attrs, demand, gaining)) == \
            fingerprint(mcsdipt_inf(tree, attrs, demand))

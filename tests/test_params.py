"""The parameter gates shared by the eight solvers.

Every solver refuses a budget or demand that is not a finite number, and
an edge bound that is a bool or not an integer, with a package error; on
a valid tree it never raises anything else.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from srdtree import (
    BadParameter,
    NegativeBudget,
    NOutOfRange,
    SolveReport,
    SrdTreeError,
    mcsdipt_bh,
    mcsdipt_inf,
    mcsdiptc_bh,
    mcsdiptc_inf,
    sdipt_bh,
    sdipt_inf,
    sdiptc_bh,
    sdiptc_inf,
)

from strategies import tree_and_attrs

BUDGET = (sdipt_inf, sdiptc_inf, sdipt_bh, sdiptc_bh)
CAPPED = (sdiptc_inf, mcsdiptc_inf, sdiptc_bh, mcsdiptc_bh)
SOLVERS = BUDGET + (mcsdipt_inf, mcsdiptc_inf, mcsdipt_bh, mcsdiptc_bh)


def call(solver, tree, attrs, value, max_changes):
    """Run solver with value as its K or D, and max_changes as its N if it takes one."""
    if solver in CAPPED:
        return solver(tree, attrs, value, max_changes)
    return solver(tree, attrs, value)


@pytest.mark.parametrize("solver", SOLVERS, ids=lambda s: s.__name__)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True, "1", None])
def test_budget_or_demand_not_a_finite_number(broom, solver, value):
    tree, attrs = broom
    with pytest.raises(BadParameter):
        call(solver, tree, attrs, value, 1)


@pytest.mark.parametrize("solver", CAPPED, ids=lambda s: s.__name__)
@pytest.mark.parametrize("bound", [2.5, 2.0, True, Fraction(2), "2", None])
def test_edge_bound_not_an_integer(broom, solver, bound):
    tree, attrs = broom
    with pytest.raises(BadParameter):
        call(solver, tree, attrs, 9.0, bound)


@pytest.mark.parametrize("solver", BUDGET, ids=lambda s: s.__name__)
def test_negative_budget(broom, solver):
    tree, attrs = broom
    with pytest.raises(NegativeBudget):
        call(solver, tree, attrs, -1, 1)


@pytest.mark.parametrize("solver", CAPPED, ids=lambda s: s.__name__)
@pytest.mark.parametrize("bound", [-1, 0, 4])
def test_edge_bound_out_of_range(broom, solver, bound):
    tree, attrs = broom
    with pytest.raises(NOutOfRange):
        call(solver, tree, attrs, 9.0, bound)


@pytest.mark.parametrize("solver", SOLVERS, ids=lambda s: s.__name__)
@given(
    ta=st.booleans().flatmap(lambda exact: tree_and_attrs(exact=exact)),
    value=st.one_of(
        st.floats(),
        st.integers(min_value=-10**6, max_value=10**6),
        st.fractions(min_value=-10**6, max_value=10**6, max_denominator=50),
        st.booleans(),
    ),
    max_changes=st.one_of(
        st.integers(min_value=-2, max_value=14), st.booleans(), st.floats()),
)
def test_report_or_package_error(solver, ta, value, max_changes):
    tree, attrs = ta
    try:
        rep = call(solver, tree, attrs, value, max_changes)
    except SrdTreeError:
        return
    assert isinstance(rep, SolveReport)

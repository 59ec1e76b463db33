"""Shared hypothesis strategies for random rooted trees and edge attributes,
plus a fixed star builder and its tie cases."""

from fractions import Fraction

import pytest
from hypothesis import strategies as st

from srdtree import EdgeAttrs, build_tree


def star(costs, slacks, num=float):
    """Leaves t1..tn hang off the root s; w = 0, u = slack, c = cost, as num."""
    n = len(costs)
    edges = [(i, "s", f"t{i}") for i in range(1, n + 1)]
    attrs = EdgeAttrs(
        w={i: num(0) for i in range(1, n + 1)},
        u={i: num(slacks[i - 1]) for i in range(1, n + 1)},
        c={i: num(costs[i - 1]) for i in range(1, n + 1)},
    )
    return build_tree(edges, attrs), attrs


def one_edge(w, u, c=1.0):
    """A single edge from the root s to leaf t with the given w, u and c."""
    attrs = EdgeAttrs(w={1: w}, u={1: u}, c={1: c})
    return build_tree([(1, "s", "t")], attrs), attrs


def tiny_gap_star():
    """Two leaves: edge 1 can rise by only 4e-13 at cost 10, edge 2 by 1 at
    cost 1, both from w = 1.  Reaching srd(u) needs both edges changed."""
    edges = [(1, "s", "t1"), (2, "s", "t2")]
    attrs = EdgeAttrs(w={1: 1.0, 2: 1.0}, u={1: 1.0 + 4e-13, 2: 2.0},
                      c={1: 10.0, 2: 1.0})
    return build_tree(edges, attrs), attrs


# (slacks, cap, chosen) for a star whose gains equal its slacks: the cap
# largest gains are chosen, ties going to the smaller id
STAR_TIES = [
    pytest.param((2, 4, 1), 1, {2}, id="distinct"),
    pytest.param((4, 4, 2), 1, {1}, id="tie-at-threshold"),
    pytest.param((1, 3, 3, 3), 2, {2, 3}, id="tie-at-threshold-of-three"),
    pytest.param((5, 3, 3, 1), 3, {1, 2, 3}, id="tie-below-threshold"),
    pytest.param((1.5, 0.5), 2, {1, 2}, id="take-all"),
]
NUMS = [pytest.param(float, id="float"), pytest.param(Fraction, id="Fraction")]


@st.composite
def edge_lists(draw, min_edges=1, max_edges=12):
    """Random tree topology as (edge_id, tail, head) triples.

    Edge i attaches node v_i to a uniformly chosen earlier node, so every
    labelled rooted tree shape on the node set is reachable.
    """
    n = draw(st.integers(min_value=min_edges, max_value=max_edges))
    edges = []
    for i in range(1, n + 1):
        j = draw(st.integers(min_value=0, max_value=i - 1))
        tail = "s" if j == 0 else f"v{j}"
        edges.append((i, tail, f"v{i}"))
    return edges


def small_fractions(max_numerator=60, max_denominator=7):
    return st.builds(
        Fraction,
        st.integers(min_value=0, max_value=max_numerator),
        st.integers(min_value=1, max_value=max_denominator),
    )


@st.composite
def attrs_for(draw, ids, exact=False):
    # u is drawn as w plus a nonnegative slack so w <= u always holds
    if exact:
        value = small_fractions()
        cost = st.builds(
            Fraction,
            st.integers(min_value=1, max_value=40),
            st.integers(min_value=1, max_value=7),
        )
    else:
        value = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)
        cost = st.floats(min_value=0.01, max_value=20.0, allow_nan=False)
    w, u, c = {}, {}, {}
    for eid in ids:
        base = draw(value)
        w[eid] = base
        u[eid] = base + draw(value)
        c[eid] = draw(cost)
    return EdgeAttrs(w=w, u=u, c=c)


@st.composite
def tree_and_attrs(draw, min_edges=1, max_edges=12, exact=False):
    edges = draw(edge_lists(min_edges=min_edges, max_edges=max_edges))
    attrs = draw(attrs_for([e[0] for e in edges], exact=exact))
    return build_tree(edges, attrs), attrs


@st.composite
def tied_trees(draw, num=Fraction, max_edges=10):
    """Trees whose w, u and c are small integers, as ``num``.

    The full-raise costs F tie often, and about one gap in four is 0.
    """
    edges = draw(edge_lists(max_edges=max_edges))
    small = st.integers(min_value=0, max_value=3)
    w, u, c = {}, {}, {}
    for eid, _, _ in edges:
        w[eid] = num(draw(small))
        u[eid] = w[eid] + draw(small)
        c[eid] = num(draw(st.integers(min_value=1, max_value=3)))
    attrs = EdgeAttrs(w=w, u=u, c=c)
    return build_tree(edges, attrs), attrs


@st.composite
def dusty_trees(draw, max_edges=8):
    """Float trees whose gaps u - w are often 0, a few ulps or tied.

    w and c come from short lists, so full-raise gains and costs tie, and
    about half the gaps are 0 or below 1e-12.
    """
    edges = draw(edge_lists(max_edges=max_edges))
    base = st.sampled_from([0.0, 1.0, 2.5, 1e6])
    gap = st.one_of(
        st.sampled_from([0.0, 5e-324, 2.2e-16, 4e-13, 1e-12]),
        st.sampled_from([1.0, 2.0, 3.0]),
        st.floats(min_value=0.0, max_value=50.0),
    )
    cost = st.one_of(st.sampled_from([1.0, 2.0, 10.0]),
                     st.floats(min_value=0.01, max_value=20.0))
    w, u, c = {}, {}, {}
    for eid, _, _ in edges:
        w[eid] = draw(base)
        u[eid] = w[eid] + draw(gap)
        c[eid] = draw(cost)
    attrs = EdgeAttrs(w=w, u=u, c=c)
    return build_tree(edges, attrs), attrs

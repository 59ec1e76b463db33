import math
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from srdtree import (
    EdgeAttrs,
    GenConfig,
    NegativeBudget,
    NOutOfRange,
    Status,
    build_tree,
    generate,
    mcsdipt_inf,
    mcsdiptc_inf,
    sdipt_inf,
    sdiptc_inf,
    srd,
)
from srdtree.instance import SHAPES

from certificates import capped_demand_faults, capped_top
from strategies import NUMS, STAR_TIES, one_edge, star, tied_trees, tree_and_attrs
from twins import BudgetTwin


def broom_exact():
    edges = [(1, "s", "v1"), (2, "v1", "t1"), (3, "v1", "t2")]
    attrs = EdgeAttrs(
        w={e: Fraction(1) for e in (1, 2, 3)},
        u={1: Fraction(3), 2: Fraction(2), 3: Fraction(5)},
        c={1: Fraction(1), 2: Fraction(2), 3: Fraction(1)},
    )
    return build_tree(edges, attrs), attrs


def max_scaled_raise(attrs, weights):
    return max(attrs.c[e] * (weights[e] - attrs.w[e]) for e in attrs.w)


class TestBudgetMax:
    def test_broom(self, broom):
        tree, attrs = broom
        rep = sdipt_inf(tree, attrs, 2.0)
        assert rep.status is Status.FEASIBLE
        assert rep.weights == {1: 3.0, 2: 2.0, 3: 3.0}
        assert rep.objective == 11.0
        assert rep.cost == 2.0
        assert rep.modified_edges == frozenset({1, 2, 3})

    def test_zero_budget(self, broom):
        tree, attrs = broom
        rep = sdipt_inf(tree, attrs, 0.0)
        assert rep.status is Status.FEASIBLE
        assert rep.weights == attrs.w
        assert rep.objective == 4.0
        assert rep.modified_edges == frozenset()

    def test_budget_beyond_every_full_raise(self, broom):
        tree, attrs = broom
        rep = sdipt_inf(tree, attrs, 100.0)
        assert rep.weights == attrs.u
        assert rep.objective == 13.0
        # the norm of the vector, not the unspent budget
        assert rep.cost == 4.0

    def test_negative_budget(self, broom):
        tree, attrs = broom
        with pytest.raises(NegativeBudget):
            sdipt_inf(tree, attrs, -0.5)

    @pytest.mark.parametrize("budget", [10**400, Fraction(10**400)], ids=["int", "Fraction"])
    def test_budget_beyond_the_float_range(self, budget):
        # a budget above every full-raise cost saturates every edge, and a
        # saturated edge never divides by it, even beyond the float range
        inst = generate(GenConfig(node_count=80, seed=4))
        tree, attrs = inst.tree, inst.attrs
        assert sdipt_inf(tree, attrs, budget) == sdipt_inf(tree, attrs, 1e300)
        assert sdiptc_inf(tree, attrs, budget, 7) == sdiptc_inf(tree, attrs, 1e300, 7)
        rep = sdipt_inf(tree, attrs, budget)
        assert rep.modified_edges == frozenset(tree.edge_ids)
        assert rep.cost == max(attrs.c[e] * (attrs.u[e] - attrs.w[e]) for e in tree.edge_ids)

    @pytest.mark.parametrize("budget", [10**400, Fraction(10**400)], ids=["int", "Fraction"])
    def test_budget_beyond_the_float_range_exact(self, budget):
        tree, attrs = broom_exact()
        rep = sdipt_inf(tree, attrs, budget)
        assert rep.weights == attrs.u
        assert rep.cost == 4

    def test_exact_arithmetic(self):
        tree, attrs = broom_exact()
        rep = sdipt_inf(tree, attrs, Fraction(1, 3))
        assert rep.objective == Fraction(31, 6)
        assert rep.cost == Fraction(1, 3)
        assert rep.weights[2] == Fraction(7, 6)

    @given(tree_and_attrs(), st.floats(min_value=0.0, max_value=30.0))
    def test_box_and_cost_bounds(self, ta, budget):
        tree, attrs = ta
        rep = sdipt_inf(tree, attrs, budget)
        for e in tree.edge_ids:
            assert attrs.w[e] <= rep.weights[e] <= attrs.u[e]
            # recovering the raise by subtraction costs about one ulp of w
            spent = attrs.c[e] * (rep.weights[e] - attrs.w[e])
            assert spent <= budget + 1e-9 * max(1.0, budget)
        assert rep.objective == pytest.approx(srd(tree, rep.weights), rel=1e-12)


class TestBudgetMaxCapped:
    def test_broom_single_change(self, broom):
        tree, attrs = broom
        rep = sdiptc_inf(tree, attrs, 2.0, 1)
        assert rep.status is Status.FEASIBLE
        assert rep.objective == 8.0
        assert rep.modified_edges == frozenset({1})
        assert rep.weights == {1: 3.0, 2: 1.0, 3: 1.0}

    def test_no_cap_matches_unconstrained(self, broom):
        tree, attrs = broom
        full = sdipt_inf(tree, attrs, 2.0)
        capped = sdiptc_inf(tree, attrs, 2.0, tree.n)
        assert capped.weights == full.weights
        assert capped.objective == full.objective
        assert capped.cost == full.cost

    def test_zero_budget_changes_nothing(self, broom):
        tree, attrs = broom
        rep = sdiptc_inf(tree, attrs, 0.0, 2)
        assert rep.modified_edges == frozenset()
        assert rep.objective == 4.0

    @pytest.mark.parametrize("bad_n", [0, 4, -2])
    def test_cap_out_of_range(self, broom, bad_n):
        tree, attrs = broom
        with pytest.raises(NOutOfRange):
            sdiptc_inf(tree, attrs, 1.0, bad_n)

    def test_negative_budget(self, broom):
        tree, attrs = broom
        with pytest.raises(NegativeBudget):
            sdiptc_inf(tree, attrs, -1.0, 1)

    @pytest.mark.parametrize("num", NUMS)
    @pytest.mark.parametrize("slacks, cap, chosen", STAR_TIES)
    def test_ties_go_to_smaller_ids(self, num, slacks, cap, chosen):
        # unit costs and a budget past every slack: each gain is the slack
        tree, attrs = star(costs=[1] * len(slacks), slacks=slacks, num=num)
        rep = sdiptc_inf(tree, attrs, num(5), cap)
        assert rep.modified_edges == frozenset(chosen)
        assert rep.objective == sum(num(slacks[e - 1]) for e in chosen)
        assert type(rep.objective) is num

    @given(tree_and_attrs(), st.floats(min_value=0.0, max_value=30.0), st.data())
    def test_change_count_respected(self, ta, budget, data):
        tree, attrs = ta
        cap = data.draw(st.integers(min_value=1, max_value=tree.n))
        rep = sdiptc_inf(tree, attrs, budget, cap)
        assert len(rep.modified_edges) <= cap
        for e in tree.edge_ids:
            if e not in rep.modified_edges:
                assert rep.weights[e] == attrs.w[e]


class TestDemandMin:
    def test_broom_fractional_level(self):
        # the optimum sits strictly inside the first segment
        tree, attrs = broom_exact()
        rep = mcsdipt_inf(tree, attrs, Fraction(8))
        assert rep.status is Status.FEASIBLE
        assert rep.cost == Fraction(8, 7)
        assert rep.objective == rep.cost
        assert rep.weights == {
            1: 1 + Fraction(8, 7),
            2: 1 + Fraction(4, 7),
            3: 1 + Fraction(8, 7),
        }
        assert srd(tree, rep.weights) == Fraction(8)
        assert rep.breakpoint == 0

    def test_broom_after_two_saturations(self):
        tree, attrs = broom_exact()
        rep = mcsdipt_inf(tree, attrs, Fraction(12))
        assert rep.cost == Fraction(3)
        assert rep.weights == {1: Fraction(3), 2: Fraction(2), 3: Fraction(4)}
        assert rep.breakpoint == 2
        assert srd(tree, rep.weights) == Fraction(12)

    def test_broom_boundary_hits_segment_end(self):
        tree, attrs = broom_exact()
        rep = mcsdipt_inf(tree, attrs, Fraction(11))
        assert rep.cost == Fraction(2)
        assert rep.breakpoint == 0
        assert srd(tree, rep.weights) == Fraction(11)

    def test_demand_already_met(self, broom):
        tree, attrs = broom
        rep = mcsdipt_inf(tree, attrs, 4.0)
        assert rep.status is Status.ALREADY_SATISFIED
        assert rep.cost == 0
        assert rep.weights == attrs.w
        assert rep.modified_edges == frozenset()

    def test_demand_at_upper_total(self, broom):
        tree, attrs = broom
        rep = mcsdipt_inf(tree, attrs, 13.0)
        assert rep.status is Status.FEASIBLE
        assert rep.weights == attrs.u
        assert rep.cost == 4.0

    def test_demand_unreachable(self, broom):
        tree, attrs = broom
        rep = mcsdipt_inf(tree, attrs, 13.5)
        assert rep.status is Status.INFEASIBLE
        assert rep.weights is None
        assert rep.cost == math.inf
        assert rep.objective == math.inf
        assert rep.modified_edges == frozenset()

    @given(tree_and_attrs(), st.floats(min_value=0.0, max_value=1.0))
    def test_meets_demand_exactly(self, ta, frac):
        tree, attrs = ta
        w_total = srd(tree, attrs.w)
        u_total = srd(tree, attrs.u)
        demand = w_total + frac * (u_total - w_total)
        rep = mcsdipt_inf(tree, attrs, demand)
        if rep.status is Status.ALREADY_SATISFIED:
            assert demand <= w_total + 1e-9 * max(1.0, abs(w_total))
            return
        assert rep.status is Status.FEASIBLE
        assert srd(tree, rep.weights) == pytest.approx(demand, rel=1e-9, abs=1e-9)
        assert rep.cost == pytest.approx(max_scaled_raise(attrs, rep.weights),
                                         rel=1e-9, abs=1e-12)
        for e in tree.edge_ids:
            assert attrs.w[e] - 1e-12 <= rep.weights[e] <= attrs.u[e] + 1e-12


class TestDemandMinCapped:
    def test_broom_single_change(self, broom):
        tree, attrs = broom
        rep = mcsdiptc_inf(tree, attrs, 7.0, 1)
        assert rep.status is Status.FEASIBLE
        assert rep.cost == pytest.approx(1.5)
        assert rep.modified_edges == frozenset({1})
        assert srd(tree, rep.weights) == pytest.approx(7.0)
        # F (2, 2, 4): two probes bracket the optimum below the first F
        assert rep.iterations == 2
        assert rep.breakpoint == 0

    def test_top_gains_cannot_cover(self):
        edges = [(i, "s", f"t{i}") for i in (1, 2, 3)]
        attrs = EdgeAttrs(
            w={e: 0.0 for e in (1, 2, 3)},
            u={e: 1.0 for e in (1, 2, 3)},
            c={e: 1.0 for e in (1, 2, 3)},
        )
        tree = build_tree(edges, attrs)
        rep = mcsdiptc_inf(tree, attrs, 2.0, 1)
        assert rep.status is Status.INFEASIBLE
        assert rep.cost == math.inf

    def test_demand_already_met(self, broom):
        tree, attrs = broom
        rep = mcsdiptc_inf(tree, attrs, 3.5, 2)
        assert rep.status is Status.ALREADY_SATISFIED
        assert rep.cost == 0

    @pytest.mark.parametrize("bad_n", [0, 4])
    def test_cap_out_of_range(self, broom, bad_n):
        tree, attrs = broom
        with pytest.raises(NOutOfRange):
            mcsdiptc_inf(tree, attrs, 8.0, bad_n)

    def test_exact_arithmetic(self):
        tree, attrs = broom_exact()
        rep = mcsdiptc_inf(tree, attrs, Fraction(7), 1)
        assert rep.cost == Fraction(3, 2)
        assert rep.weights[1] == Fraction(5, 2)
        assert srd(tree, rep.weights) == Fraction(7)

    @given(tree_and_attrs(), st.floats(min_value=0.0, max_value=1.0), st.data())
    def test_solution_is_valid(self, ta, frac, data):
        tree, attrs = ta
        cap = data.draw(st.integers(min_value=1, max_value=tree.n))
        w_total = srd(tree, attrs.w)
        u_total = srd(tree, attrs.u)
        demand = w_total + frac * (u_total - w_total)
        rep = mcsdiptc_inf(tree, attrs, demand, cap)
        if rep.status is not Status.FEASIBLE:
            return
        assert len(rep.modified_edges) <= cap
        assert srd(tree, rep.weights) >= demand - 1e-9 * max(1.0, abs(demand))
        assert rep.cost == pytest.approx(max_scaled_raise(attrs, rep.weights),
                                         rel=1e-9, abs=1e-9)
        for e in tree.edge_ids:
            if e not in rep.modified_edges:
                assert rep.weights[e] == attrs.w[e]

    @given(tree_and_attrs(min_edges=2, max_edges=10),
           st.floats(min_value=0.0, max_value=1.05), st.data())
    def test_cost_is_certified(self, ta, frac, data):
        # the cost covers delta, a cost 1e-9 lower does not, and the
        # witness stays in the bounds, changes at most N edges and reaches D
        tree, attrs = ta
        cap = data.draw(st.integers(min_value=1, max_value=tree.n))
        w_total = srd(tree, attrs.w)
        u_total = srd(tree, attrs.u)
        demand = w_total + frac * (u_total - w_total)
        rep = mcsdiptc_inf(tree, attrs, demand, cap)
        assert capped_demand_faults(tree, attrs, demand, cap, rep) == []

    @given(tree_and_attrs(min_edges=2, max_edges=10, exact=True),
           st.fractions(min_value=0, max_value=1), st.data())
    def test_exact_cost_meets_the_demand_with_equality(self, ta, frac, data):
        tree, attrs = ta
        cap = data.draw(st.integers(min_value=1, max_value=tree.n))
        w_total = srd(tree, attrs.w)
        top_gain = capped_top(tree, attrs, max(
            attrs.c[e] * (attrs.u[e] - attrs.w[e]) for e in tree.edge_ids), cap)
        demand = w_total + frac * top_gain
        rep = mcsdiptc_inf(tree, attrs, demand, cap)
        if demand == w_total:
            assert rep.status is Status.ALREADY_SATISFIED
            return
        assert rep.status is Status.FEASIBLE
        assert capped_top(tree, attrs, rep.cost, cap) == demand - w_total
        assert srd(tree, rep.weights) == demand
        assert len(rep.modified_edges) <= cap

    @given(tree_and_attrs(), st.floats(min_value=0.0, max_value=1.0))
    def test_full_cap_matches_unconstrained(self, ta, frac):
        tree, attrs = ta
        w_total = srd(tree, attrs.w)
        u_total = srd(tree, attrs.u)
        demand = w_total + frac * (u_total - w_total)
        free = mcsdipt_inf(tree, attrs, demand)
        capped = mcsdiptc_inf(tree, attrs, demand, tree.n)
        assert capped.status is free.status
        if free.status is Status.FEASIBLE:
            assert capped.cost == pytest.approx(free.cost, rel=1e-9, abs=1e-12)


def float_ties():
    """Tied float F = (0, 2, 2, 3, 4, 6, 6, 9); at 11/16 of the way from
    srd(w) to srd(u) the closed form rounds its cost to 3.0000000000000004,
    one ulp past F(4) = 3.0."""
    edges = [(1, "s", "v1"), (2, "v1", "v2"), (3, "s", "v3"), (4, "s", "v4"),
             (5, "s", "v5"), (6, "v2", "v6"), (7, "v1", "v7"), (8, "v3", "v8")]
    w = (3, 2, 3, 2, 1, 3, 3, 0)
    slack = (0, 1, 2, 3, 2, 3, 2, 3)
    c = (3, 2, 1, 1, 3, 2, 2, 3)
    attrs = EdgeAttrs(w={e: float(w[e - 1]) for e in range(1, 9)},
                      u={e: float(w[e - 1] + slack[e - 1]) for e in range(1, 9)},
                      c={e: float(c[e - 1]) for e in range(1, 9)})
    return build_tree(edges, attrs), attrs


class TestBreakpoint:
    """breakpoint k brackets the cost: F(k) < cost <= F(k + 1), F ascending."""

    @given(tied_trees(), st.fractions(min_value=0, max_value=1, max_denominator=16),
           st.data())
    def test_brackets_the_cost_on_tied_F(self, ta, share, data):
        tree, attrs = ta
        w, u, c = attrs.w, attrs.u, attrs.c
        cap = data.draw(st.integers(min_value=1, max_value=tree.n))
        # F[0] = 0 below the sorted full-raise costs F[1..n]
        F = [0, *sorted(c[e] * (u[e] - w[e]) for e in tree.edge_ids)]
        low, high = srd(tree, w), srd(tree, u)
        for demand in (low + share * (high - low), high):
            for rep in (mcsdipt_inf(tree, attrs, demand),
                        mcsdiptc_inf(tree, attrs, demand, cap)):
                if rep.status is Status.FEASIBLE:
                    k = rep.breakpoint
                    assert F[k] < rep.cost <= F[k + 1]

    @example(ta=float_ties(), share=Fraction(11, 16))
    @given(tied_trees(num=float),
           st.fractions(min_value=0, max_value=Fraction(15, 16), max_denominator=16))
    def test_float_cost_never_passes_the_next_kink(self, ta, share):
        # Float mode, demands strictly inside (srd(w), srd(u)), every cap.
        # The breakpoint is read off the cost, so float dust inside a group
        # of tied F cannot put the cost on the bracket's lower end.
        tree, attrs = ta
        w, u, c = attrs.w, attrs.u, attrs.c
        F = [0, *sorted(c[e] * (u[e] - w[e]) for e in tree.edge_ids)]
        low, high = srd(tree, w), srd(tree, u)
        demand = low + share * (high - low)
        for rep in (mcsdipt_inf(tree, attrs, demand),
                    *(mcsdiptc_inf(tree, attrs, demand, cap)
                      for cap in range(1, tree.n + 1))):
            if rep.status is Status.FEASIBLE:
                k = rep.breakpoint
                assert F[k] < rep.cost <= F[k + 1]


class TestExactReachableBoundary:
    """Demand D = srd(tree, u) with N = n: all of u reaches it exactly."""

    @staticmethod
    def check(tree, attrs, rep, demand):
        if demand <= srd(tree, attrs.w):
            assert rep.status is Status.ALREADY_SATISFIED
            return
        assert rep.status is Status.FEASIBLE
        for e in tree.edge_ids:
            assert attrs.w[e] <= rep.weights[e] <= attrs.u[e]
        assert srd(tree, rep.weights) >= demand
        assert rep.cost == max(attrs.c[e] * (attrs.u[e] - attrs.w[e]) for e in tree.edge_ids)

    @example(ta=one_edge(0.0, 1e-12))
    @given(tree_and_attrs(max_edges=30))
    def test_uncapped(self, ta):
        tree, attrs = ta
        demand = srd(tree, attrs.u)
        self.check(tree, attrs, mcsdipt_inf(tree, attrs, demand), demand)

    @example(ta=one_edge(0.0, 1e-12))
    @given(tree_and_attrs(max_edges=30))
    def test_capped(self, ta):
        tree, attrs = ta
        demand = srd(tree, attrs.u)
        self.check(tree, attrs, mcsdiptc_inf(tree, attrs, demand, tree.n), demand)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_generated_trees(self, shape):
        for edges in range(2, 122):
            inst = generate(GenConfig(node_count=edges + 1, seed=edges, shape=shape))
            tree, attrs = inst.tree, inst.attrs
            demand = srd(tree, attrs.u)
            self.check(tree, attrs, mcsdipt_inf(tree, attrs, demand), demand)
            self.check(tree, attrs, mcsdiptc_inf(tree, attrs, demand, tree.n), demand)


class TestBudgetTwin(BudgetTwin):
    """A feasible linf demand answer is, bit for bit, the budget answer at its
    cost, and in exact rationals it reaches the demand with equality."""

    solvers = (mcsdipt_inf, mcsdiptc_inf, sdiptc_inf)
    equality = True

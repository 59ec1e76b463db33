import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from srdtree import (
    GenConfig,
    NegativeBudget,
    NOutOfRange,
    Status,
    generate,
    mcsdipt_bh,
    mcsdipt_inf,
    mcsdiptc_bh,
    mcsdiptc_inf,
    sdipt_bh,
    sdiptc_bh,
    srd,
)

from srdtree.instance import SHAPES

from strategies import NUMS, STAR_TIES, star, tied_trees, tiny_gap_star, tree_and_attrs
from twins import BudgetTwin


class TestBudgetMax:
    def test_broom_budget_one(self, broom):
        tree, attrs = broom
        rep = sdipt_bh(tree, attrs, 1.0)
        assert rep.status is Status.FEASIBLE
        assert rep.weights == {1: 3.0, 2: 1.0, 3: 5.0}
        assert rep.objective == 12.0
        assert rep.cost == 1.0
        assert rep.modified_edges == frozenset({1, 3})

    def test_broom_budget_two(self, broom):
        tree, attrs = broom
        rep = sdipt_bh(tree, attrs, 2.0)
        assert rep.weights == attrs.u
        assert rep.objective == 13.0
        assert rep.cost == 2.0

    def test_nothing_affordable(self, broom):
        tree, attrs = broom
        rep = sdipt_bh(tree, attrs, 0.5)
        assert rep.objective == 4.0
        assert rep.modified_edges == frozenset()
        assert rep.cost == 0

    def test_negative_budget(self, broom):
        tree, attrs = broom
        with pytest.raises(NegativeBudget):
            sdipt_bh(tree, attrs, -1.0)

    @given(tree_and_attrs(), st.floats(min_value=0.0, max_value=25.0))
    def test_upgrades_exactly_the_affordable_slack(self, ta, budget):
        tree, attrs = ta
        rep = sdipt_bh(tree, attrs, budget)
        # modified means any weight that differs from w, however small
        expected = frozenset(
            e for e in tree.edge_ids
            if attrs.c[e] <= budget and attrs.u[e] != attrs.w[e]
        )
        assert rep.modified_edges == expected
        assert rep.objective == pytest.approx(srd(tree, rep.weights), rel=1e-12)


class TestBudgetMaxCapped:
    def test_broom_single_change(self, broom):
        tree, attrs = broom
        rep = sdiptc_bh(tree, attrs, 2.0, 1)
        assert rep.objective == 8.0
        assert rep.modified_edges == frozenset({1})
        assert rep.cost == 1.0

    def test_pass_through_when_few_affordable(self, broom):
        tree, attrs = broom
        capped = sdiptc_bh(tree, attrs, 1.0, 2)
        full = sdipt_bh(tree, attrs, 1.0)
        assert capped == full

    @pytest.mark.parametrize("bad_n", [0, 4])
    def test_cap_out_of_range(self, broom, bad_n):
        tree, attrs = broom
        with pytest.raises(NOutOfRange):
            sdiptc_bh(tree, attrs, 1.0, bad_n)

    @pytest.mark.parametrize("num", NUMS)
    @pytest.mark.parametrize("slacks, cap, chosen", STAR_TIES)
    def test_ties_go_to_smaller_ids(self, num, slacks, cap, chosen):
        tree, attrs = star(costs=[1] * len(slacks), slacks=slacks, num=num)
        rep = sdiptc_bh(tree, attrs, num(1), cap)
        assert rep.modified_edges == frozenset(chosen)
        assert rep.objective == sum(num(slacks[e - 1]) for e in chosen)
        assert type(rep.objective) is num

    @given(tree_and_attrs(), st.floats(min_value=0.0, max_value=25.0), st.data())
    def test_change_count_respected(self, ta, budget, data):
        tree, attrs = ta
        cap = data.draw(st.integers(min_value=1, max_value=tree.n))
        rep = sdiptc_bh(tree, attrs, budget, cap)
        assert len(rep.modified_edges) <= cap
        assert rep.cost <= budget or rep.cost == 0


class TestDemandMin:
    def test_broom(self, broom):
        # cheapest ceiling admitting enough gain is 1, via edges 1 and 3
        tree, attrs = broom
        rep = mcsdipt_bh(tree, attrs, 9.0)
        assert rep.status is Status.FEASIBLE
        assert rep.cost == 1.0
        assert rep.objective == 1.0
        assert rep.modified_edges == frozenset({1, 3})
        assert srd(tree, rep.weights) == 12.0
        assert rep.breakpoint == 2

    def test_demand_already_met(self, broom):
        tree, attrs = broom
        rep = mcsdipt_bh(tree, attrs, 4.0)
        assert rep.status is Status.ALREADY_SATISFIED
        assert rep.cost == 0

    def test_demand_at_upper_total(self, broom):
        tree, attrs = broom
        rep = mcsdipt_bh(tree, attrs, 13.0)
        assert rep.cost == 2.0
        assert rep.modified_edges == frozenset({1, 2, 3})

    def test_demand_unreachable(self, broom):
        tree, attrs = broom
        rep = mcsdipt_bh(tree, attrs, 13.25)
        assert rep.status is Status.INFEASIBLE
        assert rep.weights is None
        assert rep.cost == math.inf

    def test_zero_gain_edge_in_prefix_stays_put(self):
        tree, attrs = star(costs=(1, 2, 3), slacks=(0, 1, 1))
        rep = mcsdipt_bh(tree, attrs, 1.0)
        # the cheapest edge has no slack; it is skipped, not counted as a change
        assert rep.modified_edges == frozenset({2})
        assert rep.weights[1] == 0.0
        assert rep.cost == 2.0

    @pytest.mark.parametrize("cap", [None, 1, 2])
    def test_tiny_raise_is_a_change_under_both_norms(self, cap):
        # edge 1 can rise by 4e-13 only, and D = srd(u) needs that raise, so
        # one change cannot reach D and two must pay for edge 1 too
        tree, attrs = tiny_gap_star()
        demand = srd(tree, attrs.u)
        if cap is None:
            reps = {"bh": mcsdipt_bh(tree, attrs, demand),
                    "linf": mcsdipt_inf(tree, attrs, demand)}
        else:
            reps = {"bh": mcsdiptc_bh(tree, attrs, demand, cap),
                    "linf": mcsdiptc_inf(tree, attrs, demand, cap)}
        if cap == 1:
            assert all(rep.status is Status.INFEASIBLE for rep in reps.values())
            return
        for norm, cost in (("bh", 10.0), ("linf", 1.0)):
            rep = reps[norm]
            assert rep.status is Status.FEASIBLE
            assert rep.modified_edges == frozenset({1, 2})
            assert rep.cost == cost
            assert srd(tree, rep.weights) >= demand

    @given(tree_and_attrs(), st.floats(min_value=0.0, max_value=1.0))
    def test_cost_is_an_edge_cost_and_demand_is_met(self, ta, frac):
        tree, attrs = ta
        w_total = srd(tree, attrs.w)
        u_total = srd(tree, attrs.u)
        demand = w_total + frac * (u_total - w_total)
        rep = mcsdipt_bh(tree, attrs, demand)
        if rep.status is not Status.FEASIBLE:
            return
        assert rep.cost in set(attrs.c.values())
        assert srd(tree, rep.weights) >= demand - 1e-9 * max(1.0, abs(demand))
        assert all(attrs.c[e] <= rep.cost for e in rep.modified_edges)


class TestDemandMinCapped:
    def test_broom_pass_through(self, broom):
        tree, attrs = broom
        rep = mcsdiptc_bh(tree, attrs, 9.0, 2)
        assert rep == mcsdipt_bh(tree, attrs, 9.0)
        assert rep.cost == 1.0

    def test_broom_infeasible_single_change(self, broom):
        tree, attrs = broom
        rep = mcsdiptc_bh(tree, attrs, 9.0, 1)
        assert rep.status is Status.INFEASIBLE
        assert rep.cost == math.inf

    def test_star_cap_binds(self, star4):
        tree, attrs = star4
        rep = mcsdiptc_bh(tree, attrs, 2.0, 2)
        assert rep.modified_edges == frozenset({3, 4})
        assert rep.cost == 2.0

    def test_cap_forces_a_dearer_prefix(self):
        # cheap edges alone cannot cover, so the prefix must grow past them
        tree, attrs = star(costs=(3, 2, 1), slacks=(5, 1, 1))
        rep = mcsdiptc_bh(tree, attrs, 3.0, 2)
        assert rep.status is Status.FEASIBLE
        assert rep.modified_edges == frozenset({1, 2})
        assert rep.cost == 3.0
        assert rep.breakpoint == 3
        assert srd(tree, rep.weights) == 6.0

    def test_demand_already_met(self, broom):
        tree, attrs = broom
        rep = mcsdiptc_bh(tree, attrs, 2.0, 1)
        assert rep.status is Status.ALREADY_SATISFIED

    @pytest.mark.parametrize("bad_n", [0, 4])
    def test_cap_out_of_range(self, broom, bad_n):
        tree, attrs = broom
        with pytest.raises(NOutOfRange):
            mcsdiptc_bh(tree, attrs, 9.0, bad_n)

    @pytest.mark.parametrize("num", NUMS)
    def test_tie_inside_the_prefix_goes_to_the_smaller_id(self, num):
        # cost order 3, 2, 1, 4; edges 1..3 tie on gain 2, and the smallest
        # id wins although edge 1 comes last of them in cost order
        tree, attrs = star(costs=(3, 2, 1, 4), slacks=(2, 2, 2, 5), num=num)
        rep = mcsdiptc_bh(tree, attrs, num(7), 2)
        assert rep.status is Status.FEASIBLE
        assert rep.modified_edges == frozenset({1, 4})
        assert rep.cost == 4 and type(rep.cost) is num
        assert rep.breakpoint == 4
        assert srd(tree, rep.weights) == 7

    @given(tree_and_attrs(), st.floats(min_value=0.0, max_value=1.0), st.data())
    def test_solution_is_valid(self, ta, frac, data):
        tree, attrs = ta
        cap = data.draw(st.integers(min_value=1, max_value=tree.n))
        w_total = srd(tree, attrs.w)
        u_total = srd(tree, attrs.u)
        demand = w_total + frac * (u_total - w_total)
        rep = mcsdiptc_bh(tree, attrs, demand, cap)
        if rep.status is not Status.FEASIBLE:
            return
        assert len(rep.modified_edges) <= cap
        assert rep.cost in set(attrs.c.values())
        assert srd(tree, rep.weights) >= demand - 1e-9 * max(1.0, abs(demand))
        assert all(attrs.c[e] <= rep.cost for e in rep.modified_edges)

    @given(tree_and_attrs(), st.floats(min_value=0.0, max_value=1.0), st.data())
    def test_never_beats_the_unconstrained_cost(self, ta, frac, data):
        tree, attrs = ta
        cap = data.draw(st.integers(min_value=1, max_value=tree.n))
        w_total = srd(tree, attrs.w)
        u_total = srd(tree, attrs.u)
        demand = w_total + frac * (u_total - w_total)
        free = mcsdipt_bh(tree, attrs, demand)
        capped = mcsdiptc_bh(tree, attrs, demand, cap)
        if capped.status is Status.FEASIBLE and free.status is Status.FEASIBLE:
            assert capped.cost >= free.cost


class TestBreakpointReconstruction:
    """The reported prefix length alone rebuilds every bh demand answer.

    Among the first ``breakpoint`` edges in (c, id) order, the N largest
    full-raise gains S, ties to the smaller id, are raised to u.  In exact
    mode their gains cover the gap and those of the edges strictly cheaper
    than the cost do not: no cheaper dearest edge reaches the demand.
    """

    @pytest.mark.parametrize("trees, exact", [
        pytest.param(tree_and_attrs(), False, id="float"),
        pytest.param(tree_and_attrs(exact=True), True, id="Fraction"),
        pytest.param(tied_trees(num=float), False, id="float-ties"),
        pytest.param(tied_trees(num=Fraction), True, id="Fraction-ties"),
    ])
    @given(data=st.data())
    def test_prefix_rebuilds_the_weights(self, trees, exact, data):
        tree, attrs = data.draw(trees)
        w, u, c = attrs.w, attrs.u, attrs.c
        S = {e: L * (u[e] - w[e]) for e, L in tree.counts.items()}
        order = sorted(tree.edge_ids, key=lambda e: (c[e], e))
        cap = data.draw(st.integers(min_value=1, max_value=tree.n))

        def top(edges):
            return sorted(edges, key=lambda e: (-S[e], e))[:cap]

        w_total = srd(tree, w)
        reach = srd(tree, {**w, **{e: u[e] for e in top(order)}})
        demand = w_total + (reach - w_total) * data.draw(st.integers(1, 64)) / 64
        delta = demand - w_total
        reps = [mcsdiptc_bh(tree, attrs, demand, cap)]
        if cap == tree.n:
            reps.append(mcsdipt_bh(tree, attrs, demand))
        for rep in reps:
            if rep.status is not Status.FEASIBLE:
                continue
            k = rep.breakpoint
            assert {**w, **{e: u[e] for e in top(order[:k])}} == rep.weights
            if exact:
                assert sum(S[e] for e in top(order[:k])) >= delta
                cheaper = [e for e in order if c[e] < rep.cost]
                assert sum(S[e] for e in top(cheaper)) < delta


class TestBudgetTwin(BudgetTwin):
    """A feasible bh demand answer is, bit for bit, the budget answer at its
    cost: ``sdiptc_bh`` at that ceiling raises the same edges, also where
    the ceiling's price is shared by edges past the covering prefix."""

    solvers = (mcsdipt_bh, mcsdiptc_bh, sdiptc_bh)


class TestExactReachableBoundary:
    """Demand D = srd(tree, u) with N = n: all of u reaches it exactly."""

    @staticmethod
    def check(tree, attrs, rep, demand, slack=0.0):
        if demand <= srd(tree, attrs.w):
            assert rep.status is Status.ALREADY_SATISFIED
            return
        assert rep.status is Status.FEASIBLE
        for e in tree.edge_ids:
            assert attrs.w[e] <= rep.weights[e] <= attrs.u[e]
        assert srd(tree, rep.weights) >= demand - slack
        assert all(attrs.c[e] <= rep.cost for e in rep.modified_edges)

    @given(tree_and_attrs(max_edges=30))
    def test_hypothesis_trees(self, ta):
        # the cost-ordered prefix table adds the gains in another order
        # than srd, so the prefix it picks may miss D by float dust
        tree, attrs = ta
        demand = srd(tree, attrs.u)
        slack = 1e-9 * max(1.0, demand)
        self.check(tree, attrs, mcsdipt_bh(tree, attrs, demand), demand, slack)
        self.check(tree, attrs, mcsdiptc_bh(tree, attrs, demand, tree.n), demand, slack)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_generated_trees(self, shape):
        for edges in range(2, 122):
            inst = generate(GenConfig(node_count=edges + 1, seed=edges, shape=shape))
            tree, attrs = inst.tree, inst.attrs
            demand = srd(tree, attrs.u)
            for rep in (mcsdipt_bh(tree, attrs, demand),
                        mcsdiptc_bh(tree, attrs, demand, tree.n)):
                self.check(tree, attrs, rep, demand)
                assert rep.cost == max(attrs.c[e] for e in rep.modified_edges)

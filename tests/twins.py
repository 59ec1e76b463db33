"""The budget twin of a demand answer, checked the same way under both norms.

Every feasible demand answer of cost C is, bit for bit, the budget answer
at budget C with the same change bound N: the half of the duality that
the paper's reduction of each minimum-cost problem to its budget
subproblem rests on.  A test class per norm derives from ``BudgetTwin``
and names its three solvers.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from srdtree import EdgeScoreTable, GenConfig, SplitMix64, Status, generate, parse, serialize, srd
from srdtree.instance import SHAPES

from strategies import NUMS, tied_trees


def bits(weights):
    return [repr(weights[e]) for e in sorted(weights)]


class BudgetTwin:
    """Demand answers against their budget twins, in floats and exact rationals.

    ``solvers`` holds the uncapped demand solver, the capped one and the
    capped budget solver of one norm.  With ``equality``, an exact answer
    reaches the demand with equality, else at least.
    """

    solvers = ()
    equality = False

    def check(self, tree, attrs, demand, caps, exact=False):
        """Solve at demand for every cap; return how many answers were Feasible."""
        uncapped, capped, budget = self.solvers
        answers = [(tree.n, uncapped(tree, attrs, demand))]
        answers += [(cap, capped(tree, attrs, demand, cap)) for cap in caps]
        feasible = 0
        for cap, rep in answers:
            if rep.status is not Status.FEASIBLE:
                continue
            feasible += 1
            twin = budget(tree, attrs, rep.cost, cap)
            assert bits(twin.weights) == bits(rep.weights), (cap, rep.cost)
            assert twin.modified_edges == rep.modified_edges
            if exact:
                reached = srd(tree, rep.weights)
                assert reached == demand if self.equality else reached >= demand
        return feasible

    @staticmethod
    def generated(i):
        return generate(GenConfig(node_count=3 + (i * 67) % 199, seed=i,
                                  shape=SHAPES[i % len(SHAPES)]))

    def test_generator_demands(self):
        feasible = 0
        for i in range(300):
            inst = self.generated(i)
            n = inst.tree.n
            caps = sorted({inst.params.N, max(1, n // 10), n})
            feasible += self.check(inst.tree, inst.attrs, inst.params.D, caps)
        assert feasible > 600

    def test_generator_demands_exact(self):
        for i in range(0, 300, 10):
            inst = parse(serialize(self.generated(i)), exact=True)
            n = inst.tree.n
            caps = sorted({inst.params.N, max(1, n // 10), n})
            self.check(inst.tree, inst.attrs, inst.params.D, caps, exact=True)

    @pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
    def test_boundary_demands(self, exact):
        # C10's demands: srd(u) with N = n, and the capped reach with
        # N = max(1, n // 10), where the answer raises that gate's vector
        rng = SplitMix64(1010)
        for trial in range(100 if exact else 2000):
            inst = generate(GenConfig(node_count=3 + rng.next_int(120), seed=rng.next_u64(),
                                      shape=SHAPES[trial % len(SHAPES)]))
            if exact:
                inst = parse(serialize(inst), exact=True)
            tree, attrs = inst.tree, inst.attrs
            cap = max(1, tree.n // 10)
            self.check(tree, attrs, srd(tree, attrs.u), [tree.n], exact)
            reach = EdgeScoreTable(tree, attrs).capped_reach(cap)
            self.check(tree, attrs, reach, [cap], exact)

    @pytest.mark.parametrize("num", NUMS)
    @given(data=st.data())
    def test_tied_trees(self, num, data):
        # small integer attributes tie costs and gains, and every N is tried
        tree, attrs = data.draw(tied_trees(num=num))
        w_total = srd(tree, attrs.w)
        share = Fraction(data.draw(st.integers(1, 64)), 64)
        demand = w_total + (srd(tree, attrs.u) - w_total) * num(share)
        self.check(tree, attrs, demand, range(1, tree.n + 1), exact=num is Fraction)

"""Solvers that price an upgrade by its scaled largest single-edge raise.

The norm of an upgrade here is max over edges of c(e) * (new(e) - w(e)).
Four problems share it:

    sdipt_inf     spend at most K, maximize the root-leaf distance sum
    sdiptc_inf    same, but change at most N edges
    mcsdipt_inf   reach distance sum D as cheaply as possible
    mcsdiptc_inf  reach D cheaply while changing at most N edges

The budget problems separate per edge: sdipt_inf is sdiptc_inf with
every edge allowed to change, and that solver ranks the raised edges only
when the raise moves more than N of them.  The demand problems are
parametric in the cost level C: at level C an edge gains at most the
capped amount min(S(e), nu(e) * C), which never falls as C rises, so the
optimum is the least C whose N largest gains cover the demanded increase.
mcsdipt_inf is mcsdiptc_inf with every edge allowed to change.  That
solver brackets C between two consecutive saturation costs F(e) by
bisection and solves the linear piece inside the bracket in closed form,
with no loop, cap or tolerance; when at most N edges can gain at all, the
cap cannot bind and one table of the uncapped gains serves the
bisection.  The scores F, S and nu come from ``EdgeScoreTable``, and
every report from ``report``.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from fractions import Fraction
from functools import reduce
from itertools import accumulate, compress, islice, repeat
from operator import add, ge, lt, mul

from .errors import check_budget, check_change_bound, check_demand
from .report import INFEASIBLE, SolveReport, already_satisfied, budget_report, demand_report
from .scores import EdgeScoreTable
from .tree import EdgeAttrs, RootedTree, modified_edges, raised_to_u, srd

_FLOAT_MAX = sys.float_info.max


def _raise_all(tree, attrs, budget) -> dict:
    """Raise every edge by min(budget / c(e), u(e) - w(e))."""
    w, u, c = attrs.w, attrs.u, attrs.c
    if not isinstance(budget, float) and budget > _FLOAT_MAX:
        # an int or Fraction this large cannot be divided by a float cost;
        # exact quotients compare with the gaps just as well
        budget = Fraction(budget)
        c = {e: Fraction(v) for e, v in c.items()}
    weights = {}
    for e in tree.counts:
        step = budget / c[e]
        gap = u[e] - w[e]
        if gap < step:
            step = gap
        weights[e] = w[e] + step if step > 0 else w[e]
    return weights


def sdipt_inf(tree: RootedTree, attrs: EdgeAttrs, budget) -> SolveReport:
    """Spend at most ``budget`` on the scaled largest raise, maximize the sum.

    Each edge is independent: raise it by min(budget / c(e), u(e) - w(e)).
    Always feasible for a finite nonnegative budget; a budget above every
    full-raise cost raises every edge to u.  This is ``sdiptc_inf`` with
    every edge allowed to change.
    """
    return sdiptc_inf(tree, attrs, budget, tree.n)


def sdiptc_inf(tree: RootedTree, attrs: EdgeAttrs, budget, max_changes: int) -> SolveReport:
    """Budgeted maximization that may change at most ``max_changes`` edges.

    The unconstrained raise of one edge never depends on the others, so
    when it moves more than max_changes edges the best set is the
    max_changes edges with the largest raised gain.  The gain of edge e is
    L(e) times its unconstrained raise; ties fall to the smaller edge id.
    """
    check_budget(budget)
    check_change_bound(max_changes, tree.n)

    w, c = attrs.w, attrs.c
    weights = _raise_all(tree, attrs, budget)
    mods = modified_edges(weights, attrs)
    if len(mods) > max_changes:
        counts, raised = tree.counts, weights
        # ids ascend and the sort is stable, so ties keep the smaller id
        gain = {e: counts[e] * (raised[e] - w[e]) for e in sorted(mods)}
        mods = frozenset(sorted(gain, key=gain.__getitem__, reverse=True)[:max_changes])
        weights = dict(w)
        for e in mods:
            weights[e] = raised[e]
    cost = max((c[e] * (weights[e] - w[e]) for e in mods), default=0)
    return budget_report(tree, weights, mods, cost)


def mcsdipt_inf(tree: RootedTree, attrs: EdgeAttrs, demand) -> SolveReport:
    """Raise the distance sum to ``demand`` at the least scaled raise cost.

    This is ``mcsdiptc_inf`` with every edge allowed to change.
    """
    return mcsdiptc_inf(tree, attrs, demand, tree.n)


def mcsdiptc_inf(tree: RootedTree, attrs: EdgeAttrs, demand, max_changes: int) -> SolveReport:
    """Reach ``demand`` cheaply while raising at most ``max_changes`` edges.

    At cost level C edge e gains at most g(e, C) = min(S(e), nu(e) * C);
    more than S(e) is impossible and more than nu(e) * C costs more than C.
    The sum top(C) of the N = max_changes largest gains never falls as C
    rises, so the optimum is C* = min{C : top(C) >= delta}, with delta the
    demanded increase (Megiddo's parametric pattern).  With F sorted
    ascending and F(0) = 0, ``breakpoint`` is the k with
    F(k) < C* <= F(k + 1).

    When at most N edges have a positive gain S the cap cannot bind, and
    top(C) = sum over e of L(e) * min(u(e) - w(e), C / c(e)) is linear
    between its kinks at F.  Prefix sums over the F order tabulate it at
    every kink, one bisection of that table finds k, and C* interpolates
    inside the bracket: edges with F <= F(k) go to u, the rest to
    w + C* / c.  ``iterations`` is 0.  Otherwise the solve

    1. bisects over the F order for k, one top() per probe (``iterations``);
    2. inside the bracket the edges with F <= F(k) gain the constants S
       and every other edge the line nu * C, so with A and B the prefix
       sums of those S and nu sorted descending,
       top(C) = max_j A[j] + C * B[N - j] and
       C* = min over j with B[N - j] > 0 of (delta - A[j]) / B[N - j];
    3. raises the N edges of largest gain at C*, ties to the smaller id:
       to u when F <= C*, otherwise to min(u, w + C* / c).

    Only +, -, *, / and comparisons are used, so exact rationals stay
    exact.  The demand is reachable exactly when ``srd`` of the vector that
    raises the N largest S to u reaches it: the table's ``capped_reach``,
    the gate ``mcsdiptc_bh`` opens with too, so the two norms call the same
    demands infeasible.  That vector is the answer, at the dearest F, when
    float dust keeps the gains below delta, and when the demand is exactly
    ``srd`` of all of u, which interpolation could miss by an ulp; so the
    witness reaches it.  Every answer takes its ``breakpoint`` from its
    cost by bisection of the sorted F, so the bracket holds in floats too,
    and its changed edges are those whose weight differs from w.
    """
    check_demand(demand)
    check_change_bound(max_changes, tree.n)

    w, u, c = attrs.w, attrs.u, attrs.c
    w_total = srd(tree, w)
    if demand <= w_total:
        return already_satisfied(attrs)
    N = max_changes
    table = EdgeScoreTable(tree, attrs)
    reach = table.capped_reach(N)
    if reach < demand:
        return INFEASIBLE
    delta = demand - w_total

    F, S, nu = table.F, table.S, table.nu
    order = table.sorted_by_F
    F_sorted = list(map(F.__getitem__, order))
    n = len(order)

    def answer(weights, raised, cost, probes=0):
        # the k with F(k) < cost <= F(k + 1), as F_sorted[k - 1] is F(k)
        return demand_report(weights, modified_edges(weights, attrs, raised), cost,
                             probes, bisect_left(F_sorted, cost))

    if table.gaining <= N:
        # tail[k]: nu summed over order[k:], the slope of covered() past kink k
        tail = list(accumulate(map(nu.__getitem__, reversed(order)), initial=0))
        tail.reverse()
        # covered[k]: the first k edges saturated, the rest at the level F[k-1]
        saturated = accumulate(map(S.__getitem__, order))
        covered = [0]
        covered += map(add, saturated, map(mul, F_sorted, islice(tail, 1, None)))

        # covered is non-decreasing and covered[n] = srd(u) - w_total >=
        # delta, so the bisection lands inside the table unless float dust
        # leaves covered[n] a hair below the delta that srd(u) cleared
        k = bisect_left(covered, delta) - 1
        if k == n or demand == reach:
            return answer(dict(u), None, F_sorted[-1])

        level = F_sorted[k - 1] if k else 0
        rem = delta - covered[k]
        rs = tail[k]
        weights = {e: u[e] for e in order[:k]}
        for e in order[k:]:
            # rounding may overshoot u by a few ulps on the edge due next
            weights[e] = min(u[e], w[e] + level / c[e] + rem / (c[e] * rs))
        # rounding may put the cost a hair past the next kink, as below
        return answer(weights, None, min(level + rem / rs, F_sorted[k]))

    by_S, by_nu = table.sorted_by_S, table.sorted_by_nu
    F_by_S = [F[e] for e in by_S]
    F_by_nu = [F[e] for e in by_nu]

    def split(level):
        """The N largest-S edges saturated at level, the N largest-nu others."""
        sat = islice(compress(by_S, map(ge, repeat(level), F_by_S)), N)
        free = islice(compress(by_nu, map(lt, repeat(level), F_by_nu)), N)
        return list(sat), list(free)

    def top(level):
        """Sum of the N largest capped gains at level."""
        sat, free = split(level)
        gains = [*map(S.__getitem__, sat),
                 *map(mul, map(nu.__getitem__, free), repeat(level))]
        gains.sort(reverse=True)
        # one addition at a time, as the tables below and srd add
        return reduce(add, gains[:N], 0)

    # the first position whose F covers delta; tied F cover alike, so the
    # F just below it is strictly smaller
    lo, hi, probes = 0, n, 0
    while lo < hi:
        mid = (lo + hi) // 2
        probes += 1
        if top(F_sorted[mid]) >= delta:
            hi = mid
        else:
            lo = mid + 1
    k = lo
    if k == n or reach == demand == srd(tree, u):
        top = by_S[:N]
        return answer(raised_to_u(attrs, top), top, max(F[e] for e in top), probes)

    # Inside the bracket: j of the N come from the saturated constants A,
    # the other N - j from the unsaturated lines B * C; j = N is a
    # constant that the bracket's lower end already failed to reach.
    sat, free = split(F_sorted[k - 1] if k else 0)
    A = list(accumulate(map(S.__getitem__, sat), initial=0))
    B = list(accumulate(map(nu.__getitem__, free), initial=0))
    cost = min((delta - A[j]) / B[N - j]
               for j in range(max(0, N - len(free)), min(len(sat), N - 1) + 1))
    # the probe at F(k + 1) counted the edges saturating there as S, the
    # lines here as nu * F(k + 1); rounding may put the crossing a hair past
    if cost > F_sorted[k]:
        cost = F_sorted[k]

    sat, free = split(cost)
    # ids ascend and the sort is stable, so ties keep the smaller id
    gain = {e: S[e] if F[e] <= cost else nu[e] * cost for e in sorted(sat + free)}
    chosen = sorted(gain, key=gain.__getitem__, reverse=True)[:N]
    weights = dict(w)
    for e in chosen:
        weights[e] = u[e] if F[e] <= cost else min(u[e], w[e] + cost / c[e])
    return answer(weights, chosen, cost, probes)

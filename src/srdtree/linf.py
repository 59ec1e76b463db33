"""Solvers that price an upgrade by its scaled largest single-edge raise.

The norm of an upgrade here is max over edges of c(e) * (new(e) - w(e)).
Four problems share it:

    sdipt_inf     spend at most K, maximize the root-leaf distance sum
    sdiptc_inf    same, but change at most N edges
    mcsdipt_inf   reach distance sum D as cheaply as possible
    mcsdiptc_inf  reach D cheaply while changing at most N edges

Every answer is one budget raise at a cost level C, ``_raise_at``: edge e
gains S(e) when its full raise costs F(e) <= C and nu(e) * C otherwise,
the N largest gains are kept when more than N edges gain, and a kept edge
rises to u or to min(u, w + C / c).  The budget problems raise at C = K.
The demand problems, as the paper solves each minimum-cost problem
through its budget subproblem, only find the least cost C* whose N
largest capped gains min(S(e), nu(e) * C) cover the demanded increase,
and answer with the raise at C*; so a demand answer is, bit for bit, the
budget answer at its own cost.  The uncapped problems are their capped
twins with every edge allowed to change.  The scores F, S and nu come
from ``EdgeScoreTable``, and every report from ``report``.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import reduce
from itertools import accumulate, compress, islice, repeat
from operator import add, ge, lt, mul

from .errors import check_budget, check_change_bound, check_demand
from .report import INFEASIBLE, SolveReport, already_satisfied, budget_report, demand_report
from .scores import EdgeScoreTable
from .tree import EdgeAttrs, RootedTree, modified_edges, srd


def _raise_at(tree, attrs, level, N, edges=None):
    """The budget raise at cost ``level``: its weights and the edges it raised.

    At level C edge e gains S(e) when F(e) <= C and nu(e) * C otherwise.
    When more than N edges gain, only the N largest gains are kept, ties
    to the smaller id.  A kept edge rises to u when F(e) <= C and to
    min(u, w + C / c) otherwise; every other edge keeps w.  Only the
    ``edges`` given, in ascending id order, may gain; by default all of
    them.  A saturated edge never divides by C, so an int or Fraction C
    beyond the float range needs no care while every F is a finite float.
    """
    w, u, c = attrs.w, attrs.u, attrs.c
    raised = {}
    for e in tree.counts if edges is None else edges:
        we, ue, ce = w[e], u[e], c[e]
        if ce * (ue - we) <= level:
            if ue != we:
                raised[e] = ue
        elif level:
            step = we + level / ce
            raised[e] = step if step < ue else ue
    if len(raised) > N:
        counts = tree.counts
        gain = {e: counts[e] * (u[e] - w[e]) if c[e] * (u[e] - w[e]) <= level
                else counts[e] / c[e] * level for e in raised}
        # ids ascend and the sort is stable, so ties keep the smaller id
        raised = {e: raised[e] for e in sorted(gain, key=gain.__getitem__, reverse=True)[:N]}
    weights = dict(w)
    weights.update(raised)
    return weights, raised


def sdipt_inf(tree: RootedTree, attrs: EdgeAttrs, budget) -> SolveReport:
    """Spend at most ``budget`` on the scaled largest raise, maximize the sum.

    Each edge is independent: raise it to u when its full raise costs at
    most the budget, and by budget / c(e) otherwise.  Always feasible for
    a finite nonnegative budget; a budget above every full-raise cost
    raises every edge to u.  This is ``sdiptc_inf`` with
    every edge allowed to change.
    """
    return sdiptc_inf(tree, attrs, budget, tree.n)


def sdiptc_inf(tree: RootedTree, attrs: EdgeAttrs, budget, max_changes: int) -> SolveReport:
    """Budgeted maximization that may change at most ``max_changes`` edges.

    The raise of one edge never depends on the others, so when it moves
    more than max_changes edges the best set is the max_changes edges of
    largest gain: the raise at level K, ``_raise_at``.
    """
    check_budget(budget)
    check_change_bound(max_changes, tree.n)

    weights, raised = _raise_at(tree, attrs, budget, max_changes)
    mods = modified_edges(weights, attrs, raised)
    w, c = attrs.w, attrs.c
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
    demanded increase (Megiddo's parametric pattern).  The solve finds C*
    and answers with the budget raise at C*, ``_raise_at``.  With F sorted
    ascending and F(0) = 0, ``breakpoint`` is the k with
    F(k) < C* <= F(k + 1), read off C* by bisection of the sorted F.

    When at most N edges have a positive gain S the cap cannot bind, and
    top(C) = sum over e of L(e) * min(u(e) - w(e), C / c(e)) is linear
    between its kinks at F.  Prefix sums over the F order tabulate it at
    every kink, one bisection of that table finds k, and C* is F(k) plus
    the uncovered rest over the slope, nu summed over the edges not yet
    saturated.  ``iterations`` is 0.  Otherwise the solve

    1. bisects over the F order for k, one top() per probe (``iterations``);
    2. inside the bracket the edges with F <= F(k) gain the constants S
       and every other edge the line nu * C, so with A and B the prefix
       sums of those S and nu sorted descending,
       top(C) = max_j A[j] + C * B[N - j] and
       C* = min over j with B[N - j] > 0 of (delta - A[j]) / B[N - j];
    3. hands the raise only the N largest-S saturated and the N
       largest-nu unsaturated edges at C*, the only ones that can be kept.

    Only +, -, *, / and comparisons are used, so exact rationals stay
    exact.  The demand is reachable exactly when ``srd`` of the vector that
    raises the N largest S to u reaches it: the table's ``capped_reach``,
    the gate ``mcsdiptc_bh`` opens with too, so the two norms call the same
    demands infeasible.  When float dust keeps the gains below delta, and
    when the demand is exactly ``srd`` of all of u, C* is the dearest F of
    those N edges, where the raise is that vector, so the witness reaches
    the demand.
    """
    check_demand(demand)
    check_change_bound(max_changes, tree.n)

    w_total = srd(tree, attrs.w)
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
    probes, edges = 0, None

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
            cost = F_sorted[-1]
        else:
            level = F_sorted[k - 1] if k else 0
            # rounding may put the cost a hair past the next kink, as below
            cost = min(level + (delta - covered[k]) / tail[k], F_sorted[k])
    else:
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
        lo, hi = 0, n
        while lo < hi:
            mid = (lo + hi) // 2
            probes += 1
            if top(F_sorted[mid]) >= delta:
                hi = mid
            else:
                lo = mid + 1
        k = lo
        if k == n or reach == demand == srd(tree, attrs.u):
            cost = max(F[e] for e in by_S[:N])
        else:
            # Inside the bracket: j of the N come from the saturated
            # constants A, the other N - j from the unsaturated lines B * C;
            # j = N is a constant that the bracket's lower end already
            # failed to reach.
            sat, free = split(F_sorted[k - 1] if k else 0)
            A = list(accumulate(map(S.__getitem__, sat), initial=0))
            B = list(accumulate(map(nu.__getitem__, free), initial=0))
            cost = min((delta - A[j]) / B[N - j]
                       for j in range(max(0, N - len(free)), min(len(sat), N - 1) + 1))
            # the probe at F(k + 1) counted the edges saturating there as S,
            # the lines here as nu * F(k + 1); rounding may put the crossing
            # a hair past
            cost = min(cost, F_sorted[k])
        sat, free = split(cost)
        edges = sorted(sat + free)

    weights, raised = _raise_at(tree, attrs, cost, N, edges)
    # the k with F(k) < cost <= F(k + 1), as F_sorted[k - 1] is F(k)
    return demand_report(weights, modified_edges(weights, attrs, raised), cost,
                         probes, bisect_left(F_sorted, cost))

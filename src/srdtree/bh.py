"""Solvers that price an upgrade by the dearest edge it touches.

The norm of an upgrade here is max of c(e) over the edges whose weight
changed, and 0 when nothing changed.  Four problems share it:

    sdipt_bh     spend at most K, maximize the distance sum
    sdiptc_bh    same, changing at most N edges
    mcsdipt_bh   reach distance sum D with the cheapest dearest edge
    mcsdiptc_bh  reach D while changing at most N edges

Every answer is one budget raise at a price ceiling, ``_raise_at``: of the
edges priced at most the ceiling, the N of largest full-raise gain rise to
u.  The budget problems raise at K.  The demand problems find the cheapest
ceiling whose raise covers the demanded increase and answer with the
raise there, so a demand answer is, bit for bit, the budget answer at its
own cost.  The uncapped problems are their capped twins with N = n.  The
scores come from ``EdgeScoreTable``, and every report from ``report``.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from itertools import accumulate, islice

from .errors import check_budget, check_change_bound, check_demand
from .report import INFEASIBLE, SolveReport, already_satisfied, budget_report, demand_report
from .scores import EdgeScoreTable
from .tree import EdgeAttrs, RootedTree, modified_edges, raised_to_u, srd


def sdipt_bh(tree: RootedTree, attrs: EdgeAttrs, budget) -> SolveReport:
    """Raise every edge whose cost fits under ``budget`` to its bound.

    This is ``sdiptc_bh`` with every edge allowed to change.
    """
    return sdiptc_bh(tree, attrs, budget, tree.n)


def _raise_at(tree, attrs, table, level, N):
    """The budget raise at price ceiling ``level``: its weights and changed edges.

    Of the edges with c <= level, the N largest full-raise gains S rise to
    u, ties to the smaller id as ``sorted_by_S`` lists them; all when at
    most N are affordable.  Every other edge keeps w.
    """
    c = attrs.c
    kept = [e for e in tree.counts if c[e] <= level]
    if len(kept) > N:
        kept = list(islice((e for e in table.sorted_by_S if c[e] <= level), N))
    weights = raised_to_u(attrs, kept)
    return weights, modified_edges(weights, attrs, kept)


def sdiptc_bh(tree: RootedTree, attrs: EdgeAttrs, budget, max_changes: int) -> SolveReport:
    """Budgeted maximization touching at most ``max_changes`` edges.

    This is the raise at the ceiling K, ``_raise_at``.
    """
    check_budget(budget)
    check_change_bound(max_changes, tree.n)

    weights, mods = _raise_at(tree, attrs, EdgeScoreTable(tree, attrs), budget, max_changes)
    return budget_report(tree, weights, mods, max((attrs.c[e] for e in mods), default=0))


def mcsdipt_bh(tree: RootedTree, attrs: EdgeAttrs, demand) -> SolveReport:
    """Reach distance sum ``demand`` with the cheapest possible dearest edge.

    This is ``mcsdiptc_bh`` with every edge allowed to change.
    """
    return mcsdiptc_bh(tree, attrs, demand, tree.n)


def mcsdiptc_bh(tree: RootedTree, attrs: EdgeAttrs, demand, max_changes: int) -> SolveReport:
    """Reach ``demand`` changing at most ``max_changes`` edges.

    The solve opens with ``capped_reach``, the gate ``mcsdiptc_inf``
    shares, so both norms call the same demands infeasible.  Past it, the
    cheapest ceiling prices the last edge of the shortest prefix in (c, id)
    order whose max_changes largest gains S cover the gap: ``covered[k]``
    holds that capped gain of the first k edges, as plain prefix sums up to
    k = max_changes, then one running min-heap sweep that stops at the
    first k that covers.  The answer is the raise there, ``_raise_at``, and
    ``breakpoint`` counts the edges it admits, the prefix extended through
    the ceiling's tie group.  Zero-gain edges keep w, so the cost is the
    dearest changed edge.  Should float dust keep the whole table a hair
    below the gap the gate cleared, every edge is admitted.
    """
    check_demand(demand)
    check_change_bound(max_changes, tree.n)

    w_total = srd(tree, attrs.w)
    if demand <= w_total:
        return already_satisfied(attrs)
    table = EdgeScoreTable(tree, attrs)
    if table.capped_reach(max_changes) < demand:
        return INFEASIBLE
    delta = demand - w_total

    alpha = table.sorted_by_c
    gains = list(map(table.S.__getitem__, alpha))
    heap = gains[:max_changes]
    covered = list(accumulate(heap, initial=0))
    running = covered[-1]
    if running < delta:
        heapq.heapify(heap)
        for s in islice(gains, max_changes, None):
            if s > heap[0]:
                running += s - heapq.heappushpop(heap, s)
            covered.append(running)
            if running >= delta:
                break

    take = min(bisect_left(covered, delta), len(alpha))
    c = attrs.c
    ceiling = c[alpha[take - 1]]
    weights, mods = _raise_at(tree, attrs, table, ceiling, max_changes)
    breakpoint = bisect_right(alpha, ceiling, take, key=c.__getitem__)
    return demand_report(weights, mods, max(c[e] for e in mods), breakpoint=breakpoint)

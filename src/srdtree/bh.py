"""Solvers that price an upgrade by the dearest edge it touches.

The norm of an upgrade here is max of c(e) over the edges whose weight
changed, and 0 when nothing changed.  Under this price an edge is either
left alone or raised all the way to its bound, so every solution is a set
of edges pushed to u.  The four problems mirror the scaled-raise family:

    sdipt_bh     spend at most K, maximize the distance sum
    sdiptc_bh    same, changing at most N edges
    mcsdipt_bh   reach distance sum D with the cheapest dearest edge
    mcsdiptc_bh  reach D while changing at most N edges

Each uncapped problem is its capped twin with N = n.  The scores come
from ``EdgeScoreTable``, and every report from ``report``.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
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


def sdiptc_bh(tree: RootedTree, attrs: EdgeAttrs, budget, max_changes: int) -> SolveReport:
    """Budgeted maximization touching at most ``max_changes`` edges.

    If at most max_changes edges are affordable at all, raising them all
    is the answer.  Otherwise keep the max_changes affordable edges with
    the largest full-raise gains S(e), smaller ids first on ties.
    """
    check_budget(budget)
    check_change_bound(max_changes, tree.n)

    c = attrs.c
    chosen = [e for e in tree.counts if c[e] <= budget]
    if len(chosen) > max_changes:
        # the ids ascend and the sort is stable, so ties keep the smaller id
        S = EdgeScoreTable(tree, attrs).S
        chosen = sorted(chosen, key=S.__getitem__, reverse=True)[:max_changes]
    weights = raised_to_u(attrs, chosen)
    mods = modified_edges(weights, attrs, chosen)
    return budget_report(tree, weights, mods, max((c[e] for e in mods), default=0))


def mcsdipt_bh(tree: RootedTree, attrs: EdgeAttrs, demand) -> SolveReport:
    """Reach distance sum ``demand`` with the cheapest possible dearest edge.

    This is ``mcsdiptc_bh`` with every edge allowed to change: the
    shortest cost-ordered prefix whose gain covers the gap.
    """
    return mcsdiptc_bh(tree, attrs, demand, tree.n)


def mcsdiptc_bh(tree: RootedTree, attrs: EdgeAttrs, demand, max_changes: int) -> SolveReport:
    """Reach ``demand`` changing at most ``max_changes`` edges.

    The solve opens with the gate ``mcsdiptc_inf`` shares, the table's
    ``capped_reach``: a demand above ``srd`` of the vector that raises the
    max_changes largest full-raise gains to u is infeasible under either
    norm.  Past it, any price ceiling admits exactly the edges at or below
    it, so the answer is the shortest prefix of the edges in ascending
    cost order whose max_changes largest gains S cover the gap.  The
    table ``covered[k]`` holds that capped gain of the first k edges: the
    plain prefix sums up to k = max_changes, then one running min-heap
    sweep, which stops at the first k that covers.  ``breakpoint`` is the
    prefix length.  Within it the top gains are raised to u, ties to
    smaller ids, and zero-gain edges keep their weight; the cost is the
    dearest edge that changes, one whose u differs from its w.  Should
    float dust keep the whole table a hair below the gap that the gate
    cleared, the prefix is every edge.
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
    if take <= max_changes:
        chosen = alpha[:take]
    else:
        # sorted_by_S lists S descending with ties in ascending id order, so
        # its first max_changes prefix edges are the top gains with ties to
        # smaller ids
        prefix = set(alpha[:take])
        chosen = list(islice((e for e in table.sorted_by_S if e in prefix), max_changes))
    weights = raised_to_u(attrs, chosen)
    mods = modified_edges(weights, attrs, chosen)
    return demand_report(weights, mods, max(attrs.c[e] for e in mods), breakpoint=take)

"""Solvers that price an upgrade by the dearest edge it touches.

The norm of an upgrade here is max of c(e) over the edges whose weight
changed, and 0 when nothing changed.  Under this price an edge is either
left alone or raised all the way to its bound, so every solution is a set
of edges pushed to u.  The four problems mirror the scaled-raise family:

    sdipt_bh     spend at most K, maximize the distance sum
    sdiptc_bh    same, changing at most N edges
    mcsdipt_bh   reach distance sum D with the cheapest dearest edge
    mcsdiptc_bh  reach D while changing at most N edges

Each uncapped problem is its capped twin with N = n, and a capped solver
works on the top-N gains only when the uncapped answer changes more than
N edges.  The scores come from ``edge_scores``, and every report from
``report``.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from itertools import accumulate, islice

from .errors import check_budget, check_change_bound, check_demand
from .report import INFEASIBLE, SolveReport, already_satisfied, budget_report, demand_report
from .scores import edge_scores
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
        S = edge_scores(tree, attrs).S
        chosen = sorted(chosen, key=S.__getitem__, reverse=True)[:max_changes]
    weights = raised_to_u(attrs, chosen)
    mods = modified_edges(weights, attrs, chosen)
    return budget_report(tree, weights, mods, max((c[e] for e in mods), default=0))


def _raise_to_u(attrs, edges, breakpoint) -> SolveReport:
    """Raise the given edges to u; the cost is the dearest edge that
    changes, one whose u differs from its w.  Past the gate, the callers'
    edges always hold one."""
    edges = list(edges)
    weights = raised_to_u(attrs, edges)
    mods = modified_edges(weights, attrs, edges)
    return demand_report(weights, mods, max(attrs.c[e] for e in mods), breakpoint=breakpoint)


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
    it, so without the edge bound the answer walks the edges by ascending
    cost and stops at the first prefix whose total gain covers the gap;
    zero-gain edges in the prefix keep their weight, and the cost is the
    dearest edge of the prefix that changes, one whose u differs from its
    w.  ``breakpoint`` is then the largest prefix length whose gain still
    falls short.  Should float dust leave the whole table a hair below
    the gap that the gate cleared, the prefix is every edge.

    When that answer changes more than max_changes edges, the answer is
    the shortest cost-ordered prefix whose best max_changes gains cover
    the gap: the prefix length is found by bisection on that monotone
    quantity (tabulated with one running min-heap sweep), the edge set is
    the top gains inside the prefix with ties to smaller ids, and the cost
    is the dearest edge that changes: the last prefix edge, which always
    belongs to the set.  ``breakpoint`` is the prefix length.  Should float
    dust keep the table below the gap, the prefix is every edge, and the
    set is the gate's own.
    """
    check_demand(demand)
    check_change_bound(max_changes, tree.n)

    w_total = srd(tree, attrs.w)
    if demand <= w_total:
        return already_satisfied(attrs)
    table = edge_scores(tree, attrs)
    if table.capped_reach(max_changes) < demand:
        return INFEASIBLE
    delta = demand - w_total

    S, alpha = table.S, table.sorted_by_c
    prefix_gain = list(accumulate(map(S.__getitem__, alpha), initial=0))
    take = min(bisect_left(prefix_gain, delta), len(alpha))
    base = _raise_to_u(attrs, alpha[:take], breakpoint=take - 1)
    if len(base.modified_edges) <= max_changes:
        return base

    # capped[i] = sum of the max_changes largest S among the first N + i
    # prefix edges; non-decreasing in i
    heap = []
    running = 0
    capped = []
    for k, e in enumerate(alpha, start=1):
        s = S[e]
        if k <= max_changes:
            heapq.heappush(heap, s)
            running += s
        elif s > heap[0]:
            running += s - heapq.heappushpop(heap, s)
        if k >= max_changes:
            capped.append(running)

    take = min(max_changes + bisect_left(capped, delta), len(alpha))
    # sorted_by_S lists S descending with ties in ascending id order, so
    # its first max_changes prefix edges are the top gains with ties to
    # smaller ids
    prefix = set(alpha[:take])
    chosen = islice((e for e in table.sorted_by_S if e in prefix), max_changes)
    return _raise_to_u(attrs, chosen, breakpoint=take)

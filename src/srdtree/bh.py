"""Solvers that price an upgrade by the dearest edge it touches.

The norm of an upgrade here is max of c(e) over the edges whose weight
changed, and 0 when nothing changed.  Under this price an edge is either
left alone or raised all the way to its bound, so every solution is a set
of edges pushed to u.  The four problems mirror the scaled-raise family:

    sdipt_bh     spend at most K, maximize the distance sum
    sdiptc_bh    same, changing at most N edges
    mcsdipt_bh   reach distance sum D with the cheapest dearest edge
    mcsdiptc_bh  reach D while changing at most N edges
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from itertools import islice

from .errors import check_budget, check_change_bound, check_demand
from .report import SolveReport, Status
from .scores import edge_scores
from .tree import EdgeAttrs, RootedTree, snap_unchanged, srd


def _to_u(attrs, raised) -> tuple:
    """w with the given edges raised to u, and the edges that changed."""
    weights = dict(attrs.w)
    u = attrs.u
    for e in raised:
        weights[e] = u[e]
    return weights, snap_unchanged(weights, attrs, raised)


def _finish_max(tree, attrs, raised) -> SolveReport:
    """Raise the given edges to u and report the distance sum reached."""
    weights, mods = _to_u(attrs, raised)
    counts = tree.counts
    objective = sum(counts[e] * weights[e] for e in tree.edge_ids)
    cost = max((attrs.c[e] for e in mods), default=0)
    return SolveReport(Status.FEASIBLE, weights, objective, cost, mods)


def sdipt_bh(tree: RootedTree, attrs: EdgeAttrs, budget) -> SolveReport:
    """Raise every edge whose cost fits under ``budget`` to its bound."""
    check_budget(budget)
    c = attrs.c
    return _finish_max(tree, attrs, [e for e in tree.edge_ids if c[e] <= budget])


def sdiptc_bh(tree: RootedTree, attrs: EdgeAttrs, budget, max_changes: int) -> SolveReport:
    """Budgeted maximization touching at most ``max_changes`` edges.

    If at most max_changes edges are affordable at all, the unconstrained
    answer already qualifies.  Otherwise keep the max_changes affordable
    edges with the largest full-raise gains S(e), smaller ids first on ties.
    """
    check_budget(budget)
    check_change_bound(max_changes, tree.n)

    counts, w, u, c = tree.counts, attrs.w, attrs.u, attrs.c
    affordable = [e for e in tree.edge_ids if c[e] <= budget]
    if len(affordable) <= max_changes:
        return _finish_max(tree, attrs, affordable)

    # affordable ids ascend and the sort is stable, so ties keep the smaller id
    gain = {e: counts[e] * (u[e] - w[e]) for e in affordable}
    chosen = sorted(gain, key=gain.__getitem__, reverse=True)[:max_changes]
    return _finish_max(tree, attrs, chosen)


def _raise_to_u(attrs, edges, breakpoint) -> SolveReport:
    """Raise the given edges to u; the cost is the dearest edge that moves."""
    w, u = attrs.w, attrs.u
    raised = [e for e in edges if u[e] > w[e]]
    weights, mods = _to_u(attrs, raised)
    cost = max(attrs.c[e] for e in raised)
    return SolveReport(Status.FEASIBLE, weights, cost, cost, mods,
                       breakpoint=breakpoint)


def _mcsdipt_bh_core(tree, attrs, demand, alpha=None) -> SolveReport:
    """mcsdipt_bh without the parameter check; alpha is the cost order if known."""
    counts, w, u, c = tree.counts, attrs.w, attrs.u, attrs.c
    ids = tree.edge_ids

    w_total = sum(counts[e] * w[e] for e in ids)
    u_total = sum(counts[e] * u[e] for e in ids)
    if u_total < demand:
        return SolveReport(Status.INFEASIBLE, None, math.inf, math.inf, frozenset())
    if w_total >= demand:
        return SolveReport(Status.ALREADY_SATISFIED, dict(w), 0, 0, frozenset())

    delta = demand - w_total
    if alpha is None:
        # ids ascend and the sort is stable, so ties keep ascending ids
        alpha = sorted(ids, key=c.__getitem__)
    prefix_gain = [0] * (len(alpha) + 1)
    for i, e in enumerate(alpha, start=1):
        prefix_gain[i] = prefix_gain[i - 1] + counts[e] * (u[e] - w[e])

    # the smallest prefix covering delta; should float dust leave the whole
    # table a hair below the delta that u_total cleared, all of u is the answer
    take = min(bisect_left(prefix_gain, delta), len(alpha))
    return _raise_to_u(attrs, alpha[:take], breakpoint=take - 1)


def mcsdipt_bh(tree: RootedTree, attrs: EdgeAttrs, demand) -> SolveReport:
    """Reach distance sum ``demand`` with the cheapest possible dearest edge.

    Any price ceiling admits exactly the edges at or below it, so walk the
    edges by ascending cost and stop at the first prefix whose total gain
    covers the gap.  The reported cost is the cost of the dearest edge of
    that prefix that moves; zero-gain edges in the prefix are left
    untouched.  ``breakpoint`` is the largest prefix length whose gain
    still falls short.
    """
    check_demand(demand)
    return _mcsdipt_bh_core(tree, attrs, demand)


def mcsdiptc_bh(tree: RootedTree, attrs: EdgeAttrs, demand, max_changes: int) -> SolveReport:
    """Reach ``demand`` changing at most ``max_changes`` edges.

    Infeasible exactly when ``srd`` of the vector that raises the
    max_changes largest full-raise gains to u falls short of the demand.
    When the unconstrained cost-ordered answer already changes few enough
    edges it is passed through unchanged.  Otherwise the answer is the
    shortest cost-ordered prefix whose best max_changes gains cover the
    gap: the prefix length is found by bisection on that monotone quantity
    (tabulated with one running min-heap sweep), the edge set is the top
    gains inside the prefix with ties to smaller ids, and the cost is the
    dearest edge that moves: the last prefix edge, which always belongs to
    the set.  Should float dust keep the table below the gap, the prefix is
    every edge.
    """
    check_demand(demand)
    check_change_bound(max_changes, tree.n)

    counts, w, u = tree.counts, attrs.w, attrs.u
    ids = tree.edge_ids
    w_total = sum(counts[e] * w[e] for e in ids)
    if demand <= w_total:
        return SolveReport(Status.ALREADY_SATISFIED, dict(w), 0, 0, frozenset())

    table = edge_scores(tree, attrs)
    S, by_S = table.S, table.sorted_by_S
    full = dict(w)
    for e in by_S[:max_changes]:
        full[e] = u[e]
    if srd(tree, full) < demand:
        return SolveReport(Status.INFEASIBLE, None, math.inf, math.inf, frozenset())
    delta = demand - w_total

    base = _mcsdipt_bh_core(tree, attrs, demand, table.sorted_by_c)
    if len(base.modified_edges) <= max_changes:
        return base

    alpha = table.sorted_by_c
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
    # by_S lists S descending with ties in ascending id order, so its first
    # max_changes prefix edges are the top gains with ties to smaller ids
    prefix = set(alpha[:take])
    chosen = islice((e for e in by_S if e in prefix), max_changes)
    return _raise_to_u(attrs, chosen, breakpoint=take)

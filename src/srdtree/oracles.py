"""Slow reference solvers used to cross-check the fast ones.

Everything here is deliberately naive: exhaustive subset enumeration, grid
scans and feasibility bisection.  The only code shared with the solvers is
the tree model itself, so an agreement between the two sides actually
means something.  Enumeration guards raise InstanceTooLarge rather than
grinding forever.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import combinations

from .errors import DemandOutOfRange, InstanceTooLarge, UnknownProblemTag
from .tree import EdgeAttrs, RootedTree, leaf_counts

BRUTE_MAX_EDGES = 20          # subset enumeration for the budget problem
BRUTE_DEMAND_MAX_EDGES = 12   # subset enumeration for demand problems
BRUTE_DEMAND_MAX_CHANGES = 4
PARAMETRIC_TOL = 1e-12


@dataclass(frozen=True)
class OracleResult:
    """Best value found, one witness achieving it, and its weight vector."""

    objective: object
    witness_set: frozenset
    witness_weights: dict | None
    feasible: bool = True


def grid_sdipt_inf(tree: RootedTree, attrs: EdgeAttrs, budget,
                   resolution: float = 1e-4) -> OracleResult:
    """Budgeted maximization by per-edge grid scan.

    Each edge takes the last point of an evenly spaced grid of raises
    between 0 and its slack (i * (gap / steps), the gap itself last) whose
    price fits the budget.  The result underestimates the true optimum by
    at most one grid step per edge.
    """
    steps = round(1.0 / resolution)
    counts = leaf_counts(tree)
    w, u, c = attrs.w, attrs.u, attrs.c

    weights = {}
    total = 0.0
    for e in tree.edge_ids:
        gap = u[e] - w[e]
        step = float(gap) / steps

        def point(i):
            return gap if i == steps else i * step

        # prices grow along the grid, so the affordable points are a prefix
        fits = bisect_right(range(steps + 1), budget, key=lambda i: c[e] * point(i))
        best = float(point(fits - 1)) if fits else 0.0
        weights[e] = w[e] + best
        total += counts[e] * weights[e]
    changed = frozenset(e for e in tree.edge_ids if weights[e] > w[e])
    return OracleResult(total, changed, weights)


def brute_sdiptc_inf(tree: RootedTree, attrs: EdgeAttrs, budget,
                     max_changes: int) -> OracleResult:
    """Cardinality-capped budgeted maximization by subset enumeration.

    Inside a fixed subset the edges are independent, so each one takes its
    unconstrained best raise; the enumeration ranges over all subsets of at
    most max_changes edges.
    """
    n = tree.n
    if n > BRUTE_MAX_EDGES:
        raise InstanceTooLarge(f"{n} edges exceeds the {BRUTE_MAX_EDGES} guard")
    counts = leaf_counts(tree)
    w, u, c = attrs.w, attrs.u, attrs.c

    raise_of = {e: min(budget / c[e], u[e] - w[e]) for e in tree.edge_ids}
    gain_of = {e: counts[e] * raise_of[e] for e in tree.edge_ids}
    base = sum(counts[e] * w[e] for e in tree.edge_ids)

    best_gain = 0
    best_set = ()
    ids = sorted(tree.edge_ids)
    for size in range(0, max_changes + 1):
        for subset in combinations(ids, size):
            gain = sum(gain_of[e] for e in subset)
            if gain > best_gain:
                best_gain = gain
                best_set = subset

    weights = {e: w[e] + raise_of[e] if e in best_set else w[e]
               for e in tree.edge_ids}
    return OracleResult(base + best_gain, frozenset(best_set), weights)


def _coverage(counts, w, u, c, edges, level):
    return sum(counts[e] * min(u[e] - w[e], level / c[e]) for e in edges)


def parametric_mcsdipt_inf(tree: RootedTree, attrs: EdgeAttrs, demand,
                           tol: float = PARAMETRIC_TOL) -> OracleResult:
    """Cheapest demand-reaching upgrade by bisection on the cost level.

    The distance gained at cost level C is monotone in C, so the smallest
    sufficient level is bracketed between 0 and the dearest full raise and
    bisected to absolute width ``tol``.  Needs w(T) < demand <= u(T).
    """
    counts = leaf_counts(tree)
    w, u, c = attrs.w, attrs.u, attrs.c
    ids = list(tree.edge_ids)
    w_total = sum(counts[e] * w[e] for e in ids)
    u_total = sum(counts[e] * u[e] for e in ids)
    if not w_total < demand <= u_total:
        raise DemandOutOfRange(
            f"demand {demand} outside ({w_total}, {u_total}]")

    delta = demand - w_total
    lo, hi = 0, max(c[e] * (u[e] - w[e]) for e in ids)
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if _coverage(counts, w, u, c, ids, mid) >= delta:
            hi = mid
        else:
            lo = mid

    weights = {e: w[e] + min(u[e] - w[e], hi / c[e]) for e in ids}
    changed = frozenset(e for e in ids if weights[e] > w[e])
    return OracleResult(hi, changed, weights)


def brute_mcsdiptc_inf(tree: RootedTree, attrs: EdgeAttrs, demand,
                       max_changes: int) -> OracleResult:
    """Cardinality-capped demand problem by subsets plus inner bisection.

    Every subset of at most max_changes edges whose full raises cover the
    gap gets its own restricted cost bisection; the cheapest wins.  Returns
    an infeasible result when no subset qualifies.
    """
    n = tree.n
    if n > BRUTE_DEMAND_MAX_EDGES:
        raise InstanceTooLarge(f"{n} edges exceeds the {BRUTE_DEMAND_MAX_EDGES} guard")
    if max_changes > BRUTE_DEMAND_MAX_CHANGES:
        raise InstanceTooLarge(
            f"change bound {max_changes} exceeds the {BRUTE_DEMAND_MAX_CHANGES} guard")
    counts = leaf_counts(tree)
    w, u, c = attrs.w, attrs.u, attrs.c
    ids = sorted(tree.edge_ids)

    w_total = sum(counts[e] * w[e] for e in ids)
    if demand <= w_total:
        return OracleResult(0, frozenset(), dict(w))
    delta = demand - w_total

    best = None
    for size in range(1, max_changes + 1):
        for subset in combinations(ids, size):
            if sum(counts[e] * (u[e] - w[e]) for e in subset) < delta:
                continue
            lo, hi = 0, max(c[e] * (u[e] - w[e]) for e in subset)
            while hi - lo > PARAMETRIC_TOL:
                mid = (lo + hi) / 2
                if _coverage(counts, w, u, c, subset, mid) >= delta:
                    hi = mid
                else:
                    lo = mid
            if best is None or hi < best[0]:
                best = (hi, subset)

    if best is None:
        return OracleResult(math.inf, frozenset(), None, feasible=False)
    cost, subset = best
    weights = dict(w)
    for e in subset:
        weights[e] = w[e] + min(u[e] - w[e], cost / c[e])
    return OracleResult(cost, frozenset(subset), weights)


def brute_bh(tree: RootedTree, attrs: EdgeAttrs, problem: str, *,
             budget=None, demand=None, max_changes=None) -> OracleResult:
    """Exhaustive solver for all four dearest-changed-edge problems.

    Under this norm a solution is a subset of edges raised to their bounds,
    so enumerating subsets is complete.  ``problem`` picks the variant:
    'sdipt' and 'sdiptc' maximize the distance sum under a budget,
    'mcsdipt' and 'mcsdiptc' reach a demand at the cheapest dearest edge.
    """
    n = tree.n
    if n > BRUTE_DEMAND_MAX_EDGES:
        raise InstanceTooLarge(f"{n} edges exceeds the {BRUTE_DEMAND_MAX_EDGES} guard")
    if problem not in ("sdipt", "sdiptc", "mcsdipt", "mcsdiptc"):
        raise UnknownProblemTag(problem)

    counts = leaf_counts(tree)
    w, u, c = attrs.w, attrs.u, attrs.c
    ids = sorted(tree.edge_ids)
    gain = {e: counts[e] * (u[e] - w[e]) for e in ids}
    base = sum(counts[e] * w[e] for e in ids)

    def upgraded(subset):
        return {e: u[e] if e in subset else w[e] for e in ids}

    if problem in ("sdipt", "sdiptc"):
        pool = [e for e in ids if c[e] <= budget]
        cap = max_changes if problem == "sdiptc" else len(pool)
        best_gain = 0
        best_set = ()
        for size in range(0, min(cap, len(pool)) + 1):
            for subset in combinations(pool, size):
                g = sum(gain[e] for e in subset)
                if g > best_gain:
                    best_gain = g
                    best_set = subset
        return OracleResult(base + best_gain, frozenset(best_set),
                            upgraded(best_set))

    cap = max_changes if problem == "mcsdiptc" else n
    if base >= demand:
        return OracleResult(0, frozenset(), dict(w))
    delta = demand - base
    best = None
    for size in range(1, cap + 1):
        for subset in combinations(ids, size):
            if sum(gain[e] for e in subset) < delta:
                continue
            cost = max((c[e] for e in subset if gain[e] > 0), default=0)
            if best is None or cost < best[0]:
                best = (cost, subset)
    if best is None:
        return OracleResult(math.inf, frozenset(), None, feasible=False)
    cost, subset = best
    changed = frozenset(e for e in subset if gain[e] > 0)
    return OracleResult(cost, changed, upgraded(changed))


def witness_feasible(tree: RootedTree, attrs: EdgeAttrs, weights: dict, *,
                     budget=None, demand=None, max_changes=None,
                     norm: str = "linf", slack: float = 1e-9) -> bool:
    """Re-check a weight vector against the raw model constraints.

    Evaluates box bounds, the relevant norm against the budget and the
    change count directly from the definitions, without any solver code.
    """
    changed = []
    worst = 0
    for e in tree.edge_ids:
        v = weights[e]
        if v < attrs.w[e] - slack or v > attrs.u[e] + slack:
            return False
        if v != attrs.w[e]:
            changed.append(e)
            price = (attrs.c[e] * (v - attrs.w[e]) if norm == "linf"
                     else attrs.c[e])
            worst = max(worst, price)
    if budget is not None and worst > budget + slack * max(1.0, abs(budget)):
        return False
    if max_changes is not None and len(changed) > max_changes:
        return False
    if demand is not None:
        counts = leaf_counts(tree)
        total = sum(counts[e] * weights[e] for e in tree.edge_ids)
        if total < demand - slack * max(1.0, abs(demand)):
            return False
    return True

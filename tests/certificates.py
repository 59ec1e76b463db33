"""Certificate for answers of the cardinality demand problem under linf.

Computed from the definitions alone, apart from the solver: with
S = L * (u - w) and nu = L / c, the capped gain of an edge at cost level
C is min(S, nu * C), and top(C) is the sum of the N largest capped gains.
"""

import math

from srdtree import Status, leaf_counts, srd

COVER_RTOL = 1e-10   # slack, relative to the demand, for "covers delta"
COST_STEP = 1e-9     # a cost this much lower must no longer cover delta


def capped_top(tree, attrs, level, max_changes):
    """Sum of the max_changes largest capped gains at ``level``."""
    counts = leaf_counts(tree)
    w, u, c = attrs.w, attrs.u, attrs.c
    gains = sorted((min(counts[e] * (u[e] - w[e]), counts[e] / c[e] * level)
                    for e in tree.edge_ids), reverse=True)
    top = gains[:max_changes]
    return math.fsum(top) if isinstance(level, float) else sum(top)


def capped_demand_faults(tree, attrs, demand, max_changes, rep):
    """Reasons a mcsdiptc_inf report is wrong; an empty list certifies it."""
    w, u = attrs.w, attrs.u
    counts = leaf_counts(tree)
    delta = demand - srd(tree, w)
    slack = COVER_RTOL * max(1.0, abs(demand))
    if rep.status is Status.ALREADY_SATISFIED:
        return [] if delta <= 0 else [f"demand unmet by {delta!r}"]
    if delta <= 0:
        return [f"{rep.status.value} on a demand already met"]

    best = sorted(tree.edge_ids, key=lambda e: (-counts[e] * (u[e] - w[e]), e))
    full = dict(w)
    full.update((e, u[e]) for e in best[:max_changes])
    if rep.status is Status.INFEASIBLE:
        if srd(tree, full) >= demand:
            return ["called infeasible, yet the top full raises reach the demand"]
        return []

    out = []
    cost = rep.cost
    if capped_top(tree, attrs, cost, max_changes) < delta - slack:
        out.append(f"cost {cost!r} does not cover delta {delta!r}")
    if capped_top(tree, attrs, cost * (1 - COST_STEP), max_changes) >= delta:
        out.append(f"a cost below {cost!r} still covers delta {delta!r}")
    x = rep.weights
    changed = [e for e in tree.edge_ids if x[e] != w[e]]
    if any(not w[e] <= x[e] <= u[e] for e in tree.edge_ids):
        out.append("witness leaves the bounds w <= x <= u")
    if len(changed) > max_changes:
        out.append(f"witness changes {len(changed)} > {max_changes} edges")
    if frozenset(changed) != rep.modified_edges:
        out.append("modified_edges differs from the changed weights")
    # recovering a raise by subtraction costs about one ulp of w
    price = max((attrs.c[e] * (x[e] - w[e]) for e in changed), default=0)
    if price > cost + COST_STEP * max(1.0, cost):
        out.append(f"witness price {price!r} exceeds the cost {cost!r}")
    reached = srd(tree, x)
    if reached < demand - slack:
        out.append(f"witness reaches {reached!r} < demand {demand!r}")
    return out

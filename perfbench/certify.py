"""Correctness certificates for solver answers, computed apart from the solvers.

Nothing here imports the program.  An instance arrives as plain data: the
edge list as (edge_id, parent, child) triples with ids 1..n, and the lists
w, u, c indexed by edge id - 1.  An answer is a dict with the keys
``status``, ``objective``, ``cost``, ``modified`` (edge ids) and
``weights`` (a list in edge-id order, or None when the caller only has the
command line's JSON, which carries no weight vector).

``check`` returns the reasons an answer is wrong; an empty list certifies
it.  The certificates, per problem:

* ``sdipt`` / ``sdiptc``: the objective equals the closed form, w(T) plus
  the per-edge gains L * min(K/c, u - w) (linf) or the full gains of the
  affordable edges c <= K (bh), summed over all of them or over the top N
  by the benchmark's own sort.
* ``mcsdipt`` / ``mcsdiptc`` under linf: with g(C) = min(S, nu * C), the
  top N of g at the returned cost C cover the gap delta = D - w(T), and at
  C * (1 - 1e-9) they do not.  For ``mcsdipt`` N is the number of edges.
* ``mcsdipt`` / ``mcsdiptc`` under bh: the edges with c <= C cover delta
  (their top N for ``mcsdiptc``) and the edges with c < C do not.
* Every returned vector stays within w <= x <= u, its price does not
  exceed the budget or the reported cost, it changes exactly the reported
  edges and at most N of them, and it reaches the reported objective or
  the demand.

All sums are ``math.fsum``, so they are correctly rounded and independent
of order.
"""

from __future__ import annotations

import math

# Relative slack for comparing an objective with its closed form.  A
# shrink of 1e-6 relative is far outside it.
OBJ_RTOL = 1e-9
# Relative slack (to the demand) for "the gains cover delta".
COVER_RTOL = 1e-10
# A cost this much lower must no longer cover delta.
COST_STEP = 1e-9

FEASIBLE = "Feasible"
INFEASIBLE = "Infeasible"
ALREADY = "AlreadySatisfied"


def leaf_counts(edges) -> list:
    """Leaves below each edge, indexed by edge id - 1.

    Peels the tree from its leaves upward: a node is finished once every
    child edge has reported, and then reports to its own parent.
    """
    parent_of = {}
    edge_into = {}
    pending = {}
    for eid, parent, child in edges:
        parent_of[child] = parent
        edge_into[child] = eid
        pending[parent] = pending.get(parent, 0) + 1
    below = {}
    ready = [node for node in parent_of if node not in pending]
    for node in ready:
        below[node] = 1
    while ready:
        node = ready.pop()
        parent = parent_of.get(node)
        if parent is None:
            continue
        below[parent] = below.get(parent, 0) + below[node]
        pending[parent] -= 1
        if pending[parent] == 0:
            ready.append(parent)
    counts = [0] * len(edges)
    for child, eid in edge_into.items():
        counts[eid - 1] = below[child]
    return counts


def top_sum(values, n: int) -> float:
    """Correctly rounded sum of the n largest values."""
    return math.fsum(sorted(values, reverse=True)[:n])


class Facts:
    """Per-instance quantities every certificate reads."""

    def __init__(self, edges, w, u, c):
        self.n = len(edges)
        self.w, self.u, self.c = w, u, c
        self.L = leaf_counts(edges)
        self.S = [l * (ue - we) for l, we, ue in zip(self.L, w, u)]
        self.nu = [l / ce for l, ce in zip(self.L, c)]
        self.w_total = math.fsum(l * we for l, we in zip(self.L, w))

    def srd(self, x) -> float:
        return math.fsum(l * xe for l, xe in zip(self.L, x))

    def half_top_demand(self, n: int) -> float:
        """The demand w(T) + half the sum of the n largest full-raise gains."""
        return self.w_total + 0.5 * top_sum(self.S, n)


def _close(a, b, rtol=OBJ_RTOL) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def _capped_cover(f: Facts, cost, n: int) -> float:
    return top_sum([min(s, v * cost) for s, v in zip(f.S, f.nu)], n)


def _bh_cover(f: Facts, cost, n: int, strict: bool) -> float:
    gains = [s for s, ce in zip(f.S, f.c) if (ce < cost if strict else ce <= cost)]
    return top_sum(gains, n)


def _check_vector(f: Facts, problem, norm, params, ans, out) -> None:
    x = ans["weights"]
    if len(x) != f.n:
        out.append(f"weight vector has {len(x)} entries, tree has {f.n} edges")
        return
    changed = []
    for i, (xe, we, ue) in enumerate(zip(x, f.w, f.u)):
        if not we <= xe <= ue:
            out.append(f"edge {i + 1}: weight {xe!r} outside [{we!r}, {ue!r}]")
            return
        if xe != we:
            changed.append(i)
    if sorted(e - 1 for e in ans["modified"]) != changed:
        out.append("reported modified edges differ from the changed weights")
    if norm == "linf":
        price = max((f.c[i] * (x[i] - f.w[i]) for i in changed), default=0.0)
    else:
        price = max((f.c[i] for i in changed), default=0.0)
    limit = params["K"] if problem.startswith("sdipt") else ans["cost"]
    if price > limit * (1 + OBJ_RTOL):
        out.append(f"price {price!r} exceeds {limit!r}")
    reached = f.srd(x)
    if problem.startswith("sdipt"):
        if not _close(reached, ans["objective"]):
            out.append(f"vector reaches {reached!r}, report says {ans['objective']!r}")
    elif reached < params["D"] - COVER_RTOL * max(1.0, abs(params["D"])):
        out.append(f"vector reaches {reached!r}, below the demand {params['D']!r}")


def check(f: Facts, problem: str, norm: str, params: dict, ans: dict) -> list:
    """Reasons the answer is wrong; an empty list certifies it."""
    out = []
    capped = problem.endswith("c")
    n = params["N"] if capped else f.n
    status = ans["status"]

    if capped and len(ans["modified"]) > n:
        out.append(f"{len(ans['modified'])} edges changed, at most {n} allowed")

    if problem.startswith("sdipt"):
        K = params["K"]
        if status != FEASIBLE:
            out.append(f"budget problem returned {status}")
            return out
        if norm == "linf":
            gains = [l * min(K / ce, ue - we) for l, ce, we, ue in zip(f.L, f.c, f.w, f.u)]
        else:
            gains = [s for s, ce in zip(f.S, f.c) if ce <= K]
        expected = f.w_total + top_sum(gains, n)
        if not _close(ans["objective"], expected):
            out.append(f"objective {ans['objective']!r}, closed form {expected!r}")
    else:
        D = params["D"]
        delta = D - f.w_total
        slack = COVER_RTOL * max(1.0, abs(D))
        if delta <= 0:
            if status != ALREADY or ans["cost"] != 0:
                out.append(f"demand already met, solver said {status} at {ans['cost']!r}")
            return out
        if status == ALREADY:
            out.append("solver says the demand is met; it is not")
            return out
        best = top_sum(f.S, n)
        if status == INFEASIBLE:
            if best >= delta + slack:
                out.append(f"called infeasible, yet full raises give {best!r} >= {delta!r}")
            return out
        cost = ans["cost"]
        if ans["objective"] != cost:
            out.append(f"objective {ans['objective']!r} differs from cost {cost!r}")
        if norm == "linf":
            at = _capped_cover(f, cost, n)
            below = _capped_cover(f, cost * (1 - COST_STEP), n)
        else:
            at = _bh_cover(f, cost, n, strict=False)
            below = _bh_cover(f, cost, n, strict=True)
        if at < delta - slack:
            out.append(f"cost {cost!r} covers {at!r} < delta {delta!r}")
        if below >= delta:
            out.append(f"a cheaper cost still covers {below!r} >= delta {delta!r}")

    if ans.get("weights") is not None:
        _check_vector(f, problem, norm, params, ans, out)
    return out

"""The report every solver hands back, and the only place one is built.

A solve ends in one of four ways: the demand is out of reach
(``INFEASIBLE``), the starting weights already meet it
(``already_satisfied``), a budget solve reports the distance sum it
reached (``budget_report``), or a demand solve reports the cost it paid
(``demand_report``).  The solvers pass in the set of changed edges, the
edges whose weight differs from w, from ``modified_edges``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .tree import srd


class Status(str, Enum):
    """Outcome of a solve.

    FEASIBLE: a valid upgraded weight vector was produced.
    INFEASIBLE: no vector inside the bounds can reach the demand.
    ALREADY_SATISFIED: the starting weights already meet the demand.
    """

    FEASIBLE = "Feasible"
    INFEASIBLE = "Infeasible"
    ALREADY_SATISFIED = "AlreadySatisfied"


@dataclass(frozen=True)
class SolveReport:
    """What a solver hands back.

    weights covers every edge exactly when the status is not INFEASIBLE,
    and an edge is in modified_edges exactly when its weight differs from
    its input weight, with no tolerance for floats.  objective is
    the achieved distance sum for the budget problems and equals cost for
    the demand problems.  cost is the norm value of the returned vector
    (scaled largest raise, or the dearest changed edge), and math.inf marks
    an infeasible demand.

    breakpoint records the index a feasible demand answer is built from, so
    an outside check can rebuild the whole solution from it.  Under the
    scaled-raise norm it is the F position of the cost, the k with
    F(k) < cost <= F(k + 1), F sorted ascending and F(0) = 0.  Under the
    bottleneck norm it is the prefix length, the covering prefix extended
    through the edges priced at its dearest price: the answer raises the
    N largest full-raise gains among the first breakpoint edges in (c, id)
    order.  Under either norm the answer is the budget raise at its own
    cost.  iterations counts the bisection probes of the
    scaled-raise demand solvers, 0 when at most N edges can gain, and stays
    0 elsewhere.
    """

    status: Status
    weights: dict | None
    objective: object
    cost: object
    modified_edges: frozenset
    iterations: int = 0
    breakpoint: int | None = None


INFEASIBLE = SolveReport(Status.INFEASIBLE, None, math.inf, math.inf, frozenset())


def already_satisfied(attrs) -> SolveReport:
    """The starting weights, which meet the demand at no cost."""
    return SolveReport(Status.ALREADY_SATISFIED, dict(attrs.w), 0, 0, frozenset())


def budget_report(tree, weights, mods, cost) -> SolveReport:
    """A budget solve: its objective is the distance sum ``weights`` reaches."""
    return SolveReport(Status.FEASIBLE, weights, srd(tree, weights), cost, mods)


def demand_report(weights, mods, cost, iterations=0, breakpoint=None) -> SolveReport:
    """A demand solve: its objective is the cost it paid."""
    return SolveReport(Status.FEASIBLE, weights, cost, cost, mods, iterations, breakpoint)

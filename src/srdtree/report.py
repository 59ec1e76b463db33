"""Result container shared by all eight solvers."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


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
    with unmodified edges kept bit-identical to the input.  objective is
    the achieved distance sum for the budget problems and equals cost for
    the demand problems.  cost is the norm value of the returned vector
    (scaled largest raise, or the dearest changed edge), and math.inf marks
    an infeasible demand.

    breakpoint records the index the demand solvers bracket their answer
    with, so an outside check can rebuild the whole solution from it.
    iterations counts the bisection probes of the cardinality demand
    solver under the scaled-raise norm, and stays 0 elsewhere.
    """

    status: Status
    weights: dict | None
    objective: object
    cost: object
    modified_edges: frozenset
    iterations: int = 0
    breakpoint: int | None = None

"""Exception types shared across the package, and the gates that refuse
bad solver parameters with them."""

import math
import numbers


class SrdTreeError(Exception):
    """Base class for every error this package raises on purpose."""


# ---- tree construction ----------------------------------------------------


class CycleDetected(SrdTreeError):
    """The edge list contains a directed cycle, so no root reaches it."""


class DisconnectedNode(SrdTreeError):
    """A node cannot be reached from the root by parent links."""


class DuplicateChild(SrdTreeError):
    """Two edges enter the same child node."""


class MultipleRoots(SrdTreeError):
    """More than one node has no parent."""


class DuplicateEdgeId(SrdTreeError):
    """The same edge id appears on two edge records."""


class InvalidEdgeId(SrdTreeError):
    """Edge ids are not the dense integer range 1..n."""


class AttrBoundsViolated(SrdTreeError):
    """Edge attributes break w >= 0, u >= w or c > 0."""


class MissingEdgeWeight(SrdTreeError):
    """A weight vector or attribute table lacks an entry for some edge."""


# ---- solver arguments ------------------------------------------------------


class NegativeBudget(SrdTreeError):
    """The upgrade budget must be nonnegative."""


class NOutOfRange(SrdTreeError):
    """A cardinality bound lies outside 1..n."""


class BadParameter(SrdTreeError):
    """A budget or demand is not a finite number, or an edge bound not an integer."""


def _check_finite(name: str, value) -> None:
    # bool is an int subclass, and a rational is finite without a float
    # conversion that could overflow
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not (isinstance(value, numbers.Rational) or math.isfinite(value))):
        raise BadParameter(f"{name} {value!r} is not a finite number")


def check_budget(budget) -> None:
    """Refuse a budget K that is not a finite, nonnegative number."""
    _check_finite("budget", budget)
    if budget < 0:
        raise NegativeBudget(f"budget {budget} is negative")


def check_demand(demand) -> None:
    """Refuse a demand D that is not a finite number."""
    _check_finite("demand", demand)


def check_change_bound(max_changes, n: int) -> None:
    """Refuse an edge bound N that is not an integer in 1..n."""
    if isinstance(max_changes, bool) or not isinstance(max_changes, numbers.Integral):
        raise BadParameter(f"edge bound {max_changes!r} is not an integer")
    if not 1 <= max_changes <= n:
        raise NOutOfRange(f"edge bound {max_changes} outside 1..{n}")


# ---- reference oracles ------------------------------------------------------


class InstanceTooLarge(SrdTreeError):
    """A brute-force oracle refuses instances beyond its enumeration guard."""


class DemandOutOfRange(SrdTreeError):
    """The parametric oracle needs w(T) < D <= u(T)."""


class UnknownProblemTag(SrdTreeError):
    """An oracle or dispatcher got a problem tag it does not know."""


# ---- instance files ---------------------------------------------------------


class InstanceSyntaxError(SrdTreeError):
    """A line of an instance file does not match the format grammar."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class MissingHeader(SrdTreeError):
    """The instance file lacks the version tag or a mandatory directive."""


class BoundViolation(SrdTreeError):
    """An edge line carries attribute values outside the allowed bounds."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class BadConfig(SrdTreeError):
    """A generator, ``verify`` or ``bench`` configuration is unusable."""


# ---- command line ------------------------------------------------------------


class MissingParam(SrdTreeError):
    """A problem needs a parameter that neither the file nor a flag supplies."""

    def __init__(self, param: str, problem: str):
        super().__init__(f"problem '{problem}' needs parameter {param}; "
                         f"set it in the instance file or pass --{param.lower()}")
        self.param = param
        self.problem = problem

"""Per-edge upgrade scores and the sorted views the solvers search over.

For an edge e with leaf count L(e) and attributes (w, u, c):

    F(e)  = c(e) * (u(e) - w(e))    cost of raising e all the way to u
    S(e)  = L(e) * (u(e) - w(e))    distance gained by raising e to u
    nu(e) = L(e) / c(e)             distance gained per unit of cost

so S(e) = nu(e) * F(e).  Every solver reads them from one table, and both
capped demand solvers read their feasibility gate from it.  The one
exception is the linf raise, ``linf._raise_at``: its single pass repeats
the same expressions, so the budget solvers build no table and still get
the table's values bit for bit.  Every sort breaks ties by ascending edge
id.
"""

from __future__ import annotations

from functools import cached_property
from operator import countOf

from .tree import EdgeAttrs, RootedTree, raised_to_u, srd


class EdgeScoreTable:
    """The scores of one tree and attribute set, each built on first read.

    F, S and nu are dicts keyed by edge id in ascending order.  The orders
    are tuples of edge ids: sorted_by_F: F ascending.  sorted_by_S: S
    descending.  sorted_by_nu: nu descending.  sorted_by_c: c ascending.
    A solver reads only the fields it needs, and pays only for those.
    """

    def __init__(self, tree: RootedTree, attrs: EdgeAttrs):
        self._tree = tree
        self._counts = tree.counts
        self._attrs = attrs

    # The dicts and sorts walk the keys of tree.counts: ascending ids, as
    # one set of int objects shared with every dict they build.  sorted()
    # is stable, also with reverse=True, so ties keep ascending ids
    # without a tuple key per edge.

    @cached_property
    def F(self) -> dict:
        w, u, c = self._attrs.w, self._attrs.u, self._attrs.c
        return {e: c[e] * (u[e] - w[e]) for e in self._counts}

    @cached_property
    def S(self) -> dict:
        w, u = self._attrs.w, self._attrs.u
        return {e: L * (u[e] - w[e]) for e, L in self._counts.items()}

    @cached_property
    def nu(self) -> dict:
        c = self._attrs.c
        return {e: L / c[e] for e, L in self._counts.items()}

    @cached_property
    def gaining(self) -> int:
        """How many edges have a positive full-raise gain S, that is u > w."""
        return len(self.S) - countOf(self.S.values(), 0)

    def capped_reach(self, N: int):
        """``srd`` of the vector that raises the N edges of largest S to u.

        No vector inside the bounds that changes at most N edges reaches
        more, so both price norms open a capped demand solve with this
        gate and answer a demand above it as infeasible.  When at most N
        edges gain at all, that vector is u and no sort is needed.
        """
        if self.gaining <= N:
            return srd(self._tree, self._attrs.u)
        return srd(self._tree, raised_to_u(self._attrs, self.sorted_by_S[:N]))

    @cached_property
    def sorted_by_F(self) -> tuple:
        return tuple(sorted(self._counts, key=self.F.__getitem__))

    @cached_property
    def sorted_by_S(self) -> tuple:
        return tuple(sorted(self._counts, key=self.S.__getitem__, reverse=True))

    @cached_property
    def sorted_by_nu(self) -> tuple:
        return tuple(sorted(self._counts, key=self.nu.__getitem__, reverse=True))

    @cached_property
    def sorted_by_c(self) -> tuple:
        return tuple(sorted(self._counts, key=self._attrs.c.__getitem__))


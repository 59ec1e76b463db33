"""Per-edge upgrade scores and the sorted views the solvers search over.

For an edge e with leaf count L(e) and attributes (w, u, c):

    F(e)  = c(e) * (u(e) - w(e))    cost of raising e all the way to u
    S(e)  = L(e) * (u(e) - w(e))    distance gained by raising e to u
    nu(e) = L(e) / c(e)             distance gained per unit of cost

so S(e) = nu(e) * F(e).  Every solver reads them from one table, and both
capped demand solvers read their feasibility gate from it.  The one
exception is the linf budget raise, ``linf._raise_at``: its single pass
repeats the same expressions, so the budget solvers build no table and
still get the table's values bit for bit.  Every sort breaks ties by
ascending edge id.

The scores are lists indexed by edge id, like ``tree.up``.  The table
also lends its id-ordered columns of w, u and c to a solver that reads
them all, as the uncapped linf demand raise does.
"""

from __future__ import annotations

from operator import countOf, mul, sub, truediv

from .tree import EdgeAttrs, RootedTree, raised_to_u, srd


class _lazy:
    """A field built on its first read and stored on the instance.

    This is ``functools.cached_property`` without its lock.  On Python
    3.11 the lock costs about a microsecond per field, which a solve on a
    tree of a few dozen edges feels.  A table is never shared between
    threads.
    """

    def __init__(self, build):
        self._build = build
        self.__doc__ = build.__doc__

    def __set_name__(self, owner, name):
        self._name = name

    def __get__(self, table, owner=None):
        if table is None:
            return self
        value = table.__dict__[self._name] = self._build(table)
        return value


class EdgeScoreTable:
    """The scores of one tree and attribute set, each built on first read.

    F, S and nu are lists indexed by edge id, so F[e] is the score of edge
    e; slot 0 stands for the root, as in ``tree.up``, and holds 0.  The
    orders are tuples of edge ids: sorted_by_F: F ascending.  sorted_by_S:
    S descending.  sorted_by_nu: nu descending.  sorted_by_c: c ascending.
    A solver reads only the fields it needs, and pays only for those.
    """

    def __init__(self, tree: RootedTree, attrs: EdgeAttrs):
        self._tree = tree
        self._counts = tree.counts
        self._attrs = attrs

    # Each score is one pass of map over id-ordered columns: the leaf
    # counts L are counts.values(), and an attribute column is the dict's
    # values() when its keys already run in id order, as ``generate`` and
    # canonical files give them, and a list read by id otherwise.  A column
    # is read on first use, so each score builds only the columns it needs.
    # The sorts walk the keys of tree.counts: ascending ids, as one set of
    # int objects shared with the tuples they build.  sorted() is stable,
    # also with reverse=True, so ties keep ascending ids without a tuple
    # key per edge.

    @_lazy
    def ids(self) -> list:
        """The edge ids in ascending order."""
        return list(self._counts)

    def _column(self, values: dict):
        if list(values) == self.ids:
            return values.values()
        return list(map(values.__getitem__, self.ids))

    @_lazy
    def w(self):
        """w in ascending id order; so are u and c."""
        return self._column(self._attrs.w)

    @_lazy
    def u(self):
        return self._column(self._attrs.u)

    @_lazy
    def c(self):
        return self._column(self._attrs.c)

    @_lazy
    def F(self) -> list:
        F = [0]
        F += map(mul, self.c, map(sub, self.u, self.w))
        return F

    @_lazy
    def S(self) -> list:
        S = [0]
        S += map(mul, self._counts.values(), map(sub, self.u, self.w))
        return S

    @_lazy
    def nu(self) -> list:
        nu = [0]
        nu += map(truediv, self._counts.values(), self.c)
        return nu

    @_lazy
    def gaining(self) -> int:
        """How many edges have a positive full-raise gain S, that is u > w."""
        # slot 0 holds 0, so it drops out with the edges that gain nothing
        return len(self.S) - countOf(self.S, 0)

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

    @_lazy
    def sorted_by_F(self) -> tuple:
        return tuple(sorted(self._counts, key=self.F.__getitem__))

    @_lazy
    def sorted_by_S(self) -> tuple:
        return tuple(sorted(self._counts, key=self.S.__getitem__, reverse=True))

    @_lazy
    def sorted_by_nu(self) -> tuple:
        return tuple(sorted(self._counts, key=self.nu.__getitem__, reverse=True))

    @_lazy
    def sorted_by_c(self) -> tuple:
        return tuple(sorted(self._counts, key=self._attrs.c.__getitem__))


"""Per-edge upgrade scores and the sorted views the solvers search over.

For an edge e with leaf count L(e) and attributes (w, u, c):

    F(e)  = c(e) * (u(e) - w(e))    cost of raising e all the way to u
    S(e)  = L(e) * (u(e) - w(e))    distance gained by raising e to u
    nu(e) = L(e) / c(e)             distance gained per unit of cost

so S(e) = nu(e) * F(e).  Every sort breaks ties by ascending edge id.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .tree import EdgeAttrs, RootedTree


@dataclass(frozen=True)
class EdgeScoreTable:
    """Score dicts plus the edge-id orders used by the searches.

    F, S and nu are keyed by edge id in ascending order, and c is the cost
    dict the table was built from.  Each order is sorted on first read:
    sorted_by_F: F ascending.  sorted_by_S: S descending.
    sorted_by_nu: nu descending.  sorted_by_c: c ascending.
    """

    F: dict
    S: dict
    nu: dict
    c: dict

    # the ids of F ascend and sorted() is stable, also with reverse=True,
    # so ties keep ascending ids without a tuple key per edge

    @cached_property
    def sorted_by_F(self) -> tuple:
        return tuple(sorted(self.F, key=self.F.__getitem__))

    @cached_property
    def sorted_by_S(self) -> tuple:
        return tuple(sorted(self.F, key=self.S.__getitem__, reverse=True))

    @cached_property
    def sorted_by_nu(self) -> tuple:
        return tuple(sorted(self.F, key=self.nu.__getitem__, reverse=True))

    @cached_property
    def sorted_by_c(self) -> tuple:
        return tuple(sorted(self.F, key=self.c.__getitem__))


def edge_scores(tree: RootedTree, attrs: EdgeAttrs) -> EdgeScoreTable:
    """Build the score table from the tree's leaf counts."""
    counts = tree.counts
    w, u, c = attrs.w, attrs.u, attrs.c
    ids = tree.edge_ids

    F = {e: c[e] * (u[e] - w[e]) for e in ids}
    S = {e: counts[e] * (u[e] - w[e]) for e in ids}
    nu = {e: counts[e] / c[e] for e in ids}
    return EdgeScoreTable(F=F, S=S, nu=nu, c=c)

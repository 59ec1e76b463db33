"""Per-edge upgrade scores and the sorted views the solvers search over.

For an edge e with leaf count L(e) and attributes (w, u, c):

    F(e)  = c(e) * (u(e) - w(e))    cost of raising e all the way to u
    S(e)  = L(e) * (u(e) - w(e))    distance gained by raising e to u
    nu(e) = L(e) / c(e)             distance gained per unit of cost

so S(e) = nu(e) * F(e).  Every sort breaks ties by ascending edge id.
"""

from __future__ import annotations

from dataclasses import dataclass

from .tree import EdgeAttrs, RootedTree, leaf_counts


@dataclass(frozen=True)
class EdgeScoreTable:
    """Score dicts plus the edge-id orders used by the searches.

    sorted_by_F: F ascending.  sorted_by_S: S descending.
    sorted_by_nu: nu descending.  sorted_by_c: c ascending.
    """

    F: dict
    S: dict
    nu: dict
    sorted_by_F: tuple
    sorted_by_S: tuple
    sorted_by_nu: tuple
    sorted_by_c: tuple


def edge_scores(tree: RootedTree, attrs: EdgeAttrs, counts: dict | None = None) -> EdgeScoreTable:
    """Build the score table; pass precomputed leaf counts to skip that walk."""
    if counts is None:
        counts = leaf_counts(tree)
    w, u, c = attrs.w, attrs.u, attrs.c
    ids = list(tree.edge_ids)

    F = {e: c[e] * (u[e] - w[e]) for e in ids}
    S = {e: counts[e] * (u[e] - w[e]) for e in ids}
    nu = {e: counts[e] / c[e] for e in ids}

    # ids ascend and sorted() is stable, also with reverse=True, so ties
    # keep ascending ids without a tuple key per edge
    return EdgeScoreTable(
        F=F,
        S=S,
        nu=nu,
        sorted_by_F=tuple(sorted(ids, key=F.__getitem__)),
        sorted_by_S=tuple(sorted(ids, key=S.__getitem__, reverse=True)),
        sorted_by_nu=tuple(sorted(ids, key=nu.__getitem__, reverse=True)),
        sorted_by_c=tuple(sorted(ids, key=c.__getitem__)),
    )

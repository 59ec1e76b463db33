"""Rooted-tree model and the distance primitives every solver reads.

An edge is identified with the node it enters, so a tree with n edges has
n + 1 nodes and edge ids are the dense integers 1..n.  Attribute tables and
weight vectors are plain dicts keyed by edge id, in whatever key order the
caller gave; the per-edge scores the solvers search are lists indexed by
edge id, read off these dicts in id order (``scores.EdgeScoreTable``), and
every weight dict a solver returns keeps the key order of w.  Values are
floats by default, and exact rationals (fractions.Fraction) work everywhere because
nothing below ever leaves +, -, *, / and comparisons.  An edge counts as
changed exactly when its weight differs from its starting weight, with no
tolerance in either mode; ``modified_edges`` is that one test.

The target quantity throughout the package is the sum of root-leaf
distances: the total, over all leaves, of the weight of the path from the
root to that leaf.  Each edge contributes its weight once per leaf below
it, which gives the linear form used by ``srd``.  Those leaf counts depend
on the tree alone, so they are computed once, when the tree is assembled,
and stored on the frozen tree; every solver reads them from there.

Assembly works on the edges as three columns (ids, parents, children):
each structural check is one pass over a column, the tree becomes an
integer index of each edge's parent edge, and the counts are summed
bottom-up over it, in the reverse of a breadth-first walk over the
children, grouped by one stable sort.
``build_tree`` takes (id, parent, child) triples and transposes them;
``parse`` and ``generate`` hand over their columns directly.

The frozen tree is that index and nothing per edge beyond it: ``up`` (the
parent edge of each edge), ``names`` (the node each edge enters) and
``counts``, all in ascending id order.  The (id, parent, child) triples
are derived from them on each read of ``edges``; the order the edges were
given in is not kept.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, islice, repeat
from operator import eq, sub

from .errors import (
    AttrBoundsViolated,
    CycleDetected,
    DisconnectedNode,
    DuplicateChild,
    DuplicateEdgeId,
    InvalidEdgeId,
    MissingEdgeWeight,
    MultipleRoots,
)


@dataclass(frozen=True)
class EdgeAttrs:
    """Per-edge data: start weight w, upper bound u and positive unit cost c.

    All three dicts are keyed by edge id and must cover the same edges,
    with u[e] >= w[e] >= 0 and c[e] > 0, every value and every full-raise
    cost c[e] * (u[e] - w[e]) finite.
    """

    w: dict
    u: dict
    c: dict


@dataclass(frozen=True)
class RootedTree:
    """An immutable rooted tree, stored as its parent-edge index.

    up[e] is the id of the edge above edge e, 0 for an edge that leaves
    the root, and up[0] = 0.  names[e] is the node that edge e enters, and
    names[0] is the root.  counts maps each edge id, in ascending order, to
    the number of leaves below it: the L(e) of the linear form every solver
    reads; it is keyed by the id objects the tree was built from.  Treat
    all three as read-only.
    """

    up: list
    names: list
    counts: dict

    @property
    def root(self) -> str:
        return self.names[0]

    @property
    def n(self) -> int:
        """Number of edges."""
        return len(self.up) - 1

    @property
    def node_count(self) -> int:
        return len(self.up)

    @property
    def edge_ids(self) -> range:
        """Edge ids in ascending order; always exactly 1..n after validation."""
        return range(1, len(self.up))

    @property
    def edges(self) -> tuple:
        """The (edge_id, parent, child) triples in ascending id order.

        Rebuilt on each read from counts' ids, up and names; the order the
        edges were given in is not kept.
        """
        names = self.names
        return tuple(zip(self.counts, map(names.__getitem__, islice(self.up, 1, None)),
                         islice(names, 1, None)))


def build_tree(edge_list, attrs: EdgeAttrs) -> RootedTree:
    """Validate an edge list plus attributes and assemble a RootedTree.

    edge_list holds (edge_id, parent, child) triples with string node names.
    Raises the specific structural error for duplicate children or ids,
    several roots, cycles, non-dense ids, missing attribute entries and
    attribute bound violations, among them a float NaN or infinity and a
    full-raise cost c * (u - w) that overflows.
    """
    edge_list = list(edge_list)
    if any(len(edge) != 3 for edge in edge_list):
        # unpacks each edge in turn, so the first one at fault raises
        _first_bad_edge(edge_list)
    columns = [list(column) for column in zip(*edge_list)] or [[], [], []]
    tree = _assemble(*columns)
    for eid in range(1, tree.n + 1):
        if eid not in attrs.w or eid not in attrs.u or eid not in attrs.c:
            raise MissingEdgeWeight(f"attributes missing for edge {eid}")
        w, u, c = attrs.w[eid], attrs.u[eid], attrs.c[eid]
        if w < 0:
            raise AttrBoundsViolated(f"edge {eid}: w = {w} is negative")
        if u < w:
            raise AttrBoundsViolated(f"edge {eid}: u = {u} lies below w = {w}")
        if c <= 0:
            raise AttrBoundsViolated(f"edge {eid}: c = {c} is not positive")
        for name, value in (("w", w), ("u", u), ("c", c)):
            if not _finite(value):
                raise AttrBoundsViolated(f"edge {eid}: {name} = {value} is not finite")
        if not _finite(c * (u - w)):
            raise AttrBoundsViolated(f"edge {eid}: the full-raise cost c * (u - w) overflows")
    return tree


def _finite(value) -> bool:
    """False for a float NaN or infinity; ints and rationals are always finite."""
    return not isinstance(value, float) or math.isfinite(value)


def _assemble(eids: list, parents: list, children: list) -> RootedTree:
    """The tree of the edges given as three columns, one entry per edge.

    Every check is a pass over a whole column; only a failed one walks the
    edges one by one, to name the first edge at fault.
    """
    n = len(eids)
    if not n:
        raise InvalidEdgeId("edge list is empty")
    at = dict(zip(eids, range(n)))
    edge_into = dict(zip(children, eids))
    if len(at) < n or len(edge_into) < n or any(map(eq, parents, children)):
        _first_bad_edge(zip(eids, parents, children))
    # pos[e - 1]: the column position of edge id e
    pos = list(map(at.get, range(1, n + 1)))
    if None in pos:
        raise InvalidEdgeId(f"edge ids must be 1..{n}, got {sorted(at)}")

    parentless = set(parents).difference(edge_into)
    if not parentless:
        raise CycleDetected("every node has a parent, so the edges close a cycle")
    if len(parentless) > 1:
        raise MultipleRoots(f"nodes without a parent: {sorted(parentless)}")
    (root,) = parentless

    # up[e]: the id of the edge above edge e, 0 for an edge leaving the
    # root; index 0 stands for the root itself
    up = [0]
    up += map(edge_into.get, map(parents.__getitem__, pos), repeat(0))
    order = _breadth_first(up)
    if len(order) != n:
        _stray_node(root, order, pos, parents, children)

    # leaves below each edge, summed bottom-up from 1 on each leaf edge
    inner = set(up)
    below = list(map(sub, repeat(1), map(inner.__contains__, range(n + 1))))
    for e in reversed(order):
        below[up[e]] += below[e]

    names = [root]
    names += map(children.__getitem__, pos)
    return RootedTree(
        up=up,
        names=names,
        # keyed by the caller's own id objects, so the dict adds no int per
        # edge, in ascending order, so a walk over it visits the ids in order
        counts=dict(zip(map(eids.__getitem__, pos), islice(below, 1, None))),
    )


def _breadth_first(up: list) -> list:
    """The edge ids reachable from the root, breadth first, given up links.

    The children of each edge sit in one id-sorted list, those of edge e
    at kids[start[e]:start[e + 1]]; the order grows while it is walked,
    and every node has one parent, so no edge is met twice.
    """
    n = len(up) - 1
    kids = sorted(range(1, n + 1), key=up.__getitem__)
    per_edge = Counter(islice(up, 1, None))
    start = list(accumulate(map(per_edge.get, range(n + 1), repeat(0)), initial=0))
    order = kids[:start[1]]
    for e in order:
        order += kids[start[e]:start[e + 1]]
    return order


def _first_bad_edge(edges) -> None:
    """Raise for the first of the (id, parent, child) edges that repeats an
    id or a child, loops, or is not a triple."""
    ids, entered = set(), set()
    for eid, parent, child in edges:
        if eid in ids:
            raise DuplicateEdgeId(f"edge id {eid} appears twice")
        if child in entered:
            raise DuplicateChild(f"node {child!r} has two incoming edges")
        if parent == child:
            raise CycleDetected(f"edge {eid} is a self loop at {child!r}")
        ids.add(eid)
        entered.add(child)


def _stray_node(root, order, pos, parents, children) -> None:
    """Raise for a node that the breadth-first walk from the root missed."""
    # filled edge by edge: the set's order, and so the stray it names,
    # follows the edge order
    nodes = set()
    for parent, child in zip(parents, children):
        nodes.add(parent)
        nodes.add(child)
    reached = {root}.union(children[pos[e - 1]] for e in order)
    stray = next(iter(nodes - reached))
    parent_of = dict(zip(children, parents))
    seen = set()
    node = stray
    while node in parent_of:
        if node in seen:
            raise CycleDetected(f"node {stray!r} sits on or below a cycle")
        seen.add(node)
        node = parent_of[node]
    raise DisconnectedNode(f"node {stray!r} does not reach the root")


def leaf_counts(tree: RootedTree) -> dict:
    """Number of leaves below each edge, keyed by edge id.

    A leaf edge counts 1 and an inner edge sums its child edges.  Sums over
    all edges of count * weight equal the sum of root-leaf path weights,
    which is the identity the solvers use.  ``build_tree`` computes the
    counts once; this returns the tree's own dict, so do not modify it.
    """
    return tree.counts


def srd(tree: RootedTree, weights: dict):
    """Sum of root-leaf distances of the tree under the given weight vector.

    Sums count * weight in ascending edge-id order, one plain addition at
    a time, so every total of the package rounds alike on any Python (the
    built-in ``sum`` of floats compensates its rounding since 3.12).
    """
    total = 0
    try:
        for eid, count in tree.counts.items():
            total += count * weights[eid]
    except KeyError:
        raise MissingEdgeWeight(f"weight vector lacks edge {eid}") from None
    return total


def raised_to_u(attrs: EdgeAttrs, edges) -> dict:
    """A copy of w with the given edges raised to their bound u."""
    weights = dict(attrs.w)
    u = attrs.u
    for eid in edges:
        weights[eid] = u[eid]
    return weights


def modified_edges(weights: dict, attrs: EdgeAttrs, raised=None) -> frozenset:
    """Edges whose weight differs from the starting weight.

    An edge is changed exactly when weights[e] != w[e], for floats and
    exact values alike; this is the one test of the package.  ``raised``
    names the only edges whose weight may differ from w, as a solver knows
    them; by default every edge is checked, and a missing entry raises
    MissingEdgeWeight.
    """
    w = attrs.w
    try:
        return frozenset(e for e in (w if raised is None else raised) if weights[e] != w[e])
    except KeyError as err:
        raise MissingEdgeWeight(f"weight vector lacks edge {err.args[0]}") from None


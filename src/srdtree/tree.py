"""Rooted-tree model and the distance primitives every solver reads.

An edge is identified with the node it enters, so a tree with n edges has
n + 1 nodes and edge ids are the dense integers 1..n.  Attribute tables and
weight vectors are plain dicts keyed by edge id; values are floats by
default, and exact rationals (fractions.Fraction) work everywhere because
nothing below ever leaves +, -, *, / and comparisons.

The target quantity throughout the package is the sum of root-leaf
distances: the total, over all leaves, of the weight of the path from the
root to that leaf.  Each edge contributes its weight once per leaf below
it, which gives the linear form used by ``srd``.  Those leaf counts depend
on the tree alone, so ``build_tree`` computes them once and stores them on
the frozen tree; every solver reads them from there.
"""

from __future__ import annotations

from dataclasses import dataclass

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

# Absolute slack under which two float weights count as equal when deciding
# whether an edge was modified.  Exact values (Fraction, int) compare exactly.
HAMMING_EPS = 1e-12


@dataclass(frozen=True)
class EdgeAttrs:
    """Per-edge data: start weight w, upper bound u and positive unit cost c.

    All three dicts are keyed by edge id and must cover the same edges,
    with u[e] >= w[e] >= 0 and c[e] > 0.
    """

    w: dict
    u: dict
    c: dict


@dataclass(frozen=True)
class RootedTree:
    """An immutable rooted tree.

    edges keeps the construction order as (edge_id, parent, child) records,
    from which any node lookup can be rebuilt.  counts maps each edge id,
    in ascending order, to the number of leaves below it: the L(e) of the
    linear form every solver reads.  Treat the dict as read-only.
    """

    root: str
    edges: tuple
    counts: dict

    @property
    def n(self) -> int:
        """Number of edges."""
        return len(self.edges)

    @property
    def node_count(self) -> int:
        return len(self.edges) + 1

    @property
    def edge_ids(self) -> range:
        """Edge ids in ascending order; always exactly 1..n after validation."""
        return range(1, len(self.edges) + 1)


def build_tree(edge_list, attrs: EdgeAttrs) -> RootedTree:
    """Validate an edge list plus attributes and assemble a RootedTree.

    edge_list holds (edge_id, parent, child) triples with string node names.
    Raises the specific structural error for duplicate children or ids,
    several roots, cycles, non-dense ids, missing attribute entries and
    attribute bound violations.
    """
    if not edge_list:
        raise InvalidEdgeId("edge list is empty")

    parent_of = {}
    child_of_edge = {}
    edge_of_child = {}
    nodes = set()
    for eid, parent, child in edge_list:
        if eid in child_of_edge:
            raise DuplicateEdgeId(f"edge id {eid} appears twice")
        if child in parent_of:
            raise DuplicateChild(f"node {child!r} has two incoming edges")
        if parent == child:
            raise CycleDetected(f"edge {eid} is a self loop at {child!r}")
        parent_of[child] = parent
        child_of_edge[eid] = child
        edge_of_child[child] = eid
        nodes.add(parent)
        nodes.add(child)

    n = len(edge_list)
    ids = set(child_of_edge)
    if ids != set(range(1, n + 1)):
        raise InvalidEdgeId(f"edge ids must be 1..{n}, got {sorted(ids)}")

    parentless = nodes - parent_of.keys()
    if not parentless:
        raise CycleDetected("every node has a parent, so the edges close a cycle")
    if len(parentless) > 1:
        raise MultipleRoots(f"nodes without a parent: {sorted(parentless)}")
    (root,) = parentless

    # out_edges[node] lists the ids of the edges leaving node
    out_edges = {}
    for eid, parent, _ in edge_list:
        out_edges.setdefault(parent, []).append(eid)

    # breadth-first order of the edges reachable from the root; the list
    # grows while it is walked, and every node has one parent, so no edge
    # is met twice
    order = list(out_edges.get(root, ()))
    for eid in order:
        order.extend(out_edges.get(child_of_edge[eid], ()))
    if len(order) != n:
        reached = {root}.union(map(child_of_edge.__getitem__, order))
        stray = next(iter(nodes - reached))
        seen = set()
        node = stray
        while node in parent_of:
            if node in seen:
                raise CycleDetected(f"node {stray!r} sits on or below a cycle")
            seen.add(node)
            node = parent_of[node]
        raise DisconnectedNode(f"node {stray!r} does not reach the root")

    # leaves below each edge, bottom-up: a child edge comes after its parent
    # edge in BFS order, so walking the order backwards finishes every edge
    # before the one above it; index 0 collects the root's edges
    up = [0] * (n + 1)
    for eid, parent, _ in edge_list:
        up[eid] = edge_of_child.get(parent, 0)
    below = [0] * (n + 1)
    for eid in reversed(order):
        if not below[eid]:
            below[eid] = 1
        below[up[eid]] += below[eid]
    # keyed by the caller's own id objects, so the dict adds no int per
    # edge, in ascending order, so a walk over it visits the ids in order
    counts = {eid: below[eid] for eid in sorted(child_of_edge)}

    for eid in range(1, n + 1):
        if eid not in attrs.w or eid not in attrs.u or eid not in attrs.c:
            raise MissingEdgeWeight(f"attributes missing for edge {eid}")
        w, u, c = attrs.w[eid], attrs.u[eid], attrs.c[eid]
        if w < 0:
            raise AttrBoundsViolated(f"edge {eid}: w = {w} is negative")
        if u < w:
            raise AttrBoundsViolated(f"edge {eid}: u = {u} lies below w = {w}")
        if c <= 0:
            raise AttrBoundsViolated(f"edge {eid}: c = {c} is not positive")

    return RootedTree(
        root=root,
        edges=tuple((eid, parent, child) for eid, parent, child in edge_list),
        counts=counts,
    )


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


def snap_unchanged(weights: dict, attrs: EdgeAttrs, raised=None) -> frozenset:
    """Put back the exact starting weight wherever a raise is below the slack.

    Works in place on ``weights``, a vector the caller owns, and returns
    the frozenset of edges that still differ, so an edge outside that set
    carries a weight bit-identical to its input weight.  ``raised`` names
    the only edges whose weight may differ from w (the rest must hold w
    already); by default every edge of ``weights`` is checked.
    """
    w = attrs.w
    changed = []
    for eid in weights if raised is None else raised:
        base = w[eid]
        diff = weights[eid] - base
        if abs(diff) > HAMMING_EPS if isinstance(diff, float) else diff != 0:
            changed.append(eid)
        else:
            weights[eid] = base
    return frozenset(changed)


def modified_edges(weights: dict, attrs: EdgeAttrs) -> frozenset:
    """Edges whose weight differs from the starting weight.

    Float entries use the absolute HAMMING_EPS slack; exact entries compare
    exactly.  Missing entries raise MissingEdgeWeight.
    """
    for eid in attrs.w:
        if eid not in weights:
            raise MissingEdgeWeight(f"weight vector lacks edge {eid}")
    return snap_unchanged({eid: weights[eid] for eid in attrs.w}, attrs)


def hamming_count(weights: dict, attrs: EdgeAttrs) -> int:
    """How many edges changed relative to the starting weights."""
    return len(modified_edges(weights, attrs))

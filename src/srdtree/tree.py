"""Rooted-tree model and the distance primitives every solver reads.

An edge is identified with the node it enters, so a tree with n edges has
n + 1 nodes and edge ids are the dense integers 1..n.  Attribute tables and
weight vectors are plain dicts keyed by edge id; values are floats by
default, and exact rationals (fractions.Fraction) work everywhere because
nothing below ever leaves +, -, *, / and comparisons.

The target quantity throughout the package is the sum of root-leaf
distances: the total, over all leaves, of the weight of the path from the
root to that leaf.  Each edge contributes its weight once per leaf below
it, which gives the linear form used by ``srd``.
"""

from __future__ import annotations

from collections import deque
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

    edges keeps the construction order as (edge_id, parent, child) records;
    parent_of, child_of_edge and edge_of_child are the lookup views the
    solvers and the file layer need.
    """

    root: str
    edges: tuple
    parent_of: dict
    leaves: frozenset
    child_of_edge: dict
    edge_of_child: dict

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

    children = {}
    for child, parent in parent_of.items():
        children.setdefault(parent, []).append(child)

    reached = {root}
    queue = deque([root])
    while queue:
        node = queue.popleft()
        for child in children.get(node, ()):
            reached.add(child)
            queue.append(child)
    if len(reached) != len(nodes):
        stray = next(iter(nodes - reached))
        seen = set()
        node = stray
        while node in parent_of:
            if node in seen:
                raise CycleDetected(f"node {stray!r} sits on or below a cycle")
            seen.add(node)
            node = parent_of[node]
        raise DisconnectedNode(f"node {stray!r} does not reach the root")

    leaves = frozenset(nodes - children.keys())

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
        parent_of=parent_of,
        leaves=leaves,
        child_of_edge=child_of_edge,
        edge_of_child=edge_of_child,
    )


def leaf_counts(tree: RootedTree) -> dict:
    """Number of leaves below each edge, keyed by edge id.

    Computed bottom-up in one pass; a leaf edge counts 1 and an inner edge
    sums its child edges.  Sums over all edges of count * weight equal the
    sum of root-leaf path weights, which is the identity the solvers use.
    """
    children = {}
    for child, parent in tree.parent_of.items():
        children.setdefault(parent, []).append(child)

    order = []
    queue = deque([tree.root])
    while queue:
        node = queue.popleft()
        order.append(node)
        queue.extend(children.get(node, ()))

    below = {}
    for node in reversed(order):
        kids = children.get(node)
        if not kids:
            below[node] = 1
        else:
            below[node] = sum(below[k] for k in kids)

    return {eid: below[child] for eid, child in tree.child_of_edge.items()}


def srd(tree: RootedTree, weights: dict, counts: dict | None = None):
    """Sum of root-leaf distances of the tree under the given weight vector.

    Pass precomputed leaf counts to skip that walk.
    """
    if counts is None:
        counts = leaf_counts(tree)
    total = 0
    for eid in tree.edge_ids:
        if eid not in weights:
            raise MissingEdgeWeight(f"weight vector lacks edge {eid}")
        total += counts[eid] * weights[eid]
    return total


def _is_modified(value, base) -> bool:
    diff = value - base
    if isinstance(diff, float):
        return abs(diff) > HAMMING_EPS
    return diff != 0


def snap_unchanged(weights: dict, attrs: EdgeAttrs) -> tuple:
    """Replace sub-threshold raises by the exact starting weight.

    Returns the snapped vector and the frozenset of edges that still
    differ, so an edge outside that set carries a weight bit-identical to
    its input weight.
    """
    snapped = {}
    changed = []
    for eid, value in weights.items():
        base = attrs.w[eid]
        if _is_modified(value, base):
            snapped[eid] = value
            changed.append(eid)
        else:
            snapped[eid] = base
    return snapped, frozenset(changed)


def modified_edges(weights: dict, attrs: EdgeAttrs) -> frozenset:
    """Edges whose weight differs from the starting weight.

    Float entries use the absolute HAMMING_EPS slack; exact entries compare
    exactly.  Missing entries raise MissingEdgeWeight.
    """
    out = []
    for eid, base in attrs.w.items():
        if eid not in weights:
            raise MissingEdgeWeight(f"weight vector lacks edge {eid}")
        if _is_modified(weights[eid], base):
            out.append(eid)
    return frozenset(out)


def hamming_count(weights: dict, attrs: EdgeAttrs) -> int:
    """How many edges changed relative to the starting weights."""
    return len(modified_edges(weights, attrs))

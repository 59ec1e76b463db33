"""The line-by-line ``parse`` and edge-by-edge ``build_tree`` that the
columnar ones replaced, kept verbatim as the reference the parity tests
compare the package against: same trees, attributes and parameters, or the
same error class, line and message."""

from fractions import Fraction

from srdtree.errors import (
    AttrBoundsViolated,
    BoundViolation,
    CycleDetected,
    DisconnectedNode,
    DuplicateChild,
    DuplicateEdgeId,
    InstanceSyntaxError,
    InvalidEdgeId,
    MissingEdgeWeight,
    MissingHeader,
    MultipleRoots,
)
from srdtree.instance import InstanceFile, ProblemParams
from srdtree.tree import EdgeAttrs, RootedTree


def parse(text: str, exact: bool = False) -> InstanceFile:
    """Parse instance text; with ``exact`` decimals become Fractions."""
    convert = Fraction if exact else float
    header_seen = False
    declared_n = None
    root_decl = None
    root_line = 0
    edges = []
    w, u, c = {}, {}, {}
    params = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if not header_seen:
            if fields == ["tif", "v1"]:
                header_seen = True
                continue
            raise MissingHeader(f"line {lineno}: expected 'tif v1', got {line!r}")

        directive = fields[0]
        if directive == "n":
            if len(fields) != 2 or declared_n is not None:
                raise InstanceSyntaxError(lineno, "bad or repeated n line")
            declared_n = _parse_int(fields[1], lineno)
        elif directive == "root":
            if len(fields) != 2 or root_decl is not None:
                raise InstanceSyntaxError(lineno, "bad or repeated root line")
            root_decl = fields[1]
            root_line = lineno
        elif directive == "edge":
            if len(fields) != 7:
                raise InstanceSyntaxError(lineno, "edge needs id, parent, child, w, u, c")
            eid = _parse_int(fields[1], lineno)
            if eid in w:
                raise DuplicateEdgeId(f"line {lineno}: edge id {eid} repeated")
            parent, child = fields[2], fields[3]
            we = _parse_decimal(fields[4], lineno, convert)
            ue = _parse_decimal(fields[5], lineno, convert)
            ce = _parse_decimal(fields[6], lineno, convert)
            if we < 0 or ue < we:
                raise BoundViolation(lineno, f"edge {eid}: need 0 <= w <= u")
            if ce <= 0:
                raise BoundViolation(lineno, f"edge {eid}: cost must be positive")
            edges.append((eid, parent, child))
            w[eid], u[eid], c[eid] = we, ue, ce
        elif directive == "param":
            if len(fields) != 3 or fields[1] not in ("K", "D", "N"):
                raise InstanceSyntaxError(lineno, "param needs K, D or N plus a value")
            if fields[1] in params:
                raise InstanceSyntaxError(lineno, f"param {fields[1]} repeated")
            if fields[1] == "N":
                params["N"] = _parse_int(fields[2], lineno)
            else:
                params[fields[1]] = _parse_decimal(fields[2], lineno, convert)
        else:
            raise InstanceSyntaxError(lineno, f"unknown directive {directive!r}")

    if not header_seen:
        raise MissingHeader("no 'tif v1' line")
    if declared_n is None or root_decl is None:
        raise MissingHeader("missing n or root line")
    if declared_n != len(edges):
        raise InstanceSyntaxError(0, f"n says {declared_n} edges, file has {len(edges)}")

    tree = build_tree(edges, EdgeAttrs(w, u, c))
    if tree.root != root_decl:
        raise InstanceSyntaxError(
            root_line, f"root line names {root_decl!r} but the edges root at {tree.root!r}")
    return InstanceFile(tree, EdgeAttrs(w, u, c),
                        ProblemParams(K=params.get("K"), D=params.get("D"),
                                      N=params.get("N")))


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

    # names[e]: the node edge e enters, the root at index 0
    names = [root] * (n + 1)
    for eid, _, child in edge_list:
        names[eid] = child
    return RootedTree(up=up, names=names, counts=counts)


def _parse_int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise InstanceSyntaxError(lineno, f"expected an integer, got {token!r}") from None


def _parse_decimal(token: str, lineno: int, convert):
    try:
        value = convert(token)
    except (ValueError, ZeroDivisionError):
        raise InstanceSyntaxError(lineno, f"expected a decimal, got {token!r}") from None
    if isinstance(value, float) and not value == value:  # NaN guard
        raise InstanceSyntaxError(lineno, "NaN is not a value")
    if isinstance(value, float) and value in (float("inf"), float("-inf")):
        raise InstanceSyntaxError(lineno, "infinite values are not allowed")
    return value

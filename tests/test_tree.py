import gc
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from srdtree import (
    AttrBoundsViolated,
    CycleDetected,
    DuplicateChild,
    DuplicateEdgeId,
    EdgeAttrs,
    GenConfig,
    InvalidEdgeId,
    MissingEdgeWeight,
    MultipleRoots,
    build_tree,
    generate,
    leaf_counts,
    mcsdipt_bh,
    mcsdipt_inf,
    mcsdiptc_bh,
    mcsdiptc_inf,
    modified_edges,
    parse,
    sdipt_bh,
    sdipt_inf,
    sdiptc_bh,
    sdiptc_inf,
    serialize,
    srd,
)
from srdtree.instance import SHAPES

NAN, INF = float("nan"), float("inf")

from strategies import NUMS, edge_lists, tree_and_attrs


def parent_edges(tree):
    """Child node to (edge id, parent node), rebuilt from tree.edges."""
    return {child: (eid, parent) for eid, parent, child in tree.edges}


def leaves(tree):
    return {child for _, _, child in tree.edges} - {parent for _, parent, _ in tree.edges}


def unit_attrs(n):
    return EdgeAttrs(
        w={e: 1.0 for e in range(1, n + 1)},
        u={e: 2.0 for e in range(1, n + 1)},
        c={e: 1.0 for e in range(1, n + 1)},
    )


class TestBuildTree:
    def test_broom_shape(self, broom):
        tree, attrs = broom
        assert tree.root == "s"
        assert tree.n == 3
        assert tree.node_count == 4
        assert leaves(tree) == {"t1", "t2"}
        assert list(tree.edge_ids) == [1, 2, 3]

    def test_empty_edge_list(self):
        with pytest.raises(InvalidEdgeId):
            build_tree([], unit_attrs(0))

    def test_duplicate_edge_id(self):
        edges = [(1, "s", "a"), (1, "s", "b")]
        with pytest.raises(DuplicateEdgeId):
            build_tree(edges, unit_attrs(2))

    def test_duplicate_child(self):
        edges = [(1, "s", "a"), (2, "s", "a")]
        with pytest.raises(DuplicateChild):
            build_tree(edges, unit_attrs(2))

    def test_self_loop(self):
        with pytest.raises(CycleDetected):
            build_tree([(1, "a", "a")], unit_attrs(1))

    def test_closed_cycle(self):
        edges = [(1, "a", "b"), (2, "b", "a")]
        with pytest.raises(CycleDetected):
            build_tree(edges, unit_attrs(2))

    def test_cycle_hanging_off_nothing(self):
        # a 2-cycle detached from the root component
        edges = [(1, "s", "a"), (2, "p", "q"), (3, "q", "p")]
        with pytest.raises(CycleDetected):
            build_tree(edges, unit_attrs(3))

    def test_multiple_roots(self):
        edges = [(1, "s", "a"), (2, "r", "b")]
        with pytest.raises(MultipleRoots):
            build_tree(edges, unit_attrs(2))

    def test_non_dense_ids(self):
        edges = [(1, "s", "a"), (3, "a", "b")]
        with pytest.raises(InvalidEdgeId):
            build_tree(edges, unit_attrs(3))

    def test_missing_attr_entry(self):
        edges = [(1, "s", "a"), (2, "a", "b")]
        attrs = EdgeAttrs(w={1: 1.0}, u={1: 2.0}, c={1: 1.0})
        with pytest.raises(MissingEdgeWeight):
            build_tree(edges, attrs)

    @pytest.mark.parametrize(
        "w,u,c",
        [(-1.0, 2.0, 1.0), (1.0, 0.5, 1.0), (1.0, 2.0, 0.0), (1.0, 2.0, -3.0),
         # non-finite values, and a full-raise cost c * (u - w) that overflows
         (NAN, 2.0, 1.0), (1.0, NAN, 1.0), (1.0, 2.0, NAN), (INF, INF, 1.0),
         (1.0, INF, 1.0), (1.0, 2.0, INF), (1.0, 1.0, INF), (0.0, 1e200, 1e200)],
    )
    def test_attr_bounds(self, w, u, c):
        attrs = EdgeAttrs(w={1: w}, u={1: u}, c={1: c})
        with pytest.raises(AttrBoundsViolated):
            build_tree([(1, "s", "a")], attrs)

    def test_exact_full_raise_cost_beyond_the_float_range(self):
        big = Fraction(10**200)
        attrs = EdgeAttrs(w={1: Fraction(0)}, u={1: big}, c={1: big})
        assert build_tree([(1, "s", "a")], attrs).counts == {1: 1}


class TestParentIndex:
    def test_broom_columns(self, broom):
        tree, _ = broom
        assert tree.up == [0, 0, 1, 1]
        assert tree.names == ["s", "v1", "t1", "t2"]
        assert tree.edges == ((1, "s", "v1"), (2, "v1", "t1"), (3, "v1", "t2"))

    def test_edges_in_id_order(self):
        # the order the edges came in is not kept; edges is rebuilt by id
        edges = [(3, "a", "x"), (1, "a", "b"), (4, "s", "a"), (2, "b", "y")]
        tree = build_tree(edges, unit_attrs(4))
        assert tree.up == [0, 4, 1, 4, 0]
        assert tree.names == ["s", "b", "y", "x", "a"]
        assert tree.edges == tuple(sorted(edges))
        assert tree.edges is not tree.edges

    @staticmethod
    def assert_round_trip(tree, attrs):
        again = build_tree(tree.edges, attrs)
        assert again.up == tree.up
        assert again.names == tree.names
        assert list(again.counts.items()) == list(tree.counts.items())

    @given(st.data())
    def test_shuffled_edges_round_trip(self, data):
        edges = data.draw(st.permutations(data.draw(edge_lists(max_edges=14))))
        ids = data.draw(st.permutations(range(1, len(edges) + 1)))
        edges = [(ids[eid - 1], parent, child) for eid, parent, child in edges]
        tree = build_tree(edges, unit_attrs(len(edges)))
        assert sorted(tree.edges) == sorted(edges)
        self.assert_round_trip(tree, unit_attrs(len(edges)))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_generated_round_trip(self, shape):
        inst = generate(GenConfig(node_count=2001, seed=5, shape=shape))
        self.assert_round_trip(inst.tree, inst.attrs)


class TestGcFootprint:
    """The tree holds no container per edge: building one leaves a fixed
    number of new gc-tracked objects, whatever the number of edges.

    Cyclic collections are triggered by allocations of tracked objects, so
    this is also what keeps a large parse free of them.  gc is off while
    the objects are counted, so none is collected or untracked meanwhile.
    """

    @staticmethod
    def growth(build, *args):
        build(*args)  # any first-call caches are made outside the count
        enabled = gc.isenabled()
        gc.disable()
        try:
            before = len(gc.get_objects())
            kept = build(*args)
            after = len(gc.get_objects())
        finally:
            if enabled:
                gc.enable()
        return after - before

    @staticmethod
    def instance(edges, shape):
        return generate(GenConfig(node_count=edges + 1, seed=edges, shape=shape))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_generate(self, shape):
        grown = [self.growth(self.instance, edges, shape) for edges in (1000, 10000)]
        assert grown[0] == grown[1] <= 10

    @pytest.mark.parametrize("shape", SHAPES)
    def test_parse(self, shape):
        texts = [serialize(self.instance(edges, shape)) for edges in (1000, 10000)]
        grown = [self.growth(parse, text) for text in texts]
        assert grown[0] == grown[1] <= 10

    @pytest.mark.parametrize("shape", SHAPES)
    def test_build_tree(self, shape):
        grown = []
        for edges in (1000, 10000):
            inst = self.instance(edges, shape)
            grown.append(self.growth(build_tree, list(inst.tree.edges), inst.attrs))
        assert grown[0] == grown[1] <= 10


class TestLeafCounts:
    def test_broom(self, broom):
        tree, _ = broom
        assert leaf_counts(tree) == {1: 2, 2: 1, 3: 1}

    def test_path(self):
        edges = [(1, "s", "v1"), (2, "v1", "v2"), (3, "v2", "v3")]
        tree = build_tree(edges, unit_attrs(3))
        assert leaf_counts(tree) == {1: 1, 2: 1, 3: 1}

    def test_star(self, star4):
        tree, _ = star4
        assert leaf_counts(tree) == {1: 1, 2: 1, 3: 1, 4: 1}

    @given(tree_and_attrs(max_edges=14))
    def test_matches_descendant_walk(self, ta):
        tree, _ = ta
        counts = leaf_counts(tree)
        for eid, _, child in tree.edges:
            stack = [child]
            leaves_below = 0
            while stack:
                node = stack.pop()
                kids = [k for _, p, k in tree.edges if p == node]
                if not kids:
                    leaves_below += 1
                stack.extend(kids)
            assert counts[eid] == leaves_below

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("edges", [10, 100, 1000, 10000])
    def test_matches_path_walk(self, shape, edges):
        # every root-leaf path adds one to each edge on it
        inst = generate(GenConfig(node_count=edges + 1, seed=edges, shape=shape))
        tree = inst.tree
        up = parent_edges(tree)
        walked = dict.fromkeys(tree.edge_ids, 0)
        for node in leaves(tree):
            while node != tree.root:
                eid, node = up[node]
                walked[eid] += 1
        assert tree.counts == walked
        assert sum(tree.counts[e] for e, parent, _ in tree.edges
                   if parent == tree.root) == len(leaves(tree))

    def test_stored_once(self, broom):
        tree, _ = broom
        assert leaf_counts(tree) is leaf_counts(tree)
        assert leaf_counts(tree) is tree.counts

    def test_edge_order_does_not_matter(self):
        # ids need not follow the topology, and edges may come in any order
        edges = [(3, "a", "x"), (1, "a", "b"), (4, "s", "a"), (2, "b", "y"), (5, "b", "z")]
        tree = build_tree(edges, unit_attrs(5))
        assert tree.counts == {1: 2, 2: 1, 3: 1, 4: 3, 5: 1}

    @given(tree_and_attrs(max_edges=12), st.data())
    def test_solvers_leave_counts_alone(self, ta, data):
        tree, attrs = ta
        before = dict(tree.counts)
        budget = data.draw(st.floats(min_value=0.0, max_value=30.0))
        demand = srd(tree, attrs.w) + data.draw(st.floats(min_value=-1.0, max_value=200.0))
        cap = data.draw(st.integers(min_value=1, max_value=tree.n))
        for solve in (sdipt_inf, sdipt_bh):
            solve(tree, attrs, budget)
        for solve in (sdiptc_inf, sdiptc_bh):
            solve(tree, attrs, budget, cap)
        for solve in (mcsdipt_inf, mcsdipt_bh):
            solve(tree, attrs, demand)
        for solve in (mcsdiptc_inf, mcsdiptc_bh):
            solve(tree, attrs, demand, cap)
        assert tree.counts == before
        assert list(tree.counts) == list(before)


class TestSrd:
    def test_broom_base_and_full(self, broom):
        tree, attrs = broom
        assert srd(tree, attrs.w) == 4.0
        assert srd(tree, attrs.u) == 13.0

    def test_missing_weight(self, broom):
        tree, _ = broom
        with pytest.raises(MissingEdgeWeight):
            srd(tree, {1: 1.0, 2: 1.0})

    @given(tree_and_attrs(max_edges=10, exact=True))
    def test_equals_path_walk_exactly(self, ta):
        # linear form versus summing each root-leaf path, in exact arithmetic
        tree, attrs = ta
        up = parent_edges(tree)
        by_paths = Fraction(0)
        for node in leaves(tree):
            while node != tree.root:
                eid, node = up[node]
                by_paths += attrs.w[eid]
        assert srd(tree, attrs.w) == by_paths

    @given(tree_and_attrs(max_edges=10))
    def test_equals_path_walk_floats(self, ta):
        tree, attrs = ta
        up = parent_edges(tree)
        by_paths = 0.0
        for node in leaves(tree):
            while node != tree.root:
                eid, node = up[node]
                by_paths += attrs.w[eid]
        assert srd(tree, attrs.w) == pytest.approx(by_paths, rel=1e-12, abs=1e-9)


class TestModifiedEdges:
    def test_unchanged_vector(self, broom):
        tree, attrs = broom
        assert modified_edges(dict(attrs.w), attrs) == frozenset()
        assert len(modified_edges(dict(attrs.w), attrs)) == 0

    def test_single_change(self, broom):
        tree, attrs = broom
        weights = dict(attrs.w)
        weights[2] = 2.0
        assert modified_edges(weights, attrs) == frozenset({2})
        assert len(modified_edges(weights, attrs)) == 1

    @pytest.mark.parametrize("num", NUMS)
    def test_dust_is_a_change(self, num):
        # one notion for both modes: any weight that differs from w changed
        attrs = EdgeAttrs(w={1: num(1)}, u={1: num(2)}, c={1: num(1)})
        weights = {1: num(1) + num(5e-13)}
        assert weights[1] != attrs.w[1]
        assert modified_edges(weights, attrs) == frozenset({1})
        assert len(modified_edges(weights, attrs)) == 1

    def test_missing_entry(self, broom):
        tree, attrs = broom
        with pytest.raises(MissingEdgeWeight):
            modified_edges({1: 1.0}, attrs)

    @given(tree_and_attrs(max_edges=8), st.data())
    def test_counts_raised_edges(self, ta, data):
        tree, attrs = ta
        picks = data.draw(
            st.sets(st.sampled_from(sorted(tree.edge_ids)), max_size=tree.n)
        )
        weights = dict(attrs.w)
        really_raised = set()
        for e in picks:
            if attrs.u[e] > attrs.w[e] + 1e-9:
                weights[e] = attrs.u[e]
                really_raised.add(e)
        assert modified_edges(weights, attrs) == frozenset(really_raised)

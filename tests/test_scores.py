"""The score table's id-indexed columns, and answers that ignore the edge line order.

``EdgeScoreTable`` reads w, u, c and the leaf counts as id-ordered columns:
a dict's own values when its keys run in id order, a read by id when they
do not, as after a file whose edge lines are shuffled.  Either way F, S
and nu must be, bit for bit, the per-edge expressions, and the eight
solvers must give the same answers, with weight dicts keyed in the order
of the instance's own ``w``.
"""

import random

import pytest

from srdtree import (
    EdgeAttrs,
    EdgeScoreTable,
    GenConfig,
    build_tree,
    generate,
    mcsdipt_bh,
    mcsdipt_inf,
    mcsdiptc_bh,
    mcsdiptc_inf,
    parse,
    sdipt_bh,
    sdipt_inf,
    sdiptc_bh,
    sdiptc_inf,
    serialize,
    srd,
)
from srdtree.instance import SHAPES

CASES = [(shape, edges) for shape in SHAPES for edges in (1, 7, 60)]


def shuffled(text, seed):
    """The instance text with its edge lines in a seeded random order."""
    lines = text.splitlines(keepends=True)
    at = [i for i, line in enumerate(lines) if line.startswith("edge ")]
    edge_lines = [lines[i] for i in at]
    random.Random(seed).shuffle(edge_lines)
    for i, line in zip(at, edge_lines):
        lines[i] = line
    return "".join(lines)


def readings(shape, edges):
    """The generated instance, its exact read-back, and both read from shuffled lines."""
    inst = generate(GenConfig(node_count=edges + 1, seed=edges, shape=shape))
    text = serialize(inst)
    mixed = shuffled(text, edges)
    return {"generated": inst, "exact": parse(text, exact=True),
            "shuffled": parse(mixed), "shuffled exact": parse(mixed, exact=True)}


def same_bits(got, want):
    return got == want and repr(got) == repr(want)


class TestColumns:
    @pytest.mark.parametrize("shape, edges", CASES)
    def test_scores_are_the_per_edge_expressions(self, shape, edges):
        for name, inst in readings(shape, edges).items():
            tree, attrs = inst.tree, inst.attrs
            w, u, c, L = attrs.w, attrs.u, attrs.c, tree.counts
            table = EdgeScoreTable(tree, attrs)
            F, S, nu = table.F, table.S, table.nu
            assert len(F) == len(S) == len(nu) == tree.n + 1, name
            assert F[0] == S[0] == nu[0] == 0, name
            for e in tree.edge_ids:
                assert same_bits(F[e], c[e] * (u[e] - w[e])), (name, e)
                assert same_bits(S[e], L[e] * (u[e] - w[e])), (name, e)
                assert same_bits(nu[e], L[e] / c[e]), (name, e)

    @pytest.mark.parametrize("shape, edges", CASES)
    def test_columns_run_in_id_order(self, shape, edges):
        for name, inst in readings(shape, edges).items():
            attrs = inst.attrs
            table = EdgeScoreTable(inst.tree, attrs)
            ids = list(inst.tree.edge_ids)
            assert table.ids == ids, name
            for column, values in ((table.w, attrs.w), (table.u, attrs.u), (table.c, attrs.c)):
                assert list(column) == [values[e] for e in ids], name

    def test_dicts_with_keys_out_of_order_or_to_spare(self):
        edges = [(1, "r", "a"), (2, "a", "b"), (3, "a", "c")]
        w = {3: 1.0, 1: 0.5, 2: 0.25}
        u = {2: 2.0, 3: 1.5, 1: 0.5}
        c = {1: 3.0, 2: 0.5, 3: 2.0, 4: 9.0}
        tree = build_tree(edges, EdgeAttrs(w, u, c))
        table = EdgeScoreTable(tree, EdgeAttrs(w, u, c))
        assert table.F == [0, 0.0, 0.875, 1.0]
        assert table.S == [0, 0.0, 1.75, 0.5]
        assert table.nu == [0, 2 / 3.0, 2.0, 0.5]
        assert table.gaining == 2
        assert table.sorted_by_F == (1, 2, 3)
        assert table.sorted_by_S == (2, 3, 1)
        assert table.sorted_by_nu == (2, 1, 3)
        assert table.sorted_by_c == (2, 3, 1)


def answers(inst):
    """The eight solvers at the file's K, D and N and at a demand past N edges' reach."""
    tree, attrs, p = inst.tree, inst.attrs, inst.params
    cap = max(1, tree.n // 10)
    gains = sorted(EdgeScoreTable(tree, attrs).S[1:], reverse=True)
    # halfway to the reach of the cap largest gains, so the capped linf solve probes
    demand = srd(tree, attrs.w) + sum(gains[:cap]) / 2
    return {
        "sdipt_inf": sdipt_inf(tree, attrs, p.K),
        "sdiptc_inf": sdiptc_inf(tree, attrs, p.K, p.N),
        "mcsdipt_inf": mcsdipt_inf(tree, attrs, p.D),
        "mcsdiptc_inf": mcsdiptc_inf(tree, attrs, p.D, p.N),
        "mcsdiptc_inf capped": mcsdiptc_inf(tree, attrs, demand, cap),
        "sdipt_bh": sdipt_bh(tree, attrs, p.K),
        "sdiptc_bh": sdiptc_bh(tree, attrs, p.K, p.N),
        "mcsdipt_bh": mcsdipt_bh(tree, attrs, p.D),
        "mcsdiptc_bh": mcsdiptc_bh(tree, attrs, p.D, p.N),
        "mcsdiptc_bh capped": mcsdiptc_bh(tree, attrs, demand, cap),
    }


def fingerprint(rep):
    weights = None if rep.weights is None else [(e, repr(x)) for e, x in sorted(rep.weights.items())]
    return (rep.status, repr(rep.cost), repr(rep.objective), sorted(rep.modified_edges),
            rep.iterations, rep.breakpoint, weights)


class TestEdgeLineOrder:
    @pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
    @pytest.mark.parametrize("shape, edges", [(s, n) for s in SHAPES for n in (9, 80)])
    def test_shuffled_file_gives_the_canonical_answers(self, shape, edges, exact):
        inst = generate(GenConfig(node_count=edges + 1, seed=7 * edges, shape=shape))
        text = serialize(inst)
        canonical = parse(text, exact=exact)
        mixed = parse(shuffled(text, edges), exact=exact)
        assert list(mixed.attrs.w) != list(canonical.attrs.w)
        want, got = answers(canonical), answers(mixed)
        assert got["mcsdiptc_inf capped"].iterations > 0
        for name, rep in got.items():
            assert fingerprint(rep) == fingerprint(want[name]), name
            if rep.weights is not None:
                # a weight dict keeps the key order of the instance's own w
                assert list(rep.weights) == list(mixed.attrs.w), name
                assert list(want[name].weights) == list(canonical.attrs.w), name

"""Parity of the columnar ``parse`` and ``build_tree`` with the line-by-line
reference in ``reference_ingest``: on any file, the same instance (every
value by repr, the order of ``edges``, the keys and order of ``counts``) or
the same error class, line and message."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_ingest
from srdtree import EdgeAttrs, GenConfig, build_tree, generate, instance, parse, serialize
from srdtree.instance import SHAPES

from strategies import edge_lists

EDGE_FAULTS = ("fields", "nan", "inf", "bad-int", "w<0", "u<w", "c<=0", "dup-id",
               "dup-child", "self-loop", "cycle", "two-roots", "non-dense")
FILE_FAULTS = ("directive", "before-header", "n", "root", "param")
BLOCKS = (1, 2, 3, 5, instance._BLOCK)


def outcome(fn, *args, **kwargs):
    """A fingerprint of fn's instance or tree, or of the error it raised."""
    try:
        got = fn(*args, **kwargs)
    except Exception as err:  # noqa: BLE001 - the reference decides what is right
        return ("raised", type(err).__name__, getattr(err, "line", None), str(err))
    tree = getattr(got, "tree", got)
    out = [repr(tree.root), repr(tree.edges), repr(list(tree.counts.items()))]
    # counts is keyed by the very id objects of edges, not by equal copies
    ids = {id(eid) for eid, _, _ in tree.edges}
    out.append(all(id(eid) in ids for eid in tree.counts))
    if tree is not got:
        attrs = got.attrs
        out += [repr(list(d.items())) for d in (attrs.w, attrs.u, attrs.c)]
        out.append(repr(got.params))
    return tuple(out)


def descendants(edges, node):
    below = {}
    for _, parent, child in edges:
        below.setdefault(parent, []).append(child)
    out, stack = [], list(below.get(node, ()))
    while stack:
        out.append(stack.pop())
        stack.extend(below.get(out[-1], ()))
    return out


def break_edge(records, fault, k, rng):
    """Apply one fault to the k-th edge record (a list of seven tokens)."""
    rec = records[k]
    # a repeated id or child is reported where it repeats: copy an earlier one
    other = records[rng.randrange(k)] if k else records[-1]
    if fault == "fields":
        if rng.random() < 0.5:
            rec.append("7")
        else:
            rec.pop()
    elif fault == "nan":
        rec[rng.choice((4, 5, 6))] = rng.choice(("nan", "NaN", "-nan"))
    elif fault == "inf":
        rec[rng.choice((4, 5, 6))] = rng.choice(("inf", "-inf", "1e999", "Infinity"))
    elif fault == "bad-int":
        rec[1] = rng.choice(("1.5", "x", "0x1", "1e3"))
    elif fault == "w<0":
        rec[4] = rng.choice(("-1.5", "-1e-300"))
    elif fault == "u<w":
        rec[5] = "-0.25"
    elif fault == "c<=0":
        rec[6] = rng.choice(("0", "-0.0", "-2"))
    elif fault == "dup-id":
        rec[1] = other[1]
    elif fault == "dup-child":
        rec[3] = other[3]
    elif fault == "self-loop":
        rec[2] = rec[3]
    elif fault == "cycle":
        below = descendants([(0, r[2], r[3]) for r in records], rec[3])
        rec[2] = rng.choice(below) if below else rec[3]
    elif fault == "two-roots":
        rec[2] = "r0"
    elif fault == "non-dense":
        rec[1] = str(len(records) + 1 + rng.randrange(3))


def render(fields, rng, messy):
    if not messy:
        return " ".join(fields)
    seps = (" ", " ", "\t", "  ", " \t ")
    line = rng.choice(seps).join(fields) if rng.random() < 0.3 else " ".join(fields)
    if rng.random() < 0.1:
        line = rng.choice((" ", "\t", "  ")) + line
    if rng.random() < 0.1:
        line += rng.choice((" ", "\t"))
    return line


@st.composite
def instance_texts(draw, faults=(None,) + EDGE_FAULTS + FILE_FAULTS):
    """A generated file, reformatted, relabelled and with at most one fault.

    Formatting varies separators (tabs, runs of spaces), leading and
    trailing whitespace, comments and blank lines between edge lines, the
    edge order, the edge ids (any permutation of 1..n) and where the
    parameter lines sit.
    """
    inst = generate(GenConfig(node_count=draw(st.integers(2, 40)),
                              seed=draw(st.integers(0, 2**32)),
                              shape=draw(st.sampled_from(SHAPES))))
    rng = random.Random(draw(st.integers(0, 2**32)))
    fault = draw(st.sampled_from(faults))
    lines = serialize(inst).splitlines()
    header, params = lines[:3], [line.split() for line in lines if line.startswith("param")]
    records = [line.split() for line in lines if line.startswith("edge ")]
    n = len(records)
    if draw(st.booleans()):
        relabel = list(range(1, n + 1))
        rng.shuffle(relabel)
        for rec in records:
            rec[1] = str(relabel[int(rec[1]) - 1])
    if draw(st.booleans()):
        rng.shuffle(records)
    if fault in EDGE_FAULTS:
        break_edge(records, fault, rng.randrange(n), rng)
    elif fault == "n":
        header[1] = f"n {n + rng.choice((1, -1))}"
    elif fault == "root":
        header[2] = f"root {records[0][3]}"
    elif fault == "param":
        params.append(rng.choice([["param", "Q", "1"], ["param", "N", "2.5"], *params[:1]]))

    messy = draw(st.booleans())
    body = [render(rec, rng, messy) for rec in records]
    for fields in params:
        body.insert(rng.randrange(len(body) + 1) if messy else len(body), " ".join(fields))
    if messy:
        for _ in range(rng.randrange(4)):
            body.insert(rng.randrange(len(body) + 1), rng.choice(("", "# note", "  ", "#edge 1")))
    if fault == "directive":
        body.insert(rng.randrange(len(body) + 1), "vertex 1")
    out = ["# generated", *header, *body]
    if fault == "before-header":
        out.insert(0, " ".join(records[rng.randrange(n)]))
    newline = rng.choice(("\n", "\r\n")) if messy else "\n"
    return newline.join(out) + newline


class TestParseParity:
    @settings(max_examples=400)
    @given(instance_texts(), st.booleans(), st.sampled_from(BLOCKS))
    def test_same_instance_or_same_error(self, text, exact, block):
        saved = instance._BLOCK
        instance._BLOCK = block
        try:
            got = outcome(parse, text, exact=exact)
        finally:
            instance._BLOCK = saved
        assert got == outcome(reference_ingest.parse, text, exact=exact)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("exact", [False, True])
    def test_generated_files_at_scale(self, shape, exact):
        text = serialize(generate(GenConfig(node_count=3001, seed=7, shape=shape)))
        assert outcome(parse, text, exact=exact) == outcome(
            reference_ingest.parse, text, exact=exact)

    def test_node_names_holding_edge(self):
        # an 'edge' token inside a line takes the line-by-line path
        text = ("tif v1\nn 3\nroot s\nedge 1 s edge 1 2 1\n"
                "edge 2 edge hedge 1 2 1\nedge 3 edge e 0 0 1\n")
        got = outcome(parse, text)
        assert got == outcome(reference_ingest.parse, text)
        assert got[0] == "'s'"


    def test_fields_shifted_between_lines(self):
        # 9 + 5 fields make 14 tokens, an 'edge' at every 7th, and the
        # second line's 'edge' lands where a node name may stand
        text = "tif v1\nn 2\nroot s\nedge 1 s a 1 2 3 edge 2\nedge b 1 2 3\n"
        got = outcome(parse, text)
        assert got == outcome(reference_ingest.parse, text)
        assert got[:3] == ("raised", "InstanceSyntaxError", 4)


class TestShortRuns:
    """Comment or blank lines between single edge lines, and blocks whose
    column checks fail though no line is at fault."""

    @staticmethod
    def interleaved(edges):
        lines = serialize(generate(GenConfig(node_count=edges + 1, seed=11))).splitlines()
        out = []
        for k, line in enumerate(lines):
            out.append(line)
            if line.startswith("edge "):
                out.append("# after edge" if k % 2 else "")
        return "\n".join(out) + "\n"

    def test_one_edge_line_per_run(self):
        text = self.interleaved(3000)
        assert outcome(parse, text) == outcome(reference_ingest.parse, text)

    def test_one_edge_line_per_run_costs_what_a_line_does(self):
        # each run must cost its own lines, not a block's worth of the lines
        # after it: 20000 runs of one line take about 1.5 times the line by
        # line read; a block's worth each would take over 10 times as long
        text = self.interleaved(20000)
        got, ref = [], []
        for _ in range(3):
            start = time.perf_counter()
            parse(text)
            got.append(time.perf_counter() - start)
            start = time.perf_counter()
            reference_ingest.parse(text)
            ref.append(time.perf_counter() - start)
        assert min(got) < 4 * min(ref)

    @pytest.mark.parametrize("block", [2, 3])
    def test_overflowing_column_sums(self, block):
        # finite values whose float sum overflows fail the block's finiteness
        # check, so each block is read line by line, and the file is valid
        lines = serialize(generate(GenConfig(node_count=41, seed=2))).splitlines()
        for k in range(3, 43):
            rec = lines[k].split()
            rec[4:6] = ["1e308", "1.5e308"]
            lines[k] = " ".join(rec)
        text = "\n".join(lines) + "\n"
        saved = instance._BLOCK
        instance._BLOCK = block
        try:
            got = outcome(parse, text)
        finally:
            instance._BLOCK = saved
        assert got == outcome(reference_ingest.parse, text)
        assert got[0] != "raised"


class TestBlockEdges:
    """Faults on either side of a block boundary name the right line."""

    B = instance._BLOCK

    # (edge count, faulty edge): the first block holds edges 0..B - 1 on
    # lines 4..B + 3, so edge B - 1 ends it and edge B opens the next
    @pytest.mark.parametrize("edges,k", [(B - 1, B - 2), (B, B - 1), (B + 1, B - 1),
                                         (B + 1, B)])
    @pytest.mark.parametrize("fault", ["fields", "nan", "bad-int", "u<w", "dup-id"])
    def test_fault_names_its_line(self, edges, k, fault):
        lines = serialize(generate(GenConfig(node_count=edges + 1, seed=3))).splitlines()
        records = [line.split() for line in lines[3:3 + edges]]
        break_edge(records, fault, k, random.Random(k))
        text = "\n".join(lines[:3] + [" ".join(r) for r in records] + lines[3 + edges:])
        got = outcome(parse, text)
        assert got == outcome(reference_ingest.parse, text)
        assert got[0] == "raised" and got[3].startswith(f"line {k + 4}: ")

    @pytest.mark.parametrize("edges", [B - 1, B, B + 1])
    def test_valid_files(self, edges):
        text = serialize(generate(GenConfig(node_count=edges + 1, seed=5, shape="binary")))
        assert outcome(parse, text) == outcome(reference_ingest.parse, text)


@st.composite
def faulty_edge_lists(draw):
    """An edge list with relabelled ids, shuffled, and at most one fault."""
    edges = [list(e) for e in draw(edge_lists(max_edges=10))]
    n = len(edges)
    rng = random.Random(draw(st.integers(0, 2**32)))
    relabel = list(range(1, n + 1))
    if draw(st.booleans()):
        rng.shuffle(relabel)
    for e in edges:
        e[0] = relabel[e[0] - 1]
    if draw(st.booleans()):
        rng.shuffle(edges)
    fault = draw(st.sampled_from((None, "dup-id", "dup-child", "self-loop", "cycle",
                                  "two-roots", "non-dense", "empty", "missing",
                                  "w<0", "u<w", "c<=0", "not-a-triple")))
    attrs = EdgeAttrs({i: 1.0 for i in range(1, n + 1)}, {i: 2.0 for i in range(1, n + 1)},
                      {i: 1.0 for i in range(1, n + 1)})
    k = rng.randrange(n)
    other = edges[rng.randrange(n)]
    if fault == "dup-id":
        edges[k][0] = other[0]
    elif fault == "dup-child":
        edges[k][2] = other[2]
    elif fault == "self-loop":
        edges[k][1] = edges[k][2]
    elif fault == "cycle":
        below = descendants(edges, edges[k][2])
        edges[k][1] = rng.choice(below) if below else edges[k][2]
    elif fault == "two-roots":
        edges[k][1] = "r0"
    elif fault == "non-dense":
        edges[k][0] = n + 1
    elif fault == "empty":
        edges = []
    elif fault == "missing":
        del rng.choice((attrs.w, attrs.u, attrs.c))[k + 1]
    elif fault == "w<0":
        attrs.w[k + 1] = -1.0
    elif fault == "u<w":
        attrs.u[k + 1] = 0.5
    elif fault == "c<=0":
        attrs.c[k + 1] = 0.0
    elif fault == "not-a-triple":
        if rng.random() < 0.5:
            edges[k].append("x")
        else:
            edges[k].pop()
    return [tuple(e) for e in edges], attrs


class TestBuildTreeParity:
    @settings(max_examples=300)
    @given(faulty_edge_lists())
    def test_same_tree_or_same_error(self, case):
        edges, attrs = case
        assert outcome(build_tree, edges, attrs) == outcome(
            reference_ingest.build_tree, edges, attrs)

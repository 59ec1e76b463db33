import builtins
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from srdtree import (
    BadConfig,
    BoundViolation,
    DuplicateEdgeId,
    EdgeAttrs,
    GenConfig,
    InstanceFile,
    InstanceSyntaxError,
    MissingHeader,
    ProblemParams,
    SplitMix64,
    build_tree,
    digest,
    generate,
    parse,
    serialize,
    srd,
)
from srdtree.cli import SOLVERS, run_solver
from srdtree.instance import SHAPES, _format_number

MINIMAL = "tif v1\nn 1\nroot s\nedge 1 s a 1 2 1\n"

BROOM_TEXT = """\
# worked example
tif v1
n 3
root s
edge 1 s v1 1 3 1
edge 2 v1 t1 1 2 2
edge 3 v1 t2 1 5 1
param D 8
"""


class TestParse:
    def test_minimal(self):
        inst = parse(MINIMAL)
        assert inst.tree.n == 1
        assert inst.tree.root == "s"
        assert inst.attrs.w == {1: 1.0}
        assert inst.params == ProblemParams()

    def test_comments_and_blanks_ignored(self):
        inst = parse(BROOM_TEXT)
        assert inst.tree.n == 3
        assert inst.params.D == 8.0
        assert inst.params.K is None

    def test_exact_mode_yields_fractions(self):
        inst = parse("tif v1\nn 1\nroot s\nedge 1 s a 0.1 0.3 2.5\n", exact=True)
        assert inst.attrs.w[1] == Fraction(1, 10)
        assert inst.attrs.u[1] == Fraction(3, 10)
        assert isinstance(inst.attrs.c[1], Fraction)

    def test_missing_version_line(self):
        with pytest.raises(MissingHeader):
            parse("n 1\nroot s\nedge 1 s a 1 2 1\n")
        with pytest.raises(MissingHeader):
            parse("")

    def test_missing_n_or_root(self):
        with pytest.raises(MissingHeader):
            parse("tif v1\nroot s\nedge 1 s a 1 2 1\n")
        with pytest.raises(MissingHeader):
            parse("tif v1\nn 1\nedge 1 s a 1 2 1\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(InstanceSyntaxError):
            parse("tif v1\nn 2\nroot s\nedge 1 s a 1 2 1\n")

    def test_repeated_n(self):
        with pytest.raises(InstanceSyntaxError) as err:
            parse("tif v1\nn 1\nn 1\nroot s\nedge 1 s a 1 2 1\n")
        assert err.value.line == 3

    def test_edge_field_count(self):
        with pytest.raises(InstanceSyntaxError):
            parse("tif v1\nn 1\nroot s\nedge 1 s a 1 2\n")

    def test_duplicate_edge_id(self):
        text = ("tif v1\nn 2\nroot s\n"
                "edge 1 s a 1 2 1\nedge 1 a b 1 2 1\n")
        with pytest.raises(DuplicateEdgeId):
            parse(text)

    def test_bound_violations_carry_the_line(self):
        with pytest.raises(BoundViolation) as err:
            parse("tif v1\nn 1\nroot s\nedge 1 s a 3 2 1\n")
        assert err.value.line == 4
        with pytest.raises(BoundViolation):
            parse("tif v1\nn 1\nroot s\nedge 1 s a 1 2 0\n")
        with pytest.raises(BoundViolation):
            parse("tif v1\nn 1\nroot s\nedge 1 s a -1 2 1\n")

    @pytest.mark.parametrize("edges", [1, 2, 3, 40])
    def test_overflowing_full_raise_cost_carries_the_line(self, edges):
        # runs of one or two edge lines are read line by line, longer ones
        # by column; both refuse the line, and exact mode never overflows
        lines = serialize(generate(GenConfig(node_count=edges + 1, seed=4))).splitlines()
        k = 3 + edges // 2
        lines[k] = " ".join(lines[k].split()[:4] + ["0", "1e200", "1e200"])
        text = "\n".join(lines) + "\n"
        with pytest.raises(BoundViolation) as err:
            parse(text)
        assert err.value.line == k + 1
        assert "overflows" in str(err.value)
        assert parse(text, exact=True).attrs.c[int(lines[k].split()[1])] == 10**200

    def test_bad_numbers(self):
        with pytest.raises(InstanceSyntaxError):
            parse("tif v1\nn 1\nroot s\nedge 1 s a x 2 1\n")
        with pytest.raises(InstanceSyntaxError):
            parse("tif v1\nn 1\nroot s\nedge 1 s a nan 2 1\n")
        with pytest.raises(InstanceSyntaxError):
            parse("tif v1\nn 1\nroot s\nedge 1 s a 1 inf 1\n")

    def test_param_lines(self):
        text = MINIMAL + "param K 2.5\nparam N 1\n"
        inst = parse(text)
        assert inst.params.K == 2.5
        assert inst.params.N == 1

    def test_bad_params(self):
        with pytest.raises(InstanceSyntaxError):
            parse(MINIMAL + "param Q 1\n")
        with pytest.raises(InstanceSyntaxError):
            parse(MINIMAL + "param K 1\nparam K 2\n")
        with pytest.raises(InstanceSyntaxError):
            parse(MINIMAL + "param N 1.5\n")

    def test_unknown_directive(self):
        with pytest.raises(InstanceSyntaxError) as err:
            parse("tif v1\nn 1\nroot s\nvertex 1\nedge 1 s a 1 2 1\n")
        assert err.value.line == 4

    def test_root_must_match_edges(self):
        with pytest.raises(InstanceSyntaxError):
            parse("tif v1\nn 1\nroot a\nedge 1 s a 1 2 1\n")


class TestSerialize:
    def test_round_trip_is_byte_identical(self):
        inst = parse(BROOM_TEXT)
        text = serialize(inst)
        assert serialize(parse(text)) == text

    def test_exact_round_trip(self):
        attrs = EdgeAttrs(
            w={1: Fraction(1, 4)}, u={1: Fraction(7, 10)}, c={1: Fraction(3, 2)}
        )
        tree = build_tree([(1, "s", "a")], attrs)
        text = serialize(InstanceFile(tree, attrs, ProblemParams()))
        again = parse(text, exact=True)
        assert again.attrs.w[1] == Fraction(1, 4)
        assert again.attrs.u[1] == Fraction(7, 10)
        assert serialize(again) == text

    def test_format_number(self):
        assert _format_number(7) == "7"
        assert _format_number(0.25) == "0.25"
        assert _format_number(Fraction(3, 8)) == "0.375"
        assert _format_number(Fraction(5, 1)) == "5"
        with pytest.raises(ValueError):
            _format_number(Fraction(1, 3))

    @given(st.integers(min_value=0, max_value=2**32))
    def test_generated_instances_round_trip(self, seed):
        inst = generate(GenConfig(node_count=6, seed=seed))
        text = serialize(inst)
        again = parse(text)
        assert again.attrs == inst.attrs
        assert again.params == inst.params
        assert serialize(again) == text


class TestSplitMix64:
    def test_reference_sequence(self):
        # published test vector for this generator, seed 0
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_seed_wraps_to_64_bits(self):
        assert SplitMix64(2**64 + 5).next_u64() == SplitMix64(5).next_u64()

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_float_range(self, seed):
        x = SplitMix64(seed).next_float()
        assert 0.0 <= x < 1.0

    @given(st.integers(min_value=0, max_value=2**64 - 1),
           st.integers(min_value=1, max_value=10**6))
    def test_int_range(self, seed, m):
        assert 0 <= SplitMix64(seed).next_int(m) < m


_builtin_sum = builtins.sum


def compensated_sum(iterable, start=0):
    """The built-in sum as Python 3.12 and later compute it for floats.

    Those versions carry a Neumaier compensation term through a sum of
    floats; ints and Fractions still add plainly.
    """
    items = list(iterable)
    if not (isinstance(start, (int, float))
            and all(type(x) in (int, float) for x in items)
            and any(type(x) is float for x in items)):
        return _builtin_sum(items, start)
    total, comp = float(start), 0.0
    for x in map(float, items):
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total


class TestSummation:
    """Every sum of L * x goes through srd, whatever ``sum`` does."""

    def test_generated_bytes_ignore_it(self, monkeypatch):
        config = GenConfig(node_count=500, seed=0)
        monkeypatch.setattr(builtins, "sum", compensated_sum)
        assert digest(serialize(generate(config))) == (
            "ab9183cb66ceb59a5365e0563e47f5102e65d48f624da316844413273db08492"
        )

    def test_solver_answers_ignore_it(self, monkeypatch):
        inst = generate(GenConfig(node_count=500, seed=0))
        tree, attrs = inst.tree, inst.attrs
        demands = (inst.params.D, srd(tree, attrs.u))
        runs = [(key, InstanceFile(tree, attrs, ProblemParams(
            K=inst.params.K, D=D, N=N))) for key in SOLVERS
            for D in demands for N in (inst.params.N, tree.n)]
        plain = [run_solver(*key, i) for key, i in runs]
        monkeypatch.setattr(builtins, "sum", compensated_sum)
        assert [run_solver(*key, i) for key, i in runs] == plain


class TestGenerate:
    def test_frozen_regression(self):
        inst = generate(GenConfig(node_count=5, seed=42))
        text = serialize(inst)
        assert text.splitlines()[1] == "n 4"
        assert digest(text) == (
            "253064d09244ab24c8a721eda3858cbd90e2d2331987d9841ad475f41f8d140b"
        )

    def test_same_seed_same_bytes(self):
        a = serialize(generate(GenConfig(node_count=30, seed=9)))
        b = serialize(generate(GenConfig(node_count=30, seed=9)))
        assert a == b

    def test_different_seed_different_bytes(self):
        a = serialize(generate(GenConfig(node_count=30, seed=9)))
        b = serialize(generate(GenConfig(node_count=30, seed=10)))
        assert a != b

    @pytest.mark.parametrize("shape", SHAPES)
    def test_all_shapes_build(self, shape):
        for nodes in (2, 3, 11):
            inst = generate(GenConfig(node_count=nodes, seed=1, shape=shape))
            assert inst.tree.node_count == nodes

    def test_star_topology(self):
        inst = generate(GenConfig(node_count=6, seed=3, shape="star"))
        assert all(parent == "s" for _, parent, _ in inst.tree.edges)

    def test_binary_topology(self):
        inst = generate(GenConfig(node_count=8, seed=3, shape="binary"))
        parents = {child: parent for _, parent, child in inst.tree.edges}
        assert parents["v4"] == "v2" and parents["v5"] == "v2"
        assert parents["v6"] == "v3" and parents["v7"] == "v3"

    @given(st.integers(min_value=0, max_value=2**32))
    def test_params_land_in_their_ranges(self, seed):
        inst = generate(GenConfig(node_count=9, seed=seed))
        tree, attrs, params = inst.tree, inst.attrs, inst.params
        w_total = srd(tree, attrs.w)
        u_total = srd(tree, attrs.u)
        top_raise = max(
            attrs.c[e] * (attrs.u[e] - attrs.w[e]) for e in tree.edge_ids
        )
        assert 0 < params.K <= top_raise
        assert w_total <= params.D < u_total
        assert 1 <= params.N <= tree.n

    def test_bad_configs(self):
        with pytest.raises(BadConfig):
            generate(GenConfig(node_count=1, seed=0))
        with pytest.raises(BadConfig):
            generate(GenConfig(node_count=5, seed=0, shape="ladder"))

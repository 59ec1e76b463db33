"""Plain-text instance files and the seeded generator behind all fixtures.

File format, version tag ``tif v1``::

    # comment lines start with '#'
    tif v1
    n <edge_count>
    root <node_name>
    edge <edge_id> <parent> <child> <w> <u> <c>
    param K <decimal>        # optional budget
    param D <decimal>        # optional demand
    param N <int>            # optional change bound

Fields are separated by whitespace, decimals use '.', edge ids must be
1..n in any order, and there is exactly one root line.  Every edge needs
0 <= w <= u and c > 0, and in float mode a finite full-raise cost
c * (u - w).  Unknown directives are errors.  ``serialize`` always emits
the canonical ordering (header, edges by ascending id, then K, D, N) with
single spaces, so parse and serialize round-trip byte for byte.

``parse`` reads runs of lines that start with 'edge ' a block at a time:
one split of the whole block, seven token columns by stride, and one
conversion and one check per column.  A block that fails any check is
read again line by line, so every error names the line and gives the
message a line-by-line read would.  Runs of one or two edge lines, and
all other lines, are read one line at a time.

The generator draws every random quantity from SplitMix64 so another
implementation can reproduce fixtures exactly.  State update per draw::

    state = (state + 0x9E3779B97F4A7C15) mod 2**64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2**64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) mod 2**64
    output = z ^ (z >> 31)

A float in [0, 1) is (output >> 11) * 2**-53 and an integer in [0, m) is
output mod m.  Draw order: topology (only the uniform-random-parent shape
consumes draws, one per node from the third node on), then per edge in id
order the triple w, slack, c, then the budget, the demand and the change
bound.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, takewhile
from operator import lt, methodcaller, mul, sub

from .errors import (
    BadConfig,
    BoundViolation,
    DuplicateEdgeId,
    InstanceSyntaxError,
    MissingHeader,
)
from .scores import EdgeScoreTable
from .tree import EdgeAttrs, RootedTree, _assemble, srd

SHAPES = ("uniform-random-parent", "caterpillar", "star", "binary")

_MASK = (1 << 64) - 1
# w, the slack u - w and c are each drawn from a range of this width
_SPAN = 10.0


class SplitMix64:
    """Tiny portable PRNG; see the module docstring for the update rule."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def next_float(self) -> float:
        return (self.next_u64() >> 11) * 2.0 ** -53

    def next_int(self, m: int) -> int:
        return self.next_u64() % m


@dataclass(frozen=True)
class ProblemParams:
    """Optional solve parameters carried by an instance file.

    The demand surplus (demand minus the starting distance sum) is always
    recomputed by the solvers from D and the tree, never stored.
    """

    K: object = None
    D: object = None
    N: int | None = None


@dataclass(frozen=True)
class InstanceFile:
    """A parsed instance: the tree, its edge attributes and any parameters."""

    tree: RootedTree
    attrs: EdgeAttrs
    params: ProblemParams


@dataclass(frozen=True)
class GenConfig:
    """Generator settings: tree size, seed and shape."""

    node_count: int
    seed: int
    shape: str = "uniform-random-parent"


def parse(text: str, exact: bool = False) -> InstanceFile:
    """Parse instance text; with ``exact`` decimals become Fractions."""
    convert = Fraction if exact else float
    edges = _EdgeColumns(convert)
    header_seen = False
    declared_n = None
    root_decl = None
    root_line = 0
    params = {}

    lines = text.splitlines()
    i = 0
    while i < len(lines):
        raw = lines[i]
        if header_seen and raw.startswith("edge "):
            i += edges.add_run(lines, i)
            continue
        i += 1
        lineno = i
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
            edges.add_line(fields, lineno)
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
    ids = edges.ids
    if declared_n != len(ids):
        raise InstanceSyntaxError(0, f"n says {declared_n} edges, file has {len(ids)}")

    tree = _assemble(ids, edges.parents, edges.children)
    if tree.root != root_decl:
        raise InstanceSyntaxError(
            root_line, f"root line names {root_decl!r} but the edges root at {tree.root!r}")
    attrs = EdgeAttrs(dict(zip(ids, edges.w)), dict(zip(ids, edges.u)),
                      dict(zip(ids, edges.c)))
    return InstanceFile(tree, attrs, ProblemParams(K=params.get("K"), D=params.get("D"),
                                                   N=params.get("N")))


# Edge lines are tokenised this many at a time.  One pass over all of them
# would hold every token of the file at once: a parse of 10^5 edges then
# peaks at 139 MB instead of 113 MB.
_BLOCK = 8192


class _EdgeColumns:
    """The edge lines read so far, one list per field, in file order."""

    def __init__(self, convert):
        self.convert = convert
        self.ids, self.parents, self.children = [], [], []
        self.w, self.u, self.c = [], [], []
        self.seen = set()

    def add_line(self, fields: list, lineno: int) -> None:
        """Append one edge line, split into its fields, or raise for it."""
        if len(fields) != 7:
            raise InstanceSyntaxError(lineno, "edge needs id, parent, child, w, u, c")
        eid = _parse_int(fields[1], lineno)
        if eid in self.seen:
            raise DuplicateEdgeId(f"line {lineno}: edge id {eid} repeated")
        we = _parse_decimal(fields[4], lineno, self.convert)
        ue = _parse_decimal(fields[5], lineno, self.convert)
        ce = _parse_decimal(fields[6], lineno, self.convert)
        if we < 0 or ue < we:
            raise BoundViolation(lineno, f"edge {eid}: need 0 <= w <= u")
        if ce <= 0:
            raise BoundViolation(lineno, f"edge {eid}: cost must be positive")
        if self.convert is float and not math.isfinite(ce * (ue - we)):
            raise BoundViolation(lineno, f"edge {eid}: full-raise cost c * (u - w) overflows")
        self.seen.add(eid)
        self.ids.append(eid)
        self.parents.append(fields[2])
        self.children.append(fields[3])
        self.w.append(we)
        self.u.append(ue)
        self.c.append(ce)

    def add_run(self, lines: list, i: int) -> int:
        """Append the edge lines from ``lines[i]`` on, up to one block.

        ``lines[i]`` starts with 'edge '; so do the lines taken after it.
        A run of more than two is split into tokens in one go and read as
        seven columns, each converted and checked by one pass.  Where a
        check fails, and for shorter runs, the lines go through
        ``add_line`` one by one, which raises for the first line at fault
        as a line-by-line read would.  Returns how many lines were taken.
        """
        # the run ends at the first other line: a run of one edge line
        # costs one line, however short the runs between comments
        end = min(i + _BLOCK, len(lines))
        block = list(takewhile(methodcaller("startswith", "edge "),
                               map(lines.__getitem__, range(i, end))))
        text = "\n".join(block)
        m = len(block)
        tok = text.split()
        # each line opens with an 'edge' token; when no other 'edge' occurs
        # and every 7th token is one, every line has exactly 7 fields (a
        # node name holding 'edge' just sends its block line by line).  A
        # run of one or two lines is cheaper read line by line.
        if m > 2 and len(tok) == 7 * m and text.count("edge") == m == tok[::7].count("edge"):
            try:
                ids = list(map(int, tok[1::7]))
                w, u, c = (list(map(self.convert, tok[k::7])) for k in (4, 5, 6))
            except (ValueError, ZeroDivisionError):
                pass
            else:
                # a NaN or infinity in w, u or c, or an overflowing full-raise
                # cost c * (u - w), makes the float sum NaN or infinite; an
                # overflowing sum of finite values only costs the fast path
                if ((self.convert is not float
                        or math.isfinite(sum(w) + sum(map(mul, c, map(sub, u, w)))))
                        and min(w) >= 0 and min(c) > 0 and not any(map(lt, u, w))):
                    seen = len(self.seen)
                    self.seen.update(ids)
                    if len(self.seen) == seen + m:
                        self.ids += ids
                        self.parents += tok[2::7]
                        self.children += tok[3::7]
                        self.w += w
                        self.u += u
                        self.c += c
                        return m
                    # an id repeats, so the walk below raises for it
                    self.seen = set(self.ids)
        for lineno, raw in enumerate(block, i + 1):
            self.add_line(raw.split(), lineno)
        return m


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


def _format_number(x) -> str:
    """Shortest exact decimal for a float, int or terminating Fraction."""
    if isinstance(x, bool):
        raise ValueError("booleans are not numbers here")
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        return repr(x)
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(x.numerator)
        den = x.denominator
        twos = fives = 0
        while den % 2 == 0:
            den //= 2
            twos += 1
        while den % 5 == 0:
            den //= 5
            fives += 1
        if den != 1:
            raise ValueError(f"{x} has no terminating decimal form")
        digits = max(twos, fives)
        scaled = x * 10 ** digits
        body = str(abs(int(scaled))).rjust(digits + 1, "0")
        sign = "-" if x < 0 else ""
        return f"{sign}{body[:-digits]}.{body[-digits:]}"
    raise TypeError(f"cannot format {type(x).__name__}")


def serialize(inst: InstanceFile) -> str:
    """Canonical text for an instance; parse(serialize(x)) round-trips."""
    tree, attrs, params = inst.tree, inst.attrs, inst.params
    lines = ["tif v1", f"n {tree.n}", f"root {tree.root}"]
    names = tree.names
    # the tree's columns are in ascending id order already
    for eid, above, child in zip(tree.counts, islice(tree.up, 1, None), islice(names, 1, None)):
        lines.append(
            f"edge {eid} {names[above]} {child} "
            f"{_format_number(attrs.w[eid])} {_format_number(attrs.u[eid])} "
            f"{_format_number(attrs.c[eid])}")
    if params.K is not None:
        lines.append(f"param K {_format_number(params.K)}")
    if params.D is not None:
        lines.append(f"param D {_format_number(params.D)}")
    if params.N is not None:
        lines.append(f"param N {params.N}")
    return "\n".join(lines) + "\n"


def digest(text: str) -> str:
    """Content hash of instance text, for run reports and transcripts."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _topology(shape: str, n: int, rng: SplitMix64):
    """Parent node name for each child v1..vn."""
    parents = ["s"]
    for i in range(2, n + 1):
        if shape == "uniform-random-parent":
            j = rng.next_int(i)  # 0 picks the root, else v_j with j < i
            parents.append("s" if j == 0 else f"v{j}")
        elif shape == "star":
            parents.append("s")
        elif shape == "caterpillar":
            # odd indices extend the spine, even indices hang off it
            parents.append(f"v{i - 2}" if i % 2 == 1 else f"v{i - 1}")
        elif shape == "binary":
            parents.append(f"v{i // 2}")
    return parents


def generate(config: GenConfig) -> InstanceFile:
    """Deterministic random instance with budget, demand and change bound.

    The budget lands in (0, max full-raise cost], the demand in
    [w(T), u(T)) and the change bound in 1..n.  Every instance is thus
    solvable for the budget problems and the uncapped demand problems; the
    capped demand problems are infeasible whenever the change bound's
    largest full raises fall short of the demand, which the draws allow.
    """
    if config.node_count < 2:
        raise BadConfig("need at least two nodes")
    if config.shape not in SHAPES:
        raise BadConfig(f"unknown shape {config.shape!r}")

    n = config.node_count - 1
    rng = SplitMix64(config.seed)
    ids = list(range(1, n + 1))
    tree = _assemble(ids, _topology(config.shape, n, rng), [f"v{i}" for i in ids])

    w, u, c = {}, {}, {}
    for i in ids:
        w[i] = rng.next_float() * _SPAN
        u[i] = w[i] + rng.next_float() * _SPAN
        c[i] = _SPAN * (1.0 - rng.next_float())

    attrs = EdgeAttrs(w, u, c)
    w_total = srd(tree, w)
    u_total = srd(tree, u)
    top_raise = max(EdgeScoreTable(tree, attrs).F.values())

    budget = top_raise * (1.0 - rng.next_float())
    demand = w_total + rng.next_float() * (u_total - w_total)
    changes = 1 + rng.next_int(n)
    return InstanceFile(tree, attrs, ProblemParams(K=budget, D=demand, N=changes))

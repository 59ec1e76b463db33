"""The answers of all eight solvers on a fixed generated set, pinned by digest.

Any change that moves one generated answer, down to the repr of one weight,
a reported breakpoint or a probe count, changes the digest.  The set holds
300 generated trees of 2-200 edges in all four shapes, solved at the
generator's budget K and demand D, and at the benchmark's demand
D = w(T) + 1/2 * (sum of the N largest full-raise gains S), for N in
{generator N, n // 10, n}.
"""

import hashlib

from srdtree import (
    GenConfig,
    generate,
    mcsdipt_bh,
    mcsdipt_inf,
    mcsdiptc_bh,
    mcsdiptc_inf,
    sdipt_bh,
    sdipt_inf,
    sdiptc_bh,
    sdiptc_inf,
    srd,
)
from srdtree.instance import SHAPES

DIGEST = "d03783fbcaff8678b43ae862dad7cfb315047600562535906c250b15044b6938"


def _line(name, arg, cap, rep):
    weights = None if rep.weights is None else [repr(rep.weights[e]) for e in sorted(rep.weights)]
    return repr((name, repr(arg), cap, rep.status.value, repr(rep.cost), repr(rep.objective),
                 sorted(rep.modified_edges), rep.iterations, rep.breakpoint, weights))


def _half_top_demand(tree, attrs, cap):
    """w(T) plus half the sum of the cap largest full-raise gains."""
    w, u = attrs.w, attrs.u
    gains = sorted((L * (u[e] - w[e]) for e, L in tree.counts.items()), reverse=True)
    top = 0.0
    for s in gains[:cap]:
        top += s
    return srd(tree, w) + 0.5 * top


def answer_lines():
    for i in range(300):
        inst = generate(GenConfig(node_count=3 + (i * 67) % 199, seed=i,
                                  shape=SHAPES[i % len(SHAPES)]))
        tree, attrs, p = inst.tree, inst.attrs, inst.params
        n = tree.n
        caps = sorted({p.N, max(1, n // 10), n})
        yield _line("sdipt_inf", p.K, None, sdipt_inf(tree, attrs, p.K))
        yield _line("sdipt_bh", p.K, None, sdipt_bh(tree, attrs, p.K))
        demands = [p.D, _half_top_demand(tree, attrs, max(1, n // 10))]
        for demand in demands:
            yield _line("mcsdipt_inf", demand, None, mcsdipt_inf(tree, attrs, demand))
            yield _line("mcsdipt_bh", demand, None, mcsdipt_bh(tree, attrs, demand))
        for cap in caps:
            yield _line("sdiptc_inf", p.K, cap, sdiptc_inf(tree, attrs, p.K, cap))
            yield _line("sdiptc_bh", p.K, cap, sdiptc_bh(tree, attrs, p.K, cap))
            for demand in (p.D, _half_top_demand(tree, attrs, cap)):
                yield _line("mcsdiptc_inf", demand, cap, mcsdiptc_inf(tree, attrs, demand, cap))
                yield _line("mcsdiptc_bh", demand, cap, mcsdiptc_bh(tree, attrs, demand, cap))


def test_generated_answers_are_pinned():
    h = hashlib.sha256()
    for line in answer_lines():
        h.update(line.encode())
        h.update(b"\n")
    assert h.hexdigest() == DIGEST

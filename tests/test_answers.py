"""The answers of all eight solvers on a fixed generated set, pinned by digest.

Each solver's answers have their own digest, so a change that moves one
generated answer, down to the repr of one weight, a reported breakpoint or
a probe count, names the solver it moved.  The set holds
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

DIGESTS = {
    "mcsdipt_bh": "850087dd61f3945290a56d9d0ab649eb988905f69c7c026e6002d5d1a1f7266d",
    "mcsdipt_inf": "e0fb43026af894565d9fd8be64724bc548b2f8230fd60babe867b435972068cc",
    "mcsdiptc_bh": "819b395a10895c5cd29cc5469b139f18fc11593bb5966977081654c0443db427",
    "mcsdiptc_inf": "d8aa9a6cb026a07156698e1bc956e35a768c07c6f8ecfa267b520f739f4db626",
    "sdipt_bh": "ca96e3b411a2421ff944612a061e980deee4adfe1c58dc2ffc9119ab3e85e0b3",
    "sdipt_inf": "c7bced9eeb5d1d728b1eac34c3240bdffc5069e21a47644590291b62e5f0a773",
    "sdiptc_bh": "e939c5b37efc011b3e41af3cf73c3344b416e5fe59ca26b111d4765db508a909",
    "sdiptc_inf": "511ebdfce409f093d090ac21376f1f0c4d89ec4ef32921f01cb4d792cc460f1f",
}


def _line(name, arg, cap, rep):
    weights = None if rep.weights is None else [repr(rep.weights[e]) for e in sorted(rep.weights)]
    return name, repr((name, repr(arg), cap, rep.status.value, repr(rep.cost),
                       repr(rep.objective), sorted(rep.modified_edges), rep.iterations,
                       rep.breakpoint, weights))


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
    hashes = {name: hashlib.sha256() for name in DIGESTS}
    for name, line in answer_lines():
        hashes[name].update(line.encode())
        hashes[name].update(b"\n")
    assert {name: h.hexdigest() for name, h in hashes.items()} == DIGESTS

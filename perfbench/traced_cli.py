"""``srdtree`` command line with the per-layer spans recorded, for traced rounds.

Usage: python traced_cli.py SPANS_JSON solve --problem ... --instance ...

Runs the program's own ``main`` with the layer functions and the solver
wrapped from outside, then writes the spans, as [name, start, end] lists of
perf_counter seconds, to SPANS_JSON.  Standard output is the program's.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from srdtree import cli  # noqa: E402

import tracer  # noqa: E402


def main(argv) -> int:
    spans_path, rest = argv[0], argv[1:]
    rec = tracer.Recorder()
    solvers = dict(cli.SOLVERS)
    for (problem, norm), fn in solvers.items():
        cli.SOLVERS[(problem, norm)] = rec.wrap(f"solver/{problem}/{norm}", fn)
    try:
        with tracer.installed(rec, modules=tuple(m for m, _, _ in tracer.LAYERS)):
            code = cli.main(rest)
    finally:
        cli.SOLVERS.update(solvers)
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(rec.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

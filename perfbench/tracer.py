"""Per-layer spans recorded from outside the program.

``installed`` swaps the layer functions that the solver and file modules
import (leaf counts, score table, order statistics, build_tree, parse) for
timing wrappers and puts the originals back on exit.  The program's files
are not touched.  A name a later version no longer imports is skipped, and
the layer then simply records no calls.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

# (module, attribute, span name): every place a solver or the file layer
# picks a layer function up from.
LAYERS = (
    ("srdtree.linf", "leaf_counts", "tree.leaf_counts"),
    ("srdtree.bh", "leaf_counts", "tree.leaf_counts"),
    ("srdtree.scores", "leaf_counts", "tree.leaf_counts"),
    ("srdtree.linf", "edge_scores", "scores.edge_scores"),
    ("srdtree.bh", "edge_scores", "scores.edge_scores"),
    ("srdtree.linf", "nth_largest", "selection.nth_largest"),
    ("srdtree.bh", "nth_largest", "selection.nth_largest"),
    ("srdtree.instance", "build_tree", "tree.build_tree"),
    ("srdtree.cli", "parse", "instance.parse"),
)


class Recorder:
    """Spans as (name, start, end) perf_counter triples, kept in memory."""

    def __init__(self):
        self.spans = []

    def wrap(self, name: str, fn):
        spans = self.spans

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append((name, start, time.perf_counter()))

        return timed

    def take(self) -> list:
        """Hand over the spans recorded so far and start afresh."""
        out, self.spans[:] = list(self.spans), []
        return out


@contextmanager
def installed(recorder: Recorder, modules=("srdtree.linf", "srdtree.bh",
                                            "srdtree.scores", "srdtree.instance")):
    """Wrap every layer function that the named modules import."""
    saved = []
    try:
        for mod_name, attr, span in LAYERS:
            if mod_name not in modules:
                continue
            mod = importlib.import_module(mod_name)
            original = getattr(mod, attr, None)
            if original is None:
                continue
            saved.append((mod, attr, original))
            setattr(mod, attr, recorder.wrap(span, original))
        yield recorder
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


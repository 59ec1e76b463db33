"""The four workloads: which instances each generates and which solves it times.

Every instance comes from the program's own generator, with a generator
seed drawn from (workload, --seed, instance name); the program sees only
the generated instances.  The budget K is the generator's.  The change
bound N and the demand D are the benchmark's:

    N = max(1, n // 10)
    D = w(T) + 1/2 * (sum of the N largest full-raise gains L * (u - w))

so every demand solve, with or without the change bound, is Feasible and
lands well inside the reachable range.  Sizes and shapes are fixed per
workload, so a new seed changes the weights and random topologies but not
the amount of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

SHAPES = ("uniform-random-parent", "caterpillar", "star", "binary")

ALL_SOLVERS = (
    ("sdipt", "linf"), ("sdiptc", "linf"), ("mcsdipt", "linf"), ("mcsdiptc", "linf"),
    ("sdipt", "bh"), ("sdiptc", "bh"), ("mcsdipt", "bh"), ("mcsdiptc", "bh"),
)
# The heavy-tailed swap loop runs only on swap-loop and small-trees, so a
# rewrite of it moves those workloads and nothing else.
DEMAND = tuple(p for p in ALL_SOLVERS if p[0].startswith("mcsdipt"))
SEVEN = tuple(p for p in ALL_SOLVERS if p != ("mcsdiptc", "linf"))

LARGE_NODES = 100_001
SWAP_NODES = 7_501
SMALL_EDGES = range(2, 65)
SMALL_COPIES = 5
# One budget and one demand solve per shape keeps a round near ten seconds;
# together they cover all four problems and both norms.
CLI_SOLVES = (
    ("uniform-random-parent", "sdipt", "bh"),
    ("caterpillar", "mcsdipt", "linf"),
    ("star", "sdiptc", "linf"),
    ("binary", "mcsdiptc", "bh"),
)
# The boundary slice reuses the small-trees recipe on one fixed seed, so
# the number of failures is the same in every run.
BOUNDARY_SEED = 0

WORKLOADS = ("large-trees", "cli-solve", "swap-loop", "small-trees")


@dataclass(frozen=True)
class Spec:
    """One generated instance: a name, a shape, a node count, a generator seed."""

    name: str
    shape: str
    nodes: int
    seed: int


def _seed(workload: str, seed: int, name: str) -> int:
    return random.Random(f"{workload}/{seed}/{name}").getrandbits(64)


def _small(workload: str, seed: int) -> list:
    specs = []
    for copy in range(SMALL_COPIES):
        for i, edges in enumerate(SMALL_EDGES):
            shape = SHAPES[(i + copy) % len(SHAPES)]
            name = f"{shape}-{edges}-{copy}"
            specs.append(Spec(name, shape, edges + 1, _seed(workload, seed, name)))
    return specs


def specs(workload: str, seed: int) -> list:
    """The instances a workload generates for a given seed."""
    if workload in ("large-trees", "cli-solve"):
        return [Spec(s, s, LARGE_NODES, _seed(workload, seed, s)) for s in SHAPES]
    if workload == "swap-loop":
        return [Spec(f"{s}-{k}", s, SWAP_NODES, _seed(workload, seed, f"{s}-{k}"))
                for s in ("uniform-random-parent", "caterpillar", "binary")
                for k in range(4)]
    if workload == "small-trees":
        return _small(workload, seed)
    raise ValueError(f"unknown workload {workload!r}")


def boundary_specs() -> list:
    """The fixed small trees of the boundary slice; independent of --seed."""
    return _small("small-trees-boundary", BOUNDARY_SEED)


def change_bound(n_edges: int) -> int:
    return max(1, n_edges // 10)


@dataclass(frozen=True)
class Op:
    """One timed operation: a solver over one or more instances.

    ``kind`` names the operation across rounds; its median over rounds is
    one term of solve_s.
    """

    kind: str
    problem: str
    norm: str
    instances: tuple


def ops(workload: str, names: list) -> list:
    """The fixed set of timed operations that makes one round."""
    if workload == "large-trees":
        return [Op(f"{names[i]}/{p}/{m}", p, m, (i,))
                for i in range(len(names)) for p, m in SEVEN]
    if workload == "swap-loop":
        return [Op(f"{names[i]}/mcsdiptc/linf", "mcsdiptc", "linf", (i,))
                for i in range(len(names))]
    if workload == "small-trees":
        every = tuple(range(len(names)))
        return [Op(f"all/{p}/{m}", p, m, every) for p, m in ALL_SOLVERS]
    if workload == "cli-solve":
        index = {name: i for i, name in enumerate(names)}
        return [Op(f"{shape}/{p}/{m}", p, m, (index[shape],)) for shape, p, m in CLI_SOLVES]
    raise ValueError(f"unknown workload {workload!r}")


def complement(workload: str) -> tuple:
    """Solvers the traced run calls once per instance because no round does.

    Returns (on the workload's own instances, on the probe).  The probe is
    the first swap-loop instance for the same seed: on 10^5-edge trees the
    swap loop would take tens of seconds per call (README, "Per-layer
    metrics").
    """
    missing = [p for p in ALL_SOLVERS if p not in _solvers_in(workload)]
    if workload in ("large-trees", "cli-solve"):
        return [p for p in missing if p != ("mcsdiptc", "linf")], [("mcsdiptc", "linf")]
    return missing, []


def _solvers_in(workload: str) -> tuple:
    if workload == "large-trees":
        return SEVEN
    if workload == "cli-solve":
        return tuple((p, m) for _, p, m in CLI_SOLVES)
    if workload == "swap-loop":
        return (("mcsdiptc", "linf"),)
    return ALL_SOLVERS

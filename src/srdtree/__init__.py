"""Edge-upgrade interdiction on rooted trees.

The objective is the sum of root-leaf distances.  Each edge weight can be
raised from w(e) up to u(e) at per-unit cost c(e).  Eight problems are
covered: maximize the objective under a budget, or meet a demand at
minimum cost, each with or without a bound on how many edges change, and
each under two cost readings (weighted max of the raises, or weighted
bottleneck over the set of changed edges).
"""

from .bh import mcsdipt_bh, mcsdiptc_bh, sdipt_bh, sdiptc_bh
from .errors import (
    AttrBoundsViolated,
    BadConfig,
    BadParameter,
    BoundViolation,
    CycleDetected,
    DemandOutOfRange,
    DisconnectedNode,
    DuplicateChild,
    DuplicateEdgeId,
    InstanceSyntaxError,
    InstanceTooLarge,
    InvalidEdgeId,
    MissingEdgeWeight,
    MissingHeader,
    MissingParam,
    MultipleRoots,
    NegativeBudget,
    NOutOfRange,
    SrdTreeError,
    UnknownProblemTag,
)
from .instance import (
    GenConfig,
    InstanceFile,
    ProblemParams,
    SplitMix64,
    digest,
    generate,
    parse,
    serialize,
)
from .linf import mcsdipt_inf, mcsdiptc_inf, sdipt_inf, sdiptc_inf
from .report import SolveReport, Status
from .scores import EdgeScoreTable
from .tree import (
    EdgeAttrs,
    RootedTree,
    build_tree,
    leaf_counts,
    modified_edges,
    srd,
)

__all__ = [
    "AttrBoundsViolated",
    "BadConfig",
    "BadParameter",
    "BoundViolation",
    "CycleDetected",
    "DemandOutOfRange",
    "DisconnectedNode",
    "DuplicateChild",
    "DuplicateEdgeId",
    "EdgeAttrs",
    "EdgeScoreTable",
    "GenConfig",
    "InstanceFile",
    "InstanceSyntaxError",
    "InstanceTooLarge",
    "InvalidEdgeId",
    "MissingEdgeWeight",
    "MissingHeader",
    "MissingParam",
    "MultipleRoots",
    "NOutOfRange",
    "NegativeBudget",
    "ProblemParams",
    "RootedTree",
    "SolveReport",
    "SplitMix64",
    "SrdTreeError",
    "Status",
    "UnknownProblemTag",
    "build_tree",
    "digest",
    "generate",
    "leaf_counts",
    "mcsdipt_bh",
    "mcsdipt_inf",
    "mcsdiptc_bh",
    "mcsdiptc_inf",
    "modified_edges",
    "parse",
    "sdipt_bh",
    "sdipt_inf",
    "sdiptc_bh",
    "sdiptc_inf",
    "serialize",
    "srd",
]

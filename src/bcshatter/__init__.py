"""Exact betweenness centrality via graph shattering and compression.

The input graph is split at articulation vertices and bridges and compressed
by removing degree-1, side, and identical vertices; attribute-aware Brandes
kernels then run on the reduced pieces and the scores reassemble to exactly
the plain algorithm's output.  A benchmark harness times the technique
combinations and emits performance-profile data.
"""

from .engine import ComputeResult, NonFiniteScoresError, compute_scores
from .graph import (
    Graph,
    GraphFormatError,
    GraphInputError,
    GraphParseError,
    GraphRangeError,
    NormalizationReport,
    VertexPermutation,
    bfs_order,
    connected_components,
    parse_edge_list,
    parse_graph,
    parse_metis,
    relabel,
    to_edge_list,
)
from .kernels import betweenness
from .oracle import GraphSpec, OracleCapError, bc_brute, bc_tree, generate
from .reduction import (
    STANDARD_COMBINATIONS,
    Combination,
    PassStats,
    WorkGraph,
    finalize,
    preprocess,
)

__version__ = "0.1.0"

__all__ = [
    "ComputeResult",
    "NonFiniteScoresError",
    "compute_scores",
    "Graph",
    "GraphFormatError",
    "GraphInputError",
    "GraphParseError",
    "GraphRangeError",
    "NormalizationReport",
    "VertexPermutation",
    "bfs_order",
    "connected_components",
    "parse_edge_list",
    "parse_graph",
    "parse_metis",
    "relabel",
    "to_edge_list",
    "betweenness",
    "GraphSpec",
    "OracleCapError",
    "bc_brute",
    "bc_tree",
    "generate",
    "STANDARD_COMBINATIONS",
    "Combination",
    "PassStats",
    "WorkGraph",
    "finalize",
    "preprocess",
    "__version__",
]

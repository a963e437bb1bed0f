"""Graph traversal algorithms instrumented to emit external-memory traces.

Each algorithm runs the real computation (producing depths, distances,
labels, or ranks) **and** records, per synchronous step, the edge-sublist
byte ranges a GPU kernel would fetch from external memory for that step's
frontier.  Those :class:`~repro.traversal.trace.AccessTrace` objects are
what the memory-system models downstream consume (Section 2.1: access is
fine-grained, random, and on-demand).

Every registered algorithm's step loop (``bfs_steps``, ``sssp_steps``,
...) is written once against a reader (:mod:`~repro.traversal.reader`):
the public functions here run it over a :class:`TraceRecorder`, and
:mod:`repro.workloads` runs the same loop over an
:class:`~repro.engine.engine.ExternalGraphEngine`.
"""

from .trace import AccessTrace, TraceStep, trace_from_frontiers
from .reader import GraphReader, TraceRecorder
from .frontier import (
    dense_to_sparse,
    sparse_to_dense,
    frontier_union,
    gather_neighbors,
)
from .bfs import BFSResult, bfs, bfs_reference
from .bfs_direction import BFSDirectionResult, bfs_direction_optimizing
from .kcore import KCoreResult, kcore, core_numbers
from .sssp import SSSPResult, sssp_bellman_ford, sssp_delta_stepping, sssp_reference
from .cc import CCResult, connected_components, cc_reference
from .pagerank import PageRankResult, pagerank, pagerank_reference
from .triangles import TriangleCountResult, triangle_count, triangle_count_reference
from .labelprop import (
    LabelPropagationResult,
    label_propagation,
    label_propagation_reference,
    mode_label_update,
)
from .walks import RandomWalkResult, random_walks

__all__ = [
    "AccessTrace",
    "TraceStep",
    "trace_from_frontiers",
    "GraphReader",
    "TraceRecorder",
    "dense_to_sparse",
    "sparse_to_dense",
    "frontier_union",
    "gather_neighbors",
    "BFSResult",
    "bfs",
    "bfs_reference",
    "BFSDirectionResult",
    "bfs_direction_optimizing",
    "KCoreResult",
    "kcore",
    "core_numbers",
    "SSSPResult",
    "sssp_bellman_ford",
    "sssp_delta_stepping",
    "sssp_reference",
    "CCResult",
    "connected_components",
    "cc_reference",
    "PageRankResult",
    "pagerank",
    "pagerank_reference",
    "TriangleCountResult",
    "triangle_count",
    "triangle_count_reference",
    "LabelPropagationResult",
    "label_propagation",
    "label_propagation_reference",
    "mode_label_update",
    "RandomWalkResult",
    "random_walks",
]

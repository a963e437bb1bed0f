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

from .. import _attach

# Eager: these three functions share their submodule's name.  Once any
# import binds ``repro.traversal.bfs`` (etc.) as a module attribute, the
# lazy ``__getattr__`` would never run again, so the function has to be
# bound here, after its submodule has been imported.
from .bfs import BFSResult, bfs, bfs_reference
from .kcore import KCoreResult, kcore, core_numbers
from .pagerank import PageRankResult, pagerank, pagerank_reference

__all__ = [
    "AccessTrace",
    "TraceStep",
    "trace_from_frontiers",
    "GraphReader",
    "TraceRecorder",
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

__getattr__, __dir__ = _attach(
    __name__,
    {
        ".trace": ("AccessTrace", "TraceStep", "trace_from_frontiers"),
        ".reader": ("GraphReader", "TraceRecorder"),
        ".frontier": ("gather_neighbors",),
        ".bfs_direction": ("BFSDirectionResult", "bfs_direction_optimizing"),
        ".sssp": ("SSSPResult", "sssp_bellman_ford", "sssp_reference"),
        ".cc": ("CCResult", "connected_components", "cc_reference"),
        ".triangles": (
            "TriangleCountResult", "triangle_count",
            "triangle_count_reference",
        ),
        ".labelprop": (
            "LabelPropagationResult", "label_propagation",
            "label_propagation_reference", "mode_label_update",
        ),
        ".walks": ("RandomWalkResult", "random_walks"),
    },
)

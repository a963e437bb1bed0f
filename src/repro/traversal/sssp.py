"""Single-source shortest paths with trace emission.

SSSP is the paper's second workload (Figures 6 and 11).
:func:`sssp_bellman_ford` is the worklist-style iterative relaxation EMOGI
and BaM run on the GPU: every round relaxes all out-edges of the vertices
whose distance improved in the previous round.  One round = one trace step.
Its step loop, :func:`sssp_steps`, is written against a
:class:`~repro.traversal.reader.GraphReader`, so the same code runs on
:class:`~repro.engine.engine.ExternalGraphEngine`.
:func:`sssp_reference` is a heap-based Dijkstra oracle for tests.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from ..errors import TraceError
from ..graph.csr import CSRGraph
from .reader import GraphReader, TraceRecorder
from .trace import AccessTrace

__all__ = [
    "SSSPResult",
    "sssp_bellman_ford",
    "sssp_steps",
    "sssp_reference",
]


@dataclass(frozen=True)
class SSSPResult:
    """Output of an SSSP run: distances (inf = unreachable) plus the trace."""

    source: int
    distances: np.ndarray
    frontier_sizes: list[int]
    trace: AccessTrace

    @property
    def num_reached(self) -> int:
        """Vertices with a finite distance."""
        return int(np.isfinite(self.distances).sum())


def _require_weighted(graph: CSRGraph) -> None:
    if graph.weights is None:
        raise TraceError("SSSP requires a weighted graph (use with_weights)")
    # NaN fails ``>= 0`` (and would hide a negative weight from min()).
    if not (graph.weights >= 0).all():
        raise TraceError("SSSP requires non-negative, non-NaN edge weights")


def _check_source(graph: CSRGraph, source: int) -> None:
    if not 0 <= source < graph.num_vertices:
        raise TraceError(
            f"source {source} out of range [0, {graph.num_vertices})"
        )


def sssp_bellman_ford(graph: CSRGraph, source: int = 0) -> SSSPResult:
    """Frontier-based Bellman-Ford (the EMOGI/BaM GPU formulation).

    Terminates after at most ``n`` rounds on any non-negative-weight input;
    rounds after convergence never run because the frontier empties.
    """
    recorder = TraceRecorder(graph)
    (dist,) = sssp_steps(recorder, source)
    return SSSPResult(
        source=source,
        distances=dist,
        frontier_sizes=recorder.frontier_sizes,
        trace=recorder.trace("sssp"),
    )


def sssp_steps(reader: GraphReader, source: int = 0) -> tuple[np.ndarray]:
    """Frontier Bellman-Ford over ``reader``; returns ``(distances,)``."""
    _require_weighted(reader.graph)
    _check_source(reader.graph, source)
    n = reader.graph.num_vertices
    dist = np.full(n, np.inf, dtype=np.float64)
    dist[source] = 0.0
    frontier = np.array([source], dtype=np.int64)
    degrees = reader.graph.degrees
    while frontier.size:
        with reader.step():
            reader.touch_vertex_state(frontier)
            # Candidates come from the distances at the step's start, so
            # chunking cannot let a chunk see an earlier chunk's update;
            # a distance improved this step iff it ends below its start.
            start = dist.copy()
            snapshot = start[frontier]
            for lo, hi, neighbors, weights in reader.neighbor_chunks(frontier):
                candidate = np.repeat(snapshot[lo:hi], degrees[frontier[lo:hi]])
                candidate += weights
                np.minimum.at(dist, neighbors, candidate)
            frontier = np.flatnonzero(dist < start)
            reader.touch_vertex_state(frontier)
    return (dist,)


def sssp_reference(graph: CSRGraph, source: int = 0) -> np.ndarray:
    """Heap-based Dijkstra oracle (plain Python, for tests)."""
    _require_weighted(graph)
    _check_source(graph, source)
    n = graph.num_vertices
    dist = np.full(n, np.inf, dtype=np.float64)
    dist[source] = 0.0
    heap: list[tuple[float, int]] = [(0.0, source)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        start, end = graph.indptr[v], graph.indptr[v + 1]
        for u, w in zip(graph.indices[start:end], graph.weights[start:end]):
            nd = d + w
            if nd < dist[u]:
                dist[u] = nd
                heapq.heappush(heap, (nd, int(u)))
    return dist

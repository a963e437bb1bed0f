"""Single-source shortest paths with trace emission.

SSSP is the paper's second workload (Figures 6 and 11).  Two traced
variants are provided:

* :func:`sssp_bellman_ford` — the worklist-style iterative relaxation EMOGI
  and BaM run on the GPU: every round relaxes all out-edges of the vertices
  whose distance improved in the previous round.  One round = one trace step.
* :func:`sssp_delta_stepping` — classic delta-stepping; more, smaller steps
  (each bucket phase is a step), useful for studying how step granularity
  interacts with per-step concurrency.

Both produce identical distances; :func:`sssp_reference` is a heap-based
Dijkstra oracle for tests.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from ..errors import TraceError
from ..graph.csr import CSRGraph
from .frontier import (
    drain_mask,
    frontier_union,
    gather_neighbors,
    min_relax,
    min_scatter,
)
from .reader import GraphReader, TraceRecorder
from .trace import AccessTrace, trace_from_frontiers

__all__ = [
    "SSSPResult",
    "sssp_bellman_ford",
    "sssp_steps",
    "sssp_delta_stepping",
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


def _require_weighted(graph: CSRGraph) -> np.ndarray:
    if graph.weights is None:
        raise TraceError("SSSP requires a weighted graph (use with_weights)")
    # NaN fails ``>= 0`` (and would hide a negative weight from min()).
    if not (graph.weights >= 0).all():
        raise TraceError("SSSP requires non-negative, non-NaN edge weights")
    return graph.weights


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
    changed = np.zeros(n, dtype=bool)
    degrees = reader.graph.degrees
    while frontier.size:
        with reader.step():
            reader.touch_vertex_state(frontier)
            # Candidates come from the distances at the step's start, so
            # chunking cannot let a chunk see an earlier chunk's update.
            snapshot = dist[frontier]
            for lo, hi, neighbors, _, weights in reader.neighbor_chunks(frontier):
                base = np.repeat(snapshot[lo:hi], degrees[frontier[lo:hi]])
                min_scatter(dist, neighbors, base + weights, changed)
            frontier = drain_mask(changed)
            reader.touch_vertex_state(frontier)
    return (dist,)


def sssp_delta_stepping(
    graph: CSRGraph, source: int = 0, delta: float | None = None
) -> SSSPResult:
    """Delta-stepping SSSP; each light/heavy relaxation phase is a trace step.

    ``delta`` defaults to ``mean(weight)`` which is a standard practical
    choice (bucket width on the order of the average edge weight).
    """
    weights = _require_weighted(graph)
    _check_source(graph, source)
    if delta is None:
        delta = float(weights.mean()) if weights.size else 1.0
    if not delta > 0:
        raise TraceError(f"delta must be positive, got {delta}")
    n = graph.num_vertices
    dist = np.full(n, np.inf, dtype=np.float64)
    dist[source] = 0.0
    frontiers: list[np.ndarray] = []
    changed = np.zeros(n, dtype=bool)

    def relax(frontier: np.ndarray, light_only: bool) -> np.ndarray:
        """Relax frontier edges (light = weight <= delta); return improved set."""
        neighbors, sources, edge_idx = gather_neighbors(
            graph, frontier, with_sources=True
        )
        if neighbors.size == 0:
            return np.empty(0, dtype=np.int64)
        w = weights[edge_idx]
        if light_only:
            sel = w <= delta
        else:
            sel = w > delta
        neighbors, sources, w = neighbors[sel], sources[sel], w[sel]
        if neighbors.size == 0:
            return np.empty(0, dtype=np.int64)
        return min_relax(dist, neighbors, dist[sources] + w, changed)

    bucket_of = lambda v: dist[v] // delta  # noqa: E731
    current_bucket = 0.0
    active = np.array([source], dtype=np.int64)
    while active.size:
        # Settle the current bucket: repeatedly relax light edges of its
        # members until nothing in this bucket improves.
        settled: list[np.ndarray] = []
        bucket = active[bucket_of(active) == current_bucket]
        remainder = active[bucket_of(active) != current_bucket]
        while bucket.size:
            frontiers.append(bucket)
            settled.append(bucket)
            improved = relax(bucket, light_only=True)
            in_bucket = improved[bucket_of(improved) == current_bucket]
            out_bucket = improved[bucket_of(improved) > current_bucket]
            remainder = frontier_union(remainder, out_bucket)
            bucket = in_bucket
        # Heavy edges of everything settled in this bucket, in one phase.
        if settled:
            all_settled = frontier_union(*settled)
            frontiers.append(all_settled)
            improved = relax(all_settled, light_only=False)
            remainder = frontier_union(remainder, improved)
        active = remainder
        if active.size:
            current_bucket = float(bucket_of(active).min())
    trace = trace_from_frontiers(graph, frontiers, algorithm="sssp-delta")
    return SSSPResult(
        source=source,
        distances=dist,
        frontier_sizes=[f.size for f in frontiers],
        trace=trace,
    )


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

"""PageRank: the *sequential-access* contrast workload.

The paper's related-work section notes that sequential-access algorithms
like PageRank behave completely differently on external memory (Graphene
is near in-memory speed for PageRank but slow for BFS).  We include a
traced PageRank so the benchmark suite can demonstrate that contrast: each
iteration touches every vertex's sublist, so per-step access covers the
edge list densely and alignment-induced read amplification stays ~1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import TraceError
from ..graph.csr import CSRGraph
from .reader import GraphReader, TraceRecorder
from .trace import AccessTrace

__all__ = ["PageRankResult", "pagerank", "pagerank_steps", "pagerank_reference"]


@dataclass(frozen=True)
class PageRankResult:
    """Output of a PageRank run: ranks, iteration count, and the trace."""

    ranks: np.ndarray
    iterations: int
    converged: bool
    trace: AccessTrace


def pagerank(
    graph: CSRGraph,
    *,
    damping: float = 0.85,
    tol: float = 1e-6,
    max_iterations: int = 100,
) -> PageRankResult:
    """Push-style power iteration with a full-graph trace step per iteration.

    Dangling (0 out-degree) mass is redistributed uniformly, the standard
    correction, so ranks always sum to 1.
    """
    recorder = TraceRecorder(graph)
    ranks, iterations, converged = pagerank_steps(
        recorder, damping=damping, tol=tol, max_iterations=max_iterations
    )
    return PageRankResult(
        ranks=ranks,
        iterations=iterations,
        converged=converged,
        trace=recorder.trace("pagerank"),
    )


def pagerank_steps(
    reader: GraphReader,
    source: int = 0,
    *,
    damping: float = 0.85,
    tol: float = 1e-6,
    max_iterations: int = 100,
) -> tuple[np.ndarray, int, bool]:
    """Push-style PageRank over ``reader``; returns ``(ranks, iterations, converged)``.

    ``source`` is accepted for the registry's uniform signature and unused.
    """
    if not 0 < damping < 1:
        raise TraceError(f"damping must be in (0, 1), got {damping}")
    n = reader.graph.num_vertices
    if n == 0:
        raise TraceError("PageRank needs a non-empty graph")
    ranks = np.full(n, 1.0 / n, dtype=np.float64)
    degrees = reader.graph.degrees.astype(np.float64)
    dangling = degrees == 0
    all_vertices = np.arange(n, dtype=np.int64)
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        with reader.step():
            reader.touch_vertex_state(all_vertices)
            contrib = np.where(dangling, 0.0, ranks / np.maximum(degrees, 1.0))
            neighbors, sources, _ = reader.read_neighbors(all_vertices)
            incoming = np.zeros(n, dtype=np.float64)
            np.add.at(incoming, neighbors, contrib[sources])
            dangling_mass = ranks[dangling].sum() / n
            new_ranks = (1.0 - damping) / n + damping * (incoming + dangling_mass)
            delta = np.abs(new_ranks - ranks).sum()
            ranks = new_ranks
            reader.touch_vertex_state(all_vertices)
        if delta < tol:
            converged = True
            break
    return ranks, iterations, converged


def pagerank_reference(
    graph: CSRGraph,
    *,
    damping: float = 0.85,
    tol: float = 1e-6,
    max_iterations: int = 100,
) -> np.ndarray:
    """Dense matrix power-iteration oracle (small graphs only)."""
    n = graph.num_vertices
    if n == 0:
        raise TraceError("PageRank needs a non-empty graph")
    # Column-stochastic transition matrix with uniform dangling columns.
    matrix = np.zeros((n, n), dtype=np.float64)
    for v in range(n):
        nbrs = graph.neighbors(v)
        if nbrs.size:
            matrix[nbrs, v] = 1.0 / nbrs.size
        else:
            matrix[:, v] = 1.0 / n
    ranks = np.full(n, 1.0 / n, dtype=np.float64)
    for _ in range(max_iterations):
        new_ranks = (1.0 - damping) / n + damping * (matrix @ ranks)
        if np.abs(new_ranks - ranks).sum() < tol:
            return new_ranks
        ranks = new_ranks
    return ranks

"""k-core decomposition by iterative peeling.

A further fine-grained random-access workload beyond the paper's pair:
repeatedly remove all vertices of (residual) degree < k; the survivors
form the k-core.  Each peeling round reads the sublists of the removed
vertices (to decrement their neighbors' residual degrees), so the trace
has many smaller steps whose sizes shrink as the graph empties — a very
different step profile from BFS's explosive middle, useful for stressing
the per-step concurrency model.

:func:`core_numbers` computes the full core decomposition (the largest k
for which each vertex survives) by peeling with increasing k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import TraceError
from ..graph.csr import CSRGraph
from .reader import GraphReader, TraceRecorder
from .trace import AccessTrace

__all__ = ["KCoreResult", "kcore", "kcore_steps", "core_numbers"]


@dataclass(frozen=True)
class KCoreResult:
    """Output of one k-core peel: the surviving vertex set plus trace."""

    k: int
    in_core: np.ndarray
    rounds: int
    trace: AccessTrace

    @property
    def core_size(self) -> int:
        """Vertices in the k-core."""
        return int(self.in_core.sum())


def kcore(graph: CSRGraph, k: int) -> KCoreResult:
    """Peel ``graph`` down to its k-core; assumes a symmetric graph."""
    recorder = TraceRecorder(graph)
    (alive,) = kcore_steps(recorder, k=k)
    return KCoreResult(
        k=k,
        in_core=alive,
        rounds=len(recorder.frontiers),
        trace=recorder.trace(f"kcore-{k}"),
    )


def kcore_steps(
    reader: GraphReader, source: int = 0, *, k: int = 2
) -> tuple[np.ndarray]:
    """k-core peeling over ``reader``; returns ``(in_core,)``.

    ``source`` is accepted for the registry's uniform signature and unused.
    """
    if k < 1:
        raise TraceError(f"k must be >= 1, got {k}")
    n = reader.graph.num_vertices
    residual = reader.graph.degrees.astype(np.int64).copy()
    alive = np.ones(n, dtype=bool)
    touched = np.zeros(n, dtype=bool)
    rounds = 0
    while True:
        peel = np.flatnonzero(alive & (residual < k))
        if peel.size == 0:
            break
        with reader.step():
            reader.touch_vertex_state(peel)
            alive[peel] = False
            neighbors, _, _ = reader.read_neighbors(peel)
            neighbors = neighbors[alive[neighbors]]
            if neighbors.size:
                np.subtract.at(residual, neighbors, 1)
                touched[neighbors] = True
                updated = np.flatnonzero(touched)
                touched[updated] = False
                reader.touch_vertex_state(updated)
        rounds += 1
    if rounds == 0:
        # Nothing peeled: one empty step so the run has at least one.
        with reader.step():
            reader.read_neighbors(np.empty(0, dtype=np.int64))
    return (alive,)


def core_numbers(graph: CSRGraph, max_k: int | None = None) -> np.ndarray:
    """Core number of every vertex (largest k whose k-core contains it).

    Simple repeated-peeling implementation (O(max_core) peels); fine for
    reproduction-scale graphs and trivially correct, which is what the
    networkx cross-check wants.
    """
    n = graph.num_vertices
    cores = np.zeros(n, dtype=np.int64)
    k = 1
    while True:
        result = kcore(graph, k)
        if result.core_size == 0:
            break
        cores[result.in_core] = k
        k += 1
        if max_k is not None and k > max_k:
            break
    return cores

"""Community label propagation: the *dense full-frontier* workload.

Unlike connected-components' min-label push, community label propagation
re-labels every vertex each round with the *most frequent* label among
its neighbors (smallest label breaks ties), synchronously from the
previous round's labels.  Every round therefore touches every vertex's
sublist — a dense sequential sweep like PageRank — but the per-vertex
work is a grouped mode computation and the result is a community
partition rather than ranks.  Synchronous updates can oscillate on
bipartite structures, so the iteration count is bounded; the update rule
is fully deterministic either way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import TraceError
from ..graph.csr import CSRGraph
from .reader import GraphReader, TraceRecorder
from .trace import AccessTrace

__all__ = [
    "LabelPropagationResult",
    "label_propagation",
    "label_propagation_steps",
    "label_propagation_reference",
    "mode_label_update",
]


@dataclass(frozen=True)
class LabelPropagationResult:
    """Output of a label-propagation run: community labels + trace."""

    labels: np.ndarray
    iterations: int
    converged: bool
    trace: AccessTrace

    @property
    def num_communities(self) -> int:
        """Number of distinct community labels."""
        return int(np.unique(self.labels).size)


def mode_label_update(
    labels: np.ndarray, neighbors: np.ndarray, sources: np.ndarray
) -> np.ndarray:
    """Apply one mode-label round given a flat ``(sources, neighbors)`` edge view.

    Vertices that do not appear in
    ``sources`` keep their label.  Vectorized as a run-length count over
    ``(vertex, neighbor_label)`` pairs followed by a pick of the
    (count-max, label-min) run per vertex.
    """
    if neighbors.size == 0:
        return labels.copy()
    neighbor_labels = labels[neighbors]
    order = np.lexsort((neighbor_labels, sources))
    s = sources[order]
    l = neighbor_labels[order]
    run_start = np.ones(s.size, dtype=bool)
    run_start[1:] = (s[1:] != s[:-1]) | (l[1:] != l[:-1])
    run_ids = np.cumsum(run_start) - 1
    counts = np.bincount(run_ids).astype(np.int64)
    run_src = s[run_start]
    run_label = l[run_start]
    # Per source, pick the run with max count; ties go to the smallest
    # label.  Sorting runs by (src, -count, label) makes it the first
    # run of each source block.
    best = np.lexsort((run_label, -counts, run_src))
    first = np.ones(best.size, dtype=bool)
    sorted_src = run_src[best]
    first[1:] = sorted_src[1:] != sorted_src[:-1]
    winners = best[first]
    new_labels = labels.copy()
    new_labels[run_src[winners]] = run_label[winners]
    return new_labels


def label_propagation(
    graph: CSRGraph, *, max_iterations: int = 20
) -> LabelPropagationResult:
    """Synchronous label propagation with one full-frontier step per round."""
    recorder = TraceRecorder(graph)
    labels, iterations, converged = label_propagation_steps(
        recorder, max_iterations=max_iterations
    )
    return LabelPropagationResult(
        labels=labels,
        iterations=iterations,
        converged=converged,
        trace=recorder.trace("label_propagation"),
    )


def label_propagation_steps(
    reader: GraphReader, source: int = 0, *, max_iterations: int = 20
) -> tuple[np.ndarray, int, bool]:
    """Synchronous mode-label rounds over ``reader``.

    Returns ``(labels, iterations, converged)``; ``source`` is accepted
    for the registry's uniform signature and unused.
    """
    n = reader.graph.num_vertices
    if n == 0:
        raise TraceError("label propagation needs a non-empty graph")
    if max_iterations < 1:
        raise TraceError(f"max_iterations must be >= 1, got {max_iterations}")
    labels = np.arange(n, dtype=np.int64)
    all_vertices = np.arange(n, dtype=np.int64)
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        with reader.step():
            reader.touch_vertex_state(all_vertices)
            neighbors, sources, _ = reader.read_neighbors(all_vertices)
            new_labels = mode_label_update(labels, neighbors, sources)
            reader.touch_vertex_state(all_vertices)
        if np.array_equal(new_labels, labels):
            converged = True
            labels = new_labels
            break
        labels = new_labels
    return labels, iterations, converged


def label_propagation_reference(
    graph: CSRGraph, *, max_iterations: int = 20
) -> np.ndarray:
    """Plain-Python oracle for the synchronous mode-label update rule."""
    n = graph.num_vertices
    labels = list(range(n))
    for _ in range(max_iterations):
        new_labels = list(labels)
        for v in range(n):
            tally: dict[int, int] = {}
            for u in graph.neighbors(v):
                lab = int(labels[u])
                tally[lab] = tally.get(lab, 0) + 1
            if tally:
                best_count = max(tally.values())
                new_labels[v] = min(k for k, c in tally.items() if c == best_count)
        if new_labels == labels:
            return np.array(labels, dtype=np.int64)
        labels = new_labels
    return np.array(labels, dtype=np.int64)

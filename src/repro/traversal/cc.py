"""Connected components via frontier-based label propagation.

A third fine-grained random-access workload (EMOGI also evaluates CC);
included here to widen the evaluation beyond the paper's BFS/SSSP pair.
Each round propagates the minimum label across edges of the vertices whose
label changed last round — the same on-demand sublist access pattern as
BFS, but with a different (typically longer-tailed) step profile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.csr import CSRGraph, sorted_unique
from .reader import GraphReader, TraceRecorder
from .trace import AccessTrace

__all__ = ["CCResult", "connected_components", "cc_steps", "cc_reference"]


@dataclass(frozen=True)
class CCResult:
    """Output of a components run: per-vertex component labels + trace."""

    labels: np.ndarray
    frontier_sizes: list[int]
    trace: AccessTrace

    @property
    def num_components(self) -> int:
        """Number of (weakly) connected components."""
        return int(sorted_unique(self.labels).size)


def connected_components(graph: CSRGraph) -> CCResult:
    """Label-propagation components; assumes a symmetric (undirected) graph.

    For directed inputs this computes components of the underlying
    *directed reachability by min-label push*, which equals weak components
    only when the edge set is symmetric — symmetrize first if needed.
    """
    recorder = TraceRecorder(graph)
    (labels,) = cc_steps(recorder)
    return CCResult(
        labels=labels,
        frontier_sizes=recorder.frontier_sizes,
        trace=recorder.trace("cc"),
    )


def cc_steps(reader: GraphReader, source: int = 0) -> tuple[np.ndarray]:
    """Min-label propagation over ``reader``; returns ``(labels,)``.

    ``source`` is accepted for the registry's uniform signature and unused.
    """
    n = reader.graph.num_vertices
    labels = np.arange(n, dtype=np.int64)
    frontier = np.arange(n, dtype=np.int64)
    degrees = reader.graph.degrees
    while frontier.size:
        with reader.step():
            reader.touch_vertex_state(frontier)
            # Labels at the step's start: exact under any chunking.
            start = labels.copy()
            snapshot = start[frontier]
            for lo, hi, neighbors, _ in reader.neighbor_chunks(frontier):
                candidate = np.repeat(snapshot[lo:hi], degrees[frontier[lo:hi]])
                np.minimum.at(labels, neighbors, candidate)
            frontier = np.flatnonzero(labels < start)
            reader.touch_vertex_state(frontier)
    return (labels,)


def cc_reference(graph: CSRGraph) -> np.ndarray:
    """Union-find oracle for undirected component labels (tests).

    Returns labels normalised so each component is labelled by its minimum
    member, comparable to :func:`connected_components` output.
    """
    n = graph.num_vertices
    parent = list(range(n))

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:  # path compression
            parent[x], x = root, parent[x]
        return root

    for v, u in graph.iter_edges():
        rv, ru = find(v), find(u)
        if rv != ru:
            parent[max(rv, ru)] = min(rv, ru)

    labels = np.fromiter((find(v) for v in range(n)), dtype=np.int64, count=n)
    # Normalise: label = min vertex in component.
    order = np.argsort(labels, kind="stable")
    sorted_labels = labels[order]
    first = np.ones(n, dtype=bool)
    first[1:] = sorted_labels[1:] != sorted_labels[:-1]
    rep = np.minimum.reduceat(order, np.flatnonzero(first)) if n else order
    remap = dict(zip(sorted_labels[first], rep))
    return np.array([remap[l] for l in labels], dtype=np.int64)

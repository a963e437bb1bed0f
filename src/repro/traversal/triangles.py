"""Triangle counting: the *two-phase neighborhood-join* workload.

Triangle counting reads each vertex's sublist and then the sublists of
its (higher-numbered) neighbors — a neighborhood *join* rather than a
frontier expansion.  Its access trace therefore has a very different
shape from BFS/CC: every vertex is visited exactly once in ID order
(mostly-sequential phase 1) and each batch triggers a second, random
burst over the batch's neighbor set (phase 2).  Dann et al. classify
this as the canonical "static, high locality, read-only" pattern, the
opposite corner from BFS's sparse random frontier.

The forward-counting scheme orients every edge from its lower to its
higher endpoint, so each triangle ``u < v < w`` is counted exactly once
at ``u``; the graph is assumed symmetric (undirected).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import TraceError
from ..graph.csr import CSRGraph, ragged_index
from .reader import GraphReader, TraceRecorder
from .trace import AccessTrace

__all__ = [
    "TriangleCountResult",
    "triangle_count",
    "triangle_count_steps",
    "triangle_count_reference",
]

#: Vertices processed per trace step (phase-1 batch size).
TRIANGLE_BATCH = 1024


@dataclass(frozen=True)
class TriangleCountResult:
    """Output of a triangle count: per-vertex counts (at the min vertex)."""

    per_vertex: np.ndarray
    trace: AccessTrace

    @property
    def total(self) -> int:
        """Total number of distinct triangles in the graph."""
        return int(self.per_vertex.sum())


def triangle_count(graph: CSRGraph) -> TriangleCountResult:
    """Count triangles with a two-phase per-batch access trace.

    Phase 1 of each batch reads the batch vertices' own sublists (one
    mostly-sequential step); phase 2 reads the sublists of the batch's
    higher neighbors (one random-burst step).  Assumes a symmetric graph.
    """
    recorder = TraceRecorder(graph)
    (per_vertex,) = triangle_count_steps(recorder)
    return TriangleCountResult(
        per_vertex=per_vertex, trace=recorder.trace("triangle_count")
    )


def triangle_count_steps(
    reader: GraphReader, source: int = 0, *, batch: int = TRIANGLE_BATCH
) -> tuple[np.ndarray]:
    """Two-phase forward triangle counting over ``reader``.

    Counts come from the fetched phase-2 sublists, never from host-side
    adjacency.  Returns ``(per_vertex,)``, each triangle counted at its
    minimum vertex; ``source`` is accepted for the registry's uniform
    signature and unused.
    """
    n = reader.graph.num_vertices
    if n == 0:
        raise TraceError("triangle counting needs a non-empty graph")
    per_vertex = np.zeros(n, dtype=np.int64)
    seen = np.zeros(n, dtype=bool)
    degrees = reader.graph.degrees
    for lo in range(0, n, batch):
        chunk = np.arange(lo, min(lo + batch, n), dtype=np.int64)
        with reader.step():
            reader.touch_vertex_state(chunk)
            cat1, src1, _ = reader.read_neighbors(chunk)
        # Phase 2: the batch's higher-neighbor set, mask-deduped.
        seen[cat1[cat1 > src1]] = True
        joined = np.flatnonzero(seen).astype(np.int64)
        seen[joined] = False
        with reader.step():
            reader.touch_vertex_state(joined)
            cat2, _, _ = reader.read_neighbors(joined)
        # Segment cat1 by chunk vertex and cat2 by joined vertex (both
        # are concatenated sublists).
        deg1 = degrees[chunk]
        starts1 = np.cumsum(deg1) - deg1
        deg2 = degrees[joined]
        starts2 = np.cumsum(deg2) - deg2
        for i, u in enumerate(chunk):
            seg = cat1[starts1[i] : starts1[i] + deg1[i]]
            higher = seg[seg > u]
            if higher.size < 2:
                continue
            # For each v in higher, every w in N(v) with w > v and w in
            # higher closes the triangle (u, v, w).
            pick = np.searchsorted(joined, higher)
            lengths = deg2[pick]
            cat = cat2[ragged_index(starts2[pick], lengths)]
            src = np.repeat(higher, lengths)
            per_vertex[u] = int(np.isin(cat[cat > src], higher).sum())
    return (per_vertex,)


def triangle_count_reference(graph: CSRGraph) -> int:
    """Naive O(V * d^2) oracle: test each neighbor pair for closure.

    Counts each triangle three times (once per corner) and divides;
    intentionally structured nothing like the forward-counting scheme so
    a shared bug cannot hide in both.
    """
    adjacency = [set(map(int, graph.neighbors(v))) for v in range(graph.num_vertices)]
    triple = 0
    for v in range(graph.num_vertices):
        nbrs = sorted(adjacency[v])
        for i, a in enumerate(nbrs):
            for b in nbrs[i + 1 :]:
                if b in adjacency[a]:
                    triple += 1
    # Each triangle is seen once per corner.
    return triple // 3

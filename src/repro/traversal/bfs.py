"""Level-synchronous breadth-first search with trace emission.

BFS is the paper's primary workload (Figures 3, 5, 6, 11; Table 2).  Each
level is one synchronous step: the GPU fetches the edge sublists of every
frontier vertex from external memory, marks unvisited neighbors, and the
marked set becomes the next frontier.  The per-level frontier sizes are
exactly Table 2's profile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import TraceError
from ..graph.csr import CSRGraph
from .frontier import drain_mask
from .reader import GraphReader, TraceRecorder
from .trace import AccessTrace

__all__ = ["BFSResult", "bfs", "bfs_steps", "bfs_reference"]


@dataclass(frozen=True)
class BFSResult:
    """Output of a BFS run.

    Attributes
    ----------
    depths:
        Per-vertex BFS depth; ``-1`` for unreachable vertices.
    parents:
        Per-vertex BFS parent; ``-1`` for unreachable vertices and the source.
    frontier_sizes:
        Vertices per depth (Table 2).
    trace:
        External-memory access trace, one step per depth.
    """

    source: int
    depths: np.ndarray
    parents: np.ndarray
    frontier_sizes: list[int]
    trace: AccessTrace

    @property
    def num_reached(self) -> int:
        """Vertices reached from the source (including the source)."""
        return int((self.depths >= 0).sum())

    @property
    def max_depth(self) -> int:
        """Deepest level reached (0 for a lone source)."""
        return int(self.depths.max())

    def table2_rows(self) -> list[dict[str, int]]:
        """Per-depth frontier sizes in the shape of the paper's Table 2."""
        return [
            {"depth": depth, "vertices": size}
            for depth, size in enumerate(self.frontier_sizes)
        ]


def bfs(graph: CSRGraph, source: int = 0) -> BFSResult:
    """Run level-synchronous BFS from ``source`` and record its trace.

    The trace's step *k* contains the sublist reads for frontier depth *k*
    (the source's own sublist is step 0).
    """
    recorder = TraceRecorder(graph)
    depths, parents = bfs_steps(recorder, source)
    return BFSResult(
        source=source,
        depths=depths,
        parents=parents,
        frontier_sizes=recorder.frontier_sizes,
        trace=recorder.trace("bfs"),
    )


def bfs_steps(reader: GraphReader, source: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Level-synchronous BFS over ``reader``; returns ``(depths, parents)``."""
    n = reader.graph.num_vertices
    if not 0 <= source < n:
        raise TraceError(f"source {source} out of range [0, {n})")
    depths = np.full(n, -1, dtype=np.int64)
    parents = np.full(n, -1, dtype=np.int64)
    depths[source] = 0
    frontier = np.array([source], dtype=np.int64)
    # Reused discovery mask: O(n) bytes once, instead of an O(E_f log E_f)
    # np.unique sort per level to deduplicate the next frontier.
    discovered = np.zeros(n, dtype=bool)
    degrees = reader.graph.degrees
    depth = 0
    while frontier.size:
        with reader.step():
            reader.touch_vertex_state(frontier)
            # The step's edge e comes from frontier[searchsorted(ends, e)].
            ends = np.cumsum(degrees[frontier])
            for lo, _, neighbors, _ in reader.neighbor_chunks(frontier):
                idx = np.flatnonzero(depths[neighbors] < 0)
                unseen = neighbors[idx]
                if lo:
                    idx += ends[lo - 1]
                owner = np.searchsorted(ends, idx, side="right")
                # A vertex may be discovered by several frontier vertices
                # at once; keep the first discoverer as parent (any is
                # valid).  Fancy assignment keeps the *last* write per
                # index, so assigning reversed arrays leaves the first
                # discoverer; a later chunk sees the vertex's depth set.
                parents[unseen[::-1]] = frontier[owner[::-1]]
                depths[unseen] = depth + 1
                discovered[unseen] = True
            frontier = drain_mask(discovered)
            reader.touch_vertex_state(frontier)
        depth += 1
    return depths, parents


def bfs_reference(graph: CSRGraph, source: int = 0) -> np.ndarray:
    """Straightforward queue-based BFS returning depths (test oracle).

    Intentionally written with plain Python data structures so a bug in the
    vectorized gather cannot hide in both implementations.
    """
    n = graph.num_vertices
    if not 0 <= source < n:
        raise TraceError(f"source {source} out of range [0, {n})")
    depths = np.full(n, -1, dtype=np.int64)
    depths[source] = 0
    queue = [source]
    while queue:
        next_queue: list[int] = []
        for v in queue:
            for u in graph.neighbors(v):
                if depths[u] < 0:
                    depths[u] = depths[v] + 1
                    next_queue.append(int(u))
        queue = next_queue
    return depths

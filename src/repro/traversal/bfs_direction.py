"""Direction-optimizing BFS (Beamer's push/pull hybrid).

An algorithmic extension beyond the paper's plain top-down BFS: when the
frontier is large, a *bottom-up* step is cheaper — every unvisited
vertex scans its in-neighbors and stops at the first visited one,
instead of the frontier pushing to every neighbor.  The GAP suite
(which produced the paper's urand/kron inputs) uses this by default.

The external-memory implications are interesting and different:

* bottom-up steps read *partial* sublists (the scan stops early), so the
  useful-byte count per request depends on data values, not just
  topology — :class:`BFSDirectionResult` records the exact scanned
  prefix per vertex;
* the read set is the *unvisited* vertices' sublists, which during the
  explosive middle steps is far smaller than the frontier's out-edges.

Assumes a symmetric graph (in-neighbors == out-neighbors), which all the
paper's datasets are.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import VERTEX_ID_BYTES
from ..errors import TraceError
from ..graph.csr import CSRGraph, ragged_index
from .frontier import gather_neighbors
from .trace import AccessTrace, TraceStep

__all__ = ["BFSDirectionResult", "bfs_direction_optimizing"]

#: Switch to bottom-up when the frontier's edges exceed this fraction of
#: the unexplored edges (Beamer's alpha heuristic).
_ALPHA = 1 / 14

#: ...and only when the frontier holds at least this fraction of all
#: vertices (Beamer's beta condition, as 1/beta): bottom-up scans every
#: unvisited vertex, which only pays off for genuinely wide frontiers.
_MIN_FRONTIER_FRACTION = 1 / 24


@dataclass(frozen=True)
class BFSDirectionResult:
    """Output of direction-optimizing BFS.

    ``step_modes`` records ``"top-down"`` / ``"bottom-up"`` per step; the
    trace's bottom-up steps contain the *scanned prefixes* of unvisited
    vertices' sublists rather than whole frontier sublists.
    """

    source: int
    depths: np.ndarray
    frontier_sizes: list[int]
    step_modes: list[str]
    trace: AccessTrace

    @property
    def num_reached(self) -> int:
        """Vertices reached from the source."""
        return int((self.depths >= 0).sum())

    @property
    def bottom_up_steps(self) -> int:
        """How many steps ran bottom-up."""
        return sum(1 for m in self.step_modes if m == "bottom-up")


def _bottom_up_step(
    graph: CSRGraph, depths: np.ndarray, depth: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One bottom-up step: every unvisited vertex scans its in-neighbors.

    Returns ``(next_frontier, scanners, scan_starts, scan_lengths)``:
    the vertices that scanned (unvisited, degree > 0) and the byte ranges
    they actually read (each reads its sublist up to and including the
    first visited neighbor, or all of it when none is visited).
    """
    unvisited = np.flatnonzero(depths < 0)
    # Zero-degree vertices scan nothing and can never be found.
    active = unvisited[graph.degrees[unvisited] > 0]
    if active.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy(), empty.copy()
    neighbors, _, _ = gather_neighbors(graph, active, with_sources=True)
    # Previous-depth frontier membership of each scanned neighbor.
    hit = depths[neighbors] == depth - 1
    # For each active vertex: position (0-based) of the first hit in its
    # sublist, or its degree when none.  Vectorized prefix search: within
    # each vertex's contiguous block, take the minimum hit position.
    counts = graph.degrees[active]
    block_start = np.cumsum(counts) - counts
    position_in_block = ragged_index(np.zeros(counts.size, dtype=np.int64), counts)
    sentinel = np.iinfo(np.int64).max
    candidate = np.where(hit, position_in_block, sentinel)
    first_hit = np.minimum.reduceat(candidate, block_start)
    found = first_hit != sentinel
    scanned = np.where(found, first_hit + 1, counts)  # edges actually read
    next_frontier = active[found]
    starts = graph.indptr[active] * VERTEX_ID_BYTES
    lengths = scanned * VERTEX_ID_BYTES
    return next_frontier, active, starts, lengths


def bfs_direction_optimizing(
    graph: CSRGraph,
    source: int = 0,
    *,
    alpha: float = _ALPHA,
    min_frontier_fraction: float = _MIN_FRONTIER_FRACTION,
) -> BFSDirectionResult:
    """Hybrid top-down / bottom-up BFS with exact partial-scan traces."""
    n = graph.num_vertices
    if not 0 <= source < n:
        raise TraceError(f"source {source} out of range [0, {n})")
    if not alpha > 0:
        raise TraceError(f"alpha must be positive, got {alpha}")
    if not 0 <= min_frontier_fraction <= 1:
        raise TraceError(
            f"min_frontier_fraction must be in [0, 1], got {min_frontier_fraction}"
        )
    depths = np.full(n, -1, dtype=np.int64)
    depths[source] = 0
    frontier = np.array([source], dtype=np.int64)
    trace = AccessTrace(
        algorithm="bfs-do", graph_name=graph.name,
        edge_list_bytes=graph.edge_list_bytes,
    )
    frontier_sizes: list[int] = []
    step_modes: list[str] = []
    depth = 0
    total_edges = graph.num_edges
    while frontier.size:
        frontier_sizes.append(int(frontier.size))
        frontier_edges = int(graph.degrees[frontier].sum())
        unexplored_edges = total_edges - int(
            graph.degrees[depths >= 0].sum()
        )
        bottom_up = (
            frontier_edges > alpha * max(1, unexplored_edges)
            and frontier.size >= min_frontier_fraction * n
        )
        depth += 1
        if bottom_up:
            step_modes.append("bottom-up")
            next_frontier, scanners, starts, lengths = _bottom_up_step(
                graph, depths, depth
            )
            trace.append(TraceStep(scanners, starts, lengths))
            depths[next_frontier] = depth
            frontier = next_frontier
        else:
            step_modes.append("top-down")
            starts, lengths = graph.sublist_byte_ranges(frontier)
            trace.append(TraceStep(frontier, starts, lengths))
            neighbors, _, _ = gather_neighbors(graph, frontier, with_sources=True)
            unseen = neighbors[depths[neighbors] < 0]
            next_frontier = np.unique(unseen)
            depths[next_frontier] = depth
            frontier = next_frontier
    return BFSDirectionResult(
        source=source,
        depths=depths,
        frontier_sizes=frontier_sizes,
        step_modes=step_modes,
        trace=trace,
    )

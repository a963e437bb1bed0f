"""Frontier representations and the vectorized CSR neighbor gather.

Frontiers are held *sparse* (sorted arrays of vertex IDs) because the
trace layer needs per-vertex sublists.  This module provides the core
``gather_neighbors`` primitive every traversal algorithm uses and the
mark-array kernels that build each step's next frontier.

Fast-path notes: ``gather_neighbors`` materialises a slice of a
frontier's out-edges with no Python loop — BFS, SSSP and CC ask the
reader for one :data:`~repro.traversal.reader.EDGE_CHUNK`-bounded slice
at a time (``neighbor_chunks``), so no step holds all E_f edges: the shared
:func:`repro.graph.csr.ragged_index` builds the edge indices with one
``repeat``, then one fancy gather reads them.  The engine's backend
gathers each chunk's edge records through the same helper, one 8 B word
per record (:mod:`repro.engine.backend`).  The traversal algorithms
deduplicate their next frontier with a *reused* boolean mark array —
scatter candidate vertices into the mask chunk by chunk, then
:func:`drain_mask` it once per step — which is O(E_f + n) per round and
replaces the O(E_f log E_f) ``np.unique`` sort each round used to pay;
the result is the same sorted unique vertex set, bit for bit.  The
min-relaxing kernels (SSSP, CC) share :func:`min_scatter`,
which compares every candidate with its target's current value once and
scatters only the improving ones through ``np.minimum.at``: most edges
of a late round improve nothing, so the unbuffered scatter and the mark
array see a fraction of E_f, and the "what improved" re-gather of the
whole edge set is gone.  SSSP and CC run it per chunk, with candidates
built from a snapshot of the frontier's values taken before the first
chunk, and drain once.  Where a sort is still the right tool (the
direction-optimising BFS's top-down step, random-walk positions), the
shared :func:`repro.graph.csr.sorted_unique` does it: one ``np.sort``
(skipped for ascending input) and an adjacent-difference mask, without
the hash pass ``np.unique`` makes before its sort since NumPy 2.3.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph, ragged_index

__all__ = [
    "gather_neighbors",
    "min_scatter",
    "drain_mask",
]


def gather_neighbors(
    graph: CSRGraph, frontier: np.ndarray, *, with_sources: bool = False
) -> tuple[np.ndarray, ...]:
    """Concatenated out-neighbors of every frontier vertex (vectorized).

    Returns ``(neighbors,)`` or ``(neighbors, sources)`` where ``sources``
    repeats each frontier vertex once per out-edge.  For weighted graphs the
    matching edge weights can be recovered by also returning the flat edge
    indices — pass ``with_sources=True`` and use the third element:

    ``neighbors, sources, edge_idx = gather_neighbors(g, f, with_sources=True)``

    The index array selecting every frontier vertex's CSR slice — for
    vertex ``v`` with degree ``k`` the indices ``indptr[v] .. indptr[v]+k-1``
    — comes from :func:`~repro.graph.csr.ragged_index`.
    """
    frontier = np.asarray(frontier, dtype=np.int64)
    counts = graph.degrees[frontier]
    edge_idx = ragged_index(graph.indptr[frontier], counts)
    neighbors = graph.indices[edge_idx]
    if not with_sources:
        return (neighbors,)
    sources = np.repeat(frontier, counts)
    return neighbors, sources, edge_idx


def min_scatter(
    values: np.ndarray,
    targets: np.ndarray,
    candidate: np.ndarray,
    changed: np.ndarray,
) -> None:
    """Lower ``values[targets]`` to ``candidate`` and mark improved targets.

    Only candidates below their target's current value reach the
    ``np.minimum.at`` scatter.  Run once per chunk of a step's edges and
    :func:`drain_mask` once at the step's end: a target's final value is
    the minimum over all its candidates, and it is marked exactly when
    one of them beats the value it had at the step's start, whatever the
    chunking.
    """
    better = candidate < values[targets]
    improved = targets[better]
    np.minimum.at(values, improved, candidate[better])
    changed[improved] = True


def drain_mask(mask: np.ndarray) -> np.ndarray:
    """The set positions of ``mask``, ascending; ``mask`` is all-False on return."""
    marked = np.flatnonzero(mask)
    mask[marked] = False
    return marked


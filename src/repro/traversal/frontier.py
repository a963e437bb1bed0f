"""Frontier representations and the vectorized CSR neighbor gather.

Frontiers are held *sparse* (sorted arrays of vertex IDs) because the
trace layer needs per-vertex sublists.  This module provides the
``gather_neighbors`` primitive and the mark-array kernel that builds a
BFS step's next frontier.

Fast-path notes: ``gather_neighbors`` materialises a frontier's
out-edges with no Python loop: the shared
:func:`repro.graph.csr.ragged_index` builds the edge indices with one
``repeat``, then one fancy gather reads them.  BFS, SSSP and CC instead
ask the reader for one :data:`~repro.traversal.reader.EDGE_CHUNK`-bounded
slice at a time (``neighbor_chunks``), indexed by the same helper, with
no per-edge source array (:mod:`repro.traversal.reader`).  BFS
deduplicates its next frontier with a *reused* boolean mark array —
scatter discovered vertices into the mask chunk by chunk, then
:func:`drain_mask` it once per step — which is O(E_f + n) per round
instead of an O(E_f log E_f) ``np.unique`` sort, with the same sorted
result.  SSSP and CC scatter every candidate with one unfiltered
``np.minimum.at`` per chunk, as the GPU kernels apply one atomic min per
out-edge, and take as the next frontier the values that end the step
below a copy taken at its start: a value's final state is the minimum of
its candidates, so it ends below its start exactly when some candidate
improved it, whatever the chunking.  Where a sort is still the right
tool (the direction-optimising BFS's top-down step, random-walk
positions), the shared :func:`repro.graph.csr.sorted_unique` does it:
one ``np.sort`` (skipped for ascending input) and an adjacent-difference
mask, without the hash pass ``np.unique`` makes before its sort since
NumPy 2.3.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph, ragged_index

__all__ = [
    "gather_neighbors",
    "drain_mask",
]


def gather_neighbors(graph: CSRGraph, frontier: np.ndarray) -> np.ndarray:
    """Concatenated out-neighbors of every frontier vertex (vectorized).

    The index array selecting every frontier vertex's CSR slice — for
    vertex ``v`` with degree ``k`` the indices ``indptr[v] .. indptr[v]+k-1``
    — comes from :func:`~repro.graph.csr.ragged_index`.
    """
    frontier = np.asarray(frontier, dtype=np.int64)
    edge_idx = ragged_index(graph.indptr[frontier], graph.degrees[frontier])
    return graph.indices[edge_idx]


def drain_mask(mask: np.ndarray) -> np.ndarray:
    """The set positions of ``mask``, ascending; ``mask`` is all-False on return."""
    marked = np.flatnonzero(mask)
    mask[marked] = False
    return marked


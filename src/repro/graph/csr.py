"""Compressed sparse row (CSR) graph container.

Mirrors the layout of Figure 1 in the paper: a *vertex list* (``indptr``)
holding, for each vertex, the start index of its *edge sublist* in the
*edge list* (``indices``), with the end index stored at the next vertex.
The edge list is what lives on external memory; each vertex ID occupies
:data:`repro.config.VERTEX_ID_BYTES` bytes there (Table 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from ..config import VERTEX_ID_BYTES
from ..errors import GraphFormatError

__all__ = ["CSRGraph", "is_ascending", "ragged_index", "sorted_unique"]


def ragged_index(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flat indices of back-to-back segments ``starts[i] .. starts[i]+counts[i]-1``.

    The vectorised gather behind every ragged (per-segment) access: CSR
    sublists of a frontier, byte or word ranges of a batch of reads, the
    blocks or pieces a request splits into.  Segment ``i`` occupies output
    positions ``out_start[i] .. out_start[i]+counts[i]-1`` with
    ``out_start = cumsum(counts) - counts``, so its indices are
    ``arange(total) + (starts[i] - out_start[i])`` — one ``repeat`` and no
    Python loop.  Zero counts contribute nothing; counts must be
    non-negative.
    """
    counts = np.asarray(counts, dtype=np.int64)
    out_start = np.cumsum(counts) - counts
    total = int(out_start[-1] + counts[-1]) if counts.size else 0
    offsets = np.asarray(starts, dtype=np.int64) - out_start
    return np.arange(total, dtype=np.int64) + np.repeat(offsets, counts)


def is_ascending(values: np.ndarray) -> bool:
    """Whether 1-D ``values`` never decrease (true for sizes 0 and 1).

    One adjacent comparison, exact for every dtype (a wrapping difference
    would misjudge unsigned or extreme values).  Traversal steps emit
    their block and vertex streams in this order — sorted frontiers over
    disjoint, ascending CSR sublists — so callers that would sort first
    can skip it.
    """
    return not np.less(values[1:], values[:-1]).any()


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """The distinct values of ``values``, ascending — ``np.unique`` without options.

    A flattened copy is sorted unless it is already non-decreasing
    (:func:`is_ascending`), then an adjacent-difference mask keeps the
    first of each run; the result is always a fresh array.  Since NumPy
    2.3, ``np.unique`` hashes before it sorts, which is many times slower
    for integer ids; for any NaN-free input the output (values and dtype)
    is the same.
    """
    flat = np.asarray(values).ravel()
    ordered = flat if is_ascending(flat) else np.sort(flat)
    if ordered.size < 2:
        return ordered.copy()
    keep = np.empty(ordered.size, dtype=bool)
    keep[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


@dataclass(frozen=True)
class CSRGraph:
    """An immutable directed graph in CSR format.

    Parameters
    ----------
    indptr:
        ``int64`` array of length ``num_vertices + 1``; ``indptr[v]`` is the
        index into ``indices`` where vertex ``v``'s edge sublist begins.
    indices:
        ``int64`` array of destination vertex IDs (the edge list).
    weights:
        Optional ``float64`` per-edge weights (used by SSSP).  ``None`` for
        unweighted graphs.
    name:
        Human-readable dataset name used in reports.
    """

    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray | None = None
    name: str = "graph"
    _degrees: np.ndarray = field(init=False, repr=False, compare=False, default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        indptr = np.ascontiguousarray(self.indptr, dtype=np.int64)
        indices = np.ascontiguousarray(self.indices, dtype=np.int64)
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        if self.weights is not None:
            weights = np.ascontiguousarray(self.weights, dtype=np.float64)
            object.__setattr__(self, "weights", weights)
        self._validate()
        object.__setattr__(self, "_degrees", np.diff(self.indptr))
        # Arrays are logically immutable once validated.
        self.indptr.setflags(write=False)
        self.indices.setflags(write=False)
        if self.weights is not None:
            self.weights.setflags(write=False)
        self._degrees.setflags(write=False)

    # -- validation ---------------------------------------------------------

    def _validate(self) -> None:
        if self.indptr.ndim != 1 or self.indices.ndim != 1:
            raise GraphFormatError("indptr and indices must be 1-D arrays")
        if self.indptr.size < 1:
            raise GraphFormatError("indptr must have at least one entry")
        if self.indptr[0] != 0:
            raise GraphFormatError(f"indptr must start at 0, got {self.indptr[0]}")
        if self.indptr[-1] != self.indices.size:
            raise GraphFormatError(
                f"indptr must end at len(indices)={self.indices.size}, "
                f"got {self.indptr[-1]}"
            )
        if np.any(np.diff(self.indptr) < 0):
            raise GraphFormatError("indptr must be non-decreasing")
        n = self.indptr.size - 1
        if self.indices.size and (
            self.indices.min() < 0 or self.indices.max() >= n
        ):
            raise GraphFormatError(
                f"edge targets must lie in [0, {n}), found range "
                f"[{self.indices.min()}, {self.indices.max()}]"
            )
        if self.weights is not None and self.weights.shape != self.indices.shape:
            raise GraphFormatError(
                f"weights shape {self.weights.shape} does not match "
                f"indices shape {self.indices.shape}"
            )

    # -- basic properties ----------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return self.indptr.size - 1

    @property
    def num_edges(self) -> int:
        """Number of directed edges ``m`` (edge-list entries)."""
        return self.indices.size

    @property
    def degrees(self) -> np.ndarray:
        """Out-degree of every vertex (read-only ``int64`` array)."""
        return self._degrees

    @property
    def is_weighted(self) -> bool:
        """Whether per-edge weights are attached."""
        return self.weights is not None

    @property
    def edge_list_bytes(self) -> int:
        """Size of the edge list on external memory (Table 1 convention)."""
        return self.num_edges * VERTEX_ID_BYTES

    def average_degree(self, exclude_isolated: bool = True) -> float:
        """Average out-degree.

        Table 1 excludes 0-degree vertices from the average; pass
        ``exclude_isolated=False`` for the plain mean.
        """
        deg = self._degrees
        if exclude_isolated:
            deg = deg[deg > 0]
        if deg.size == 0:
            return 0.0
        return float(deg.mean())

    def average_sublist_bytes(self, exclude_isolated: bool = True) -> float:
        """Average edge-sublist size in bytes (Table 1's right column)."""
        return self.average_degree(exclude_isolated) * VERTEX_ID_BYTES

    # -- neighborhood access --------------------------------------------------

    def neighbors(self, v: int) -> np.ndarray:
        """Destination IDs of vertex ``v``'s out-edges (a view)."""
        self._check_vertex(v)
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def edge_weights(self, v: int) -> np.ndarray:
        """Weights of vertex ``v``'s out-edges; requires a weighted graph."""
        if self.weights is None:
            raise GraphFormatError("graph has no weights")
        self._check_vertex(v)
        return self.weights[self.indptr[v] : self.indptr[v + 1]]

    def iter_edges(self) -> Iterator[tuple[int, int]]:
        """Yield ``(src, dst)`` pairs (slow; intended for small graphs/tests)."""
        for v in range(self.num_vertices):
            for u in self.neighbors(v):
                yield v, int(u)

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.num_vertices:
            raise GraphFormatError(
                f"vertex {v} out of range [0, {self.num_vertices})"
            )

    # -- external-memory byte geometry (Section 2.1) -------------------------

    def sublist_byte_ranges(self, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Byte offsets and lengths of the edge sublists for ``vertices``.

        Returns ``(starts, lengths)`` in bytes within the on-device edge
        list.  This is exactly what a traversal step must fetch from
        external memory for a frontier (Section 2.1); zero-degree vertices
        yield zero-length entries.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        if vertices.size and (
            vertices.min() < 0 or vertices.max() >= self.num_vertices
        ):
            raise GraphFormatError("frontier contains out-of-range vertex IDs")
        starts = self.indptr[vertices] * VERTEX_ID_BYTES
        lengths = self._degrees[vertices] * VERTEX_ID_BYTES
        return starts, lengths

    # -- transformations -------------------------------------------------------

    def with_weights(self, weights: np.ndarray) -> "CSRGraph":
        """Return a copy of this graph carrying the given edge weights."""
        return CSRGraph(self.indptr, self.indices, weights, name=self.name)

    def with_uniform_random_weights(
        self, low: float = 1.0, high: float = 64.0, seed: int = 0
    ) -> "CSRGraph":
        """Attach uniform random weights (the usual SSSP benchmark setup)."""
        rng = np.random.default_rng(seed)
        w = rng.uniform(low, high, size=self.num_edges)
        return self.with_weights(w)

    def reversed(self) -> "CSRGraph":
        """Return the transpose graph (all edges reversed).

        Used by pull-style algorithms (e.g. PageRank pull iterations).
        """
        n = self.num_vertices
        src = np.repeat(np.arange(n, dtype=np.int64), self._degrees)
        order = np.argsort(self.indices, kind="stable")
        new_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.indices, minlength=n), out=new_indptr[1:])
        new_indices = src[order]
        new_weights = self.weights[order] if self.weights is not None else None
        return CSRGraph(new_indptr, new_indices, new_weights, name=f"{self.name}^T")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRGraph(name={self.name!r}, n={self.num_vertices:,}, "
            f"m={self.num_edges:,}, weighted={self.is_weighted})"
        )

"""The reader every traversal algorithm is written against.

Each registered algorithm (:mod:`repro.workloads`) is one step loop over
a *reader* with four methods:

* ``read_neighbors(frontier) -> (neighbors, sources, weights)`` — the
  concatenated out-edges of ``frontier`` (``weights`` is ``None`` on an
  unweighted graph);
* ``neighbor_chunks(frontier)`` — the same edges, streamed as
  ``(lo, hi, neighbors, weights)`` for consecutive slices
  ``frontier[lo:hi]`` of at most :data:`EDGE_CHUNK` edges each (a vertex
  of higher degree is a slice of its own), so a step's transient memory
  is bounded by the chunk, not by the frontier's edge count.  A chunk
  carries no ``sources``: edge ``j`` of the slice belongs to the
  frontier vertex whose cumulative degree first exceeds it, which a
  kernel can repeat or look up for just the edges it needs;
* ``touch_vertex_state(vertices)`` — the per-vertex state slots the step
  reads or writes;
* ``step()`` — a context manager around one synchronous step.

Either read call reads the whole frontier when it is called, as one
step's external-memory fetch: one trace step, one priced request batch.
``neighbor_chunks`` then materialises the edges one chunk at a time, as
each chunk is handed out, so a step that consumes chunks never holds
the frontier's E_f edges at once.  A kernel that consumes chunks must
stay exact whatever the budget: a scatter whose candidates depend on
frontier state (SSSP distances, CC labels) copies that state before
the first chunk and builds every chunk's candidates from the copy's
``start[frontier]``, so a later chunk never sees a value an earlier
chunk of the same step lowered; the step's next frontier is then the
vertices whose value ends below the copy.

:class:`TraceRecorder` serves the reads from the in-memory CSR arrays
and records each step's frontier for the access trace;
:class:`~repro.engine.engine.ExternalGraphEngine` serves them through an
external-memory backend and measures the traffic.  The algorithm never
knows which one it runs on — the paper's execution model (Section 2.1)
separates the per-step frontier fetch from the device that serves it —
so engine values, steps and byte ranges equal the in-memory run's by
construction.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import ContextManager, Iterator, Protocol

import numpy as np

from ..errors import TraceError
from ..graph.csr import CSRGraph, ragged_index
from .trace import AccessTrace, trace_from_frontiers

__all__ = [
    "EDGE_CHUNK",
    "GraphReader",
    "NeighborChunk",
    "TraceRecorder",
    "frontier_slices",
]

#: Most edges one :meth:`GraphReader.neighbor_chunks` chunk carries.
EDGE_CHUNK = 1 << 16

#: ``(lo, hi, neighbors, weights)`` of the slice ``frontier[lo:hi]``.
NeighborChunk = tuple[int, int, np.ndarray, np.ndarray | None]


def frontier_slices(counts: np.ndarray) -> Iterator[tuple[int, int, int, int]]:
    """Cut a frontier with out-degrees ``counts`` into edge-budgeted slices.

    Yields ``(lo, hi, edge_lo, edge_hi)``: frontier positions
    ``lo:hi`` own the concatenated edges ``edge_lo:edge_hi``.  Each slice
    greedily takes as many vertices as fit in :data:`EDGE_CHUNK` edges,
    and at least one; an empty frontier yields nothing.
    """
    ends = np.cumsum(counts)
    lo = edge_lo = 0
    while lo < ends.size:
        fit = int(np.searchsorted(ends, edge_lo + EDGE_CHUNK, side="right"))
        hi = max(fit, lo + 1)
        edge_hi = int(ends[hi - 1])
        yield lo, hi, edge_lo, edge_hi
        lo, edge_lo = hi, edge_hi


class GraphReader(Protocol):
    """What an algorithm may ask of the memory holding the graph."""

    graph: CSRGraph

    def read_neighbors(
        self, frontier: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """``(neighbors, sources, weights)`` of every out-edge of ``frontier``."""
        ...

    def neighbor_chunks(self, frontier: np.ndarray) -> Iterator[NeighborChunk]:
        """Read ``frontier`` now; hand its out-edges out in budgeted chunks."""
        ...

    def touch_vertex_state(self, vertices: np.ndarray) -> int:
        """Access the state slots of ``vertices``; returns the bytes requested."""
        ...

    def step(self) -> ContextManager[None]:
        """Context manager around one synchronous step."""
        ...


class TraceRecorder:
    """In-memory reader that records one frontier per step.

    Every algorithm reads its step's frontier exactly once, so the
    recorded frontiers are the trace's steps; a second read inside one
    :meth:`step` raises :class:`~repro.errors.TraceError` rather than
    silently becoming an extra trace step.
    """

    def __init__(self, graph: CSRGraph) -> None:
        self.graph = graph
        self.frontiers: list[np.ndarray] = []
        # None outside a step, else whether the step has read its frontier.
        self._step_read: bool | None = None

    def _record(self, frontier: np.ndarray) -> np.ndarray:
        if self._step_read:
            raise TraceError("a step read its frontier twice; one read per step()")
        if self._step_read is not None:
            self._step_read = True
        frontier = np.asarray(frontier, dtype=np.int64)
        self.frontiers.append(frontier)
        return frontier

    def _gather(self, frontier: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """``(neighbors, weights)`` of ``frontier``'s out-edges, in CSR order."""
        graph = self.graph
        edge_idx = ragged_index(graph.indptr[frontier], graph.degrees[frontier])
        weights = None if graph.weights is None else graph.weights[edge_idx]
        return graph.indices[edge_idx], weights

    def read_neighbors(
        self, frontier: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Gather ``frontier``'s out-edges from the CSR arrays and record it."""
        frontier = self._record(frontier)
        neighbors, weights = self._gather(frontier)
        return neighbors, np.repeat(frontier, self.graph.degrees[frontier]), weights

    def neighbor_chunks(self, frontier: np.ndarray) -> Iterator[NeighborChunk]:
        """Record ``frontier`` now; gather its out-edges one chunk at a time."""
        frontier = self._record(frontier)
        return (
            (lo, hi, *self._gather(frontier[lo:hi]))
            for lo, hi, _, _ in frontier_slices(self.graph.degrees[frontier])
        )

    def touch_vertex_state(self, vertices: np.ndarray) -> int:
        """Vertex state is host-resident: nothing to fetch."""
        return 0

    @contextmanager
    def step(self) -> Iterator[None]:
        """One step: the frontier read inside it marks the trace step."""
        self._step_read = False
        try:
            yield
        finally:
            self._step_read = None

    @property
    def frontier_sizes(self) -> list[int]:
        """Vertices read per step."""
        return [f.size for f in self.frontiers]

    def trace(self, algorithm: str) -> AccessTrace:
        """The recorded steps as an :class:`AccessTrace` labelled ``algorithm``."""
        return trace_from_frontiers(self.graph, self.frontiers, algorithm=algorithm)

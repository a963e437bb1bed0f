"""The external-memory graph engine: traversal over a byte backend.

Mirrors the paper's system structure (Section 2.1): the vertex list
(``indptr``) lives "in GPU memory" (plain numpy arrays) and the edge
list's *bytes* live behind an
:class:`~repro.engine.backend.ExternalMemoryBackend`; every neighbor
access goes through its ``read`` API.  Algorithms therefore produce both
their results *and* a measured traffic profile — which the test suite
cross-checks against the analytic models.

Two :data:`MEMORY_MODES` control where per-vertex *state* (depths,
labels, ranks, ...) lives:

* ``"semi-external"`` (default, FlashGraph-style): vertex state is
  pinned in simulated DRAM; only edge-list reads hit the backend.  This
  is the configuration every earlier figure used.
* ``"fully-external"``: a vertex-state region follows the edge records
  on the backend, and kernels fetch the 8-byte state slot of every
  vertex they touch through the same ``read`` path, so RAF/cache
  accounting sees the extra fine-grained traffic.

The engine is a *reader* (:mod:`repro.traversal.reader`): the
algorithms in :mod:`repro.traversal` run their one step loop over it
through the :mod:`repro.workloads` registry
(``workloads.get("bfs").run(engine, source=...)``).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..config import VERTEX_ID_BYTES
from ..errors import ConfigError, DeviceError, TraceError
from ..graph.csr import CSRGraph
from ..telemetry.tracer import get_tracer
from ..traversal.reader import NeighborChunk, frontier_slices
from .backend import ExternalMemoryBackend, MemoryStats

__all__ = [
    "SEMI_EXTERNAL",
    "FULLY_EXTERNAL",
    "MEMORY_MODES",
    "EngineRun",
    "ExternalGraphEngine",
]

#: Vertex state in simulated DRAM; only edge reads hit the backend.
SEMI_EXTERNAL = "semi-external"
#: Vertex state lives on the backend too; kernels fetch it per touch.
FULLY_EXTERNAL = "fully-external"
#: All supported engine memory modes.
MEMORY_MODES = (SEMI_EXTERNAL, FULLY_EXTERNAL)


@dataclass(frozen=True)
class EngineRun:
    """Result bundle of one engine execution."""

    values: np.ndarray
    steps: int
    stats: MemoryStats


class ExternalGraphEngine:
    """Run graph traversals with the edge list on external memory.

    Parameters
    ----------
    graph:
        The CSR graph; its ``indices`` (and ``weights`` if present) are
        serialised into the backend, its ``indptr`` stays host-side.
    backend_factory:
        Callable building a backend from the raw payload (one contiguous
        ``uint8`` array), e.g.
        ``lambda data: DirectBackend(data, alignment_bytes=16)``.
    memory_mode:
        One of :data:`MEMORY_MODES`; see the module docstring.

    Weighted graphs interleave each edge's weight with its target ID
    (16 B per edge), so one sublist read returns both — matching how an
    SSSP kernel would lay out its edge records.
    """

    def __init__(
        self, graph: CSRGraph, backend_factory, *, memory_mode: str = SEMI_EXTERNAL
    ) -> None:
        if memory_mode not in MEMORY_MODES:
            raise ConfigError(
                f"unknown memory mode {memory_mode!r}; "
                f"choose from {', '.join(MEMORY_MODES)}"
            )
        self.graph = graph
        self.memory_mode = memory_mode
        self._weighted = graph.is_weighted
        self._record_bytes = VERTEX_ID_BYTES * (2 if self._weighted else 1)
        if self._weighted:
            records = np.empty(graph.num_edges * 2, dtype=np.int64)
            records[0::2] = graph.indices
            records[1::2] = graph.weights.view(np.int64)  # raw float64 bits
        else:
            records = graph.indices
        payload = records.view(np.uint8)
        self._state_base = graph.num_edges * self._record_bytes
        expected = self._state_base
        if memory_mode == FULLY_EXTERNAL:
            # The vertex-state region follows the edge records; its
            # initial contents are irrelevant (kernels only measure the
            # traffic of fetching the slots), so zeros suffice.
            state = np.zeros(graph.num_vertices * VERTEX_ID_BYTES, dtype=np.uint8)
            payload = np.concatenate([payload, state])
            expected += graph.num_vertices * VERTEX_ID_BYTES
        self.backend: ExternalMemoryBackend = backend_factory(payload)
        #: Steps closed since the last :meth:`reset_stats`.
        self.steps = 0
        self._frontier_size = 0
        if self.backend.size_bytes != expected:
            if memory_mode == FULLY_EXTERNAL:
                raise DeviceError(
                    "backend does not hold the edge list plus vertex state"
                )
            raise DeviceError("backend does not hold the full edge list")

    # -- low-level access ----------------------------------------------------

    def _sublist_ranges(self, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        starts = self.graph.indptr[vertices] * self._record_bytes
        lengths = self.graph.degrees[vertices] * self._record_bytes
        return starts, lengths

    def _read_records(
        self, frontier: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """``(frontier, neighbors, weights)``: one backend read of the sublists."""
        frontier = np.asarray(frontier, dtype=np.int64)
        if frontier.size and (
            frontier.min() < 0 or frontier.max() >= self.graph.num_vertices
        ):
            raise TraceError("frontier contains out-of-range vertex IDs")
        self._frontier_size = frontier.size
        starts, lengths = self._sublist_ranges(frontier)
        records = self.backend.read(starts, lengths).view(np.int64)
        if self._weighted:
            return frontier, records[0::2], records[1::2].view(np.float64)
        return frontier, records, None

    def read_neighbors(
        self, frontier: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Fetch the edge sublists of ``frontier`` through the backend.

        Returns ``(neighbors, sources, weights)`` exactly as the
        in-memory gather would, but with every byte served by the device
        model.
        """
        frontier, neighbors, weights = self._read_records(frontier)
        return neighbors, np.repeat(frontier, self.graph.degrees[frontier]), weights

    def neighbor_chunks(self, frontier: np.ndarray) -> Iterator[NeighborChunk]:
        """Fetch ``frontier``'s sublists in one backend read; yield them in chunks.

        The read happens now, as one request batch, so the backend's
        per-read accounting (clock, fault retries, ``MemoryStats``) is the
        same as :meth:`read_neighbors`'.  Each chunk's neighbors and
        weights are views of the fetched records; only its ``sources``
        column is built per chunk.
        """
        frontier, neighbors, weights = self._read_records(frontier)
        counts = self.graph.degrees[frontier]
        return (
            (
                lo,
                hi,
                neighbors[a:b],
                np.repeat(frontier[lo:hi], counts[lo:hi]),
                None if weights is None else weights[a:b],
            )
            for lo, hi, a, b in frontier_slices(counts)
        )

    @contextmanager
    def step(self) -> Iterator[None]:
        """One synchronous step: an ``engine.step`` span, then ``end_step``.

        The span carries the step index, the size of the frontier the
        step read and the bytes the backend fetched during it.
        """
        tracer = get_tracer()
        with tracer.span("engine.step") as span:
            fetched = self.backend.stats.fetched_bytes
            self._frontier_size = 0
            yield
            self.backend.end_step()
            if tracer.enabled:
                span.set(
                    step=self.steps,
                    frontier_size=self._frontier_size,
                    bytes_read=self.backend.stats.fetched_bytes - fetched,
                )
            self.steps += 1

    def reset_stats(self) -> None:
        """Zero the backend's traffic counters and the step count."""
        self.backend.reset_stats()
        self.steps = 0

    def touch_vertex_state(self, vertices: np.ndarray) -> int:
        """Fetch the state slots of ``vertices`` in fully-external mode.

        A no-op under ``"semi-external"`` (state is DRAM-resident).
        Returns the number of state bytes requested, so kernels can
        report the semi- vs fully-external traffic split.
        """
        if self.memory_mode != FULLY_EXTERNAL:
            return 0
        vertices = np.asarray(vertices, dtype=np.int64)
        if vertices.size == 0:
            return 0
        if vertices.min() < 0 or vertices.max() >= self.graph.num_vertices:
            raise TraceError("vertex state touch is out of range")
        starts = self._state_base + vertices * VERTEX_ID_BYTES
        lengths = np.full(vertices.size, VERTEX_ID_BYTES, dtype=np.int64)
        self.backend.read(starts, lengths)
        return int(lengths.sum())

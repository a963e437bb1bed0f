"""The reader every traversal algorithm is written against.

Each registered algorithm (:mod:`repro.workloads`) is one step loop over
a *reader* with three methods:

* ``read_neighbors(frontier) -> (neighbors, sources, weights)`` — the
  concatenated out-edges of ``frontier`` (``weights`` is ``None`` on an
  unweighted graph);
* ``touch_vertex_state(vertices)`` — the per-vertex state slots the step
  reads or writes;
* ``step()`` — a context manager around one synchronous step.

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

from ..graph.csr import CSRGraph
from .frontier import gather_neighbors
from .trace import AccessTrace, trace_from_frontiers

__all__ = ["GraphReader", "TraceRecorder"]


class GraphReader(Protocol):
    """What an algorithm may ask of the memory holding the graph."""

    graph: CSRGraph

    def read_neighbors(
        self, frontier: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """``(neighbors, sources, weights)`` of every out-edge of ``frontier``."""
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
    recorded frontiers are the trace's steps.
    """

    def __init__(self, graph: CSRGraph) -> None:
        self.graph = graph
        self.frontiers: list[np.ndarray] = []

    def read_neighbors(
        self, frontier: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Gather ``frontier``'s out-edges from the CSR arrays and record it."""
        frontier = np.asarray(frontier, dtype=np.int64)
        self.frontiers.append(frontier)
        neighbors, sources, edge_idx = gather_neighbors(
            self.graph, frontier, with_sources=True
        )
        weights = None if self.graph.weights is None else self.graph.weights[edge_idx]
        return neighbors, sources, weights

    def touch_vertex_state(self, vertices: np.ndarray) -> int:
        """Vertex state is host-resident: nothing to fetch."""
        return 0

    @contextmanager
    def step(self) -> Iterator[None]:
        """Steps need no bookkeeping: the frontier read marks each one."""
        yield

    @property
    def frontier_sizes(self) -> list[int]:
        """Vertices read per step."""
        return [f.size for f in self.frontiers]

    def trace(self, algorithm: str) -> AccessTrace:
        """The recorded steps as an :class:`AccessTrace` labelled ``algorithm``."""
        return trace_from_frontiers(self.graph, self.frontiers, algorithm=algorithm)

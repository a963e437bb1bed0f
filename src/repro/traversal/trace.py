"""External-memory access traces.

A trace is the interface between the algorithm layer and the
memory-system layer: a sequence of *steps* (BFS levels, SSSP relaxation
rounds, ...), each holding the byte ranges of the edge sublists the step
must read.  Requests within one step are mutually independent and can be
issued with full GPU parallelism; steps are separated by global barriers.
This matches the paper's execution model (Sections 2.1 and 3.5.1).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from ..errors import TraceError

__all__ = ["TraceStep", "AccessTrace", "trace_from_frontiers"]


@dataclass(frozen=True)
class TraceStep:
    """One synchronous traversal step's external-memory reads.

    ``starts``/``lengths`` are byte offsets/sizes within the on-device edge
    list; entry *i* is the edge sublist of frontier vertex ``vertices[i]``.
    Zero-length entries (isolated vertices) are permitted and ignored by
    consumers.
    """

    vertices: np.ndarray
    starts: np.ndarray
    lengths: np.ndarray

    def __post_init__(self) -> None:
        for name in ("vertices", "starts", "lengths"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.int64)
            object.__setattr__(self, name, arr)
        if not (self.vertices.shape == self.starts.shape == self.lengths.shape):
            raise TraceError(
                "vertices, starts and lengths must have identical shapes, got "
                f"{self.vertices.shape}, {self.starts.shape}, {self.lengths.shape}"
            )
        if self.starts.size and self.starts.min() < 0:
            raise TraceError("byte offsets must be non-negative")
        if self.lengths.size and self.lengths.min() < 0:
            raise TraceError("request lengths must be non-negative")

    @property
    def num_requests(self) -> int:
        """Number of non-empty sublist reads in this step."""
        return int((self.lengths > 0).sum())

    @property
    def frontier_size(self) -> int:
        """Number of frontier vertices (including zero-degree ones)."""
        return self.vertices.size

    @property
    def useful_bytes(self) -> int:
        """Bytes of edge data actually consumed by the algorithm (``E`` share)."""
        return int(self.lengths.sum())

    def nonempty(self) -> "TraceStep":
        """This step restricted to requests with positive length."""
        keep = self.lengths > 0
        return TraceStep(self.vertices[keep], self.starts[keep], self.lengths[keep])


@dataclass
class AccessTrace:
    """A full traversal's worth of :class:`TraceStep` objects.

    Attributes
    ----------
    algorithm / graph_name:
        Provenance labels used in reports.
    edge_list_bytes:
        Size of the address space the offsets live in (the graph's edge
        list); consumers use it to size caches and validate offsets.
    """

    algorithm: str
    graph_name: str
    edge_list_bytes: int
    steps: list[TraceStep] = field(default_factory=list)

    def append(self, step: TraceStep) -> None:
        """Add a step, validating its offsets against the edge list size."""
        if step.starts.size:
            last_end = int((step.starts + step.lengths).max())
            if last_end > self.edge_list_bytes:
                raise TraceError(
                    f"step reads past the edge list: {last_end} > "
                    f"{self.edge_list_bytes}"
                )
        self.steps.append(step)

    def __iter__(self) -> Iterator[TraceStep]:
        return iter(self.steps)

    def __len__(self) -> int:
        return len(self.steps)

    # -- aggregate statistics -------------------------------------------------

    @property
    def num_steps(self) -> int:
        """Number of synchronous steps (e.g. BFS depth count)."""
        return len(self.steps)

    @property
    def total_requests(self) -> int:
        """Total non-empty sublist reads across all steps."""
        return sum(s.num_requests for s in self.steps)

    @property
    def useful_bytes(self) -> int:
        """The paper's ``E``: total edge bytes the algorithm consumes."""
        return sum(s.useful_bytes for s in self.steps)

    @property
    def frontier_sizes(self) -> list[int]:
        """Frontier size per step (Table 2's second column)."""
        return [s.frontier_size for s in self.steps]

    def average_sublist_bytes(self) -> float:
        """Mean non-empty request size — the workload's natural ``d`` ceiling."""
        total = self.total_requests
        return self.useful_bytes / total if total else 0.0

    # -- persistence -----------------------------------------------------------

    def save(self, path: str | os.PathLike) -> None:
        """Serialise to ``.npz`` (steps stored as concatenated arrays)."""
        lengths_per_step = np.array([s.vertices.size for s in self.steps], dtype=np.int64)
        cat = lambda name: (  # noqa: E731 - tiny local helper
            np.concatenate([getattr(s, name) for s in self.steps])
            if self.steps
            else np.empty(0, dtype=np.int64)
        )
        np.savez_compressed(
            Path(path),
            algorithm=np.array([self.algorithm]),
            graph_name=np.array([self.graph_name]),
            edge_list_bytes=np.array([self.edge_list_bytes], dtype=np.int64),
            step_sizes=lengths_per_step,
            vertices=cat("vertices"),
            starts=cat("starts"),
            lengths=cat("lengths"),
        )

    @classmethod
    def load(cls, path: str | os.PathLike) -> "AccessTrace":
        """Load a trace saved by :meth:`save`."""
        with np.load(Path(path), allow_pickle=False) as data:
            try:
                trace = cls(
                    algorithm=str(data["algorithm"][0]),
                    graph_name=str(data["graph_name"][0]),
                    edge_list_bytes=int(data["edge_list_bytes"][0]),
                )
                step_sizes = data["step_sizes"]
                bounds = np.concatenate([[0], np.cumsum(step_sizes)])
                for i in range(step_sizes.size):
                    lo, hi = bounds[i], bounds[i + 1]
                    trace.append(
                        TraceStep(
                            data["vertices"][lo:hi],
                            data["starts"][lo:hi],
                            data["lengths"][lo:hi],
                        )
                    )
            except KeyError as exc:
                raise TraceError(f"{path} is not a trace file: {exc}") from exc
        return trace


def trace_from_frontiers(
    graph,
    frontiers: Sequence[np.ndarray],
    *,
    algorithm: str,
) -> AccessTrace:
    """Build a trace from per-step frontier vertex arrays.

    This is the one place where "the algorithm visited these vertices"
    becomes "the GPU read these byte ranges" (via
    :meth:`CSRGraph.sublist_byte_ranges`).
    """
    trace = AccessTrace(
        algorithm=algorithm,
        graph_name=graph.name,
        edge_list_bytes=graph.edge_list_bytes,
    )
    for frontier in frontiers:
        frontier = np.asarray(frontier, dtype=np.int64)
        starts, lengths = graph.sublist_byte_ranges(frontier)
        trace.append(TraceStep(frontier, starts, lengths))
    return trace

"""Streaming graph updates with incremental result maintenance.

The paper's workloads are static, but external-memory graph systems
earn their capacity advantage on *evolving* graphs: edges arrive in
batches and the analytics results are maintained incrementally rather
than recomputed.  This module provides:

* :func:`edge_stream` — a seeded random edge-insertion stream;
* :func:`streaming_bfs` / :func:`streaming_cc` — incremental
  maintenance via *delta frontiers*: each batch seeds a relaxation from
  the inserted edges' endpoints, and only the improved region is
  re-traversed.  The maintained result provably equals a from-scratch
  run on the final graph (distances/labels only ever decrease under
  insertion), which the test suite pins;
* :func:`streaming_write_traffic` — the property write-back volume of
  the maintenance, priced through :mod:`repro.memsim.writes`
  (CXL flit RMW or flash page/GC amplification);
* :func:`streaming_contention` — DES write-queue contention: each delta
  step's reads re-simulated with its write-backs sharing the device
  queues, versus reads alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import WorkloadError
from ..graph.builder import build_csr
from ..graph.csr import CSRGraph
from ..memsim.writes import (
    WriteTraffic,
    cxl_write_traffic,
    flash_write_traffic,
    writeback_trace,
)
from ..sim.des import DESConfig, simulate_step
from ..traversal.bfs import bfs
from ..traversal.cc import connected_components
from ..traversal.frontier import gather_neighbors, min_relax
from ..units import MB_PER_S, MIOPS, USEC
from .registry import default_source

__all__ = [
    "EdgeBatch",
    "StreamingRun",
    "StreamingContention",
    "edge_stream",
    "streaming_bfs",
    "streaming_cc",
    "streaming_write_traffic",
    "streaming_contention",
    "default_pool_config",
]


def default_pool_config(num_devices: int = 4) -> DESConfig:
    """A mid-size external-memory pool for contention/tenancy studies.

    Same per-member shape as the bench suite's DES pool: a CXL-class
    device (1.2 us, 11 MIOPS, 5.7 GB/s internal) behind a 24 GB/s link.
    """
    return DESConfig(
        link_bandwidth=24_000 * MB_PER_S,
        latency=1.2 * USEC,
        device_iops=11 * MIOPS,
        device_internal_bandwidth=5_700 * MB_PER_S,
        num_devices=num_devices,
        link_outstanding=256,
        device_outstanding=64,
        gpu_concurrency=2_048,
    )


@dataclass(frozen=True)
class EdgeBatch:
    """One batch of inserted (undirected) edges."""

    src: np.ndarray
    dst: np.ndarray

    @property
    def size(self) -> int:
        """Edges in this batch (before symmetrization)."""
        return int(self.src.size)


def edge_stream(
    num_vertices: int,
    *,
    num_batches: int = 4,
    batch_size: int = 32,
    seed: int = 0,
) -> list[EdgeBatch]:
    """A seeded stream of random self-loop-free edge batches."""
    if num_vertices < 2:
        raise WorkloadError("edge streams need at least 2 vertices")
    if num_batches < 1 or batch_size < 1:
        raise WorkloadError("num_batches and batch_size must be >= 1")
    rng = np.random.default_rng(seed)
    batches = []
    for _ in range(num_batches):
        src = rng.integers(0, num_vertices, size=batch_size, dtype=np.int64)
        # Offset trick keeps dst != src without rejection sampling.
        hop = rng.integers(1, num_vertices, size=batch_size, dtype=np.int64)
        dst = (src + hop) % num_vertices
        batches.append(EdgeBatch(src=src, dst=dst))
    return batches


@dataclass(frozen=True)
class StreamingRun:
    """Outcome of incremental maintenance over an edge stream.

    ``delta_frontiers`` holds every propagation step's frontier (across
    all batches, in order) — the vertices whose property was re-written
    that step; ``step_read_sizes`` the matching non-empty edge-sublist
    read sizes.  ``values`` equals a from-scratch run on ``graph``.
    """

    algorithm: str
    values: np.ndarray
    graph: CSRGraph
    edges_inserted: int
    batch_delta_vertices: list[int]
    delta_frontiers: list[np.ndarray]
    step_read_sizes: list[np.ndarray]

    @property
    def delta_vertices(self) -> int:
        """Total property re-writes across the whole stream."""
        return int(sum(f.size for f in self.delta_frontiers))


def _graph_edges(graph: CSRGraph) -> tuple[np.ndarray, np.ndarray]:
    src = np.repeat(
        np.arange(graph.num_vertices, dtype=np.int64), graph.degrees
    )
    return src, graph.indices.astype(np.int64, copy=True)


def _propagate(
    g: CSRGraph,
    dist: np.ndarray,
    seed_frontier: np.ndarray,
    delta_frontiers: list[np.ndarray],
    step_read_sizes: list[np.ndarray],
    *,
    add_one: bool,
) -> int:
    """Relax ``dist`` outward from ``seed_frontier`` until fixpoint.

    ``add_one=True`` relaxes hop distances (BFS); ``False`` propagates
    minimum labels (CC).  Returns the number of delta vertices touched.
    """
    changed = np.zeros(g.num_vertices, dtype=bool)
    frontier = seed_frontier
    touched = 0
    while frontier.size:
        delta_frontiers.append(frontier)
        _, lengths = g.sublist_byte_ranges(frontier)
        step_read_sizes.append(lengths[lengths > 0])
        touched += int(frontier.size)
        neighbors, sources, _ = gather_neighbors(g, frontier, with_sources=True)
        if neighbors.size == 0:
            break
        candidate = dist[sources] + (1 if add_one else 0)
        frontier = min_relax(dist, neighbors, candidate, changed)
    return touched


def _stream_incremental(
    graph: CSRGraph,
    stream: list[EdgeBatch],
    dist: np.ndarray,
    *,
    algorithm: str,
    add_one: bool,
) -> StreamingRun:
    n = graph.num_vertices
    src_edges, dst_edges = _graph_edges(graph)
    delta_frontiers: list[np.ndarray] = []
    step_read_sizes: list[np.ndarray] = []
    batch_delta: list[int] = []
    g = graph
    inserted = 0
    changed = np.zeros(n, dtype=bool)
    for batch in stream:
        if batch.src.size and (
            min(batch.src.min(), batch.dst.min()) < 0
            or max(batch.src.max(), batch.dst.max()) >= n
        ):
            raise WorkloadError("stream batch contains out-of-range vertex IDs")
        src_edges = np.concatenate([src_edges, batch.src, batch.dst])
        dst_edges = np.concatenate([dst_edges, batch.dst, batch.src])
        inserted += int(batch.src.size)
        g = build_csr(
            src_edges, dst_edges, num_vertices=n, name=f"{graph.name}+stream"
        )
        # Seed: endpoints improved directly by the inserted edges.
        u = np.concatenate([batch.src, batch.dst])
        v = np.concatenate([batch.dst, batch.src])
        candidate = dist[u] + (1 if add_one else 0)
        seed_frontier = min_relax(dist, v, candidate, changed)
        batch_delta.append(
            _propagate(
                g,
                dist,
                seed_frontier,
                delta_frontiers,
                step_read_sizes,
                add_one=add_one,
            )
        )
    return StreamingRun(
        algorithm=algorithm,
        values=dist,
        graph=g,
        edges_inserted=inserted,
        batch_delta_vertices=batch_delta,
        delta_frontiers=delta_frontiers,
        step_read_sizes=step_read_sizes,
    )


def streaming_bfs(
    graph: CSRGraph, stream: list[EdgeBatch], *, source: Optional[int] = None
) -> StreamingRun:
    """Maintain BFS depths from ``source`` across an insertion stream.

    The initial depths come from a from-scratch BFS on ``graph``; each
    batch then relaxes only the improved region.  Final ``values`` (with
    ``-1`` for unreachable) equal ``bfs(final_graph, source).depths``.
    """
    if source is None:
        source = default_source(graph)
    base = bfs(graph, source)
    unreachable = np.int64(graph.num_vertices + 1)
    dist = np.where(base.depths < 0, unreachable, base.depths).astype(np.int64)
    run = _stream_incremental(
        graph, stream, dist, algorithm="streaming_bfs", add_one=True
    )
    depths = np.where(run.values > graph.num_vertices, np.int64(-1), run.values)
    return StreamingRun(
        algorithm=run.algorithm,
        values=depths,
        graph=run.graph,
        edges_inserted=run.edges_inserted,
        batch_delta_vertices=run.batch_delta_vertices,
        delta_frontiers=run.delta_frontiers,
        step_read_sizes=run.step_read_sizes,
    )


def streaming_cc(graph: CSRGraph, stream: list[EdgeBatch]) -> StreamingRun:
    """Maintain component labels across an insertion stream.

    Labels start from a converged from-scratch run (each component
    labelled by its minimum vertex); every inserted edge seeds a
    min-label push, so final ``values`` equal
    ``connected_components(final_graph).labels``.
    """
    base = connected_components(graph)
    labels = base.labels.astype(np.int64, copy=True)
    return _stream_incremental(
        graph, stream, labels, algorithm="streaming_cc", add_one=False
    )


def streaming_write_traffic(run: StreamingRun, *, media: str = "cxl") -> WriteTraffic:
    """Device-side write volume of the stream's property write-backs.

    Every delta-frontier vertex writes its 8-byte property slot; the
    write trace is priced on ``media``: ``"cxl"`` (64-B flit merge +
    RMW reads) or ``"flash"`` (page padding + greedy-GC amplification).
    """
    if media not in ("cxl", "flash"):
        raise WorkloadError(
            f"unknown write media {media!r}; choose from cxl, flash"
        )
    if not run.delta_frontiers:
        return WriteTraffic(user_bytes=0, read_bytes=0, written_bytes=0)
    trace = writeback_trace(
        run.delta_frontiers,
        num_vertices=run.graph.num_vertices,
        algorithm=run.algorithm,
    )
    if media == "cxl":
        return cxl_write_traffic(trace)
    return flash_write_traffic(trace)


@dataclass(frozen=True)
class StreamingContention:
    """DES write-queue contention of one maintenance stream."""

    read_time: float
    combined_time: float
    write_requests: int

    @property
    def slowdown(self) -> float:
        """Combined read+write step time over reads alone."""
        return self.combined_time / self.read_time if self.read_time > 0 else 1.0


def streaming_contention(
    run: StreamingRun, *, config: Optional[DESConfig] = None
) -> StreamingContention:
    """Simulate each delta step with and without its write-backs.

    Writes go through the same device queues as reads (one request per
    written property line), so the combined step time exceeds the
    read-only time — the streaming analogue of the paper's per-step DES.
    """
    config = config or default_pool_config()
    trace = (
        writeback_trace(
            run.delta_frontiers,
            num_vertices=run.graph.num_vertices,
            algorithm=run.algorithm,
        )
        if run.delta_frontiers
        else None
    )
    read_time = 0.0
    combined_time = 0.0
    write_requests = 0
    for i, read_sizes in enumerate(run.step_read_sizes):
        if read_sizes.size:
            read_time += simulate_step(read_sizes, config).time
        write_sizes = (
            trace.steps[i].lengths[trace.steps[i].lengths > 0]
            if trace is not None
            else np.empty(0, dtype=np.int64)
        )
        write_requests += int(write_sizes.size)
        both = np.concatenate([read_sizes, write_sizes])
        if both.size:
            combined_time += simulate_step(both, config).time
    return StreamingContention(
        read_time=read_time,
        combined_time=combined_time,
        write_requests=write_requests,
    )

"""External-memory kernels for every registered workload.

Each kernel drives an :class:`~repro.engine.engine.ExternalGraphEngine`
through one full algorithm run and returns an
:class:`~repro.engine.engine.EngineRun`.  The bodies of the original
``ExternalGraphEngine.bfs/sssp/connected_components`` methods moved here
verbatim (same spans — ``engine.bfs``/``engine.step``/... — same
per-step structure, same mask-dedupe idiom), extended with
:meth:`~repro.engine.engine.ExternalGraphEngine.touch_vertex_state`
calls so the ``"fully-external"`` memory mode also pays for per-vertex
state slots; under the default ``"semi-external"`` mode those touches
are no-ops and results, stats, and telemetry are bit-identical to the
pre-registry engine.

Kernels that exist as in-memory traced algorithms too
(:mod:`repro.traversal`) replicate their operation order exactly, so
engine values equal the in-memory values — asserted by the test suite.
"""

from __future__ import annotations

import numpy as np

from ..engine.engine import EngineRun, ExternalGraphEngine
from ..errors import TraceError
from ..graph.csr import ragged_index
from ..telemetry.tracer import get_tracer
from ..traversal.labelprop import mode_label_update

__all__ = [
    "bfs_kernel",
    "sssp_kernel",
    "cc_kernel",
    "pagerank_kernel",
    "kcore_kernel",
    "triangle_count_kernel",
    "label_propagation_kernel",
    "random_walk_kernel",
]


def _check_source(engine: ExternalGraphEngine, source: int) -> None:
    n = engine.graph.num_vertices
    if not 0 <= source < n:
        raise TraceError(f"source {source} out of range [0, {n})")


def bfs_kernel(engine: ExternalGraphEngine, source: int = 0) -> EngineRun:
    """Level-synchronous BFS through the backend; returns depths."""
    n = engine.graph.num_vertices
    _check_source(engine, source)
    engine.backend.reset_stats()
    depths = np.full(n, -1, dtype=np.int64)
    depths[source] = 0
    frontier = np.array([source], dtype=np.int64)
    # Reused mask-dedupe of the next frontier (no per-level sort).
    discovered = np.zeros(n, dtype=bool)
    steps = 0
    tracer = get_tracer()
    with tracer.span("engine.bfs", source=source, vertices=n):
        while frontier.size:
            with tracer.span("engine.step") as step_span:
                fetched = engine.backend.stats.fetched_bytes
                engine.touch_vertex_state(frontier)
                neighbors, _, _ = engine.read_neighbors(frontier)
                unseen = neighbors[depths[neighbors] < 0]
                depths[unseen] = steps + 1
                discovered[unseen] = True
                next_frontier = np.flatnonzero(discovered)
                discovered[next_frontier] = False
                engine.touch_vertex_state(next_frontier)
                engine.backend.end_step()
                if tracer.enabled:
                    step_span.set(
                        step=steps,
                        frontier_size=int(frontier.size),
                        bytes_read=engine.backend.stats.fetched_bytes - fetched,
                    )
                steps += 1
                frontier = next_frontier
    return EngineRun(values=depths, steps=steps, stats=engine.backend.stats)


def sssp_kernel(engine: ExternalGraphEngine, source: int = 0) -> EngineRun:
    """Frontier Bellman-Ford through the backend; returns distances."""
    if not engine.graph.is_weighted:
        raise TraceError("sssp requires a weighted graph")
    n = engine.graph.num_vertices
    _check_source(engine, source)
    engine.backend.reset_stats()
    dist = np.full(n, np.inf)
    dist[source] = 0.0
    frontier = np.array([source], dtype=np.int64)
    changed = np.zeros(n, dtype=bool)
    steps = 0
    tracer = get_tracer()
    with tracer.span("engine.sssp", source=source, vertices=n):
        while frontier.size:
            with tracer.span("engine.step") as step_span:
                fetched = engine.backend.stats.fetched_bytes
                engine.touch_vertex_state(frontier)
                neighbors, sources, weights = engine.read_neighbors(frontier)
                next_frontier = np.empty(0, dtype=np.int64)
                if neighbors.size:
                    candidate = dist[sources] + weights
                    before = dist[neighbors].copy()
                    np.minimum.at(dist, neighbors, candidate)
                    # Mask-dedupe the improved set (no per-round sort).
                    changed[neighbors[dist[neighbors] < before]] = True
                    next_frontier = np.flatnonzero(changed)
                    changed[next_frontier] = False
                engine.touch_vertex_state(next_frontier)
                engine.backend.end_step()
                if tracer.enabled:
                    step_span.set(
                        step=steps,
                        frontier_size=int(frontier.size),
                        bytes_read=engine.backend.stats.fetched_bytes - fetched,
                    )
                steps += 1
                if neighbors.size == 0:
                    break
                frontier = next_frontier
    return EngineRun(values=dist, steps=steps, stats=engine.backend.stats)


def cc_kernel(engine: ExternalGraphEngine, source: int = 0) -> EngineRun:
    """Min-label propagation through the backend; returns labels."""
    n = engine.graph.num_vertices
    engine.backend.reset_stats()
    labels = np.arange(n, dtype=np.int64)
    frontier = np.arange(n, dtype=np.int64)
    changed = np.zeros(n, dtype=bool)
    steps = 0
    tracer = get_tracer()
    with tracer.span("engine.cc", vertices=n):
        while frontier.size:
            with tracer.span("engine.step") as step_span:
                fetched = engine.backend.stats.fetched_bytes
                engine.touch_vertex_state(frontier)
                neighbors, sources, _ = engine.read_neighbors(frontier)
                next_frontier = np.empty(0, dtype=np.int64)
                if neighbors.size:
                    before = labels[neighbors].copy()
                    np.minimum.at(labels, neighbors, labels[sources])
                    changed[neighbors[labels[neighbors] < before]] = True
                    next_frontier = np.flatnonzero(changed)
                    changed[next_frontier] = False
                engine.touch_vertex_state(next_frontier)
                engine.backend.end_step()
                if tracer.enabled:
                    step_span.set(
                        step=steps,
                        frontier_size=int(frontier.size),
                        bytes_read=engine.backend.stats.fetched_bytes - fetched,
                    )
                steps += 1
                if neighbors.size == 0:
                    break
                frontier = next_frontier
    return EngineRun(values=labels, steps=steps, stats=engine.backend.stats)


def pagerank_kernel(
    engine: ExternalGraphEngine,
    source: int = 0,
    *,
    damping: float = 0.85,
    tol: float = 1e-6,
    max_iterations: int = 100,
) -> EngineRun:
    """Push-style PageRank through the backend; returns ranks.

    Operation order replicates :func:`repro.traversal.pagerank.pagerank`
    exactly, so the ranks match the in-memory algorithm bit for bit.
    """
    if not 0 < damping < 1:
        raise TraceError(f"damping must be in (0, 1), got {damping}")
    n = engine.graph.num_vertices
    if n == 0:
        raise TraceError("PageRank needs a non-empty graph")
    engine.backend.reset_stats()
    ranks = np.full(n, 1.0 / n, dtype=np.float64)
    degrees = engine.graph.degrees.astype(np.float64)
    dangling = degrees == 0
    all_vertices = np.arange(n, dtype=np.int64)
    steps = 0
    tracer = get_tracer()
    with tracer.span("engine.pagerank", vertices=n):
        for _ in range(max_iterations):
            with tracer.span("engine.step") as step_span:
                fetched = engine.backend.stats.fetched_bytes
                engine.touch_vertex_state(all_vertices)
                contrib = np.where(dangling, 0.0, ranks / np.maximum(degrees, 1.0))
                neighbors, sources, _ = engine.read_neighbors(all_vertices)
                incoming = np.zeros(n, dtype=np.float64)
                np.add.at(incoming, neighbors, contrib[sources])
                dangling_mass = ranks[dangling].sum() / n
                new_ranks = (1.0 - damping) / n + damping * (incoming + dangling_mass)
                delta = np.abs(new_ranks - ranks).sum()
                ranks = new_ranks
                engine.touch_vertex_state(all_vertices)
                engine.backend.end_step()
                if tracer.enabled:
                    step_span.set(
                        step=steps,
                        frontier_size=n,
                        bytes_read=engine.backend.stats.fetched_bytes - fetched,
                    )
                steps += 1
            if delta < tol:
                break
    return EngineRun(values=ranks, steps=steps, stats=engine.backend.stats)


def kcore_kernel(
    engine: ExternalGraphEngine, source: int = 0, *, k: int = 2
) -> EngineRun:
    """Iterative k-core peeling through the backend; returns the core mask."""
    if k < 1:
        raise TraceError(f"k must be >= 1, got {k}")
    n = engine.graph.num_vertices
    engine.backend.reset_stats()
    residual = engine.graph.degrees.astype(np.int64).copy()
    alive = np.ones(n, dtype=bool)
    touched = np.zeros(n, dtype=bool)
    steps = 0
    tracer = get_tracer()
    with tracer.span("engine.kcore", vertices=n, k=k):
        while True:
            peel = np.flatnonzero(alive & (residual < k))
            if peel.size == 0:
                break
            with tracer.span("engine.step") as step_span:
                fetched = engine.backend.stats.fetched_bytes
                engine.touch_vertex_state(peel)
                alive[peel] = False
                neighbors, _, _ = engine.read_neighbors(peel)
                neighbors = neighbors[alive[neighbors]]
                if neighbors.size:
                    np.subtract.at(residual, neighbors, 1)
                    touched[neighbors] = True
                    updated = np.flatnonzero(touched)
                    touched[updated] = False
                    engine.touch_vertex_state(updated)
                engine.backend.end_step()
                if tracer.enabled:
                    step_span.set(
                        step=steps,
                        frontier_size=int(peel.size),
                        bytes_read=engine.backend.stats.fetched_bytes - fetched,
                    )
                steps += 1
        if steps == 0:
            # Nothing peeled: one empty step, matching the trace version.
            with tracer.span("engine.step") as step_span:
                engine.read_neighbors(np.empty(0, dtype=np.int64))
                engine.backend.end_step()
                if tracer.enabled:
                    step_span.set(step=0, frontier_size=0, bytes_read=0)
                steps = 1
    return EngineRun(values=alive, steps=steps, stats=engine.backend.stats)


def _ragged_segments(
    cat: np.ndarray, seg_starts: np.ndarray, seg_lengths: np.ndarray, pick: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate the ``pick``-selected segments of flat array ``cat``.

    Returns ``(values, owner_index)`` where ``owner_index[i]`` is the
    position in ``pick`` whose segment produced ``values[i]``.
    """
    lengths = seg_lengths[pick]
    idx = ragged_index(seg_starts[pick], lengths)
    owner = np.repeat(np.arange(pick.size, dtype=np.int64), lengths)
    return cat[idx], owner


def triangle_count_kernel(
    engine: ExternalGraphEngine, source: int = 0, *, batch: int = 1024
) -> EngineRun:
    """Two-phase forward triangle counting through the backend.

    Per batch of vertices: phase 1 reads the batch's own sublists
    (mostly sequential), phase 2 reads the batch's higher-neighbor
    sublists (random burst); counts are computed from the phase-2 data,
    never from host-side adjacency.  Returns per-vertex counts (each
    triangle counted at its minimum vertex).
    """
    n = engine.graph.num_vertices
    if n == 0:
        raise TraceError("triangle counting needs a non-empty graph")
    engine.backend.reset_stats()
    per_vertex = np.zeros(n, dtype=np.int64)
    seen = np.zeros(n, dtype=bool)
    degrees = engine.graph.degrees
    steps = 0
    tracer = get_tracer()
    with tracer.span("engine.triangle_count", vertices=n):
        for lo in range(0, n, batch):
            chunk = np.arange(lo, min(lo + batch, n), dtype=np.int64)
            with tracer.span("engine.step") as step_span:
                fetched = engine.backend.stats.fetched_bytes
                engine.touch_vertex_state(chunk)
                cat1, src1, _ = engine.read_neighbors(chunk)
                engine.backend.end_step()
                if tracer.enabled:
                    step_span.set(
                        step=steps,
                        frontier_size=int(chunk.size),
                        bytes_read=engine.backend.stats.fetched_bytes - fetched,
                    )
                steps += 1
            higher = cat1 > src1
            seen[cat1[higher]] = True
            joined = np.flatnonzero(seen).astype(np.int64)
            seen[joined] = False
            with tracer.span("engine.step") as step_span:
                fetched = engine.backend.stats.fetched_bytes
                engine.touch_vertex_state(joined)
                cat2, _, _ = engine.read_neighbors(joined)
                engine.backend.end_step()
                if tracer.enabled:
                    step_span.set(
                        step=steps,
                        frontier_size=int(joined.size),
                        bytes_read=engine.backend.stats.fetched_bytes - fetched,
                    )
                steps += 1
            # Count from the fetched data: segment cat1 by chunk vertex
            # and cat2 by joined vertex (both are concatenated sublists).
            deg1 = degrees[chunk]
            starts1 = np.cumsum(deg1) - deg1
            deg2 = degrees[joined]
            starts2 = np.cumsum(deg2) - deg2
            for i, u in enumerate(chunk):
                seg = cat1[starts1[i] : starts1[i] + deg1[i]]
                a = seg[seg > u]
                if a.size < 2:
                    continue
                pick = np.searchsorted(joined, a)
                wcat, owner = _ragged_segments(cat2, starts2, deg2, pick)
                wsrc = a[owner]
                forward = wcat > wsrc
                per_vertex[u] = int(np.isin(wcat[forward], a).sum())
    return EngineRun(values=per_vertex, steps=steps, stats=engine.backend.stats)


def label_propagation_kernel(
    engine: ExternalGraphEngine, source: int = 0, *, max_iterations: int = 20
) -> EngineRun:
    """Synchronous mode-label community propagation through the backend."""
    n = engine.graph.num_vertices
    if n == 0:
        raise TraceError("label propagation needs a non-empty graph")
    if max_iterations < 1:
        raise TraceError(f"max_iterations must be >= 1, got {max_iterations}")
    engine.backend.reset_stats()
    labels = np.arange(n, dtype=np.int64)
    all_vertices = np.arange(n, dtype=np.int64)
    steps = 0
    tracer = get_tracer()
    with tracer.span("engine.label_propagation", vertices=n):
        for _ in range(max_iterations):
            with tracer.span("engine.step") as step_span:
                fetched = engine.backend.stats.fetched_bytes
                engine.touch_vertex_state(all_vertices)
                neighbors, sources, _ = engine.read_neighbors(all_vertices)
                new_labels = mode_label_update(labels, neighbors, sources)
                engine.touch_vertex_state(all_vertices)
                engine.backend.end_step()
                if tracer.enabled:
                    step_span.set(
                        step=steps,
                        frontier_size=n,
                        bytes_read=engine.backend.stats.fetched_bytes - fetched,
                    )
                steps += 1
            if np.array_equal(new_labels, labels):
                labels = new_labels
                break
            labels = new_labels
    return EngineRun(values=labels, steps=steps, stats=engine.backend.stats)


def random_walk_kernel(
    engine: ExternalGraphEngine,
    source: int = 0,
    *,
    num_walkers: int = 64,
    walk_length: int = 8,
    seed: int = 0,
) -> EngineRun:
    """Seeded uniform random walks through the backend; returns visits.

    Consumes the RNG stream exactly like
    :func:`repro.traversal.walks.random_walks` (one ``rng.random`` draw
    per active walker per hop), so visit counts match the in-memory run.
    """
    n = engine.graph.num_vertices
    _check_source(engine, source)
    if num_walkers < 1 or walk_length < 1:
        raise TraceError("num_walkers and walk_length must be >= 1")
    engine.backend.reset_stats()
    rng = np.random.default_rng(seed)
    degrees = engine.graph.degrees
    positions = np.full(num_walkers, source, dtype=np.int64)
    visits = np.zeros(n, dtype=np.int64)
    visits[source] = num_walkers
    steps = 0
    tracer = get_tracer()
    with tracer.span("engine.random_walk", source=source, vertices=n):
        for _ in range(walk_length):
            active = degrees[positions] > 0
            if not active.any():
                break
            frontier = np.unique(positions[active])
            with tracer.span("engine.step") as step_span:
                fetched = engine.backend.stats.fetched_bytes
                engine.touch_vertex_state(frontier)
                cat, _, _ = engine.read_neighbors(frontier)
                counts = degrees[frontier]
                block = np.cumsum(counts) - counts
                at = positions[active]
                draws = rng.random(int(active.sum()))
                offsets = np.minimum(
                    (draws * degrees[at]).astype(np.int64), degrees[at] - 1
                )
                moved = cat[block[np.searchsorted(frontier, at)] + offsets]
                positions = positions.copy()
                positions[active] = moved
                np.add.at(visits, moved, 1)
                engine.touch_vertex_state(np.unique(moved))
                engine.backend.end_step()
                if tracer.enabled:
                    step_span.set(
                        step=steps,
                        frontier_size=int(frontier.size),
                        bytes_read=engine.backend.stats.fetched_bytes - fetched,
                    )
                steps += 1
        if steps == 0:
            # Source is a sink: one empty step, matching the trace version.
            with tracer.span("engine.step") as step_span:
                engine.read_neighbors(np.empty(0, dtype=np.int64))
                engine.backend.end_step()
                if tracer.enabled:
                    step_span.set(step=0, frontier_size=0, bytes_read=0)
                steps = 1
    return EngineRun(values=visits, steps=steps, stats=engine.backend.stats)

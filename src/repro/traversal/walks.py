"""Seeded random walks: the *tiny-frontier pointer-chase* workload.

A fixed population of walkers starts at one source and takes uniform
random steps for a fixed number of hops.  Each hop reads only the
sublists of the vertices currently occupied — frontiers of at most
``num_walkers`` distinct vertices, typically far fewer — so the access
pattern is the pure fine-grained pointer chase of Appendix B: very small
random reads, no spatial locality, latency-bound rather than
bandwidth-bound.  All randomness comes from one seeded generator, so a
run is exactly reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import TraceError
from ..graph.csr import CSRGraph
from .reader import GraphReader, TraceRecorder
from .trace import AccessTrace

__all__ = ["RandomWalkResult", "random_walks", "random_walk_steps"]


@dataclass(frozen=True)
class RandomWalkResult:
    """Output of a random-walk run: per-vertex visit counts + trace."""

    source: int
    visits: np.ndarray
    hops: int
    trace: AccessTrace

    @property
    def total_visits(self) -> int:
        """Total walker-hops recorded (including the starting positions)."""
        return int(self.visits.sum())


def random_walks(
    graph: CSRGraph,
    source: int = 0,
    *,
    num_walkers: int = 64,
    walk_length: int = 8,
    seed: int = 0,
) -> RandomWalkResult:
    """Run ``num_walkers`` seeded uniform random walks from ``source``.

    Walkers that reach a sink (zero out-degree) stop there; each hop's
    trace step reads the sublists of the distinct occupied non-sink
    vertices.  Visit counts include the starting positions.
    """
    recorder = TraceRecorder(graph)
    visits, hops = random_walk_steps(
        recorder, source, num_walkers=num_walkers, walk_length=walk_length, seed=seed
    )
    return RandomWalkResult(
        source=source, visits=visits, hops=hops, trace=recorder.trace("random_walk")
    )


def random_walk_steps(
    reader: GraphReader,
    source: int = 0,
    *,
    num_walkers: int = 64,
    walk_length: int = 8,
    seed: int = 0,
) -> tuple[np.ndarray, int]:
    """Seeded uniform random walks over ``reader``; returns ``(visits, hops)``.

    Each hop picks walker *i*'s next vertex as the
    ``floor(draw * degree)``-th entry of its fetched sublist, one
    ``rng.random`` draw per active walker.
    """
    n = reader.graph.num_vertices
    if not 0 <= source < n:
        raise TraceError(f"source {source} out of range [0, {n})")
    if num_walkers < 1 or walk_length < 1:
        raise TraceError("num_walkers and walk_length must be >= 1")
    rng = np.random.default_rng(seed)
    degrees = reader.graph.degrees
    positions = np.full(num_walkers, source, dtype=np.int64)
    visits = np.zeros(n, dtype=np.int64)
    visits[source] = num_walkers
    hops = 0
    for _ in range(walk_length):
        active = degrees[positions] > 0
        if not active.any():
            break
        frontier = np.unique(positions[active])
        with reader.step():
            reader.touch_vertex_state(frontier)
            cat, _, _ = reader.read_neighbors(frontier)
            counts = degrees[frontier]
            block = np.cumsum(counts) - counts
            at = positions[active]
            draws = rng.random(int(active.sum()))
            # Guard the draws == 1.0-epsilon edge: offset must stay < degree.
            offsets = np.minimum(
                (draws * degrees[at]).astype(np.int64), degrees[at] - 1
            )
            moved = cat[block[np.searchsorted(frontier, at)] + offsets]
            positions = positions.copy()
            positions[active] = moved
            np.add.at(visits, moved, 1)
            reader.touch_vertex_state(np.unique(moved))
        hops += 1
    if hops == 0:
        # Source is a sink: one empty step so the run has at least one.
        with reader.step():
            reader.read_neighbors(np.empty(0, dtype=np.int64))
    return visits, hops

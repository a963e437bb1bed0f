"""Working-set and reuse-distance analytics.

Extension analysis beyond the paper's figures: quantifies *why* caches
stop helping at small alignments (Section 4.1.1's justification for the
cache-less XLFDD design).  If reuse distances are mostly larger than any
realistic cache, caching cannot reduce the RAF much.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.csr import sorted_unique
from ..traversal.trace import AccessTrace
from .alignment import expand_to_blocks

__all__ = ["reuse_distances", "step_working_sets", "working_set_summary", "WorkingSetSummary"]


def reuse_distances(trace: AccessTrace, alignment: int) -> np.ndarray:
    """LRU stack distances of every reuse in the trace's block stream.

    Returns one entry per *re*-reference: the number of distinct blocks
    touched since that block's previous reference (the classical reuse
    distance; a cache of capacity >= distance+1 blocks would have hit).
    Cold misses are excluded.  O(refs * log refs) via a Fenwick tree over
    reference timestamps.
    """
    streams = [
        expand_to_blocks(step.starts, step.lengths, alignment)[0] for step in trace
    ]
    stream = np.concatenate(streams) if streams else np.empty(0, dtype=np.int64)
    n = stream.size
    if n == 0:
        return np.empty(0, dtype=np.int64)
    # Fenwick tree marking which timestamps hold the *latest* reference of
    # some block; the reuse distance is the count of marked timestamps
    # strictly between the previous and current reference of the block.
    tree = np.zeros(n + 1, dtype=np.int64)

    def update(i: int, delta: int) -> None:
        i += 1
        while i <= n:
            tree[i] += delta
            i += i & (-i)

    def prefix(i: int) -> int:
        i += 1
        total = 0
        while i > 0:
            total += tree[i]
            i -= i & (-i)
        return int(total)

    last_seen: dict[int, int] = {}
    distances: list[int] = []
    for t, block in enumerate(stream.tolist()):
        prev = last_seen.get(block)
        if prev is not None:
            # Distinct blocks referenced after prev (exclusive) up to t-1.
            distances.append(prefix(t - 1) - prefix(prev))
            update(prev, -1)
        update(t, +1)
        last_seen[block] = t
    return np.asarray(distances, dtype=np.int64)


def step_working_sets(trace: AccessTrace, alignment: int) -> np.ndarray:
    """Distinct blocks touched per step (the per-step working set)."""
    sizes = np.zeros(trace.num_steps, dtype=np.int64)
    for i, step in enumerate(trace):
        block_ids, _ = expand_to_blocks(step.starts, step.lengths, alignment)
        sizes[i] = sorted_unique(block_ids).size
    return sizes


@dataclass(frozen=True)
class WorkingSetSummary:
    """Aggregate working-set numbers for one (trace, alignment) pair."""

    alignment: int
    total_distinct_blocks: int
    max_step_blocks: int
    reuse_fraction: float
    median_reuse_distance: float

    @property
    def total_distinct_bytes(self) -> int:
        """Footprint of all touched blocks."""
        return self.total_distinct_blocks * self.alignment


def working_set_summary(trace: AccessTrace, alignment: int) -> WorkingSetSummary:
    """Compute :class:`WorkingSetSummary` (footprint, reuse, distances)."""
    streams = [
        expand_to_blocks(step.starts, step.lengths, alignment)[0] for step in trace
    ]
    stream = np.concatenate(streams) if streams else np.empty(0, dtype=np.int64)
    distinct = int(sorted_unique(stream).size)
    per_step = step_working_sets(trace, alignment)
    reuses = stream.size - distinct
    distances = reuse_distances(trace, alignment)
    return WorkingSetSummary(
        alignment=alignment,
        total_distinct_blocks=distinct,
        max_step_blocks=int(per_step.max()) if per_step.size else 0,
        reuse_fraction=reuses / stream.size if stream.size else 0.0,
        median_reuse_distance=float(np.median(distances)) if distances.size else 0.0,
    )

"""Software cache models over alignment-sized blocks.

The paper computes read amplification with "a CPU simulation implementing
a software cache" (Section 3.1) — BaM likewise keeps a software cache in
GPU memory (Section 3.3.2), while the XLFDD path runs cache-less (Section
4.1.1).  Four models cover those cases:

* :class:`NoCache` — every block reference is a miss (XLFDD direct access);
* :class:`StepLocalCache` — blocks are shared within one traversal step but
  evicted before the next (Figure 2's narrative: "Sublist 2 is likely to be
  on the GPU cache ... may be evicted from the cache before it is referenced
  later"); the default for RAF computation;
* :class:`IdealCache` — infinite capacity, only cold misses (upper bound);
* :class:`LRUCache` — exact fully-associative LRU with finite capacity
  (the BaM-style software cache).

Every model has one entry point, :meth:`CacheModel.access_spans`: a batch
of *block spans*, span ``i`` referencing the ``counts[i]`` consecutive
blocks from block ``first[i]``, in order.  A read of a byte range touches
exactly such a span (:func:`repro.memsim.alignment.blocks_per_request`),
so a step's reads are priced from one span per read, never from one id
per touched block.  :meth:`CacheModel.access` feeds a plain block-id
stream as spans of one block.  Misses are what external memory must
serve.
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from ..errors import ModelError
from ..graph.csr import is_ascending, ragged_index

__all__ = [
    "CacheStats",
    "CacheModel",
    "NoCache",
    "StepLocalCache",
    "IdealCache",
    "LRUCache",
    "make_cache",
]


@dataclass
class CacheStats:
    """Running hit/miss counters for a cache model."""

    hits: int = 0
    misses: int = 0

    @property
    def references(self) -> int:
        """Total block references seen."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits / references (0.0 when nothing was referenced)."""
        return self.hits / self.references if self.references else 0.0


def _by_first(first: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The spans ``(first, counts)`` ordered by ``first``.

    A step's spans are usually ascending already (a sorted frontier over
    ascending CSR sublists); only others sort.  The sort is stable, so
    two ascending halves merge in one linear pass.
    """
    if is_ascending(first):
        return first, counts
    order = np.argsort(first, kind="stable")
    return first[order], counts[order]


class CacheModel(ABC):
    """Interface: feed block spans (or block-id streams), count misses."""

    def __init__(self) -> None:
        self.stats = CacheStats()

    @abstractmethod
    def access_spans(self, first: np.ndarray, counts: np.ndarray) -> int:
        """Reference ``counts[i]`` blocks from ``first[i]``, span by span.

        The references are processed in order, block ``first[i]`` up to
        ``first[i] + counts[i] - 1`` for each span in turn; zero counts
        reference nothing.  Returns the number of misses.
        """

    def access(self, block_ids: np.ndarray) -> int:
        """Process block references in order; return the number of misses."""
        block_ids = np.asarray(block_ids, dtype=np.int64).ravel()
        return self.access_spans(block_ids, np.ones(block_ids.size, dtype=np.int64))

    @abstractmethod
    def reset(self) -> None:
        """Drop all cached state and zero the statistics."""

    def config(self) -> dict[str, int]:
        """The settings that fix this model's behaviour from a reset.

        Never its state: two caches with equal class and config give
        the same misses for the same stream after :meth:`reset`, which is
        what evaluation caching keys on.  Subclasses with settings
        override it.
        """
        return {}

    def clone_empty(self) -> "CacheModel":
        """A fresh cache of the same configuration (for sweep reuse)."""
        fresh = type(self).__new__(type(self))
        fresh.__dict__.update(self.__dict__)
        fresh.reset()
        return fresh

    def _count(self, references: int, misses: int) -> int:
        self.stats.misses += misses
        self.stats.hits += references - misses
        return misses


class NoCache(CacheModel):
    """Every reference misses: models direct device access without caching."""

    def access_spans(self, first: np.ndarray, counts: np.ndarray) -> int:
        references = int(np.sum(counts, dtype=np.int64))
        return self._count(references, references)

    def reset(self) -> None:
        self.stats = CacheStats()


class StepLocalCache(CacheModel):
    """Within-batch sharing only: one miss per distinct block per call.

    Callers feed one traversal step per call, so blocks are deduplicated
    within a step (massively parallel requests of the same step hit each
    other's fetches) but nothing survives to the next step.  This is the
    paper's software-cache behaviour in the regime it reports — per-step
    working sets far exceed realistic cache capacities, so cross-step
    reuse is lost to eviction.

    The misses are the size of the union of the step's block intervals
    ``[first, last]``, ``last = first + count - 1``.  Ordered by
    ``first``, the blocks earlier intervals cover at or above ``first_i``
    are exactly those up to their ``reach``, the running maximum of
    ``last``; so interval ``i`` adds ``min(count_i, last_i - reach_{i-1})``
    new blocks, or none when that is negative.  An empty interval adds
    nothing and never lifts the reach over a block a later one holds.
    """

    def access_spans(self, first: np.ndarray, counts: np.ndarray) -> int:
        first = np.asarray(first, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        if first.size == 0:
            return 0
        first, counts = _by_first(first, counts)
        last = first + (counts - 1)
        reach = np.maximum.accumulate(last)
        fresh = np.minimum(counts[1:], last[1:] - reach[:-1])
        misses = int(counts[0]) + int(np.maximum(fresh, 0, out=fresh).sum())
        return self._count(int(counts.sum()), misses)

    def reset(self) -> None:
        self.stats = CacheStats()


class IdealCache(CacheModel):
    """Infinite cache: each distinct block misses exactly once.

    The seen set is held as sorted, disjoint, non-adjacent runs of blocks
    (``_lo``: first block, ``_len``: length) and their total size, so it
    grows with the number of gaps in what was read, not with the highest
    block id.  A call merges its non-empty spans into the runs, and its
    misses are how much the set grew: each block of the call that was not
    yet seen joins the set once.  Ordered by first block, a span opens a
    new run exactly when it starts past ``reach + 1``, where ``reach`` is
    the running maximum of the span ends; a run ends at the reach of its
    last span.
    """

    def __init__(self) -> None:
        super().__init__()
        self._clear()

    def _clear(self) -> None:
        self._lo = np.zeros(0, dtype=np.int64)
        self._len = np.zeros(0, dtype=np.int64)
        self._size = 0

    def access_spans(self, first: np.ndarray, counts: np.ndarray) -> int:
        first = np.asarray(first, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        references = int(counts.sum())
        if references == 0:
            return 0
        keep = counts > 0
        if not keep.all():
            first, counts = first[keep], counts[keep]
        if first.min() < 0:
            raise ModelError(f"negative block id {first.min()} in cache access")
        first, counts = _by_first(
            np.concatenate([self._lo, first]), np.concatenate([self._len, counts])
        )
        reach = np.maximum.accumulate(first + (counts - 1))
        opens = np.empty(first.size, dtype=bool)
        opens[0] = True
        np.greater(first[1:], reach[:-1] + 1, out=opens[1:])
        heads = np.flatnonzero(opens)
        self._lo = first[heads]
        self._len = reach[np.append(heads[1:] - 1, first.size - 1)] - self._lo + 1
        size, self._size = self._size, int(self._len.sum())
        return self._count(references, self._size - size)

    def reset(self) -> None:
        self.stats = CacheStats()
        self._clear()


class LRUCache(CacheModel):
    """Exact fully-associative LRU over ``capacity_blocks`` blocks.

    Exactness matters here — the paper validates its RAF simulation
    against BaM's hardware measurements, so approximate caches would
    undermine the Figure 3 reproduction.  Recency is per block, so the
    spans are expanded to their block-id stream
    (:func:`~repro.graph.csr.ragged_index`) and walked in order.

    Implemented as a last-access-tick dict plus a lazy-deletion min-heap
    of ``(tick, block)`` entries: a hit just bumps the block's tick (no
    reordering work), and an eviction pops heap entries until one matches
    the block's current tick — that block is the true LRU victim.  Stale
    entries are discarded as they surface, so each reference does O(1)
    amortised dict work plus O(log k) heap work, with none of the
    delete-and-reinsert churn of an ordered-dict LRU list.  The heap is
    built lazily at the *first* eviction (heapify of the live ticks):
    until the cache fills, and forever for caches that never fill (the
    UVM path models its page cache as an LRU with effectively unbounded
    capacity), every access is plain O(1) dict work with no heap memory.
    """

    def __init__(self, capacity_blocks: int) -> None:
        super().__init__()
        if capacity_blocks < 1:
            raise ModelError(f"cache capacity must be >= 1 block, got {capacity_blocks}")
        self.capacity_blocks = int(capacity_blocks)
        self._tick_of: dict[int, int] = {}
        self._heap: list[tuple[int, int]] | None = None
        self._tick = 0

    def access_spans(self, first: np.ndarray, counts: np.ndarray) -> int:
        block_ids = ragged_index(first, counts)
        tick_of = self._tick_of
        heap = self._heap
        push = heapq.heappush
        pop = heapq.heappop
        capacity = self.capacity_blocks
        tick = self._tick
        misses = 0
        for block in block_ids.tolist():
            tick += 1
            if block in tick_of:
                tick_of[block] = tick
            else:
                misses += 1
                if len(tick_of) >= capacity:
                    if heap is None:
                        # First eviction: build the heap from live ticks.
                        heap = [(t, b) for b, t in tick_of.items()]
                        heapq.heapify(heap)
                        self._heap = heap
                    # Pop until a live entry surfaces: the LRU victim.
                    while True:
                        t, victim = pop(heap)
                        if tick_of.get(victim) == t:
                            del tick_of[victim]
                            break
                tick_of[block] = tick
            if heap is not None:
                push(heap, (tick, block))
        self._tick = tick
        return self._count(block_ids.size, misses)

    def config(self) -> dict[str, int]:
        return {"capacity_blocks": self.capacity_blocks}

    def reset(self) -> None:
        self.stats = CacheStats()
        self._tick_of = {}
        self._heap = None
        self._tick = 0

    @property
    def occupancy(self) -> int:
        """Blocks currently resident."""
        return len(self._tick_of)


def make_cache(
    kind: str, *, capacity_bytes: int | None = None, block_bytes: int | None = None
) -> CacheModel:
    """Factory: ``"none"``, ``"step"``, ``"ideal"``, or ``"lru"``.

    LRU requires ``capacity_bytes`` and ``block_bytes``; capacity is
    rounded down to whole blocks (minimum one).
    """
    kind = kind.lower()
    if kind == "none":
        return NoCache()
    if kind == "step":
        return StepLocalCache()
    if kind == "ideal":
        return IdealCache()
    if kind == "lru":
        if capacity_bytes is None or block_bytes is None:
            raise ModelError("lru cache requires capacity_bytes and block_bytes")
        if block_bytes < 1:
            raise ModelError(f"block_bytes must be >= 1, got {block_bytes}")
        return LRUCache(max(1, capacity_bytes // block_bytes))
    raise ModelError(f"unknown cache kind {kind!r} (expected none/step/ideal/lru)")

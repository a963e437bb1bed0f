"""GPU memory-coalescing model — the source of EMOGI's transfer sizes.

EMOGI's zero-copy reads are issued "at a multiple of 32 B up to the GPU's
hardware cache line size of 128 B" (Section 3.3.1): each edge sublist is
read by warp lanes as 32 B sectors, and the hardware merges the sectors a
warp touches within one 128 B cache line into a single PCIe read.  A
contiguous sublist therefore becomes, per 128 B line it overlaps, one
transaction of 32, 64, 96, or 128 bytes.

The paper assumes the resulting distribution is 20/20/20/40 % for
32/64/96/128 B (average ``d_EMOGI = 89.6 B``); :func:`coalesce_trace` lets
us *measure* that distribution for our workloads instead of assuming it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from ..config import GPU_CACHE_LINE_BYTES, GPU_SECTOR_BYTES
from ..errors import ModelError
from ..traversal.trace import TraceStep
from .alignment import direct_requests, expand_to_blocks

__all__ = [
    "CoalesceResult",
    "coalesce_step",
    "coalesced_sizes",
    "coalesce_trace",
    "transfer_size_distribution",
]


@dataclass(frozen=True)
class CoalesceResult:
    """Coalesced-transaction summary of a trace or step.

    ``size_counts`` maps transaction size (bytes) to occurrence count.
    """

    size_counts: Mapping[int, int]

    @property
    def transactions(self) -> int:
        """Total coalesced PCIe transactions."""
        return sum(self.size_counts.values())

    @property
    def total_bytes(self) -> int:
        """Total bytes moved (the 32 B-aligned fetch volume)."""
        return sum(size * count for size, count in self.size_counts.items())

    @property
    def avg_transfer_bytes(self) -> float:
        """Average transaction size — the workload's measured ``d_EMOGI``."""
        return self.total_bytes / self.transactions if self.transactions else 0.0

    def distribution(self) -> dict[int, float]:
        """Transaction-size distribution as fractions summing to 1."""
        total = self.transactions
        if total == 0:
            return {}
        return {size: count / total for size, count in sorted(self.size_counts.items())}


def coalesced_sizes(
    starts: np.ndarray,
    lengths: np.ndarray,
    sector_bytes: int = GPU_SECTOR_BYTES,
    line_bytes: int = GPU_CACHE_LINE_BYTES,
) -> np.ndarray:
    """The zero-copy discipline: one transaction size per (read, line) piece.

    Each read's sector-aligned span is chopped at cache-line boundaries;
    the piece inside each line is one transaction (its size is the number
    of touched sectors times ``sector_bytes``).  Reads are independent —
    coalescing happens within a warp's access, not across frontier
    vertices.  Empty reads yield no transaction.
    """
    if sector_bytes < 1 or line_bytes < 1 or line_bytes % sector_bytes != 0:
        raise ModelError(
            f"cache line {line_bytes} must be a positive multiple of "
            f"sector {sector_bytes}"
        )
    a_starts, a_lengths = direct_requests(starts, lengths, sector_bytes)
    line_ids, request_idx = expand_to_blocks(a_starts, a_lengths, line_bytes)
    line_start = line_ids * line_bytes
    req_start = a_starts[request_idx]
    req_end = req_start + a_lengths[request_idx]
    return np.minimum(req_end, line_start + line_bytes) - np.maximum(
        req_start, line_start
    )


def coalesce_step(
    step: TraceStep,
    *,
    sector_bytes: int = GPU_SECTOR_BYTES,
    line_bytes: int = GPU_CACHE_LINE_BYTES,
) -> CoalesceResult:
    """Histogram of one step's :func:`coalesced_sizes`."""
    return coalesce_trace((step,), sector_bytes=sector_bytes, line_bytes=line_bytes)


def coalesce_trace(
    trace: Iterable[TraceStep],
    *,
    sector_bytes: int = GPU_SECTOR_BYTES,
    line_bytes: int = GPU_CACHE_LINE_BYTES,
) -> CoalesceResult:
    """Histogram of :func:`coalesced_sizes` over every step of ``trace``."""
    merged: Counter[int] = Counter()
    for step in trace:
        sizes, counts = np.unique(
            coalesced_sizes(step.starts, step.lengths, sector_bytes, line_bytes),
            return_counts=True,
        )
        merged.update(dict(zip(sizes.tolist(), counts.tolist())))
    return CoalesceResult(size_counts=dict(merged))


def transfer_size_distribution(distribution: Mapping[int, float]) -> float:
    """Average transfer size of a size->fraction distribution.

    ``transfer_size_distribution(EMOGI_TRANSFER_DISTRIBUTION)`` reproduces
    the paper's ``d_EMOGI = 89.6`` computation verbatim.
    """
    total = sum(distribution.values())
    if not np.isclose(total, 1.0, atol=1e-9):
        raise ModelError(f"distribution fractions must sum to 1, got {total}")
    if any(size <= 0 for size in distribution):
        raise ModelError("transfer sizes must be positive")
    return float(sum(size * frac for size, frac in distribution.items()))

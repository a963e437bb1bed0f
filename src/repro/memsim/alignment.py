"""Address-alignment arithmetic (Section 3.1, Figure 2).

External memory is accessed in units of an alignment size ``a``: a read of
``length`` bytes at ``start`` actually fetches the aligned span
``[align_down(start), align_up(start + length))``.  Everything here is
vectorized over request arrays.
"""

from __future__ import annotations

import numpy as np

from ..errors import ModelError
from ..graph.csr import ragged_index

__all__ = [
    "align_down",
    "align_up",
    "aligned_span",
    "blocks_per_request",
    "direct_requests",
    "expand_to_blocks",
    "split_by_max_transfer",
]


def _check_alignment(alignment: int) -> int:
    if not isinstance(alignment, (int, np.integer)) or alignment < 1:
        raise ModelError(f"alignment must be a positive int, got {alignment!r}")
    return int(alignment)


def align_down(offsets: np.ndarray | int, alignment: int) -> np.ndarray | int:
    """Largest multiple of ``alignment`` not exceeding each offset."""
    alignment = _check_alignment(alignment)
    if np.isscalar(offsets):
        return (int(offsets) // alignment) * alignment
    offsets = np.asarray(offsets, dtype=np.int64)
    return (offsets // alignment) * alignment


def align_up(offsets: np.ndarray | int, alignment: int) -> np.ndarray | int:
    """Smallest multiple of ``alignment`` not below each offset."""
    alignment = _check_alignment(alignment)
    if np.isscalar(offsets):
        return -(-int(offsets) // alignment) * alignment
    offsets = np.asarray(offsets, dtype=np.int64)
    return -(-offsets // alignment) * alignment


def aligned_span(
    starts: np.ndarray, lengths: np.ndarray, alignment: int
) -> tuple[np.ndarray, np.ndarray]:
    """Aligned ``(starts, lengths)`` covering each request.

    Zero-length requests stay zero-length (they fetch nothing).
    This is the *direct access* amplification: the 3a-byte fetch of
    Figure 2's example, with no cross-request sharing.
    """
    alignment = _check_alignment(alignment)
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if starts.shape != lengths.shape:
        raise ModelError("starts and lengths must have the same shape")
    if lengths.size and lengths.min() < 0:
        raise ModelError("request lengths must be non-negative")
    a_starts = align_down(starts, alignment)
    ends = align_up(starts + lengths, alignment)
    a_lengths = np.where(lengths > 0, ends - a_starts, 0)
    return a_starts, a_lengths


def blocks_per_request(
    starts: np.ndarray, lengths: np.ndarray, alignment: int
) -> np.ndarray:
    """Number of alignment-sized blocks each request touches."""
    _, a_lengths = aligned_span(starts, lengths, alignment)
    return a_lengths // alignment


def expand_to_blocks(
    starts: np.ndarray, lengths: np.ndarray, alignment: int
) -> tuple[np.ndarray, np.ndarray]:
    """Flatten requests into their touched block IDs, in request order.

    Returns ``(block_ids, request_idx)`` where ``block_ids[k]`` is the
    ``k``-th block reference of the access stream and ``request_idx[k]``
    identifies the originating request.  This is the reference stream fed
    to cache models.
    """
    alignment = _check_alignment(alignment)
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    counts = blocks_per_request(starts, lengths, alignment)
    block_ids = ragged_index(starts // alignment, counts)
    request_idx = np.repeat(np.arange(starts.size, dtype=np.int64), counts)
    return block_ids, request_idx


def split_by_max_transfer(
    starts: np.ndarray, lengths: np.ndarray, max_transfer: int
) -> tuple[np.ndarray, np.ndarray]:
    """Split requests larger than ``max_transfer`` into back-to-back pieces.

    Models device transfer-size ceilings (XLFDD's 2 kB, the GPU's 128 B
    cache line).  Zero-length requests are dropped.
    """
    max_transfer = _check_alignment(max_transfer)
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    keep = lengths > 0
    starts, lengths = starts[keep], lengths[keep]
    pieces = -(-lengths // max_transfer)
    request_idx = np.repeat(np.arange(starts.size, dtype=np.int64), pieces)
    rank = ragged_index(np.zeros_like(pieces), pieces)
    sub_starts = starts[request_idx] + rank * max_transfer
    remaining = lengths[request_idx] - rank * max_transfer
    sub_lengths = np.minimum(remaining, max_transfer)
    return sub_starts, sub_lengths


def direct_requests(
    starts: np.ndarray,
    lengths: np.ndarray,
    alignment: int,
    max_transfer: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The direct-access discipline: ``(starts, sizes)`` of the device requests.

    Each read's aligned span, split at ``max_transfer`` (``None``: no
    ceiling), with empty reads dropped — XLFDD sublist reads, GPU sector
    spans and CXL flits alike.
    """
    alignment = _check_alignment(alignment)
    if max_transfer is not None and (max_transfer < 1 or max_transfer % alignment):
        raise ModelError(
            f"max_transfer {max_transfer} must be a positive multiple of "
            f"alignment {alignment}"
        )
    a_starts, a_lengths = aligned_span(starts, lengths, alignment)
    if max_transfer is None:
        keep = a_lengths > 0
        return a_starts[keep], a_lengths[keep]
    return split_by_max_transfer(a_starts, a_lengths, max_transfer)

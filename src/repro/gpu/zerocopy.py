"""EMOGI's zero-copy access method (Section 3.3.1).

Edge sublists are read directly from external memory with ordinary
load instructions: the GPU fetches 32 B sectors and merges the sectors a
warp touches within one 128 B cache line into a single transaction, so
requests are 32/64/96/128 B.  The paper's measured mix averages
``d_EMOGI = 89.6 B``; this implementation *derives* the traffic from the
actual sublist geometry rather than assuming the mix: a read's
sector-aligned span ``[s, s + l)`` is one transaction per 128 B line it
overlaps, so it costs ``last - first + 1`` requests and ``l`` bytes,
where ``first``/``last`` are the lines holding its first and last byte
(:func:`repro.memsim.coalesce.coalesced_sizes` lists the same
transactions one by one).

For CXL targets the same GPU code runs unchanged — only the device-side
accounting differs (each transaction splits into 64 B flits), which is
captured by ``device_flit_bytes``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import CXL_FLIT_BYTES, GPU_CACHE_LINE_BYTES, GPU_SECTOR_BYTES
from ..errors import ModelError
from ..memsim.alignment import aligned_span
from ..sim.fluid import StepInput
from .base import AccessMethod

__all__ = ["ZeroCopyMethod"]


@dataclass
class ZeroCopyMethod(AccessMethod):
    """Zero-copy (EMOGI) access.

    Parameters
    ----------
    device_flit_bytes:
        ``None`` for host DRAM; :data:`~repro.config.CXL_FLIT_BYTES` when
        the target is CXL memory (requests split device-side).
    sector_bytes / line_bytes:
        GPU geometry; defaults are the paper's 32 B / 128 B.
    """

    device_flit_bytes: int | None = None
    sector_bytes: int = GPU_SECTOR_BYTES
    line_bytes: int = GPU_CACHE_LINE_BYTES

    def __post_init__(self) -> None:
        sector, line = self.sector_bytes, self.line_bytes
        if min(sector, line) < 1 or line % sector:
            raise ModelError("line size must be a positive multiple of the sector size")
        if self.device_flit_bytes is not None and self.device_flit_bytes < 1:
            raise ModelError("device_flit_bytes must be >= 1 or None")
        self.name = "emogi-cxl" if self.device_flit_bytes else "emogi"

    @classmethod
    def for_cxl(cls) -> "ZeroCopyMethod":
        """Zero-copy against CXL memory (64 B flit accounting)."""
        return cls(device_flit_bytes=CXL_FLIT_BYTES)

    def step_input(self, starts: np.ndarray, lengths: np.ndarray) -> StepInput:
        spans, sizes = aligned_span(starts, lengths, self.sector_bytes)
        keep = sizes > 0
        spans, sizes = spans[keep], sizes[keep]
        line = self.line_bytes
        first, last = spans // line, (spans + sizes - 1) // line
        lines = last - first + 1
        requests, link_bytes = int(lines.sum()), int(sizes.sum())
        flit = self.device_flit_bytes
        if flit is None:
            return StepInput(requests, link_bytes, requests, link_bytes)
        # A one-line read is one piece; a longer one splits into a head
        # and a tail piece plus whole interior lines, each piece rounded
        # up to whole flits.
        head = (first + 1) * line - spans
        tail = spans + sizes - last * line
        pieces = -(-head // flit) + -(-tail // flit) + (lines - 2) * -(-line // flit)
        ops = int(np.where(lines > 1, pieces, -(-sizes // flit)).sum())
        return StepInput(requests, link_bytes, ops, ops * flit)

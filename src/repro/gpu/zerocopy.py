"""EMOGI's zero-copy access method (Section 3.3.1).

Edge sublists are read directly from external memory with ordinary
load instructions: the GPU fetches 32 B sectors and merges the sectors a
warp touches within one 128 B cache line into a single transaction, so
requests are 32/64/96/128 B.  The paper's measured mix averages
``d_EMOGI = 89.6 B``; this implementation *derives* the sizes from the
actual sublist geometry via :mod:`repro.memsim.coalesce` rather than
assuming the mix.

For CXL targets the same GPU code runs unchanged — only the device-side
accounting differs (each transaction splits into 64 B flits), which is
captured by ``device_flit_bytes``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import CXL_FLIT_BYTES, GPU_CACHE_LINE_BYTES, GPU_SECTOR_BYTES
from ..errors import ModelError
from ..memsim.coalesce import coalesced_sizes
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

    def request_sizes(self, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        return coalesced_sizes(starts, lengths, self.sector_bytes, self.line_bytes)

"""BaM's GPU-initiated storage access method (Section 3.3.2).

BaM places NVMe submission queues and data buffers in GPU memory and has
GPU threads drive the drives directly, reading through a software cache
at cache-line granularity: every external read is exactly one cache line
(``d = a``).  Misses are what reach the drives.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import BAM_CACHELINE_BYTES
from ..errors import ModelError
from ..memsim.cache import CacheModel, StepLocalCache
from ..sim.fluid import StepInput
from .base import AccessMethod

__all__ = ["BaMMethod"]


@dataclass
class BaMMethod(AccessMethod):
    """BaM-style cached storage access.

    Parameters
    ----------
    cacheline_bytes:
        Software cache line = transfer size = alignment (4 kB in the
        paper's BaM runs; Figure 5 also shows 512 B).
    cache:
        Cache model the reads go through; defaults to a fresh
        :class:`StepLocalCache` (see :mod:`repro.memsim.cache` for why
        that is the operative regime), pass an ``LRUCache`` for explicit
        capacity studies.
    """

    cacheline_bytes: int = BAM_CACHELINE_BYTES
    cache: CacheModel = field(default_factory=StepLocalCache)

    def __post_init__(self) -> None:
        if self.cacheline_bytes < 1:
            raise ModelError("cacheline_bytes must be >= 1")
        self.name = f"bam-{self.cacheline_bytes}B"

    def step_input(self, starts: np.ndarray, lengths: np.ndarray) -> StepInput:
        return self._cache_line_step(starts, lengths, self.cacheline_bytes, self.cache)

"""Unified-virtual-memory (UVM) baseline access method.

The pre-EMOGI way to exceed GPU memory (related work, Section 6): the
host DRAM is mapped into the GPU's address space and pages migrate on
demand at a 4 kB granularity.  A touched byte faults in its whole page;
pages stay resident in a GPU-memory page pool until evicted (LRU).
EMOGI's zero-copy access displaced this approach precisely because
page-granular migration inflates the fetched volume for fine-grained
random access — this method exists so the repository can demonstrate
that comparison (the ``bench_ablation_uvm`` benchmark).

Modelled costs: each page fault moves ``page_bytes`` over the link and
pays a fault-handling latency far above a plain read (driver + OS
involvement), with faults per step limited by a host-side handler
concurrency rather than PCIe tags.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ModelError
from ..memsim.cache import CacheModel, LRUCache
from ..sim.fluid import StepInput
from ..units import KIB
from .base import AccessMethod

__all__ = ["UVMMethod", "UVM_PAGE_BYTES", "UVM_FAULT_LATENCY"]

#: CUDA managed-memory migration granularity (Section 6: "paging at a
#: 4 kB granularity").
UVM_PAGE_BYTES = 4 * KIB

#: Cost of one page fault round trip (GPU stall + host driver handling);
#: tens of microseconds in the UVM literature.
UVM_FAULT_LATENCY = 20e-6


@dataclass
class UVMMethod(AccessMethod):
    """Page-migration access through a GPU-resident page pool.

    Parameters
    ----------
    page_bytes:
        Migration granularity (4 kB default).
    pool_bytes:
        GPU memory dedicated to resident pages; pages evict LRU when the
        pool is full.  ``None`` models a pool large enough to hold the
        whole working set (only cold faults).
    """

    page_bytes: int = UVM_PAGE_BYTES
    pool_bytes: int | None = None
    cache: CacheModel = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.page_bytes < 1:
            raise ModelError("page_bytes must be >= 1")
        if self.pool_bytes is not None and self.pool_bytes < self.page_bytes:
            raise ModelError("pool must hold at least one page")
        self.cache = LRUCache(capacity_blocks=self.pool_pages)
        self.name = f"uvm-{self.page_bytes}B"

    @property
    def pool_pages(self) -> int:
        """Pages the pool holds; a huge LRU models ``pool_bytes=None``."""
        if self.pool_bytes is None:
            return 2**40
        return max(1, self.pool_bytes // self.page_bytes)

    def step_input(self, starts: np.ndarray, lengths: np.ndarray) -> StepInput:
        return self._cache_line_step(starts, lengths, self.page_bytes, self.cache)

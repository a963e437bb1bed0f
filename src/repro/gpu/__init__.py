"""GPU execution model and external-memory access methods.

The three access disciplines the paper studies, as trace transformers:

* :class:`ZeroCopyMethod` — EMOGI's zero-copy load/store path: 32 B
  sectors coalesced into up to 128 B transactions (Section 3.3.1); works
  against host DRAM and CXL memory unchanged, exactly as Section 4.2.1
  notes ("the same EMOGI code is used for both").
* :class:`BaMMethod` — BaM's GPU-initiated storage stack: a software
  cache in GPU memory, reads at cache-line granularity (Section 3.3.2).
* :class:`XLFDDMethod` — the paper's own driver: direct submission-queue
  access with no completion queues and no software cache, one aligned
  read per edge sublist up to 2 kB (Section 4.1.1).

Plus the warp/occupancy model bounding GPU-side concurrency (Section 3.5.2).
"""

from .base import AccessMethod, PhysicalTrace
from .zerocopy import ZeroCopyMethod
from .bam import BaMMethod
from .xlfdd_driver import XLFDDMethod
from .uvm import UVMMethod, UVM_PAGE_BYTES, UVM_FAULT_LATENCY
from .warp import GPUSpec, KernelResources, RTX_A5000, active_warps

__all__ = [
    "AccessMethod",
    "PhysicalTrace",
    "ZeroCopyMethod",
    "BaMMethod",
    "XLFDDMethod",
    "UVMMethod",
    "UVM_PAGE_BYTES",
    "UVM_FAULT_LATENCY",
    "GPUSpec",
    "KernelResources",
    "RTX_A5000",
    "active_warps",
]

"""The paper's named system configurations and the experiment runner.

Factories build the four systems of the evaluation:

* :func:`emogi_system` — EMOGI zero-copy on host DRAM (the normaliser of
  every figure);
* :func:`bam_system` — BaM on four NVMe SSDs with a 4 kB software cache;
* :func:`xlfdd_system` — the paper's direct driver on sixteen XLFDDs;
* :func:`cxl_system` — EMOGI, unchanged, on five CXL memory prototypes
  with the latency bridge set to a chosen added latency (PCIe Gen 3.0 as
  in Section 4.2.2).

:func:`run_algorithm` produces a trace; :func:`run_experiment` prices it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import CROSS_SOCKET_LATENCY, HOST_DRAM_GPU_LATENCY
from ..devices.base import DevicePool
from ..devices.cxl import cxl_memory_pool
from ..devices.dram import host_dram_device
from ..devices.nvme import bam_ssd_array
from ..devices.xlfdd import xlfdd_array
from ..errors import ModelError
from ..gpu.bam import BaMMethod
from ..gpu.uvm import UVM_FAULT_LATENCY, UVMMethod
from ..gpu.xlfdd_driver import XLFDDMethod
from ..gpu.zerocopy import ZeroCopyMethod
from ..graph.csr import CSRGraph
from ..interconnect.pcie import PCIeLink
from ..telemetry.tracer import get_tracer
from ..traversal.trace import AccessTrace
from ..units import to_mb_per_s, to_usec
from ..workloads.registry import default_source
from .runtime_model import RuntimeResult, SystemModel, predict_runtime

__all__ = [
    "ExperimentResult",
    "emogi_system",
    "bam_system",
    "xlfdd_system",
    "cxl_system",
    "flash_cxl_system",
    "uvm_system",
    "default_source",
    "run_algorithm",
    "run_experiment",
]

#: GPU-to-device path latency for storage devices (PCIe transit + the
#: lightweight doorbell/polling path; no CPU memory subsystem involved).
_STORAGE_PATH_LATENCY = 1.0e-6


def emogi_system(
    link: PCIeLink | None = None, *, remote_socket: bool = False
) -> SystemModel:
    """EMOGI on host DRAM.  ``remote_socket`` targets DRAM 0 of Figure 8."""
    link = link or PCIeLink.from_name("gen4")
    path = HOST_DRAM_GPU_LATENCY + (CROSS_SOCKET_LATENCY if remote_socket else 0.0)
    return SystemModel(
        name="emogi-dram" + ("-remote" if remote_socket else ""),
        method=ZeroCopyMethod(),
        pool=DevicePool(device=host_dram_device(), count=1),
        link=link,
        # The profile's internal DRAM latency is part of the 1.2 us the
        # paper measures, so subtract it from the path to avoid counting
        # it twice.
        path_latency=path - host_dram_device().latency,
    )


def bam_system(
    link: PCIeLink | None = None, *, cacheline_bytes: int = 4096
) -> SystemModel:
    """BaM on the 6-MIOPS NVMe array with a software cache."""
    link = link or PCIeLink.from_name("gen4")
    pool = bam_ssd_array()
    return SystemModel(
        name=f"bam-{cacheline_bytes}B",
        method=BaMMethod(cacheline_bytes=cacheline_bytes),
        pool=pool,
        link=link,
        path_latency=_STORAGE_PATH_LATENCY,
    )


def xlfdd_system(
    link: PCIeLink | None = None,
    *,
    alignment_bytes: int = 16,
    drives: int = 16,
) -> SystemModel:
    """The paper's method on the XLFDD array (alignment swept in Figure 5)."""
    link = link or PCIeLink.from_name("gen4")
    return SystemModel(
        name=f"xlfdd-{alignment_bytes}B",
        method=XLFDDMethod(alignment_bytes=alignment_bytes),
        pool=xlfdd_array(count=drives),
        link=link,
        path_latency=_STORAGE_PATH_LATENCY,
    )


def cxl_system(
    added_latency: float = 0.0,
    link: PCIeLink | None = None,
    *,
    devices: int = 5,
    local_devices: int = 1,
) -> SystemModel:
    """EMOGI on the CXL memory pool (Section 4.2's configuration).

    ``local_devices`` of the pool share the GPU's socket (CXL 3 in Figure
    8); the rest pay the cross-socket hop, so the pool's mean path latency
    is weighted accordingly.
    """
    link = link or PCIeLink.from_name("gen3")
    if devices < 1:
        raise ModelError(f"devices must be at least 1, got {devices}")
    if not 0 <= local_devices <= devices:
        raise ModelError("local_devices must be within [0, devices]")
    remote_fraction = (devices - local_devices) / devices
    path = HOST_DRAM_GPU_LATENCY + remote_fraction * CROSS_SOCKET_LATENCY
    return SystemModel(
        name=f"cxl+{to_usec(added_latency):g}us",
        method=ZeroCopyMethod.for_cxl(),
        pool=cxl_memory_pool(count=devices, added_latency=added_latency),
        link=link,
        path_latency=path,
    )


def flash_cxl_system(
    added_flash_latency: float = 4.0e-6,
    link: PCIeLink | None = None,
    *,
    devices: int = 6,
    dies_per_device: int = 128,
    device_tags: int = 1024,
) -> SystemModel:
    """The paper's conclusion scenario: CXL memory backed by flash.

    A hypothetical (but parts-level-grounded) device: XL-FLASH dies
    behind a CXL.mem front end with a generous tag budget (the paper
    expects future devices to support far more outstanding requests than
    the Agilex prototype's 128).  The GPU-observed latency becomes
    path + CXL interface + flash read — the quantity Observation 2 says
    must stay within a few microseconds.

    ``added_flash_latency`` is the flash read time (4 us for today's
    XL-FLASH; lower it to model the paper's "within reach" projection).
    """
    from ..config import CXL_BASE_ADDED_LATENCY, GPU_SECTOR_BYTES
    from ..devices.base import AccessKind, DeviceProfile
    from ..devices.flash import FlashArray, LOW_LATENCY_FLASH_DIE
    from ..interconnect.cxl_proto import gpu_visible_outstanding
    from ..units import GIB

    link = link or PCIeLink.from_name("gen4")
    if added_flash_latency <= 0:
        raise ModelError("added_flash_latency must be positive")
    die = LOW_LATENCY_FLASH_DIE
    array = FlashArray(
        die.__class__(
            name=die.name,
            read_latency=added_flash_latency,
            page_bytes=die.page_bytes,
            planes=die.planes,
        ),
        dies=dies_per_device,
        controller_latency=0.0,  # folded into the CXL base latency
    )
    profile = DeviceProfile(
        name="flash-cxl",
        kind=AccessKind.MEMORY,
        alignment_bytes=GPU_SECTOR_BYTES,
        iops=array.iops,
        latency=CXL_BASE_ADDED_LATENCY + added_flash_latency,
        internal_bandwidth=array.media_bandwidth,
        max_outstanding=gpu_visible_outstanding(device_tags, 128),
        capacity_bytes=64 * GIB,
    )
    remote_fraction = (devices - 1) / devices if devices > 1 else 0.0
    return SystemModel(
        name=f"flash-cxl+{to_usec(added_flash_latency):g}us",
        method=ZeroCopyMethod.for_cxl(),
        pool=DevicePool(device=profile, count=devices),
        link=link,
        path_latency=HOST_DRAM_GPU_LATENCY + remote_fraction * CROSS_SOCKET_LATENCY,
    )


def uvm_system(
    link: PCIeLink | None = None,
    *,
    page_bytes: int = 4096,
    pool_fraction: float | None = 0.5,
    edge_list_bytes: int | None = None,
) -> SystemModel:
    """The pre-EMOGI UVM baseline: 4 kB page migration from host DRAM.

    ``pool_fraction`` sizes the GPU page pool relative to the edge list
    (requires ``edge_list_bytes``); ``None`` gives an unbounded pool
    (cold faults only).  Fault handling involves the host driver, so the
    per-request latency is UVM_FAULT_LATENCY and concurrency is limited
    by the fault-handling pipeline rather than PCIe tags.
    """
    link = link or PCIeLink.from_name("gen4")
    if pool_fraction is None:
        method = UVMMethod(page_bytes=page_bytes, pool_bytes=None)
    else:
        if edge_list_bytes is None:
            raise ModelError("pool_fraction requires edge_list_bytes")
        if not 0 < pool_fraction:
            raise ModelError("pool_fraction must be positive")
        pool_bytes = max(page_bytes, int(edge_list_bytes * pool_fraction))
        method = UVMMethod(page_bytes=page_bytes, pool_bytes=pool_bytes)
    return SystemModel(
        name=f"uvm-{page_bytes}B",
        method=method,
        pool=DevicePool(device=host_dram_device(), count=1),
        link=link,
        path_latency=UVM_FAULT_LATENCY,
        gpu_concurrency=128,  # concurrent fault-handling contexts
    )


def run_algorithm(
    graph: CSRGraph, algorithm: str, source: int | None = None
) -> AccessTrace:
    """Run a workload by name and return its access trace.

    Dispatches through the :mod:`repro.workloads` registry (all eight
    workloads are runnable here, not just the original four).
    ``source=None`` uses :func:`default_source`.  SSSP auto-attaches
    uniform random weights when the graph is unweighted (the standard
    benchmark setup, via :meth:`~repro.workloads.Workload.prepare`).
    """
    from .. import workloads
    from ..errors import WorkloadError

    algorithm = algorithm.lower()
    try:
        workload = workloads.get(algorithm)
    except WorkloadError as exc:
        raise ModelError(
            f"unknown algorithm {algorithm!r}; available: {workloads.available()}"
        ) from exc
    if source is None:
        source = default_source(graph)
    return workload.trace(graph, source)


@dataclass(frozen=True)
class ExperimentResult:
    """One (graph, algorithm, system) measurement."""

    graph: str
    algorithm: str
    runtime_result: RuntimeResult

    @property
    def system(self) -> str:
        """System configuration name."""
        return self.runtime_result.system

    @property
    def runtime(self) -> float:
        """Predicted graph processing time in seconds."""
        return self.runtime_result.runtime

    def as_row(self) -> dict[str, float | str]:
        """Flat dict for report tables."""
        rr = self.runtime_result
        return {
            "graph": self.graph,
            "algorithm": self.algorithm,
            "system": self.system,
            "runtime_s": rr.runtime,
            "raf": rr.raf,
            "avg_transfer_B": rr.avg_transfer_bytes,
            "throughput_MBps": to_mb_per_s(rr.avg_throughput),
            "bound": rr.dominant_bound(),
        }


def run_experiment(
    graph: CSRGraph,
    algorithm: str,
    system: SystemModel,
    *,
    source: int | None = None,
    trace: AccessTrace | None = None,
) -> ExperimentResult:
    """Run ``algorithm`` on ``graph`` and price it on ``system``.

    Pass a precomputed ``trace`` to amortise the traversal across several
    systems (the usual pattern in sweeps — the paper's figures all compare
    systems on identical workloads).
    """
    with get_tracer().span(
        "experiment.run",
        graph=graph.name,
        algorithm=algorithm,
        system=system.name,
    ):
        if trace is None:
            trace = run_algorithm(graph, algorithm, source)
        return ExperimentResult(
            graph=graph.name,
            algorithm=algorithm,
            runtime_result=predict_runtime(trace, system),
        )

"""Section 3.3's study of the existing methods, and Figure 4's curves.

:func:`analyze_emogi` and :func:`analyze_bam` reproduce the paper's
back-of-envelope characterisations (does EMOGI's 89.6 B transfer saturate
the link? what cache-line size should BaM pick?);
:func:`runtime_vs_transfer_size` produces Figure 4's three series — total
data ``D(d)``, throughput ``T(d)``, runtime ``t(d) = D/T`` — from a
measured RAF curve and a throughput model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..config import EMOGI_AVG_TRANSFER_BYTES, GPU_SECTOR_BYTES, HOST_DRAM_GPU_LATENCY
from ..errors import ModelError
from ..graph.csr import sorted_unique
from ..interconnect.pcie import PCIeLink, PCIE_GEN4
from ..memsim.raf import RAFResult
from ..units import MIOPS
from .equations import ThroughputModel

__all__ = [
    "MethodAnalysis",
    "analyze_emogi",
    "analyze_bam",
    "interpolate_fetched_bytes",
    "runtime_vs_transfer_size",
]


@dataclass(frozen=True)
class MethodAnalysis:
    """Summary of one method's operating point (Section 3.3)."""

    method: str
    alignment_bytes: int
    transfer_bytes: float
    slope: float
    saturates_link: bool
    optimal_transfer_bytes: float
    notes: str


def analyze_emogi(
    link: PCIeLink | None = None,
    *,
    transfer_bytes: float = EMOGI_AVG_TRANSFER_BYTES,
    latency: float = HOST_DRAM_GPU_LATENCY,
) -> MethodAnalysis:
    """Section 3.3.1: EMOGI saturates the link with ~90 B transfers.

    With L = 1.2 us, ``s d = (768 / 1.2 us) * 89.6 B ~= 57,300 MB/s > W``.
    """
    if link is None:
        link = PCIeLink(PCIE_GEN4)
    model = ThroughputModel(
        iops=1e12,  # host DRAM: effectively unlimited (Section 3.3.1)
        latency=latency,
        bandwidth=link.effective_bandwidth,
        outstanding=link.max_outstanding_reads,
    )
    return MethodAnalysis(
        method="emogi",
        alignment_bytes=GPU_SECTOR_BYTES,
        transfer_bytes=transfer_bytes,
        slope=model.slope,
        saturates_link=model.saturates(transfer_bytes),
        optimal_transfer_bytes=model.optimal_transfer_size(),
        notes="latency-limited slope; 32 B alignment near-optimal for RAF",
    )


def analyze_bam(
    link: PCIeLink | None = None,
    *,
    aggregate_iops: float = 6 * MIOPS,
    latency: float = 10e-6,
) -> MethodAnalysis:
    """Section 3.3.2: BaM's IOPS forces a ~4 kB cache line.

    Storage access is not PCIe-tag limited, so the slope is S itself and
    ``d_opt = W / S = 24,000 MB/s / 6 MIOPS ~= 4 kB``.
    """
    if link is None:
        link = PCIeLink(PCIE_GEN4)
    model = ThroughputModel(
        iops=aggregate_iops,
        latency=latency,
        bandwidth=link.effective_bandwidth,
        outstanding=None,
    )
    d_opt = model.optimal_transfer_size()
    return MethodAnalysis(
        method="bam",
        alignment_bytes=int(d_opt),
        transfer_bytes=d_opt,
        slope=model.slope,
        saturates_link=model.saturates(d_opt),
        optimal_transfer_bytes=d_opt,
        notes="IOPS-limited slope; large cache line required to saturate",
    )


def interpolate_fetched_bytes(
    raf_results: Sequence[RAFResult],
) -> tuple[np.ndarray, np.ndarray]:
    """Measured ``(alignments, fetched_bytes)`` arrays, sorted by alignment.

    Figure 4's ``D`` curve "smoothly interpolates the data points taken
    from BFS" — callers interpolate between these points (log-linear is
    what :func:`runtime_vs_transfer_size` uses).
    """
    if not raf_results:
        raise ModelError("need at least one RAF result")
    pairs = sorted((r.alignment, r.fetched_bytes) for r in raf_results)
    alignments = np.array([p[0] for p in pairs], dtype=np.float64)
    fetched = np.array([p[1] for p in pairs], dtype=np.float64)
    if sorted_unique(alignments).size != alignments.size:
        raise ModelError("duplicate alignments in RAF results")
    return alignments, fetched


def runtime_vs_transfer_size(
    raf_results: Sequence[RAFResult],
    model: ThroughputModel,
    transfer_sizes: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """Figure 4's series: D(d), T(d), and t(d) = D/T for BaM-style access.

    BaM reads at cache-line granularity so ``d = a``: the fetched-bytes
    curve is indexed directly by transfer size (log-linear interpolation
    between measured RAF points).  Returns a dict of numpy arrays keyed
    ``transfer_bytes``, ``fetched_bytes``, ``throughput``, ``runtime``.
    """
    alignments, fetched = interpolate_fetched_bytes(raf_results)
    if transfer_sizes is None:
        transfer_sizes = np.geomspace(alignments[0], alignments[-1], num=64)
    transfer_sizes = np.asarray(transfer_sizes, dtype=np.float64)
    if transfer_sizes.min() <= 0:
        raise ModelError("transfer sizes must be positive")
    d_bytes = np.interp(np.log2(transfer_sizes), np.log2(alignments), fetched)
    throughput = model.throughput(transfer_sizes)
    return {
        "transfer_bytes": transfer_sizes,
        "fetched_bytes": d_bytes,
        "throughput": np.asarray(throughput),
        "runtime": d_bytes / np.asarray(throughput),
    }

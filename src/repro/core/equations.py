"""Equations 1-5 of the paper, implemented verbatim.

* Equation 1: ``t = D / T`` — runtime is total fetched data over throughput.
* Equation 2: ``T = min{S d, (N_max / L) d, W}`` — device IOPS, Little's
  law on outstanding PCIe requests, and link bandwidth.
* Equation 3: Little's law ``N d = T L`` — conversions between
  concurrency, transfer size, throughput and latency, used in Figure 10's
  derivation of the prototype's outstanding request count.
* Equation 5: the slope ``s = min{S, N_max / L}`` of the linear region.
* The optimal transfer size of Section 3.3.2: the smallest ``d`` that
  saturates the link, ``d_opt = W / s``.

Equation 4's worked example (S = 100 MIOPS, L = 16 us, Gen 4.0) is
provided by :func:`example_throughput_model`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ModelError
from ..interconnect.pcie import PCIeLink, PCIE_GEN4
from ..units import MIOPS, USEC

__all__ = [
    "ThroughputModel",
    "runtime",
    "throughput",
    "throughput_slope",
    "optimal_transfer_size",
    "example_throughput_model",
    "throughput_cap",
    "concurrency_for",
    "latency_for",
    "little_throughput_profile",
]


def runtime(total_bytes: float, throughput_bytes_per_s: float) -> float:
    """Equation 1: ``t = D / T``."""
    if total_bytes < 0:
        raise ModelError(f"total bytes must be >= 0, got {total_bytes}")
    if throughput_bytes_per_s <= 0:
        raise ModelError(f"throughput must be positive, got {throughput_bytes_per_s}")
    return total_bytes / throughput_bytes_per_s


@dataclass(frozen=True)
class ThroughputModel:
    """Equation 2 as an object: ``T(d) = min{S d, (N/L) d, W}``.

    ``outstanding=None`` drops the Little's-law term — the storage case,
    where the queue depth far exceeds anything that binds (Section 3.2).
    """

    iops: float
    latency: float
    bandwidth: float
    outstanding: int | None

    def __post_init__(self) -> None:
        if self.iops <= 0 or self.latency <= 0 or self.bandwidth <= 0:
            raise ModelError("iops, latency and bandwidth must be positive")
        if self.outstanding is not None and self.outstanding < 1:
            raise ModelError("outstanding must be >= 1 or None")

    @property
    def slope(self) -> float:
        """Equation 5: ``s = min{S, N_max / L}`` (bytes/s per byte of d)."""
        if self.outstanding is None:
            return self.iops
        return min(self.iops, self.outstanding / self.latency)

    def throughput(self, transfer_bytes: np.ndarray | float) -> np.ndarray | float:
        """Equation 2 evaluated at one or many transfer sizes."""
        d = np.asarray(transfer_bytes, dtype=np.float64)
        if d.size and d.min() <= 0:
            raise ModelError("transfer sizes must be positive")
        result = np.minimum(self.slope * d, self.bandwidth)
        return float(result) if np.isscalar(transfer_bytes) else result

    def optimal_transfer_size(self) -> float:
        """Smallest ``d`` that saturates the link: ``d_opt = W / s``.

        Section 3.3.2 derives BaM's 4 kB cache line this way:
        ``24,000 MB/s / 6 MIOPS ~= 4 kB``.
        """
        return self.bandwidth / self.slope

    def saturates(self, transfer_bytes: float) -> bool:
        """Whether ``d`` reaches the bandwidth plateau (``s d >= W``).

        Uses a tiny relative tolerance so that ``saturates(W / s)`` is true
        despite floating-point rounding.
        """
        if transfer_bytes <= 0:
            raise ModelError("transfer size must be positive")
        return self.slope * transfer_bytes >= self.bandwidth * (1 - 1e-12)


def throughput(
    transfer_bytes: np.ndarray | float,
    iops: float,
    latency: float,
    bandwidth: float,
    outstanding: int | None,
) -> np.ndarray | float:
    """Functional form of Equation 2 (see :class:`ThroughputModel`)."""
    model = ThroughputModel(
        iops=iops, latency=latency, bandwidth=bandwidth, outstanding=outstanding
    )
    return model.throughput(transfer_bytes)


def throughput_slope(iops: float, latency: float, outstanding: int | None) -> float:
    """Equation 5 as a function."""
    bandwidth_placeholder = 1.0  # slope does not involve W
    model = ThroughputModel(
        iops=iops,
        latency=latency,
        bandwidth=bandwidth_placeholder,
        outstanding=outstanding,
    )
    return model.slope


def optimal_transfer_size(
    iops: float, latency: float, bandwidth: float, outstanding: int | None
) -> float:
    """``d_opt = W / s`` as a function."""
    model = ThroughputModel(
        iops=iops, latency=latency, bandwidth=bandwidth, outstanding=outstanding
    )
    return model.optimal_transfer_size()


def example_throughput_model(link: PCIeLink | None = None) -> ThroughputModel:
    """Equation 4's example: S = 100 MIOPS, L = 16 us on a Gen 4.0 x16 link.

    The resulting profile is ``T = min{100 d, 48 d, 24,000 MB/s}`` with the
    slope limited to 48 by Little's law — the bottom dotted line of Figure 4.
    """
    if link is None:
        link = PCIeLink(PCIE_GEN4)
    return ThroughputModel(
        iops=100 * MIOPS,
        latency=16 * USEC,
        bandwidth=link.effective_bandwidth,
        outstanding=link.max_outstanding_reads,
    )


def _positive(**values: float) -> None:
    for name, value in values.items():
        if not value > 0:
            raise ModelError(f"{name} must be positive, got {value}")


def throughput_cap(outstanding: int, transfer_bytes: float, latency: float) -> float:
    """Max throughput with ``outstanding`` in-flight requests: ``N d / L``."""
    _positive(outstanding=outstanding, transfer_bytes=transfer_bytes, latency=latency)
    return outstanding * transfer_bytes / latency


def concurrency_for(
    throughput: float, transfer_bytes: float, latency: float
) -> float:
    """Concurrency implied by an observed throughput: ``N = T L / d``.

    This is how Figure 10 infers the Agilex prototype's 128-request limit
    from its measured bandwidth.
    """
    _positive(throughput=throughput, transfer_bytes=transfer_bytes, latency=latency)
    return throughput * latency / transfer_bytes


def latency_for(throughput: float, transfer_bytes: float, outstanding: int) -> float:
    """Largest latency that still sustains ``throughput``: ``L = N d / T``.

    Section 4.2.2 computes the Gen 3.0 allowance this way:
    ``256 * 89.6 / 12,000 MB/s = 1.91 us``.
    """
    _positive(throughput=throughput, transfer_bytes=transfer_bytes,
              outstanding=outstanding)
    return outstanding * transfer_bytes / throughput


def little_throughput_profile(
    latencies: np.ndarray,
    outstanding: int,
    transfer_bytes: float,
    bandwidth_cap: float,
) -> np.ndarray:
    """Throughput vs latency: ``min(cap, N d / L)`` (Figure 10's shape)."""
    latencies = np.asarray(latencies, dtype=np.float64)
    if latencies.size and latencies.min() <= 0:
        raise ModelError("latencies must be positive")
    _positive(outstanding=outstanding, transfer_bytes=transfer_bytes,
              bandwidth_cap=bandwidth_cap)
    return np.minimum(bandwidth_cap, outstanding * transfer_bytes / latencies)

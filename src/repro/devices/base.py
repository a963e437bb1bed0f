"""Device abstraction: what the performance models need to know.

A device is summarised by the handful of parameters the paper's throughput
equation consumes (Section 3.2): random-read IOPS ``S``, internal latency,
an outstanding-request limit, an internal bandwidth cap, plus the access
geometry (alignment, maximum transfer).  ``AccessKind`` distinguishes
*memory* devices (load/store through the GPU's zero-copy path, where the
PCIe ``N_max`` limit applies) from *storage* devices (queue-based, where
it does not — Section 3.2: "this limit by PCIe is imposed for memory ...
access but not for storage access").
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

from ..errors import CapacityError, DeviceError
from ..units import MB_PER_S, to_miops, to_usec

__all__ = ["AccessKind", "DeviceProfile", "DevicePool"]


class AccessKind(enum.Enum):
    """How the GPU reaches the device."""

    MEMORY = "memory"  # load/store (host DRAM, CXL.mem) — PCIe tag-limited
    STORAGE = "storage"  # queue pairs (NVMe, XLFDD) — queue-depth limited


@dataclass(frozen=True)
class DeviceProfile:
    """Performance-relevant parameters of one external-memory device.

    Parameters
    ----------
    iops:
        Sustained random-read operations/second (the paper's per-device
        contribution to ``S``).
    latency:
        Device-internal mean read latency in seconds (excludes the host
        path; topology adds that).
    max_outstanding:
        Device-side concurrent-request limit (tags for CXL, queue depth
        for storage); ``None`` = effectively unbounded.
    internal_bandwidth:
        Media/channel bandwidth cap in bytes/s.
    alignment_bytes / max_transfer_bytes:
        Access geometry; ``max_transfer_bytes=None`` = unlimited.
    """

    name: str
    kind: AccessKind
    alignment_bytes: int
    iops: float
    latency: float
    internal_bandwidth: float
    max_transfer_bytes: int | None = None
    max_outstanding: int | None = None
    capacity_bytes: int | None = None

    def __post_init__(self) -> None:
        if self.alignment_bytes < 1:
            raise DeviceError(f"{self.name}: alignment must be >= 1 byte")
        for attr in ("iops", "latency", "internal_bandwidth"):
            value = getattr(self, attr)
            if not math.isfinite(value) or value <= 0:
                raise DeviceError(
                    f"{self.name}: {attr} must be positive and finite, got {value}"
                )
        if self.max_transfer_bytes is not None and (
            self.max_transfer_bytes < self.alignment_bytes
            or self.max_transfer_bytes % self.alignment_bytes != 0
        ):
            raise DeviceError(
                f"{self.name}: max_transfer must be a positive multiple of alignment"
            )
        if self.max_outstanding is not None and self.max_outstanding < 1:
            raise DeviceError(f"{self.name}: max_outstanding must be >= 1")
        if self.capacity_bytes is not None and self.capacity_bytes < 1:
            raise DeviceError(f"{self.name}: capacity must be >= 1 byte")

    def throughput(self, transfer_bytes: float, extra_latency: float = 0.0) -> float:
        """Deliverable read throughput for a given request size (bytes/s).

        Device-local version of Equation 2:
        ``min(S*d, outstanding*d/L, internal_bandwidth)`` where ``L`` is the
        device latency plus any path latency the caller adds.
        """
        if not math.isfinite(transfer_bytes) or transfer_bytes <= 0:
            raise DeviceError(
                f"transfer size must be positive and finite, got {transfer_bytes}"
            )
        if not math.isfinite(extra_latency) or extra_latency < 0:
            raise DeviceError(
                f"extra_latency must be >= 0 and finite, got {extra_latency}"
            )
        terms = [self.iops * transfer_bytes, self.internal_bandwidth]
        if self.max_outstanding is not None:
            total_latency = self.latency + extra_latency
            terms.append(self.max_outstanding * transfer_bytes / total_latency)
        return min(terms)

    def with_added_latency(self, added: float) -> "DeviceProfile":
        """A copy with ``added`` seconds of extra internal latency."""
        if not math.isfinite(added) or added < 0:
            raise DeviceError(f"added latency must be >= 0 and finite, got {added}")
        return replace(self, latency=self.latency + added)

    def check_fits(self, data_bytes: int) -> None:
        """Raise :class:`CapacityError` if ``data_bytes`` exceeds capacity."""
        if self.capacity_bytes is not None and data_bytes > self.capacity_bytes:
            raise CapacityError(
                f"{self.name}: {data_bytes} bytes exceed capacity "
                f"{self.capacity_bytes}"
            )

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.name} [{self.kind.value}]: "
            f"{to_miops(self.iops):.1f} MIOPS, {to_usec(self.latency):.1f} us, "
            f"{self.internal_bandwidth / MB_PER_S:,.0f} MB/s internal, "
            f"align {self.alignment_bytes} B"
        )


@dataclass(frozen=True)
class DevicePool:
    """``count`` identical devices striped into one logical memory.

    Aggregates capability linearly (IOPS, internal bandwidth, outstanding
    requests, capacity), which assumes balanced striping — a good
    approximation for the fine-grained random access of graph traversal,
    and checkable via :meth:`repro.graph.partition.StripedLayout.per_device_load`.
    """

    device: DeviceProfile
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise DeviceError(f"pool needs >= 1 device, got {self.count}")

    @property
    def name(self) -> str:
        """Pool label, e.g. ``16x xlfdd``."""
        return f"{self.count}x {self.device.name}"

    @property
    def kind(self) -> AccessKind:
        """Access kind of the member devices."""
        return self.device.kind

    @property
    def alignment_bytes(self) -> int:
        """Alignment of the member devices."""
        return self.device.alignment_bytes

    @property
    def max_transfer_bytes(self) -> int | None:
        """Transfer ceiling of the member devices."""
        return self.device.max_transfer_bytes

    @property
    def iops(self) -> float:
        """Aggregate random-read rate (the paper's collective ``S``)."""
        return self.device.iops * self.count

    @property
    def latency(self) -> float:
        """Latency of one access (unchanged by pooling)."""
        return self.device.latency

    @property
    def internal_bandwidth(self) -> float:
        """Aggregate internal bandwidth."""
        return self.device.internal_bandwidth * self.count

    @property
    def max_outstanding(self) -> int | None:
        """Aggregate outstanding-request budget (None = unbounded)."""
        if self.device.max_outstanding is None:
            return None
        return self.device.max_outstanding * self.count

    @property
    def capacity_bytes(self) -> int | None:
        """Aggregate capacity (None = unbounded)."""
        if self.device.capacity_bytes is None:
            return None
        return self.device.capacity_bytes * self.count

    def throughput(self, transfer_bytes: float, extra_latency: float = 0.0) -> float:
        """Aggregate deliverable throughput at a request size (bytes/s)."""
        return self.device.throughput(transfer_bytes, extra_latency) * self.count

    def devices_required_for(self, target_iops: float) -> int:
        """Devices of this type needed to reach ``target_iops``."""
        if target_iops <= 0:
            raise DeviceError("target_iops must be positive")
        return max(1, math.ceil(target_iops / self.device.iops))

    def check_fits(self, data_bytes: int) -> None:
        """Raise :class:`CapacityError` unless the pool can hold the data."""
        if self.capacity_bytes is not None and data_bytes > self.capacity_bytes:
            raise CapacityError(
                f"{self.name}: {data_bytes} bytes exceed pool capacity "
                f"{self.capacity_bytes}"
            )

"""Calibration constants taken directly from the paper.

Every number a figure depends on is defined here, once, with a pointer to
the section of the paper it comes from.  Models elsewhere in the package
take these as *defaults* and accept overrides, so sweeps and ablations can
vary them without touching this module.

Canonical units (see :mod:`repro.units`): bytes, seconds, bytes/s, ops/s.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, is_dataclass
from typing import Any, Mapping

from .errors import ConfigError
from .units import KIB, MB_PER_S, MIOPS, USEC

__all__ = [
    "GPU_CACHE_LINE_BYTES",
    "GPU_SECTOR_BYTES",
    "GPU_TOTAL_WARPS",
    "GPU_ACTIVE_WARPS_BFS",
    "GPU_THREADS_PER_WARP",
    "EMOGI_TRANSFER_DISTRIBUTION",
    "EMOGI_AVG_TRANSFER_BYTES",
    "CXL_FLIT_BYTES",
    "CXL_TAG_BITS",
    "CXL_SPEC_MAX_TAGS",
    "AGILEX_MAX_OUTSTANDING",
    "AGILEX_GPU_VISIBLE_OUTSTANDING",
    "AGILEX_CHANNEL_BANDWIDTH",
    "CXL_BASE_ADDED_LATENCY",
    "HOST_DRAM_GPU_LATENCY",
    "CROSS_SOCKET_LATENCY",
    "XLFDD_ALIGNMENT_BYTES",
    "XLFDD_MAX_TRANSFER_BYTES",
    "XLFDD_IOPS_PER_DRIVE",
    "XLFDD_DRIVES",
    "BAM_SSD_COUNT",
    "BAM_AGGREGATE_IOPS",
    "BAM_CACHELINE_BYTES",
    "NVME_MIN_BLOCK_BYTES",
    "NVME_SSD_LATENCY",
    "VERTEX_ID_BYTES",
    "KERNEL_STEP_OVERHEAD",
    "validate_positive",
    "dataclass_to_dict",
    "dataclass_from_dict",
]

# --------------------------------------------------------------------------
# GPU execution model (Sections 3.3.1 and 3.5.2)
# --------------------------------------------------------------------------

#: Hardware cache line of the GPU L2; zero-copy reads never exceed this
#: (Section 3.3.1).
GPU_CACHE_LINE_BYTES = 128

#: Minimum memory-access sector; zero-copy requests are multiples of this
#: (Section 3.3.1, "requests are issued at a multiple of 32 B").
GPU_SECTOR_BYTES = 32

#: Warps supported by the evaluated RTX A5000 (Section 3.5.2).
GPU_TOTAL_WARPS = 3_072

#: Warps actually resident during the paper's BFS runs (Section 3.5.2).
GPU_ACTIVE_WARPS_BFS = 2_048

#: CUDA warp width (Appendix B).
GPU_THREADS_PER_WARP = 32

# --------------------------------------------------------------------------
# EMOGI transfer-size model (Section 3.3.1)
# --------------------------------------------------------------------------

#: Conservative distribution of zero-copy request sizes observed by EMOGI:
#: 20 % 32 B, 20 % 64 B, 20 % 96 B, 40 % 128 B.
EMOGI_TRANSFER_DISTRIBUTION: Mapping[int, float] = {32: 0.2, 64: 0.2, 96: 0.2, 128: 0.4}

#: Average of the above distribution: 89.6 B (the paper's ``d_EMOGI``).
EMOGI_AVG_TRANSFER_BYTES = sum(s * p for s, p in EMOGI_TRANSFER_DISTRIBUTION.items())

# --------------------------------------------------------------------------
# CXL interface (Sections 3.5.3 and 4.2.2)
# --------------------------------------------------------------------------

#: CXL.mem data transfer granularity (Section 3.5.3).
CXL_FLIT_BYTES = 64

#: Tag bits available in the CXL spec (Section 3.5.3).
CXL_TAG_BITS = 16

#: Outstanding requests the CXL *spec* permits: 2**16 (Section 3.5.3).
CXL_SPEC_MAX_TAGS = 2 ** CXL_TAG_BITS

#: Outstanding 64 B requests the Agilex-7 prototype actually handles
#: (measured in Figure 10, Section 4.2.2).
AGILEX_MAX_OUTSTANDING = 128

#: Outstanding requests visible from the GPU: 128/2 because a 96/128 B GPU
#: read splits into two 64 B CXL reads (Section 4.2.2).
AGILEX_GPU_VISIBLE_OUTSTANDING = AGILEX_MAX_OUTSTANDING // 2

#: Single-channel onboard DRAM cap of the prototype (Figure 10): ~5,700 MB/s.
AGILEX_CHANNEL_BANDWIDTH = 5_700 * MB_PER_S

#: Extra latency the CXL DRAM path adds over the host-DRAM path as seen from
#: the GPU (Figure 9): ~0.5 us.
CXL_BASE_ADDED_LATENCY = 0.5 * USEC

#: Latency of the host DRAM as seen from the GPU through PCIe (Figure 9 and
#: Section 3.3.1): ~1.2 us.
HOST_DRAM_GPU_LATENCY = 1.2 * USEC

#: Marginal extra latency when the target memory hangs off the other CPU
#: socket (Figure 9, solid vs. hollow bars).
CROSS_SOCKET_LATENCY = 0.15 * USEC

# --------------------------------------------------------------------------
# XLFDD low-latency flash prototype (Section 4.1.1)
# --------------------------------------------------------------------------

#: Address alignment supported by XLFDD.
XLFDD_ALIGNMENT_BYTES = 16

#: Maximum single-request transfer: any multiple of 16 B up to 2 kB.
XLFDD_MAX_TRANSFER_BYTES = 2 * KIB

#: Random-read performance per drive: up to 11 MIOPS.
XLFDD_IOPS_PER_DRIVE = 11 * MIOPS

#: Drives used in the evaluation rig (Table 3).
XLFDD_DRIVES = 16

# --------------------------------------------------------------------------
# BaM / NVMe baseline (Sections 2.2, 3.3.2 and 4.1.1)
# --------------------------------------------------------------------------

#: SSDs used by BaM (Section 3.3.2: four Intel P5800X).
BAM_SSD_COUNT = 4

#: Their aggregate random-read performance (Section 3.3.2): S = 6 MIOPS.
BAM_AGGREGATE_IOPS = 6 * MIOPS

#: BaM's software cache line / transfer size: 4 kB (Section 3.3.2).
BAM_CACHELINE_BYTES = 4 * KIB

#: Minimum NVMe addressing unit (Section 1): 512 B.
NVME_MIN_BLOCK_BYTES = 512

#: Random-read latency of the low-latency NVMe class used (P5800X/FL6).
NVME_SSD_LATENCY = 10 * USEC

# --------------------------------------------------------------------------
# Graph representation (Section 2.1 / Table 1)
# --------------------------------------------------------------------------

#: Bytes per vertex ID in the edge list (Table 1 footnote).
VERTEX_ID_BYTES = 8

# --------------------------------------------------------------------------
# Execution model
# --------------------------------------------------------------------------

#: Fixed per-traversal-step overhead (kernel launch + frontier bookkeeping).
#: Small frontiers "contribute little to the overall runtime" (Section
#: 3.5.1) but not zero; this keeps step costs from vanishing entirely.
KERNEL_STEP_OVERHEAD = 10 * USEC


def validate_positive(**named_values: float) -> None:
    """Raise :class:`ConfigError` unless every named value is > 0.

    Usage: ``validate_positive(bandwidth=w, latency=l)``.
    """
    for name, value in named_values.items():
        if not value > 0:
            raise ConfigError(f"{name} must be positive, got {value!r}")


def dataclass_to_dict(obj: Any) -> dict[str, Any]:
    """Serialise a (possibly nested) dataclass to a plain JSON-able dict."""
    if not is_dataclass(obj) or isinstance(obj, type):
        raise ConfigError(f"expected a dataclass instance, got {type(obj).__name__}")
    return asdict(obj)


def dataclass_from_dict(cls: type, data: Mapping[str, Any]) -> Any:
    """Rebuild a flat dataclass ``cls`` from a mapping produced by
    :func:`dataclass_to_dict`.

    Nested dataclass fields are rebuilt recursively when the field type is
    itself a dataclass; unknown keys raise :class:`ConfigError` to surface
    config typos early.
    """
    if not is_dataclass(cls):
        raise ConfigError(f"{cls!r} is not a dataclass type")
    field_map = {f.name: f for f in fields(cls)}
    unknown = set(data) - set(field_map)
    if unknown:
        raise ConfigError(f"unknown fields for {cls.__name__}: {sorted(unknown)}")
    kwargs: dict[str, Any] = {}
    for name, value in data.items():
        ftype = field_map[name].type
        if is_dataclass(ftype) and isinstance(value, Mapping):
            value = dataclass_from_dict(ftype, value)  # type: ignore[arg-type]
        kwargs[name] = value
    return cls(**kwargs)


@dataclass(frozen=True)
class _ConstantsSnapshot:
    """Internal: bundles the module constants for reporting/debugging."""

    gpu_cache_line_bytes: int = GPU_CACHE_LINE_BYTES
    gpu_sector_bytes: int = GPU_SECTOR_BYTES
    emogi_avg_transfer_bytes: float = EMOGI_AVG_TRANSFER_BYTES
    cxl_flit_bytes: int = CXL_FLIT_BYTES
    host_dram_gpu_latency: float = HOST_DRAM_GPU_LATENCY
    cxl_base_added_latency: float = CXL_BASE_ADDED_LATENCY


def constants_snapshot() -> dict[str, Any]:
    """Return the key calibration constants as a dict (for reports)."""
    return dataclass_to_dict(_ConstantsSnapshot())

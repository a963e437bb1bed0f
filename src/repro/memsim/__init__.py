"""Memory-system simulation: alignment, caches, read amplification.

This subpackage turns *logical* edge-sublist reads (from
:mod:`repro.traversal`) into *physical* external-memory traffic under a
given address alignment size and cache model — the machinery behind the
paper's read-amplification study (Section 3.1, Figure 3) and the
transfer-size distributions of Section 3.3.
"""

from .. import _attach

__all__ = [
    "align_down",
    "align_up",
    "aligned_span",
    "blocks_per_request",
    "expand_to_blocks",
    "split_by_max_transfer",
    "CacheModel",
    "CacheStats",
    "NoCache",
    "StepLocalCache",
    "IdealCache",
    "LRUCache",
    "make_cache",
    "RAFResult",
    "read_amplification",
    "raf_curve",
    "direct_access_amplification",
    "CoalesceResult",
    "coalesce_step",
    "coalesce_trace",
    "transfer_size_distribution",
    "writeback_trace",
    "WriteTraffic",
    "cxl_write_traffic",
    "gc_write_amplification",
    "flash_write_traffic",
]

__getattr__, __dir__ = _attach(
    __name__,
    {
        ".alignment": (
            "align_down", "align_up", "aligned_span", "blocks_per_request",
            "expand_to_blocks", "split_by_max_transfer",
        ),
        ".cache": (
            "CacheModel", "CacheStats", "NoCache", "StepLocalCache",
            "IdealCache", "LRUCache", "make_cache",
        ),
        ".raf": (
            "RAFResult", "read_amplification", "raf_curve",
            "direct_access_amplification",
        ),
        ".coalesce": (
            "CoalesceResult", "coalesce_step", "coalesce_trace",
            "transfer_size_distribution",
        ),
        ".writes": (
            "writeback_trace", "WriteTraffic", "cxl_write_traffic",
            "gc_write_amplification", "flash_write_traffic",
        ),
    },
)

"""External-memory device models.

One module per device family from the paper's two evaluation rigs
(Tables 3 and 4): host DRAM, the Agilex-7 CXL memory prototype with its
adjustable latency bridge, the XLFDD low-latency flash prototype, and
BaM's NVMe SSDs — plus the flash-die timing substrate the two flash
devices are built from.
"""

from .. import _attach

__all__ = [
    "AccessKind",
    "DeviceProfile",
    "DevicePool",
    "FlashDieSpec",
    "FlashArray",
    "LOW_LATENCY_FLASH_DIE",
    "CONVENTIONAL_TLC_DIE",
    "host_dram_device",
    "HOST_DRAM_CHANNEL_BANDWIDTH",
    "CXLMemoryDevice",
    "LatencyBridge",
    "OutOfOrderLatencyBridge",
    "head_of_line_penalty",
    "agilex_prototype",
    "cxl_memory_pool",
    "xlfdd_device",
    "xlfdd_array",
    "nvme_device",
    "bam_ssd_array",
]

__getattr__, __dir__ = _attach(
    __name__,
    {
        ".base": ("AccessKind", "DeviceProfile", "DevicePool"),
        ".flash": (
            "FlashDieSpec", "FlashArray", "LOW_LATENCY_FLASH_DIE",
            "CONVENTIONAL_TLC_DIE",
        ),
        ".dram": ("host_dram_device", "HOST_DRAM_CHANNEL_BANDWIDTH"),
        ".cxl": (
            "CXLMemoryDevice", "LatencyBridge", "OutOfOrderLatencyBridge",
            "head_of_line_penalty", "agilex_prototype", "cxl_memory_pool",
        ),
        ".xlfdd": ("xlfdd_device", "xlfdd_array"),
        ".nvme": ("nvme_device", "bam_ssd_array"),
    },
)

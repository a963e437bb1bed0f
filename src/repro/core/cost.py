"""Cost-effectiveness model.

The paper's motivation is economic: "increasing the host DRAM capacity
to accommodate large graph data can be costly", and flash-based CXL
memory "may be used ... to realize even more cost-effective GPU graph
processing" (Abstract, Sections 1 and 5).  This module makes that
argument quantitative: given an edge list to host and a set of system
configurations, it prices the external memory each needs and combines
that with the predicted runtime into a cost-performance frontier.

Prices are *illustrative* 2023-era street numbers, parameterised so a
user can substitute their own; the conclusions the paper draws depend on
their ratios (flash an order of magnitude below DRAM per GB), not their
absolute values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..errors import ModelError
from ..traversal.trace import AccessTrace
from ..units import GB
from .runtime_model import SystemModel, predict_runtime

__all__ = [
    "MediaCost",
    "MEDIA_COSTS",
    "media_for",
    "system_memory_cost",
    "cost_performance",
]


@dataclass(frozen=True)
class MediaCost:
    """Pricing of one memory/storage media class.

    ``usd_per_gb`` covers the media; ``usd_per_device`` the fixed per-
    device overhead (controller, FPGA/ASIC, slot).  ``tier_threshold_gb``
    / ``tier_multiplier`` model the capacity nonlinearity that motivates
    the paper: once a host's commodity DIMM slots are full, additional
    DRAM requires high-density DIMMs (or a bigger platform) at a steep
    $/GB premium — "increasing the host DRAM capacity to accommodate
    large graph data can be costly" (Section 1).  Expandable media (CXL,
    drives) just add devices, so they carry no tier.
    """

    name: str
    usd_per_gb: float
    usd_per_device: float = 0.0
    tier_threshold_gb: float | None = None
    tier_multiplier: float = 1.0

    def __post_init__(self) -> None:
        if self.usd_per_gb < 0 or self.usd_per_device < 0:
            raise ModelError(f"{self.name}: costs must be >= 0")
        if self.tier_threshold_gb is not None and self.tier_threshold_gb <= 0:
            raise ModelError(f"{self.name}: tier threshold must be positive")
        if self.tier_multiplier < 1.0:
            raise ModelError(f"{self.name}: tier multiplier must be >= 1")

    def cost(self, capacity_bytes: int, devices: int = 1) -> float:
        """Total cost of ``devices`` units holding ``capacity_bytes``."""
        if capacity_bytes < 0 or devices < 1:
            raise ModelError("capacity must be >= 0 and devices >= 1")
        gb = capacity_bytes / GB
        if self.tier_threshold_gb is None or gb <= self.tier_threshold_gb:
            media = gb * self.usd_per_gb
        else:
            media = self.tier_threshold_gb * self.usd_per_gb + (
                gb - self.tier_threshold_gb
            ) * self.usd_per_gb * self.tier_multiplier
        return media + devices * self.usd_per_device


#: Illustrative media pricing.  The load-bearing properties are the
#: ratios (DDR ~ CXL-DRAM >> low-latency flash > conventional flash) and
#: host DRAM's capacity tier (past the commodity DIMM budget, $/GB
#: multiplies — the paper's core economic motivation).
MEDIA_COSTS: dict[str, MediaCost] = {
    "host-dram": MediaCost(
        "host-dram", usd_per_gb=4.0, tier_threshold_gb=512.0, tier_multiplier=4.0
    ),
    "cxl-dram": MediaCost("cxl-dram", usd_per_gb=4.0, usd_per_device=200.0),
    "cxl-flash": MediaCost("cxl-flash", usd_per_gb=0.6, usd_per_device=200.0),
    "xlfdd": MediaCost("xlfdd", usd_per_gb=0.6, usd_per_device=150.0),
    "nvme": MediaCost("nvme", usd_per_gb=0.08, usd_per_device=50.0),
}

#: Which media class backs each named system family.
_SYSTEM_MEDIA = {
    "emogi": "host-dram",
    "flash-cxl": "cxl-flash",  # before "cxl": longest prefix must win
    "cxl": "cxl-dram",
    "xlfdd": "xlfdd",
    "bam": "nvme",
    "uvm": "host-dram",
}


def media_for(system: SystemModel) -> MediaCost:
    """The media pricing class backing ``system`` (by name prefix)."""
    for prefix, media in _SYSTEM_MEDIA.items():
        if system.name.startswith(prefix):
            return MEDIA_COSTS[media]
    raise ModelError(
        f"no media pricing for system {system.name!r}; "
        f"known prefixes: {sorted(_SYSTEM_MEDIA)}"
    )


def system_memory_cost(system: SystemModel, data_bytes: int) -> float:
    """Cost of the external memory ``system`` needs to host ``data_bytes``.

    Prices exactly ``data_bytes`` of media plus the fixed cost of the
    pool's device count.
    """
    if data_bytes < 0:
        raise ModelError("data_bytes must be >= 0")
    return media_for(system).cost(data_bytes, devices=system.pool.count)


def cost_performance(
    trace: AccessTrace,
    systems: Sequence[SystemModel],
    *,
    data_bytes: int | None = None,
) -> list[dict[str, float | str]]:
    """Runtime, memory cost, and cost-performance for each system.

    ``cost_x_runtime`` (lower is better) is the scalarisation the paper's
    cost-effectiveness argument implies: a system twice as slow is worth
    it only when it is more than twice as cheap.  Rows also carry the
    runtime and cost normalised to the first system for frontier reading.
    """
    if not systems:
        raise ModelError("need at least one system")
    data = trace.edge_list_bytes if data_bytes is None else data_bytes
    rows: list[dict[str, float | str]] = []
    base_runtime = None
    base_cost = None
    for system in systems:
        runtime = predict_runtime(trace, system).runtime
        cost = system_memory_cost(system, data)
        if base_runtime is None:
            base_runtime, base_cost = runtime, cost
        rows.append(
            {
                "system": system.name,
                "runtime_s": runtime,
                "memory_cost_usd": cost,
                "normalized_runtime": runtime / base_runtime,
                "normalized_cost": cost / base_cost if base_cost else 0.0,
                "cost_x_runtime": cost * runtime,
            }
        )
    return rows

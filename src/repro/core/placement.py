"""Data placement across device pools: striping and load balance.

The paper's rigs aggregate 16 XLFDDs / 5 CXL boards into one logical
memory, and the pool models assume the stripe spreads load evenly.  This
module checks that assumption per workload: it maps a physical trace's
requests onto a :class:`~repro.graph.partition.StripedLayout` and
reports the per-step imbalance — how much slower the hottest device runs
than the average, which is exactly the factor by which an imbalanced
stripe erodes the pool's aggregate IOPS.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ModelError
from ..graph.partition import StripedLayout
from ..memsim.alignment import direct_requests
from ..traversal.trace import AccessTrace

__all__ = ["PlacementReport", "placement_report", "stripe_size_sweep"]


@dataclass(frozen=True)
class PlacementReport:
    """Load-balance summary of one (trace, layout) pairing.

    ``imbalance`` is the workload-weighted max/mean device load over
    steps (1.0 = perfectly balanced); ``slowdown`` is its effect on an
    IOPS-bound pool (a device doing 2x its share takes 2x as long).
    """

    num_devices: int
    stripe_bytes: int
    total_requests: int
    per_device_requests: np.ndarray
    imbalance: float

    @property
    def slowdown(self) -> float:
        """Step-time inflation vs a perfectly balanced stripe."""
        return self.imbalance


def placement_report(
    trace: AccessTrace,
    layout: StripedLayout,
    *,
    alignment_bytes: int = 16,
    max_transfer_bytes: int | None = 2_048,
) -> PlacementReport:
    """Map a trace's (aligned, split) requests onto ``layout``.

    The imbalance is aggregated per step — each traversal step is a
    barrier, so a hot device in one step cannot borrow slack from
    another — weighted by the step's request count.
    """
    if trace.num_steps == 0:
        raise ModelError("placement needs a non-empty trace")
    totals = np.zeros(layout.num_devices, dtype=np.int64)
    weighted_imbalance = 0.0
    weight = 0
    for step in trace:
        counts, _ = layout.per_device_load(
            *direct_requests(
                step.starts, step.lengths, alignment_bytes, max_transfer_bytes
            )
        )
        totals += counts
        step_total = int(counts.sum())
        if step_total == 0:
            continue
        mean = step_total / layout.num_devices
        weighted_imbalance += (counts.max() / mean) * step_total
        weight += step_total
    imbalance = weighted_imbalance / weight if weight else 1.0
    return PlacementReport(
        num_devices=layout.num_devices,
        stripe_bytes=layout.stripe_bytes,
        total_requests=int(totals.sum()),
        per_device_requests=totals,
        imbalance=float(imbalance),
    )


def stripe_size_sweep(
    trace: AccessTrace,
    num_devices: int,
    stripe_sizes: tuple[int, ...] = (4_096, 65_536, 1_048_576, 16_777_216),
    **kwargs,
) -> list[PlacementReport]:
    """Placement reports across stripe-unit sizes (the balance knob).

    Small stripes spread even hot regions; huge stripes approach
    contiguous partitioning, where frontier locality concentrates load.
    """
    if num_devices < 1:
        raise ModelError("need >= 1 device")
    return [
        placement_report(
            trace, StripedLayout(num_devices=num_devices, stripe_bytes=s), **kwargs
        )
        for s in stripe_sizes
    ]

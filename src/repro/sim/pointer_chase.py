"""Appendix B's pointer-chase latency microbenchmark, on the DES.

A single warp chases a chain of 128 B pointers through external memory:
read pointer, wait for the data, read the address it names, repeat.  With
exactly one request in flight the runtime is ``n * (round-trip latency)``
— which is precisely how the paper measures the latencies of Figure 9.

The simulated chain goes through the same DES resources as bulk traffic
(tags, device admission, link serialisation), so the measured latency
includes the small per-request service times a real measurement would
also see on an idle system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import GPU_CACHE_LINE_BYTES
from ..errors import SimulationError
from .des import DESConfig, simulate_step

__all__ = ["PointerChaseResult", "pointer_chase_latency"]


@dataclass(frozen=True)
class PointerChaseResult:
    """Outcome of a pointer chase: per-hop latency as the GPU observes it."""

    hops: int
    total_time: float

    @property
    def latency(self) -> float:
        """Mean round-trip latency per pointer dereference."""
        return self.total_time / self.hops if self.hops else 0.0


def pointer_chase_latency(
    config: DESConfig,
    hops: int = 1024,
    pointer_bytes: int = GPU_CACHE_LINE_BYTES,
) -> PointerChaseResult:
    """Chase ``hops`` dependent pointers; return the observed latency.

    Serialisation is enforced by running one single-request step per hop —
    the next read cannot be issued before the previous one completes, just
    like Appendix B's warp that synchronises between dereferences.  (The
    per-hop DES is cheap: one request each.)
    """
    if hops < 1:
        raise SimulationError(f"need >= 1 hop, got {hops}")
    if pointer_bytes < 1:
        raise SimulationError(f"pointer size must be >= 1 byte, got {pointer_bytes}")
    sizes = np.array([pointer_bytes], dtype=np.int64)
    # All hops are statistically identical on an idle system; simulate one
    # and multiply, after verifying a couple of hops agree.
    first = simulate_step(sizes, config).time
    second = simulate_step(sizes, config).time
    if not np.isclose(first, second):
        raise SimulationError("pointer-chase hops disagree; non-idle system?")
    total = first * hops
    return PointerChaseResult(hops=hops, total_time=total)

"""Access-method abstraction: logical trace -> physical request stream.

An :class:`AccessMethod` encodes *how* the GPU reaches external memory —
alignment, caching, transfer-size rules — and converts an algorithm's
:class:`~repro.traversal.trace.AccessTrace` into a
:class:`PhysicalTrace`: per step, the requests that actually cross the
PCIe link and hit the devices.  The performance models downstream
(:mod:`repro.sim.fluid`, :mod:`repro.sim.des`) consume only this.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from ..errors import ModelError
from ..interconnect.cxl_proto import flits_per_request
from ..memsim.cache import CacheModel
from ..memsim.raf import cache_line_misses
from ..sim.fluid import StepInput
from ..traversal.trace import AccessTrace

__all__ = ["PhysicalStep", "PhysicalTrace", "AccessMethod"]


@dataclass(frozen=True)
class PhysicalStep:
    """Physical traffic of one step.

    ``link_bytes`` is what crosses the PCIe link (counts toward the
    paper's ``D``); ``device_ops``/``device_bytes`` is the device-side
    view after protocol re-granularisation (CXL flits, storage ops).
    """

    requests: int
    link_bytes: int
    device_ops: int
    device_bytes: int

    def __post_init__(self) -> None:
        if min(self.requests, self.link_bytes, self.device_ops, self.device_bytes) < 0:
            raise ModelError("physical step counts must be non-negative")

    def to_step_input(self) -> StepInput:
        """Adapter to the fluid model's input type."""
        return StepInput(
            requests=self.requests,
            link_bytes=self.link_bytes,
            device_ops=self.device_ops,
            device_bytes=self.device_bytes,
        )


@dataclass
class PhysicalTrace:
    """All physical steps of one traversal under one access method."""

    method_name: str
    useful_bytes: int
    steps: list[PhysicalStep]

    @property
    def fetched_bytes(self) -> int:
        """The paper's ``D``: total bytes crossing the link."""
        return sum(s.link_bytes for s in self.steps)

    @property
    def total_requests(self) -> int:
        """Total link-level requests."""
        return sum(s.requests for s in self.steps)

    @property
    def raf(self) -> float:
        """Read amplification D / E."""
        return self.fetched_bytes / self.useful_bytes if self.useful_bytes else 0.0

    @property
    def avg_transfer_bytes(self) -> float:
        """Average link request size — the paper's ``d``."""
        return (
            self.fetched_bytes / self.total_requests if self.total_requests else 0.0
        )

    def step_inputs(self) -> list[StepInput]:
        """Fluid-model inputs for every step."""
        return [s.to_step_input() for s in self.steps]


class AccessMethod(ABC):
    """Transforms logical sublist reads into physical requests."""

    #: Human-readable method name used in reports.
    name: str = "access-method"

    @abstractmethod
    def physical_trace(self, trace: AccessTrace) -> PhysicalTrace:
        """Convert a logical trace into its physical request stream."""

    def _cache_line_trace(
        self, trace: AccessTrace, line_bytes: int, cache: CacheModel
    ) -> PhysicalTrace:
        """One ``line_bytes`` request per cache miss (BaM lines, UVM pages)."""
        steps = [
            PhysicalStep(misses, misses * line_bytes, misses, misses * line_bytes)
            for misses in cache_line_misses(trace, line_bytes, cache).tolist()
        ]
        return PhysicalTrace(
            method_name=self.name, useful_bytes=trace.useful_bytes, steps=steps
        )

    @staticmethod
    def _sizes_to_step(
        sizes: np.ndarray, *, device_flit_bytes: int | None = None
    ) -> PhysicalStep:
        """Build a :class:`PhysicalStep` from link-request sizes.

        With ``device_flit_bytes`` set (CXL), each request is split into
        flits device-side: ops multiply and bytes round up to whole flits.
        """
        sizes = np.asarray(sizes, dtype=np.int64)
        sizes = sizes[sizes > 0]
        requests, link_bytes = int(sizes.size), int(sizes.sum())
        device_ops, device_bytes = requests, link_bytes
        if device_flit_bytes is not None:
            device_ops = int(flits_per_request(sizes, device_flit_bytes).sum())
            device_bytes = device_ops * device_flit_bytes
        return PhysicalStep(requests, link_bytes, device_ops, device_bytes)

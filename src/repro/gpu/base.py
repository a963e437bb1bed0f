"""Access-method abstraction: logical trace -> physical request stream.

An :class:`AccessMethod` encodes *how* the GPU reaches external memory —
alignment, caching, transfer-size rules — in one per-batch kernel,
:meth:`AccessMethod.request_sizes`: the link-request sizes one batch of
byte-range reads turns into.  Everything that accounts reads calls it:

* :meth:`AccessMethod.physical_trace` converts an algorithm's
  :class:`~repro.traversal.trace.AccessTrace` into a
  :class:`PhysicalTrace` — per step, the requests that actually cross the
  PCIe link and hit the devices — by calling it once per step;
* the functional engine's
  :class:`~repro.engine.backend.ExternalMemoryBackend` calls it once per
  read batch, so engine bytes equal model bytes by construction.

The performance models downstream (:mod:`repro.sim.fluid`,
:mod:`repro.sim.des`) consume only the physical trace.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from ..interconnect.cxl_proto import flits_per_request
from ..memsim.alignment import expand_to_blocks
from ..memsim.cache import CacheModel
from ..sim.fluid import StepInput
from ..traversal.trace import AccessTrace

__all__ = ["PhysicalTrace", "AccessMethod"]


@dataclass
class PhysicalTrace:
    """All physical steps of one traversal under one access method.

    Each step is a :class:`~repro.sim.fluid.StepInput`: ``link_bytes`` is
    what crosses the PCIe link (counts toward the paper's ``D``);
    ``device_ops``/``device_bytes`` is the device-side view after
    protocol re-granularisation (CXL flits, storage ops).
    """

    method_name: str
    useful_bytes: int
    steps: list[StepInput]

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
        return self.steps


class AccessMethod(ABC):
    """Transforms logical sublist reads into physical requests."""

    #: Human-readable method name used in reports.
    name: str = "access-method"
    #: Software cache the reads go through (``None``: cache-less).
    cache: CacheModel | None = None
    #: Device-side flit size requests split into (``None``: no split).
    device_flit_bytes: int | None = None

    @abstractmethod
    def request_sizes(self, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """Link-request sizes of one batch of byte-range reads.

        A batch is one traversal step's parallel reads; a cache-bearing
        method updates :attr:`cache` as it goes.
        """

    def reset(self) -> None:
        """Empty :attr:`cache`, so the next batch starts cold."""
        if self.cache is not None:
            self.cache.reset()

    def physical_trace(self, trace: AccessTrace) -> PhysicalTrace:
        """Convert a logical trace into its physical request stream."""
        self.reset()
        steps = [
            self._sizes_to_step(
                self.request_sizes(step.starts, step.lengths),
                device_flit_bytes=self.device_flit_bytes,
            )
            for step in trace
        ]
        return PhysicalTrace(
            method_name=self.name, useful_bytes=trace.useful_bytes, steps=steps
        )

    @staticmethod
    def _cache_line_sizes(
        starts: np.ndarray, lengths: np.ndarray, line_bytes: int, cache: CacheModel
    ) -> np.ndarray:
        """One ``line_bytes`` request per cache miss (BaM lines, UVM pages)."""
        block_ids, _ = expand_to_blocks(starts, lengths, line_bytes)
        return np.full(cache.access(block_ids), line_bytes, dtype=np.int64)

    @staticmethod
    def _sizes_to_step(
        sizes: np.ndarray, *, device_flit_bytes: int | None = None
    ) -> StepInput:
        """Build a step's :class:`StepInput` from link-request sizes.

        With ``device_flit_bytes`` set (CXL), each request is split into
        flits device-side: ops multiply and bytes round up to whole flits.
        """
        sizes = np.asarray(sizes, dtype=np.int64)
        requests, link_bytes = int(sizes.size), int(sizes.sum())
        device_ops, device_bytes = requests, link_bytes
        if device_flit_bytes is not None:
            device_ops = int(flits_per_request(sizes, device_flit_bytes).sum())
            device_bytes = device_ops * device_flit_bytes
        return StepInput(requests, link_bytes, device_ops, device_bytes)

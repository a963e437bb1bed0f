"""Access-method abstraction: logical trace -> physical request stream.

An :class:`AccessMethod` encodes *how* the GPU reaches external memory —
alignment, caching, transfer-size rules — in one per-batch kernel,
:meth:`AccessMethod.step_input`: the :class:`~repro.sim.fluid.StepInput`
one batch of byte-range reads costs (requests, link bytes, device ops,
device bytes — the ``N`` and ``D`` of Eq. 1–2).  Each method computes
those four numbers from per-read span arithmetic; no per-request size
array is built.  Everything that accounts reads calls it:

* :meth:`AccessMethod.physical_trace` converts an algorithm's
  :class:`~repro.traversal.trace.AccessTrace` into a
  :class:`PhysicalTrace` — per step, the requests that actually cross the
  PCIe link and hit the devices — by calling it once per step;
* the functional engine's
  :class:`~repro.engine.backend.ExternalMemoryBackend` calls it once per
  read batch, so engine bytes equal model bytes by construction.

The cache-bearing methods (BaM cache lines, UVM pages) share one kernel,
``_cache_line_step``: each read references the span of lines it touches,
the batch's spans go to the cache model in one
:meth:`~repro.memsim.cache.CacheModel.access_spans` call, and every miss
costs one line.  No per-line id is materialised on the way.

The performance models downstream (:mod:`repro.sim.fluid`,
:mod:`repro.sim.des`) consume only the physical trace.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from ..memsim.alignment import blocks_per_request
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
    def step_input(self, starts: np.ndarray, lengths: np.ndarray) -> StepInput:
        """Traffic of one batch of byte-range reads.

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
        steps = [self.step_input(step.starts, step.lengths) for step in trace]
        return PhysicalTrace(
            method_name=self.name, useful_bytes=trace.useful_bytes, steps=steps
        )

    def _cache_line_step(
        self,
        starts: np.ndarray,
        lengths: np.ndarray,
        line_bytes: int,
        cache: CacheModel,
    ) -> StepInput:
        """One ``line_bytes`` request per cache miss (BaM lines, UVM pages).

        Each read references the span of lines it touches, so the cache
        sees one span per read, not one id per line.
        """
        misses = int(
            cache.access_spans(
                starts // line_bytes, blocks_per_request(starts, lengths, line_bytes)
            )
        )
        link_bytes = misses * line_bytes
        flit = self.device_flit_bytes
        if flit is None:
            return StepInput(misses, link_bytes, misses, link_bytes)
        ops = misses * -(-line_bytes // flit)
        return StepInput(misses, link_bytes, ops, ops * flit)

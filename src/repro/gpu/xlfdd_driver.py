"""The paper's XLFDD access method (Section 4.1.1).

Like BaM, the GPU drives the storage directly (submission queues and data
buffers live in GPU BAR memory) — but with three differences that define
the method:

* **no software cache** — sublists are fetched directly; at 16 B
  alignment a cache "does not reduce the RAF much";
* **flexible transfer sizes** — one request per edge sublist, any
  multiple of 16 B up to 2 kB, so ``d`` tracks the average sublist size
  (~256 B+) instead of a fixed cache line;
* **no completion queues** — the device writes data into the waiting
  warp's buffer and the warp polls it, shaving per-IO overhead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import XLFDD_ALIGNMENT_BYTES, XLFDD_MAX_TRANSFER_BYTES
from ..errors import ModelError
from ..memsim.alignment import aligned_span
from ..sim.fluid import StepInput
from .base import AccessMethod

__all__ = ["XLFDDMethod"]


@dataclass
class XLFDDMethod(AccessMethod):
    """Direct, cache-less, sublist-granular storage access.

    ``alignment_bytes`` is swept in Figure 5 (16 B up to 4 kB); the
    transfer ceiling stays at the device's 2 kB (``None``: no ceiling).
    """

    alignment_bytes: int = XLFDD_ALIGNMENT_BYTES
    max_transfer_bytes: int | None = XLFDD_MAX_TRANSFER_BYTES

    def __post_init__(self) -> None:
        if self.alignment_bytes < 1:
            raise ModelError("alignment_bytes must be >= 1")
        ceiling = self.max_transfer_bytes
        # An alignment above the transfer ceiling forces every request to
        # the alignment size (reads come in whole aligned units).
        self.effective_max_transfer = (
            None if ceiling is None else max(ceiling, self.alignment_bytes)
        )
        if ceiling is not None and (
            ceiling < 1 or self.effective_max_transfer % self.alignment_bytes
        ):
            raise ModelError(
                f"max transfer {ceiling} must be a positive multiple of "
                f"alignment {self.alignment_bytes}"
            )
        self.name = f"xlfdd-{self.alignment_bytes}B"

    def step_input(self, starts: np.ndarray, lengths: np.ndarray) -> StepInput:
        # Each read's aligned span goes out as whole ``ceiling`` pieces
        # plus one shorter remainder piece.
        _, sizes = aligned_span(starts, lengths, self.alignment_bytes)
        ceiling = self.effective_max_transfer
        full, rest = 0, sizes
        if ceiling is not None:
            full, rest = int((sizes // ceiling).sum()), sizes % ceiling
        requests, link_bytes = full + int(np.count_nonzero(rest)), int(sizes.sum())
        flit = self.device_flit_bytes
        if flit is None:
            return StepInput(requests, link_bytes, requests, link_bytes)
        ops = int((-(-rest // flit)).sum())
        if ceiling is not None:
            ops += full * -(-ceiling // flit)
        return StepInput(requests, link_bytes, ops, ops * flit)

"""Read-amplification factor (RAF) engine — Section 3.1, Figure 3.

``RAF = D / E``: total bytes fetched from external memory over bytes the
algorithm actually uses.  Two access disciplines are modelled, each read
off the :meth:`~repro.gpu.base.AccessMethod.physical_trace` of the
access method that defines it — this module keeps no loop of its own:

* **cache-line access** (:func:`read_amplification`) — requests are split
  into alignment-sized blocks and served through a cache model; external
  memory sees one block read per miss.  This is
  :class:`~repro.gpu.bam.BaMMethod` with ``cacheline_bytes = a`` (BaM's
  software cache, ``d = a``), and it is the paper's Figure 3 methodology.
* **direct access** (:func:`direct_access_amplification`) — each edge
  sublist is fetched with one aligned request and nothing is cached; this
  is :class:`~repro.gpu.xlfdd_driver.XLFDDMethod`, the XLFDD discipline
  (Section 4.1.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..errors import TraceError
from ..gpu.bam import BaMMethod
from ..gpu.base import AccessMethod
from ..gpu.xlfdd_driver import XLFDDMethod
from ..traversal.trace import AccessTrace
from .cache import CacheModel, StepLocalCache

__all__ = [
    "RAFResult",
    "read_amplification",
    "direct_access_amplification",
    "raf_curve",
]


@dataclass(frozen=True)
class RAFResult:
    """Physical-traffic summary of one trace under one access discipline.

    ``fetched_bytes`` is the paper's ``D``; ``useful_bytes`` is ``E``;
    ``raf`` their ratio.  ``requests`` counts external-memory requests
    (misses for cache-line access, issued reads for direct access), so
    ``avg_transfer_bytes`` is the paper's ``d``.
    """

    alignment: int
    useful_bytes: int
    fetched_bytes: int
    requests: int
    per_step_fetched: np.ndarray
    per_step_requests: np.ndarray

    @property
    def raf(self) -> float:
        """Read amplification factor D / E (0 when E == 0)."""
        return self.fetched_bytes / self.useful_bytes if self.useful_bytes else 0.0

    @property
    def avg_transfer_bytes(self) -> float:
        """Average external-memory request size ``d = D / #requests``."""
        return self.fetched_bytes / self.requests if self.requests else 0.0


def _raf(trace: AccessTrace, alignment: int, method: AccessMethod) -> RAFResult:
    """The :class:`RAFResult` of ``method.physical_trace(trace)``."""
    if trace.num_steps == 0:
        raise TraceError("cannot compute amplification of an empty trace")
    steps = method.physical_trace(trace).steps
    per_step_fetched = np.array([s.link_bytes for s in steps], dtype=np.int64)
    per_step_requests = np.array([s.requests for s in steps], dtype=np.int64)
    return RAFResult(
        alignment=alignment,
        useful_bytes=trace.useful_bytes,
        fetched_bytes=int(per_step_fetched.sum()),
        requests=int(per_step_requests.sum()),
        per_step_fetched=per_step_fetched,
        per_step_requests=per_step_requests,
    )


def read_amplification(
    trace: AccessTrace, alignment: int, cache: CacheModel | None = None
) -> RAFResult:
    """Cache-line RAF of ``trace`` at ``alignment`` through ``cache``.

    The cache is reset before use so results are independent of prior
    state; it defaults to :class:`StepLocalCache` — requests within a step
    share fetched blocks, nothing survives across steps — which is the
    regime the paper's software-cache simulation reports (and what makes
    RAF grow with alignment in Figure 3).  Pass an :class:`LRUCache` /
    :class:`IdealCache` for the cache ablation.  Each miss costs one
    ``alignment``-sized fetch, so ``d = a`` exactly as in Section 3.3.2.
    """
    method = BaMMethod(
        cacheline_bytes=alignment,
        cache=cache if cache is not None else StepLocalCache(),
    )
    return _raf(trace, alignment, method)


def direct_access_amplification(
    trace: AccessTrace, alignment: int, max_transfer: int | None = None
) -> RAFResult:
    """Direct (cache-less) RAF: one aligned read per edge sublist.

    ``max_transfer`` splits large sublists into multiple requests (XLFDD
    caps a request at 2 kB; ``None``: no ceiling); splitting changes the
    request count and hence ``d``, but not the fetched bytes.  A ceiling
    below the alignment rounds up to it, as in Figure 5's 4 kB point.
    """
    method = XLFDDMethod(alignment_bytes=alignment, max_transfer_bytes=max_transfer)
    return _raf(trace, alignment, method)


def raf_curve(
    trace: AccessTrace,
    alignments: Sequence[int],
    cache_factory: Callable[[int], CacheModel | None] | None = None,
) -> list[RAFResult]:
    """RAF at each alignment (Figure 3's x-axis sweep).

    ``cache_factory(alignment)`` supplies the cache per point — capacity is
    usually fixed in bytes, so the block count varies with alignment.
    ``None`` (default) uses a fresh :class:`StepLocalCache` per point,
    as :func:`read_amplification` does.
    """
    results = []
    for alignment in alignments:
        cache = cache_factory(alignment) if cache_factory is not None else None
        results.append(read_amplification(trace, alignment, cache))
    return results

"""External-memory backend: a byte store read through an access method.

The backend holds the raw bytes of the edge list and serves byte-range
reads the way a real device would, keeping exact counts of what crossed
the "link".  It defines no discipline of its own: every read batch is
priced by the :meth:`~repro.gpu.base.AccessMethod.step_input` kernel of
the :mod:`repro.gpu` access method it was built with — XLFDD direct reads
(Section 4.1.1), BaM cache lines and UVM pages (Section 3.3.2), EMOGI
zero-copy (Section 3.3.1) — the same kernel
:meth:`~repro.gpu.base.AccessMethod.physical_trace` calls once per step,
so engine bytes equal model bytes by construction.  The backend reads
through a private copy of the method, so its cache state never leaks
into (or picks up) the model's pricing.

A read has two jobs, and the backend exposes each: :meth:`request`
checks a batch and prices it as one device batch (the counters move, no
bytes come back), and :meth:`gather` returns the bytes of any ranges.
:meth:`read` is ``request`` then ``gather``.  The engine requests a
step's whole frontier at once and gathers it chunk by chunk, so the
pricing sees the step's batch while the step holds one chunk of bytes.

The store shares a read-only input buffer (the graph's edge list, or a
payload its builder marked read-only and let go of) and copies a
writeable one, so a caller's later writes never reach the store.

Fast-path notes: the data a read returns is gathered at word granularity.
``_gather`` picks the widest word (16/8/4/2/1 B) dividing every start,
every length and the store size, views the store as that word and
builds one index per *word* with :func:`repro.graph.csr.ragged_index`.
A weighted 16 B edge record is one opaque ``void`` word, copied whole
whatever its bits; 8 B records and state slots take the 8 B path, and
unaligned byte ranges stay correct on the 1 B path.  The gather copies,
so returned arrays never alias the store.  Accounting (``_account``) is
independent of how the bytes are gathered.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from ..errors import DeviceError
from ..gpu.base import AccessMethod
from ..graph.csr import ragged_index

# Unused here, but ``perfbench/tracing.py`` wraps these by name on this
# module and cannot install without them.
from ..memsim.alignment import (  # noqa: F401
    aligned_span,
    expand_to_blocks,
    split_by_max_transfer,
)

__all__ = ["MemoryStats", "ExternalMemoryBackend"]

#: Word dtype per gather width: a weighted edge record is one opaque
#: 16 B word, an unweighted record or a state slot one 8 B word.
_WORD_DTYPES = {
    16: np.dtype("V16"), 8: np.uint64, 4: np.uint32, 2: np.uint16, 1: np.uint8
}
_WIDEST_WORD = max(_WORD_DTYPES)


def _word_bytes(starts: np.ndarray, lengths: np.ndarray, size: int) -> int:
    """The widest gather word dividing every start, every length and ``size``."""
    # The lowest set bit of their bitwise OR, capped at the widest word.
    common = int(np.bitwise_or.reduce(starts | lengths)) | size | _WIDEST_WORD
    return common & -common


@dataclass
class MemoryStats:
    """Running counters of external-memory traffic.

    ``requests`` and ``fetched_bytes`` count what crossed the link under
    the access method's rules; ``useful_bytes`` counts what the
    traversal asked for: the bytes of the ranges
    :meth:`ExternalMemoryBackend.request` priced.
    """

    #: Issued device requests.
    requests: int = 0
    #: Bytes the device actually moved.
    fetched_bytes: int = 0
    #: Bytes the traversal asked for.
    useful_bytes: int = 0

    @property
    def read_amplification(self) -> float:
        """Measured RAF = fetched / useful."""
        return self.fetched_bytes / self.useful_bytes if self.useful_bytes else 0.0

    @property
    def avg_transfer_bytes(self) -> float:
        """Measured average request size d."""
        return self.fetched_bytes / self.requests if self.requests else 0.0


class ExternalMemoryBackend:
    """A byte store served through an access method's discipline.

    ``request`` prices a batch: the stats record what the device actually
    moved, the requests and link bytes of ``method.step_input``.  A
    batch is what a step-local cache shares fetches within (see
    :class:`repro.memsim.cache.StepLocalCache`), so step boundaries need
    no signal of their own.  ``gather`` returns exactly the requested
    bytes, concatenated in request order, and prices nothing.
    """

    def __init__(self, data: np.ndarray | bytes, method: AccessMethod) -> None:
        # Any contiguous buffer (bytes or an array's raw bytes).  A
        # read-only one is shared: its owner no longer writes it.
        store = np.frombuffer(data, dtype=np.uint8)
        self._data = store.copy() if store.flags.writeable else store
        self._method = copy.deepcopy(method)
        self._method.reset()
        self.stats = MemoryStats()

    @property
    def size_bytes(self) -> int:
        """Capacity of the stored byte range."""
        return self._data.size

    def request(self, starts: np.ndarray, lengths: np.ndarray) -> None:
        """Price a batch of byte-range reads as one device batch; no data."""
        starts, lengths = self._checked(starts, lengths)
        self._account(starts, lengths)
        self.stats.useful_bytes += int(lengths.sum())

    def gather(self, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """The bytes of the ranges, concatenated; prices nothing."""
        return self._gather(*self._checked(starts, lengths))

    def read(self, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """Serve a batch of byte-range reads; returns the gathered bytes."""
        self.request(starts, lengths)
        return self.gather(starts, lengths)

    def reset_stats(self) -> None:
        """Zero the traffic counters and empty the method's cache."""
        self.stats = MemoryStats()
        self._method.reset()

    def _checked(
        self, starts: np.ndarray, lengths: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        starts = np.asarray(starts, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        if starts.shape != lengths.shape:
            raise DeviceError("starts and lengths must have the same shape")
        if starts.size and (
            starts.min() < 0 or (starts + lengths).max() > self._data.size
        ):
            raise DeviceError("read outside the stored byte range")
        if lengths.size and lengths.min() < 0:
            raise DeviceError("lengths must be non-negative")
        return starts, lengths

    def _account(self, starts: np.ndarray, lengths: np.ndarray) -> None:
        """Add this batch's link requests under the method's rules."""
        step = self._method.step_input(starts, lengths)
        self.stats.requests += step.requests
        self.stats.fetched_bytes += step.link_bytes

    def _gather(self, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        word = _word_bytes(starts, lengths, self._data.size)
        words = self._data.view(_WORD_DTYPES[word])
        return words[ragged_index(starts // word, lengths // word)].view(np.uint8)

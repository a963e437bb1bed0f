"""External-memory backend: a byte store read through an access method.

The backend holds the raw bytes of the edge list and serves byte-range
reads the way a real device would, keeping exact counts of what crossed
the "link".  It defines no discipline of its own: every read batch is
priced by the :meth:`~repro.gpu.base.AccessMethod.request_sizes` kernel of
the :mod:`repro.gpu` access method it was built with — XLFDD direct reads
(Section 4.1.1), BaM cache lines and UVM pages (Section 3.3.2), EMOGI
zero-copy (Section 3.3.1) — the same kernel
:meth:`~repro.gpu.base.AccessMethod.physical_trace` calls once per step,
so engine bytes equal model bytes by construction.  The backend reads
through a private copy of the method, so its cache state never leaks
into (or picks up) the model's pricing.

Fast-path notes: the data a read returns is gathered at word granularity.
``_gather`` picks the widest word (8/4/2/1 B) dividing every start, every
length and the store size, views the store as that unsigned dtype and
builds one index per *word* with :func:`repro.graph.csr.ragged_index` —
the same helper as the in-memory ``gather_neighbors``.  Engine edge
records (8 B or 16 B) and state slots (8 B) always take the 8 B path;
unaligned byte ranges stay correct on the 1 B path.  The gather copies,
so returned arrays never alias the store.  Accounting (``_account``) is
independent of how the bytes are gathered.
"""

from __future__ import annotations

import copy

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
from ..telemetry.metrics import MetricRegistry
from ..units import to_usec

__all__ = ["MemoryStats", "ExternalMemoryBackend"]

#: Unsigned word dtype per gather width; the widest is the engine's
#: record and state-slot granularity.
_WORD_DTYPES = {8: np.uint64, 4: np.uint32, 2: np.uint16, 1: np.uint8}
_WIDEST_WORD = max(_WORD_DTYPES)


def _stat(name: str, doc: str, cast: type = int) -> property:
    """A MemoryStats field stored in the instance's metric registry.

    Read-modify-write assignments (``stats.retries += n``) keep working:
    the getter reads the backing ``memory.<name>`` counter, the setter
    overwrites it.
    """
    key = f"memory.{name}"

    def _get(self: "MemoryStats"):
        return cast(self.registry.counter(key).value)

    def _set(self: "MemoryStats", value) -> None:
        self.registry.counter(key).set(value)

    _get.__doc__ = doc
    return property(_get, _set)


class MemoryStats:
    """Running counters of external-memory traffic.

    The fault-exposure counters (``retries``, ``timeouts``, ``evictions``,
    ``faults_injected``) and the observed-latency samples stay zero/empty
    for plain backends; :class:`repro.faults.FaultyBackend` populates them
    so every experiment can report how much fault machinery it exercised.

    Every counter is backed by a ``memory.*`` entry in a
    :class:`~repro.telemetry.metrics.MetricRegistry` (a private one per
    instance by default; pass ``registry`` to publish into a shared one).
    The attribute API is unchanged — ``stats.requests += n`` still works —
    and :meth:`record_latency` additionally feeds the
    ``memory.latency_us`` histogram.
    """

    requests = _stat("requests", "Issued device requests.")
    fetched_bytes = _stat("fetched_bytes", "Bytes the device actually moved.")
    useful_bytes = _stat("useful_bytes", "Bytes the traversal asked for.")
    retries = _stat("retries", "Reissued attempts after failures.")
    timeouts = _stat("timeouts", "Attempts cut off at the retry timeout.")
    evictions = _stat("evictions", "Pool members evicted by health tracking.")
    faults_injected = _stat("faults_injected", "Injected per-attempt faults.")
    retry_wait_time = _stat(
        "retry_wait_time", "Total backoff wait in seconds.", cast=float
    )

    def __init__(
        self,
        requests: int = 0,
        fetched_bytes: int = 0,
        useful_bytes: int = 0,
        retries: int = 0,
        timeouts: int = 0,
        evictions: int = 0,
        faults_injected: int = 0,
        retry_wait_time: float = 0.0,
        latency_samples: list | None = None,
        *,
        registry: MetricRegistry | None = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricRegistry()
        self.requests = requests
        self.fetched_bytes = fetched_bytes
        self.useful_bytes = useful_bytes
        self.retries = retries
        self.timeouts = timeouts
        self.evictions = evictions
        self.faults_injected = faults_injected
        self.retry_wait_time = retry_wait_time
        self.latency_samples: list = (
            list(latency_samples) if latency_samples else []
        )

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)}"
            for name in (
                "requests",
                "fetched_bytes",
                "useful_bytes",
                "retries",
                "timeouts",
                "evictions",
                "faults_injected",
                "retry_wait_time",
            )
        )
        return f"MemoryStats({fields})"

    @property
    def read_amplification(self) -> float:
        """Measured RAF = fetched / useful."""
        return self.fetched_bytes / self.useful_bytes if self.useful_bytes else 0.0

    @property
    def avg_transfer_bytes(self) -> float:
        """Measured average request size d."""
        return self.fetched_bytes / self.requests if self.requests else 0.0

    @property
    def retry_factor(self) -> float:
        """Issued attempts per logical request (1.0 when fault-free)."""
        return 1.0 + self.retries / self.requests if self.requests else 1.0

    def record_latency(self, seconds) -> None:
        """Record completed-request latencies (scalar or array)."""
        samples = np.atleast_1d(np.asarray(seconds, float))
        self.latency_samples.extend(samples)
        histogram = self.registry.histogram("memory.latency_us")
        for sample in samples:
            histogram.observe(to_usec(float(sample)))

    def latency_percentile(self, q: float) -> float:
        """Observed completion-latency percentile (0.0 with no samples)."""
        if not self.latency_samples:
            return 0.0
        return float(np.percentile(np.asarray(self.latency_samples), q))

    @property
    def latency_p50(self) -> float:
        """Median observed completion latency in seconds."""
        return self.latency_percentile(50.0)

    @property
    def latency_p99(self) -> float:
        """99th-percentile observed completion latency in seconds."""
        return self.latency_percentile(99.0)

    @property
    def latency_p999(self) -> float:
        """99.9th-percentile observed completion latency in seconds."""
        return self.latency_percentile(99.9)


class ExternalMemoryBackend:
    """A byte store served through an access method's discipline.

    ``read`` returns exactly the requested bytes, concatenated in request
    order, while the stats record what the device actually moved: the
    count and sum of ``method.request_sizes`` for each batch.  A batch is
    what a step-local cache shares fetches within (see
    :class:`repro.memsim.cache.StepLocalCache`), so step boundaries need
    no signal of their own.
    """

    def __init__(self, data: np.ndarray | bytes, method: AccessMethod) -> None:
        # One copy of any contiguous buffer (bytes or an array's raw bytes).
        self._data = np.frombuffer(data, dtype=np.uint8).copy()
        self._method = copy.deepcopy(method)
        self._method.reset()
        self.stats = MemoryStats()

    @property
    def size_bytes(self) -> int:
        """Capacity of the stored byte range."""
        return self._data.size

    def read(self, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """Serve a batch of byte-range reads; returns the gathered bytes."""
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
        self._account(starts, lengths)
        self.stats.useful_bytes += int(lengths.sum())
        return self._gather(starts, lengths)

    def reset_stats(self) -> None:
        """Zero the traffic counters and empty the method's cache."""
        self.stats = MemoryStats()
        self._method.reset()

    def _account(self, starts: np.ndarray, lengths: np.ndarray) -> None:
        """Add this batch's link requests under the method's rules."""
        sizes = self._method.request_sizes(starts, lengths)
        self.stats.requests += int(sizes.size)
        self.stats.fetched_bytes += int(sizes.sum())

    def _gather(self, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        # The widest word dividing every start, every length and the store
        # size is the lowest set bit of their OR (capped at the widest).
        common = int(np.bitwise_or.reduce(starts | lengths)) | self._data.size
        common |= _WIDEST_WORD
        word = common & -common
        words = self._data.view(_WORD_DTYPES[word])
        return words[ragged_index(starts // word, lengths // word)].view(np.uint8)

"""The process's memo type and its config-hash-keyed evaluation caches.

The expensive half of :func:`repro.core.runtime_model.predict_runtime` is
``method.physical_trace(trace)`` — turning a logical access trace into
physical requests.  Sweeps and the evaluation suite price the *same*
trace through the *same* access method many times (EMOGI appears once
per normalisation baseline; the CXL latency sweep varies only the
latency, never the method), so this module keeps a small process-wide
cache keyed by two content fingerprints:

* **trace fingerprint** — SHA-256 over every step's arrays, computed
  lazily and stamped on the trace instance together with the step count
  it covered; appending steps invalidates the stamp.
* **config fingerprint** — a recursive canonical hash of any dataclass /
  primitive / NumPy composite, so two structurally equal
  ``AccessMethod`` configurations share an entry even when they are
  distinct objects.  A :class:`~repro.memsim.cache.CacheModel` (BaM's
  software cache, UVM's page pool) hashes by class and
  :meth:`~repro.memsim.cache.CacheModel.config`, never by its state:
  every discipline resets its cache before a trace.

Every memo in the process is a :class:`Memo` (bounded, FIFO eviction).
Three live here: physical traces (:func:`cached_physical_trace`),
deterministic RAF results (:mod:`repro.memsim.raf`) and built workloads
(:func:`repro.exec.tasks.workload_for`).  :func:`clear_evaluation_cache`
flushes every memo — the benchmark harness does so at the start of every
timed repeat so memoization only gets credit for *within-run* duplicate
pricing, never for state left by a warmup.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import weakref
from typing import Any, Callable, Hashable

import numpy as np

from ..errors import ModelError
from ..memsim.cache import CacheModel

__all__ = [
    "Memo",
    "physical_trace_memo",
    "raf_memo",
    "workload_memo",
    "config_fingerprint",
    "trace_fingerprint",
    "cached_physical_trace",
    "clear_evaluation_cache",
    "evaluation_cache_stats",
]

#: Every live memo, so clear_evaluation_cache can flush them all.
_memos: weakref.WeakSet[Memo] = weakref.WeakSet()


class Memo:
    """Bounded memo: FIFO eviction at ``capacity``, hit/miss counters.

    Registers itself on construction, so :func:`clear_evaluation_cache`
    flushes it together with every other memo in the process.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ModelError(f"memo capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: dict[Hashable, Any] = {}
        self.hits = 0
        self.misses = 0
        _memos.add(self)

    def get_or_compute(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        """The value stored under ``key``, computing and storing it on a miss."""
        if key in self._entries:
            self.hits += 1
            return self._entries[key]
        self.misses += 1
        value = compute()
        if len(self._entries) >= self.capacity:
            self._entries.pop(next(iter(self._entries)))
        self._entries[key] = value
        return value

    def clear(self) -> None:
        """Drop every entry and zero the counters."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    def stats(self) -> dict[str, int]:
        """``hits`` / ``misses`` / ``entries`` counters."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._entries),
        }


#: (trace, method) -> PhysicalTrace; sweeps touch a handful of pairs, so
#: this is generous while still capping memory for long-lived processes.
physical_trace_memo = Memo(capacity=256)
#: Deterministic RAF evaluations, keyed by trace and alignment parameters.
raf_memo = Memo(capacity=128)
#: (dataset, scale, seed, algorithm, source) -> (graph, trace) built by
#: :func:`repro.exec.tasks.workload_for`; one build per workload per process.
workload_memo = Memo(capacity=8)


def _update_hash(h: "hashlib._Hash", obj: Any) -> None:
    """Feed one value into the hash with an unambiguous type tag."""
    if obj is None:
        h.update(b"\x00N")
    elif isinstance(obj, bool):
        h.update(b"\x00b" + (b"1" if obj else b"0"))
    elif isinstance(obj, int):
        h.update(b"\x00i" + str(obj).encode())
    elif isinstance(obj, float):
        h.update(b"\x00f" + repr(obj).encode())
    elif isinstance(obj, str):
        h.update(b"\x00s" + obj.encode())
    elif isinstance(obj, bytes):
        h.update(b"\x00y" + obj)
    elif isinstance(obj, enum.Enum):
        h.update(b"\x00e" + type(obj).__qualname__.encode() + b"." + obj.name.encode())
    elif isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        h.update(b"\x00a" + str(arr.dtype).encode() + str(arr.shape).encode())
        h.update(arr.tobytes())
    elif isinstance(obj, np.generic):
        _update_hash(h, obj.item())
    elif isinstance(obj, CacheModel):
        h.update(b"\x00c" + type(obj).__qualname__.encode())
        _update_hash(h, obj.config())
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        h.update(b"\x00d" + type(obj).__qualname__.encode())
        for f in dataclasses.fields(obj):
            h.update(b"\x00k" + f.name.encode())
            _update_hash(h, getattr(obj, f.name))
    elif isinstance(obj, (tuple, list)):
        h.update(b"\x00t" + str(len(obj)).encode())
        for item in obj:
            _update_hash(h, item)
    elif isinstance(obj, dict):
        h.update(b"\x00m" + str(len(obj)).encode())
        for key in sorted(obj, key=repr):
            _update_hash(h, key)
            _update_hash(h, obj[key])
    else:
        raise ModelError(
            f"cannot fingerprint {type(obj).__qualname__} for evaluation caching"
        )


def config_fingerprint(obj: Any) -> str:
    """Canonical content hash of a configuration object.

    Supports dataclasses (recursively), cache models (by class and
    config), primitives, enums, NumPy arrays/scalars, and
    tuple/list/dict composites; raises
    :class:`~repro.errors.ModelError` for anything it cannot canonicalise
    (better loud than a silently colliding cache key).
    """
    h = hashlib.sha256()
    _update_hash(h, obj)
    return h.hexdigest()


def trace_fingerprint(trace: Any) -> str:
    """Content hash of an :class:`~repro.traversal.trace.AccessTrace`.

    Cached on the instance, stamped with the step count it was computed
    over — ``AccessTrace.append`` grows the trace, which invalidates the
    stamp and forces a recompute.  O(bytes) the first time, O(1) after.
    """
    stamped = getattr(trace, "_evalcache_fingerprint", None)
    num_steps = trace.num_steps
    if stamped is not None and stamped[0] == num_steps:
        return stamped[1]
    h = hashlib.sha256()
    h.update(trace.algorithm.encode())
    h.update(str(trace.edge_list_bytes).encode())
    for step in trace:
        _update_hash(h, step.starts)
        _update_hash(h, step.lengths)
    digest = h.hexdigest()
    # Plain attribute stamp; AccessTrace is a normal mutable class.
    trace._evalcache_fingerprint = (num_steps, digest)
    return digest


def cached_physical_trace(method: Any, trace: Any) -> Any:
    """``method.physical_trace(trace)`` through :data:`physical_trace_memo`.

    The key is (trace content, method configuration); the cached value is
    the :class:`~repro.gpu.base.PhysicalTrace`, which callers treat as
    immutable.  A hit leaves the method's cache model untouched, so its
    ``stats`` describe the last trace it actually ran.
    """
    key = (trace_fingerprint(trace), config_fingerprint(method))
    return physical_trace_memo.get_or_compute(
        key, lambda: method.physical_trace(trace)
    )


def clear_evaluation_cache() -> None:
    """Flush every :class:`Memo` in the process and zero its counters."""
    for memo in list(_memos):
        memo.clear()


def evaluation_cache_stats() -> dict[str, int]:
    """Physical-trace memo statistics: ``hits``, ``misses``, ``entries``."""
    return physical_trace_memo.stats()

"""The ``BENCH_<family>.json`` result schema and canonical serialization.

One file per benchmark *family* (``des``, ``traversal``, ``memsim``,
``sweep``), written as canonical JSON — sorted keys, two-space indent, a
trailing newline, and **no wall-clock timestamps** — so that reruns on
identical inputs produce byte-identical files except for the measured
times.  The payload layout::

    {
      "schema": "repro.bench/v1",
      "family": "des",
      "config": {"quick": false, "repeats": 3, "warmup": 1},
      "machine": {"python": ..., "numpy": ..., "platform": ...,
                   "cpu_count": ..., "calibration_s": ...},
      "benchmarks": [
        {"name": ..., "family": ..., "params": {...},
         "times_s": [...], "best_s": ..., "mean_s": ...,
         "normalized_best": ...,
         "throughput": {"unit": ..., "value": ...} | null,
         "verify": {...}}
      ]
    }

``normalized_best`` is the minimum over timed samples of ``sample_time /
adjacent_calibration`` — each sample is divided by a run of the fixed
seeded NumPy calibration workload taken moments before it, so the number
stays comparable across hosts and across speed epochs on shared/virtual
machines.  This is what the CI regression gate consumes (see
:mod:`repro.bench.compare` and ``docs/PERFORMANCE.md``);
``machine.calibration_s`` is the invocation-level yardstick.
``verify`` carries scenario-specific invariants (digests, aggregate
counts) that optimizations must not change.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Mapping, Sequence

import numpy as np

from ..errors import BenchError

__all__ = [
    "SCHEMA_VERSION",
    "KNOWN_FAMILIES",
    "canonical_json",
    "validate_payload",
    "array_digest",
]

SCHEMA_VERSION = "repro.bench/v1"

KNOWN_FAMILIES = (
    "des",
    "traversal",
    "memsim",
    "sweep",
    "workloads",
)

_MACHINE_KEYS = {"python", "numpy", "platform", "cpu_count", "calibration_s"}
_BENCH_KEYS = {
    "name",
    "family",
    "params",
    "times_s",
    "best_s",
    "mean_s",
    "normalized_best",
    "throughput",
    "verify",
}


def canonical_json(payload: Mapping[str, Any]) -> str:
    """Serialize ``payload`` deterministically (sorted keys, ``\\n`` EOF)."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def array_digest(arrays: Sequence[np.ndarray]) -> str:
    """A short content fingerprint of a sequence of NumPy arrays.

    Hashes each array's dtype, shape, and raw bytes in order; 16 hex
    characters of SHA-256.  Used both by benchmark ``verify`` blocks and
    by the golden regression tests to pin algorithm outputs across
    optimizations.
    """
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(str(arr.dtype).encode())
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()[:16]


def _fail(path: str, message: str) -> None:
    raise BenchError(f"invalid bench payload at {path}: {message}")


def _check_number(value: Any, path: str, *, positive: bool = False) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {type(value).__name__}")
    if positive and value <= 0:
        _fail(path, f"expected a positive number, got {value!r}")


def validate_payload(payload: Any) -> None:
    """Validate a parsed ``BENCH_*.json`` object; raise :class:`BenchError`.

    Checks the schema version, the family name, the machine block, and
    every benchmark entry (key set, positive times, consistent
    ``best_s``/``mean_s``/``normalized_best`` aggregates).
    """
    if not isinstance(payload, Mapping):
        _fail("$", "payload must be a JSON object")
    if payload.get("schema") != SCHEMA_VERSION:
        _fail("$.schema", f"expected {SCHEMA_VERSION!r}, got {payload.get('schema')!r}")
    family = payload.get("family")
    if family not in KNOWN_FAMILIES:
        _fail("$.family", f"unknown family {family!r} (known: {KNOWN_FAMILIES})")
    config = payload.get("config")
    if not isinstance(config, Mapping):
        _fail("$.config", "must be an object")
    for key in ("repeats", "warmup"):
        if not isinstance(config.get(key), int) or config[key] < 0:
            _fail(f"$.config.{key}", "must be a non-negative integer")
    if not isinstance(config.get("quick"), bool):
        _fail("$.config.quick", "must be a boolean")
    machine = payload.get("machine")
    if not isinstance(machine, Mapping):
        _fail("$.machine", "must be an object")
    missing = _MACHINE_KEYS - set(machine)
    if missing:
        _fail("$.machine", f"missing keys {sorted(missing)}")
    _check_number(machine["calibration_s"], "$.machine.calibration_s", positive=True)
    benchmarks = payload.get("benchmarks")
    if not isinstance(benchmarks, list) or not benchmarks:
        _fail("$.benchmarks", "must be a non-empty list")
    for i, bench in enumerate(benchmarks):
        _validate_benchmark(bench, f"$.benchmarks[{i}]", family)


def _validate_benchmark(bench: Any, path: str, family: str) -> None:
    if not isinstance(bench, Mapping):
        _fail(path, "must be an object")
    missing = _BENCH_KEYS - set(bench)
    if missing:
        _fail(path, f"missing keys {sorted(missing)}")
    if not isinstance(bench["name"], str) or not bench["name"]:
        _fail(f"{path}.name", "must be a non-empty string")
    if bench["family"] != family:
        _fail(f"{path}.family", f"{bench['family']!r} != payload family {family!r}")
    if not isinstance(bench["params"], Mapping):
        _fail(f"{path}.params", "must be an object")
    times = bench["times_s"]
    if not isinstance(times, list) or not times:
        _fail(f"{path}.times_s", "must be a non-empty list")
    for j, t in enumerate(times):
        _check_number(t, f"{path}.times_s[{j}]", positive=True)
    _check_number(bench["best_s"], f"{path}.best_s", positive=True)
    _check_number(bench["mean_s"], f"{path}.mean_s", positive=True)
    _check_number(bench["normalized_best"], f"{path}.normalized_best", positive=True)
    if abs(bench["best_s"] - min(times)) > 1e-12 * max(1.0, bench["best_s"]):
        _fail(f"{path}.best_s", "does not equal min(times_s)")
    throughput = bench["throughput"]
    if throughput is not None:
        if not isinstance(throughput, Mapping):
            _fail(f"{path}.throughput", "must be null or an object")
        if not isinstance(throughput.get("unit"), str):
            _fail(f"{path}.throughput.unit", "must be a string")
        _check_number(throughput.get("value"), f"{path}.throughput.value", positive=True)
    if not isinstance(bench["verify"], Mapping):
        _fail(f"{path}.verify", "must be an object")

"""``repro.bench`` — the benchmark harness behind ``repro bench``.

Seeded scenarios (:mod:`~repro.bench.scenarios`) grouped into four
families — DES event throughput, traversal end-to-end, memsim RAF
evaluation, sweep/model evaluation — timed with warmup/repeat control
(:mod:`~repro.bench.runner`) and written as machine-normalized canonical
JSON, one ``BENCH_<family>.json`` per family
(:mod:`~repro.bench.schema`).  :mod:`~repro.bench.compare` diffs two
result files and implements the CI regression gate (>15% slowdown
against the committed baseline fails).  See ``docs/PERFORMANCE.md`` for
the schema, methodology, and the measured trajectory.
"""

from .. import _attach

__all__ = [
    "SCHEMA_VERSION",
    "KNOWN_FAMILIES",
    "DEFAULT_THRESHOLD",
    "Prepared",
    "array_digest",
    "baseline_missing_rows",
    "calibrate",
    "canonical_json",
    "check_regression",
    "compare_results",
    "gate_threshold",
    "load_result",
    "machine_info",
    "prepare_family",
    "render_comparison",
    "run_benchmarks",
    "run_family",
    "run_scenario",
    "scenario_catalog",
    "validate_payload",
]

__getattr__, __dir__ = _attach(
    __name__,
    {
        ".compare": (
            "DEFAULT_THRESHOLD", "baseline_missing_rows", "check_regression",
            "compare_results", "gate_threshold", "load_result",
            "render_comparison",
        ),
        ".runner": (
            "calibrate", "machine_info", "run_benchmarks", "run_family",
            "run_scenario",
        ),
        ".scenarios": ("Prepared", "prepare_family", "scenario_catalog"),
        ".schema": (
            "KNOWN_FAMILIES", "SCHEMA_VERSION", "array_digest",
            "canonical_json", "validate_payload",
        ),
    },
)

"""Declarative experiment specs and the executors that run them.

``repro.exec`` separates *what* an experiment is from *how* it runs:

* :class:`ExperimentSpec` (and its sections :class:`GraphSpec` and
  :class:`SystemSpec`) is the declarative input type of ``repro sweep``
  — plain data that round-trips through canonical JSON and pickle.
* :func:`load_spec` reads specs from YAML with ``extend:`` chaining and
  dotted-key overrides.
* :class:`SerialExecutor` / :class:`ProcessPoolExecutor` run pure
  sweep tasks with bit-identical results regardless of executor.

Submodules defer their :mod:`repro.core` imports to call time, so this
package imports before (and is imported by) ``repro.core.sweep``.
"""

from __future__ import annotations

from .. import _attach

__all__ = [
    "ExperimentSpec",
    "GraphSpec",
    "SystemSpec",
    "SweepAxis",
    "SweepConfig",
    "LoadedSpec",
    "load_spec",
    "parse_spec_document",
    "deep_merge",
    "Executor",
    "SerialExecutor",
    "ProcessPoolExecutor",
    "default_chunk_size",
    "make_executor",
]

__getattr__, __dir__ = _attach(
    __name__,
    {
        ".executor": (
            "Executor", "ProcessPoolExecutor", "SerialExecutor",
            "default_chunk_size", "make_executor",
        ),
        ".spec": (
            "ExperimentSpec", "GraphSpec", "SweepAxis", "SweepConfig",
            "SystemSpec",
        ),
        ".yamlspec": (
            "LoadedSpec", "deep_merge", "load_spec", "parse_spec_document",
        ),
    },
)

"""Declarative experiment specs and the executors that run them.

``repro.exec`` separates *what* an experiment is from *how* it runs:

* :class:`ExperimentSpec` (and its sections :class:`GraphSpec` and
  :class:`SystemSpec`) is the declarative input type of ``repro sweep``
  — plain data that round-trips through canonical JSON and pickle.
* :func:`load_spec` reads specs from YAML with ``extend:`` chaining and
  dotted-key overrides.
* :class:`SerialExecutor` runs sweep tasks in order, inside the
  ``exec.map`` telemetry span of :meth:`Executor.map`.

No submodule imports :mod:`repro.core`, so ``repro.core.sweep`` can
import this package at its top.
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
]

__getattr__, __dir__ = _attach(
    __name__,
    {
        ".executor": ("Executor", "SerialExecutor"),
        ".spec": (
            "ExperimentSpec", "GraphSpec", "SweepAxis", "SweepConfig",
            "SystemSpec",
        ),
        ".yamlspec": (
            "LoadedSpec", "deep_merge", "load_spec", "parse_spec_document",
        ),
    },
)

"""The capacity planner: precomputed model surfaces + sub-ms queries.

:func:`build_surface` prices the device × alignment × topology ×
striping grid once (in parallel, through :mod:`repro.exec`),
:func:`save_surface`/:func:`load_surface` persist it as canonical
machine-independent JSON, and :func:`plan_query` answers "given graph
stats + an SLO, which configs meet it?" from the loaded surface without
re-running the model (``repro plan``).
"""

from __future__ import annotations

from .. import _attach

__all__ = [
    "SURFACE_SCHEMA",
    "build_surface",
    "default_grid",
    "default_workload",
    "save_surface",
    "load_surface",
    "validate_surface",
    "plan_query",
]

__getattr__, __dir__ = _attach(
    __name__,
    {
        ".query": ("plan_query",),
        ".surface": (
            "SURFACE_SCHEMA", "build_surface", "default_grid",
            "default_workload", "load_surface", "save_surface",
            "validate_surface",
        ),
    },
)

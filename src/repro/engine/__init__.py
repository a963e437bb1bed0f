"""Functional external-memory execution engine.

Everything in :mod:`repro.core` *prices* traces; this subpackage
*executes* them: the edge list lives behind a byte-granular
external-memory backend that prices every read through a
:mod:`repro.gpu` access method and counts every fetched byte, and the traversal
algorithms run against that API — the same structure as the paper's real
systems (vertex list in GPU memory, edge list on external memory,
Section 2.1).

The payoff is cross-validation: the backend's *measured* traffic equals
the access method's physical trace by construction (one
``step_input`` kernel serves both), and the engine's results must
equal the in-memory algorithms'.  Both are asserted in the test suite.
"""

from .. import _attach

__all__ = [
    "MemoryStats",
    "ExternalMemoryBackend",
    "ExternalGraphEngine",
    "EngineRun",
    "SEMI_EXTERNAL",
    "FULLY_EXTERNAL",
    "MEMORY_MODES",
]

__getattr__, __dir__ = _attach(
    __name__,
    {
        ".backend": ("MemoryStats", "ExternalMemoryBackend"),
        ".engine": (
            "FULLY_EXTERNAL", "MEMORY_MODES", "SEMI_EXTERNAL", "EngineRun",
            "ExternalGraphEngine",
        ),
    },
)

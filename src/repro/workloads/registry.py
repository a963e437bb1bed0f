"""The name → :class:`Workload` registry.

Mirrors :mod:`repro.systems`: one place maps the short names users type
(``"bfs"``, ``"triangle_count"``, ``"label_propagation"``, ...) to a
bundle of (algorithm step loop, access signature).  The CLI, the
experiment runner, the sweeps, and the bench scenarios all resolve workload names here, so an unknown name fails the
same way everywhere — with the valid choices spelled out in a typed
:class:`~repro.errors.WorkloadError`.

Usage::

    from repro import workloads

    wl = workloads.get("label_propagation")
    run = wl.run(engine)                  # over the external-memory engine
    trace = wl.trace(graph)               # in memory -> AccessTrace
    print(workloads.available())
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from ..engine.engine import EngineRun, ExternalGraphEngine
from ..errors import WorkloadError
from ..graph.csr import CSRGraph
from ..telemetry.tracer import get_tracer
from ..traversal.reader import TraceRecorder
from ..traversal.trace import AccessTrace
from .signature import AccessSignature

__all__ = [
    "Workload",
    "default_source",
    "register",
    "get",
    "available",
    "describe",
]

#: Step-loop signature: ``algorithm(reader, source, **options) -> tuple``
#: whose first item is the per-vertex values array (see
#: :mod:`repro.traversal.reader`).
AlgorithmFn = Callable[..., tuple]


def default_source(graph: CSRGraph) -> int:
    """A robust traversal source: the highest-degree vertex.

    Synthetic graphs (especially Kronecker) leave many vertices isolated;
    traversing from one would measure nothing.  The max-degree vertex is
    deterministic and always inside the giant component for the paper's
    graph families — the same intent as GAP's non-zero-degree random
    sources.  Every caller that needs a default source uses this one.
    """
    if graph.num_vertices == 0:
        raise WorkloadError("graph has no vertices")
    return int(np.argmax(graph.degrees))


@dataclass(frozen=True)
class Workload:
    """One registered workload: algorithm step loop + signature.

    Attributes
    ----------
    name / description:
        Registry key and the one-liner :func:`describe` prints.
    signature:
        The workload's :class:`~repro.workloads.AccessSignature`.
    algorithm:
        The step loop ``(reader, source, **options)``; :meth:`run` passes
        the engine as the reader, :meth:`trace` an in-memory
        :class:`~repro.traversal.reader.TraceRecorder`.
    requires_weights:
        Whether the graph needs edge weights (:meth:`prepare` attaches
        uniform random ones, the standard benchmark setup).
    needs_source:
        Whether the algorithm consumes a source vertex at all (BFS does,
        CC does not); purely informational for docs and CLIs.
    options:
        Default keyword options forwarded to ``algorithm`` (e.g. the
        ``k`` of k-core); call-site options override them.
    """

    name: str
    description: str
    signature: AccessSignature
    algorithm: AlgorithmFn
    requires_weights: bool = False
    needs_source: bool = True
    options: dict[str, Any] = field(default_factory=dict)

    def prepare(self, graph: CSRGraph) -> CSRGraph:
        """Attach uniform random weights when the workload needs them."""
        if self.requires_weights and not graph.is_weighted:
            return graph.with_uniform_random_weights(seed=0)
        return graph

    def _merged(self, options: dict[str, Any]) -> dict[str, Any]:
        merged = dict(self.options)
        merged.update(options)
        return merged

    def run(
        self,
        engine: ExternalGraphEngine,
        source: Optional[int] = None,
        **options: Any,
    ) -> EngineRun:
        """Run the algorithm over an existing engine, from zeroed stats."""
        if source is None:
            source = default_source(engine.graph)
        options = self._merged(options)
        attrs = {"source": source} if self.needs_source else {}
        engine.reset_stats()
        with get_tracer().span(
            f"engine.{self.name}",
            **attrs,
            vertices=engine.graph.num_vertices,
            **options,
        ):
            values = self.algorithm(engine, source, **options)[0]
        return EngineRun(
            values=values, steps=engine.steps, stats=engine.backend.stats
        )

    def trace(
        self,
        graph: CSRGraph,
        source: Optional[int] = None,
        **options: Any,
    ) -> AccessTrace:
        """Run the in-memory algorithm and return its access trace."""
        graph = self.prepare(graph)
        if source is None:
            source = default_source(graph)
        recorder = TraceRecorder(graph)
        self.algorithm(recorder, source, **self._merged(options))
        return recorder.trace(self.name)


_REGISTRY: dict[str, Workload] = {}


def register(workload: Workload, *, replace: bool = False) -> None:
    """Add ``workload`` to the registry under its (lowercased) name.

    Re-registering an existing name raises unless ``replace=True`` — a
    silent override would make :func:`get` depend on import order.
    """
    key = workload.name.lower()
    if not key:
        raise WorkloadError("workload name must be non-empty")
    if key in _REGISTRY and not replace:
        raise WorkloadError(
            f"workload {key!r} is already registered; pass replace=True "
            "to override"
        )
    _REGISTRY[key] = workload


def available() -> list[str]:
    """All registered workload names, sorted."""
    return sorted(_REGISTRY)


def get(name: str) -> Workload:
    """Look up the workload registered under ``name``.

    Unknown names raise :class:`~repro.errors.WorkloadError` (a
    :class:`~repro.errors.ModelError`) listing the valid choices.
    """
    key = name.lower()
    workload = _REGISTRY.get(key)
    if workload is None:
        raise WorkloadError(
            f"unknown workload {name!r}; available: {', '.join(available())}"
        )
    return workload


def describe() -> str:
    """One line per registered workload: name, signature, description."""
    lines = []
    for key in available():
        wl = _REGISTRY[key]
        sig = wl.signature
        tags = (
            f"seq={sig.sequential_read_fraction:.2f} "
            f"write={sig.write_fraction:.2f} {sig.frontier_profile}"
        )
        lines.append(f"{key:<18} [{tags:<32}] {wl.description}")
    return "\n".join(lines)

"""Named registry of graph workloads (the analogue of ``repro.systems``).

A *workload* bundles two things under one name: the algorithm's step
loop (written once in :mod:`repro.traversal` against a reader, so the
same code runs over the external-memory engine and in memory), and an
:class:`AccessSignature` describing how the algorithm touches memory —
sequential/random read ratio, write fraction, frontier-density profile.
``repro run/profile/serve/sweep/bench`` all resolve workload names here,
so adding an algorithm means one :func:`register` call and an unknown
name fails identically everywhere, with the valid choices spelled out.

Eight workloads ship built in: the original five traversals (``bfs``,
``sssp``, ``cc``, ``pagerank``, ``kcore``) plus three new signature
classes — ``triangle_count`` (two-phase neighborhood join),
``label_propagation`` (dense synchronous sweeps), and ``random_walk``
(tiny-frontier pointer chase).
"""

from __future__ import annotations

from typing import Any, Optional

# Eager, unlike the other package namespaces: importing this package runs
# the register() calls below, so every get()/available() caller sees all
# eight built-in workloads.
from ..engine.backend import ExternalMemoryBackend
from ..engine.engine import (
    FULLY_EXTERNAL,
    MEMORY_MODES,
    SEMI_EXTERNAL,
    ExternalGraphEngine,
)
from ..graph.csr import CSRGraph
from ..traversal.bfs import bfs_steps
from ..traversal.cc import cc_steps
from ..traversal.kcore import kcore_steps
from ..traversal.labelprop import label_propagation_steps
from ..traversal.pagerank import pagerank_steps
from ..traversal.sssp import sssp_steps
from ..traversal.triangles import triangle_count_steps
from ..traversal.walks import random_walk_steps
from .registry import Workload, available, describe, get, register
from .signature import FRONTIER_PROFILES, REUSE_CLASSES, AccessSignature

__all__ = [
    "AccessSignature",
    "FRONTIER_PROFILES",
    "REUSE_CLASSES",
    "Workload",
    "register",
    "get",
    "available",
    "describe",
    "build_engine",
]


def build_engine(
    graph: CSRGraph,
    system: Any,
    *,
    memory_mode: str = SEMI_EXTERNAL,
    workload: Optional[Workload] = None,
) -> ExternalGraphEngine:
    """Build an engine for ``graph`` on ``system`` in ``memory_mode``.

    The backend reads through the system's own access method and, when
    ``workload`` is given, the graph is prepared first (e.g. SSSP
    weights are attached).
    """
    if workload is not None:
        graph = workload.prepare(graph)
    return ExternalGraphEngine(
        graph,
        lambda data: ExternalMemoryBackend(data, system.method),
        memory_mode=memory_mode,
    )


register(
    Workload(
        name="bfs",
        description="Level-synchronous BFS (the paper's primary workload).",
        signature=AccessSignature(0.05, 0.06, "wavefront", reuse="low"),
        algorithm=bfs_steps,
    )
)
register(
    Workload(
        name="sssp",
        description="Frontier Bellman-Ford on uniform random weights.",
        signature=AccessSignature(0.05, 0.10, "wavefront", reuse="medium"),
        algorithm=sssp_steps,
        requires_weights=True,
    )
)
register(
    Workload(
        name="cc",
        description="Connected components by min-label propagation.",
        signature=AccessSignature(0.10, 0.10, "shrinking", reuse="medium"),
        algorithm=cc_steps,
        needs_source=False,
    )
)
register(
    Workload(
        name="pagerank",
        description="Push-style PageRank (dense sequential sweeps).",
        signature=AccessSignature(0.90, 0.06, "dense", reuse="high"),
        algorithm=pagerank_steps,
        needs_source=False,
    )
)
register(
    Workload(
        name="kcore",
        description="k-core peeling (shrinking residual-degree rounds).",
        signature=AccessSignature(0.10, 0.05, "shrinking", reuse="medium"),
        algorithm=kcore_steps,
        needs_source=False,
        options={"k": 2},
    )
)
register(
    Workload(
        name="triangle_count",
        description="Forward triangle counting (two-phase neighborhood join).",
        signature=AccessSignature(0.50, 0.0, "dense", reuse="medium"),
        algorithm=triangle_count_steps,
        needs_source=False,
    )
)
register(
    Workload(
        name="label_propagation",
        description="Synchronous mode-label community detection.",
        signature=AccessSignature(0.90, 0.06, "dense", reuse="high"),
        algorithm=label_propagation_steps,
        needs_source=False,
    )
)
register(
    Workload(
        name="random_walk",
        description="Seeded uniform random walks (tiny-frontier pointer chase).",
        signature=AccessSignature(0.0, 0.02, "sparse", reuse="low"),
        algorithm=random_walk_steps,
    )
)

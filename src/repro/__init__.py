"""repro — reproduction of *GPU Graph Processing on CXL-Based
Microsecond-Latency External Memory* (Sano et al., SC-W 2023).

The package simulates GPU graph traversal over external memory — host
DRAM, CXL memory with adjustable latency, low-latency flash (XLFDD), and
NVMe SSDs — and reproduces the paper's analysis and every table/figure of
its evaluation.  See ``DESIGN.md`` for the system inventory and
``EXPERIMENTS.md`` for paper-vs-measured results.

Quickstart::

    from repro import load_dataset, run_algorithm, systems
    from repro.core import predict_runtime

    graph = load_dataset("urand", scale=16)
    trace = run_algorithm(graph, "bfs")
    dram = predict_runtime(trace, systems.get("emogi"))
    cxl = predict_runtime(trace, systems.get("cxl", added_latency=1e-6))
    print(cxl.runtime / dram.runtime)

System configurations resolve by name through :mod:`repro.systems`
(``systems.available()`` lists them) and workloads through
:mod:`repro.workloads` (``workloads.available()`` lists the eight
registered algorithm kernels — docs/WORKLOADS.md); telemetry lives in
:mod:`repro.telemetry` (``Tracer``, ``use_tracer``, exporters — see
docs/TELEMETRY.md).

``import repro`` loads no subpackage.  Every package namespace is lazy
(PEP 562): it maps each public name to the submodule that defines it
and imports that submodule on first access, so a run loads only the
modules it uses.  Two kinds of name stay eager: registries whose import
registers entries (:mod:`repro.workloads`, ``repro.analysis.rules``)
and exports named like their own submodule (``repro.traversal.bfs``,
``kcore``, ``pagerank``).  Code inside the package imports from the
defining submodule, never through a package namespace.

Subpackages
-----------
``graph``
    CSR storage, generators, Table 1 datasets.
``traversal``
    BFS / SSSP / CC / PageRank with external-memory access traces.
``memsim``
    Alignment, caches, read amplification (Figure 3), GPU coalescing.
``devices``
    Host DRAM, CXL prototype (Figure 10), XLFDD, NVMe, flash substrate.
``interconnect``
    PCIe generations (W, N_max), CXL flit accounting, NUMA topology.
``gpu``
    Access methods (EMOGI zero-copy, BaM, XLFDD driver), warp occupancy.
``sim``
    Fluid step-time model, discrete-event simulator, pointer chase.
``core``
    Equations 1-6, requirement calculator, experiments, sweeps, reports.
``telemetry``
    Zero-dependency tracing (spans/events/counters) with JSONL /
    Chrome-trace / profile exporters.
``systems``
    Name -> system-configuration registry shared by the CLI and sweeps.
``workloads``
    Name -> workload registry (algorithm kernel + engine memory mode +
    access signature) (docs/WORKLOADS.md).
``exec``
    Declarative :class:`ExperimentSpec` (YAML-loadable, ``extend:`` +
    dotted overrides) and the serial sweep executor (docs/SCALING.md).
"""

import importlib
import sys
from typing import Any, Callable, Mapping, Sequence

__version__ = "1.0.0"

__all__ = [
    "CSRGraph",
    "build_csr",
    "uniform_random_graph",
    "kronecker_graph",
    "chung_lu_graph",
    "load_dataset",
    "graph_stats",
    "bfs",
    "sssp_bellman_ford",
    "connected_components",
    "pagerank",
    "AccessTrace",
    "emogi_system",
    "bam_system",
    "xlfdd_system",
    "cxl_system",
    "run_algorithm",
    "run_experiment",
    "run_evaluation",
    "predict_runtime",
    "requirements_for",
    "ExternalGraphEngine",
    "Tracer",
    "NullTracer",
    "get_tracer",
    "use_tracer",
    "systems",
    "workloads",
    "ExperimentSpec",
    "GraphSpec",
    "SystemSpec",
    "SweepConfig",
    "SweepResult",
    "SerialExecutor",
    "load_spec",
    "run_sweep",
    "__version__",
]


def _attach(
    package: str, table: Mapping[str, Sequence[str]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` making ``package`` a lazy namespace (PEP 562).

    ``table`` maps a relative submodule (``".csr"``) to the names it
    defines.  A name's submodule is imported on first access and the
    name is cached in the package globals, so later lookups are plain
    attribute reads; a name equal to its submodule's own name
    (``".systems": ("systems",)``) resolves to the submodule itself.
    """
    home = {name: module for module, names in table.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        module = home.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        sub = importlib.import_module(module, package)
        value = sub if sub.__name__ == f"{package}.{name}" else getattr(sub, name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | home.keys())

    return __getattr__, __dir__


__getattr__, __dir__ = _attach(
    __name__,
    {
        ".graph": (
            "CSRGraph", "build_csr", "uniform_random_graph",
            "kronecker_graph", "chung_lu_graph", "load_dataset",
            "graph_stats",
        ),
        ".traversal": (
            "bfs", "sssp_bellman_ford", "connected_components", "pagerank",
            "AccessTrace",
        ),
        ".core": (
            "emogi_system", "bam_system", "xlfdd_system", "cxl_system",
            "run_algorithm", "run_experiment", "run_evaluation",
            "predict_runtime", "requirements_for",
        ),
        ".engine.engine": ("ExternalGraphEngine",),
        ".telemetry": ("NullTracer", "Tracer", "get_tracer", "use_tracer"),
        ".systems": ("systems",),
        ".workloads": ("workloads",),
        ".exec": (
            "ExperimentSpec", "GraphSpec", "SystemSpec", "SweepConfig",
            "SerialExecutor", "load_spec",
        ),
        ".core.sweep": ("SweepResult", "run_sweep"),
    },
)

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
``faults``
    Seeded fault injection (transient errors, latency spikes, device
    dropout), retries, and pool-level graceful degradation.
``telemetry``
    Zero-dependency tracing (spans/events/counters) and metrics with
    JSONL / Chrome-trace / profile exporters.
``ops``
    Traffic-driven serving scenarios: open-arrival load, fault storms,
    a self-healing controller, and SLO-attainment reports
    (``repro serve``, docs/OPERATIONS.md).
``systems``
    Name -> system-configuration registry shared by the CLI and sweeps.
``workloads``
    Name -> workload registry (algorithm kernel + engine memory mode +
    access signature), streaming graph updates, and multi-tenant
    serving (docs/WORKLOADS.md).
``exec``
    Declarative :class:`ExperimentSpec` (YAML-loadable, ``extend:`` +
    dotted overrides) and the serial/process-pool sweep executors
    (docs/SCALING.md).
``planner``
    Capacity planner: precomputed model surfaces + sub-ms SLO queries
    (``repro plan``, docs/SCALING.md).
"""

from .graph import (
    CSRGraph,
    build_csr,
    uniform_random_graph,
    kronecker_graph,
    chung_lu_graph,
    load_dataset,
    graph_stats,
)
from .traversal import (
    bfs,
    sssp_bellman_ford,
    sssp_delta_stepping,
    connected_components,
    pagerank,
    AccessTrace,
)
from .core import (
    emogi_system,
    bam_system,
    xlfdd_system,
    cxl_system,
    run_algorithm,
    run_experiment,
    run_evaluation,
    predict_runtime,
    requirements_for,
)
from .engine.engine import ExternalGraphEngine
from .faults import (
    FaultPlan,
    RetryPolicy,
    FaultyBackend,
    faulty_factory,
    run_fault_experiment,
)
from .telemetry import (
    MetricRegistry,
    NullTracer,
    Tracer,
    get_registry,
    get_tracer,
    use_tracer,
)
from .ops import (
    ControllerPolicy,
    FaultStorm,
    ServingConfig,
    SloReport,
    TrafficModel,
    compare_reports,
    named_storm,
    run_serving_scenario,
)
from . import systems
from . import workloads
from .exec import (
    ExperimentSpec,
    GraphSpec,
    SystemSpec,
    SweepConfig,
    SerialExecutor,
    ProcessPoolExecutor,
    load_spec,
)
from .core.sweep import SweepResult, run_sweep

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
    "sssp_delta_stepping",
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
    "FaultPlan",
    "RetryPolicy",
    "FaultyBackend",
    "faulty_factory",
    "run_fault_experiment",
    "Tracer",
    "NullTracer",
    "MetricRegistry",
    "get_tracer",
    "get_registry",
    "use_tracer",
    "ControllerPolicy",
    "FaultStorm",
    "ServingConfig",
    "SloReport",
    "TrafficModel",
    "compare_reports",
    "named_storm",
    "run_serving_scenario",
    "systems",
    "workloads",
    "ExperimentSpec",
    "GraphSpec",
    "SystemSpec",
    "SweepConfig",
    "SweepResult",
    "SerialExecutor",
    "ProcessPoolExecutor",
    "load_spec",
    "run_sweep",
    "__version__",
]

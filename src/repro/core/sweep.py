"""Parameter sweeps behind the paper's figures, on the executor API.

Every runtime figure in the paper is "sweep one knob, normalise by the
EMOGI/host-DRAM runtime": alignment size for Figure 5, (algorithm x
dataset) for Figure 6, added CXL latency for Figure 11.  Two entry
points run those sweeps today:

* :func:`run_sweep` — the declarative path: an
  :class:`~repro.exec.ExperimentSpec` plus a
  :class:`~repro.exec.SweepConfig` grid of dotted-key overrides.  Every
  point is a pure, picklable task, so any
  :class:`~repro.exec.Executor` (serial or process pool) produces
  bit-identical results.
* :func:`sweep_trace` — the trace-sharing path: price a list of system
  configs against one already-built :class:`AccessTrace` so that every
  point prices the same workload.  :func:`alignment_grid` and
  :func:`cxl_latency_grid` build the figures' config lists, and
  :func:`comparison_matrix` runs Figure 6's (graph, algorithm) cells.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from ..errors import ModelError
from ..exec.executor import Executor, SerialExecutor
from ..exec.spec import ExperimentSpec, SweepConfig
from ..exec.tasks import compare_methods_cell, evaluate_sweep_point, price_trace_point
from ..graph.csr import CSRGraph
from ..interconnect.pcie import PCIeLink
from ..telemetry.tracer import get_tracer
from ..traversal.trace import AccessTrace
from .runtime_model import SystemModel

# Late binding through the registry (repro.systems) keeps every sweep in
# lock-step with the CLI's system names; aliased because
# ``comparison_matrix`` has a ``systems`` parameter.
from .. import systems as systems_registry

__all__ = [
    "SweepPoint",
    "SweepResult",
    "normalized",
    "run_sweep",
    "sweep_trace",
    "alignment_grid",
    "cxl_latency_grid",
    "comparison_matrix",
]


@dataclass(frozen=True)
class SweepPoint:
    """One sweep sample: the knob value, the runtime, and the ratio to
    the baseline system's runtime on the identical workload.

    Fields are coerced to built-in ``float``/``str`` on construction so
    points round-trip through pickle (process-pool transport) and
    canonical JSON unchanged — NumPy scalars sneaking in through sweep
    axes (``np.float64`` latencies, ``np.int64`` alignments) used to
    make ``json.dumps`` fail and pickles non-canonical.
    """

    x: float
    runtime: float
    normalized_runtime: float
    system: str
    bound: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "runtime", float(self.runtime))
        object.__setattr__(
            self, "normalized_runtime", float(self.normalized_runtime)
        )
        object.__setattr__(self, "system", str(self.system))
        object.__setattr__(self, "bound", str(self.bound))

    def as_dict(self) -> dict[str, float | str]:
        """Plain-data view; :meth:`from_dict` inverts it exactly."""
        return {
            "x": self.x,
            "runtime": self.runtime,
            "normalized_runtime": self.normalized_runtime,
            "system": self.system,
            "bound": self.bound,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepPoint":
        """Rebuild a point from :meth:`as_dict` output."""
        return cls(**data)


def normalized(runtimes: Sequence[float], baseline: float) -> list[float]:
    """Each runtime divided by ``baseline`` (the figures' y-axis)."""
    if baseline <= 0:
        raise ModelError(f"baseline runtime must be positive, got {baseline}")
    return [r / baseline for r in runtimes]


# ---------------------------------------------------------------------------
# Spec-based sweeps (the declarative path)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepResult:
    """A priced sweep grid: one row per point, in grid order.

    Rows are plain dicts (``overrides``, ``runtime``, ``system``,
    ``bound``, and ``normalized_runtime`` when the sweep declared a
    baseline) so the whole result serialises to canonical JSON and
    pickles across processes unchanged.
    """

    spec: ExperimentSpec
    axes: tuple[str, ...]
    rows: tuple[dict[str, Any], ...]
    baseline_runtime: float | None = None

    def points(self, axis: str | None = None) -> list[SweepPoint]:
        """Rows as :class:`SweepPoint` with ``axis`` as the x value.

        Defaults to the first sweep axis; requires a declared baseline
        (there is no normalised runtime without one).
        """
        if self.baseline_runtime is None:
            raise ModelError(
                "sweep has no baseline; declare sweep.baseline to get "
                "normalised points"
            )
        axis = axis or (self.axes[0] if self.axes else None)
        if axis is None:
            raise ModelError("sweep has no axes to use as x")
        out = []
        for i, row in enumerate(self.rows):
            value = row["overrides"].get(axis, i)
            try:
                x = float(value)
            except (TypeError, ValueError):
                x = float(i)
            out.append(
                SweepPoint(
                    x=x,
                    runtime=row["runtime"],
                    normalized_runtime=row["normalized_runtime"],
                    system=row["system"],
                    bound=row["bound"],
                )
            )
        return out

    def as_dict(self) -> dict[str, Any]:
        """Canonical-JSON-ready view of the whole result."""
        return {
            "spec": self.spec.to_dict(),
            "axes": list(self.axes),
            "baseline_runtime": self.baseline_runtime,
            "rows": [dict(row) for row in self.rows],
        }


def run_sweep(
    spec: ExperimentSpec,
    config: SweepConfig,
    *,
    executor: Executor | None = None,
) -> SweepResult:
    """Price the spec's cartesian sweep grid, one pure task per point.

    The baseline point (``config.baseline`` overrides, typically EMOGI
    on host DRAM) is priced parent-side with the identical task
    function, then every grid point is dispatched through ``executor``
    with its spec fingerprint as the memo key — results are
    bit-identical for any executor and memo hits are executor-
    independent.
    """
    executor = executor or SerialExecutor()
    spec_dict = spec.to_dict()
    grid = list(config.points())
    payloads = [{"spec": spec_dict, "overrides": o} for o in grid]
    keys = [spec.with_overrides(o).fingerprint() for o in grid]
    with get_tracer().span(
        "sweep.run", points=len(grid), executor=executor.name
    ):
        baseline_runtime = None
        if config.baseline is not None:
            baseline_runtime = evaluate_sweep_point(
                {"spec": spec_dict, "overrides": dict(config.baseline)}
            )["runtime"]
        results = executor.map(evaluate_sweep_point, payloads, keys=keys)
        rows = []
        for result in results:
            row = dict(result)
            if baseline_runtime is not None:
                row["normalized_runtime"] = row["runtime"] / baseline_runtime
            rows.append(row)
    return SweepResult(
        spec=spec,
        axes=tuple(axis.key for axis in config.axes),
        rows=tuple(rows),
        baseline_runtime=baseline_runtime,
    )


# ---------------------------------------------------------------------------
# Trace-sharing sweeps (the figures' path)
# ---------------------------------------------------------------------------


def alignment_grid(
    alignments: Sequence[int] = (16, 32, 64, 128, 256, 512, 1024, 2048, 4096),
    *,
    include_bam: bool = True,
) -> list[dict[str, Any]]:
    """Figure 5 configs: XLFDD per alignment (+ BaM's 4 kB point)."""
    grid: list[dict[str, Any]] = [
        {
            "x": float(a),
            "system": "xlfdd",
            "options": {"alignment_bytes": int(a)},
            "span": ("sweep.alignment.point", {"alignment": int(a)}),
        }
        for a in alignments
    ]
    if include_bam:
        grid.append({"x": 4096.0, "system": "bam", "options": {}})
    return grid


def cxl_latency_grid(
    added_latencies: Sequence[float] = (0.0, 1e-6, 2e-6, 3e-6),
    *,
    devices: int = 5,
) -> list[dict[str, Any]]:
    """Figure 11 configs: the CXL pool per added device latency."""
    return [
        {
            "x": float(added),
            "system": "cxl",
            "options": {"added_latency": float(added), "devices": devices},
            "span": ("sweep.cxl_latency.point", {"added_latency": float(added)}),
        }
        for added in added_latencies
    ]


def sweep_trace(
    trace: AccessTrace,
    configs: Sequence[Mapping[str, Any]],
    link: PCIeLink | None = None,
    *,
    baseline_system: str = "emogi",
    executor: Executor | None = None,
) -> list[SweepPoint]:
    """Price ``configs`` against one shared trace, normalised in-order.

    Each config is ``{"x": knob, "system": registry name, "options":
    factory kwargs, "span": optional telemetry span}``.  The trace is
    bound into the task with ``functools.partial`` so a process pool
    ships it once per chunk, and the baseline runtime is priced
    parent-side — the one division producing ``normalized_runtime``
    always happens in the parent, keeping results bit-identical across
    executors.
    """
    link = link or PCIeLink.from_name("gen4")
    executor = executor or SerialExecutor()
    task = functools.partial(price_trace_point, trace)
    baseline = task(
        {"x": 0.0, "system": baseline_system, "link": link, "options": {}}
    )["runtime"]
    items = [
        {
            "x": cfg["x"],
            "system": cfg["system"],
            "link": link,
            "options": dict(cfg.get("options") or {}),
            "span": cfg.get("span"),
        }
        for cfg in configs
    ]
    results = executor.map(task, items)
    norms = normalized([r["runtime"] for r in results], baseline)
    return [
        SweepPoint(
            x=r["x"],
            runtime=r["runtime"],
            normalized_runtime=norm,
            system=r["system"],
            bound=r["bound"],
        )
        for r, norm in zip(results, norms)
    ]


def comparison_matrix(
    graphs: Sequence[CSRGraph],
    algorithms: Sequence[str] = ("bfs", "sssp"),
    link: PCIeLink | None = None,
    *,
    systems: Sequence[SystemModel] | None = None,
    source: int | None = None,
    executor: Executor | None = None,
) -> list[dict[str, float | str]]:
    """Figure 6: normalised runtimes of XLFDD and BaM across workloads.

    One row per (graph, algorithm, system) with the EMOGI-normalised
    runtime; callers aggregate with
    :func:`repro.core.report.geometric_mean` to reproduce the paper's
    "1.13x vs 2.76x" summary.  Each (graph, algorithm) cell is one
    executor task that shares its trace across the compared systems.
    """
    link = link or PCIeLink.from_name("gen4")
    executor = executor or SerialExecutor()
    if systems is None:
        systems = (
            systems_registry.get("xlfdd", link),
            systems_registry.get("bam", link),
        )
    task = functools.partial(
        compare_methods_cell, tuple(graphs), link, tuple(systems), source
    )
    items = [
        {"graph_index": i, "algorithm": algorithm}
        for i in range(len(graphs))
        for algorithm in algorithms
    ]
    nested = executor.map(task, items)
    return [row for rows in nested for row in rows]

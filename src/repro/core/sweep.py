"""Parameter sweeps behind the paper's figures, on the executor API.

Every runtime figure in the paper is "sweep one knob, normalise by the
EMOGI/host-DRAM runtime on the identical workload": alignment size for
Figure 5, the compared system for Figure 6, added CXL latency for
Figure 11.  :func:`sweep_trace` is the one pricing path: it prices a
list of system configs against one already-built :class:`AccessTrace`
and normalises each runtime by a baseline priced on that same trace,
through :func:`normalized` — the only code that divides a runtime by a
baseline.  :func:`alignment_grid`, :func:`comparison_grid` and
:func:`cxl_latency_grid` build the config lists of Figures 5, 6 and 11.

Everything else prices through it:

* :func:`run_sweep` — the declarative path behind ``repro sweep``: an
  :class:`~repro.exec.ExperimentSpec` plus a
  :class:`~repro.exec.SweepConfig` grid of dotted-key overrides.  The
  parent resolves every grid point, builds each distinct workload once
  and prices its points with :func:`sweep_trace`.
* ``repro evaluate`` (:func:`~repro.exec.tasks.evaluate_workload`),
  :mod:`repro.figures` and the planner's surfaces
  (:func:`~repro.planner.build_surface`).

The trace is bound into the pricing task with ``functools.partial``, so
any :class:`~repro.exec.Executor` (serial or process pool) ships it once
per chunk and produces bit-identical results.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from ..errors import ModelError
from ..exec.executor import Executor, SerialExecutor
from ..exec.spec import ExperimentSpec, SweepConfig
from ..exec.tasks import price_trace_point, workload_for
from ..interconnect.pcie import PCIeLink
from ..telemetry.tracer import get_tracer
from ..traversal.trace import AccessTrace

__all__ = [
    "SweepPoint",
    "SweepResult",
    "normalized",
    "run_sweep",
    "sweep_trace",
    "alignment_grid",
    "comparison_grid",
    "cxl_latency_grid",
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


def _system_config(spec: ExperimentSpec) -> dict[str, Any]:
    """The spec's system section as a :func:`sweep_trace` config."""
    return {
        "system": spec.system.name,
        "link": spec.resolve_link(),
        "options": dict(spec.system.options),
    }


def _workload_key(spec: ExperimentSpec) -> tuple[Any, ...]:
    """The :func:`~repro.exec.tasks.workload_for` key of a spec."""
    graph = spec.graph
    return (graph.dataset, graph.scale, graph.seed, spec.algorithm, spec.source)


def run_sweep(
    spec: ExperimentSpec,
    config: SweepConfig,
    *,
    executor: Executor | None = None,
) -> SweepResult:
    """Price the spec's cartesian sweep grid through :func:`sweep_trace`.

    The parent resolves every grid point and builds each distinct
    workload once; each workload's points are priced against its trace
    by ``executor``, so results are bit-identical for any executor.
    Each row is normalised by the baseline (``config.baseline``
    overrides, typically EMOGI on host DRAM) priced on *its own*
    workload; ``baseline_runtime`` is the base spec's.
    """
    executor = executor or SerialExecutor()
    grid = list(config.points())
    specs = [spec.with_overrides(overrides) for overrides in grid]
    baseline = None
    if config.baseline is not None:
        baseline = _system_config(spec.with_overrides(config.baseline))
    groups: dict[tuple[Any, ...], list[int]] = {}
    for i, point in enumerate(specs):
        groups.setdefault(_workload_key(point), []).append(i)
    rows: list[dict[str, Any]] = [{} for _ in grid]
    with get_tracer().span(
        "sweep.run", points=len(grid), executor=executor.name
    ):
        baseline_runtime = None
        if baseline is not None:
            _, trace = workload_for(*_workload_key(spec))
            baseline_runtime = price_trace_point(trace, _item(baseline))["runtime"]
        for key, indices in groups.items():
            _, trace = workload_for(*key)
            configs = [_system_config(specs[i]) for i in indices]
            if baseline is None:
                priced = _price(trace, configs, None, executor)
            else:
                priced = [
                    p.as_dict()
                    for p in sweep_trace(
                        trace, configs, baseline=baseline, executor=executor
                    )
                ]
            for i, result in zip(indices, priced):
                result.pop("x")
                rows[i] = {"overrides": grid[i], **result}
    return SweepResult(
        spec=spec,
        axes=tuple(axis.key for axis in config.axes),
        rows=tuple(rows),
        baseline_runtime=baseline_runtime,
    )


# ---------------------------------------------------------------------------
# Trace-sharing sweeps: the one pricing path
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


def comparison_grid() -> list[dict[str, Any]]:
    """Figure 6 configs: XLFDD and BaM at their registry defaults."""
    return [
        {"x": 0.0, "system": "xlfdd", "options": {}},
        {"x": 0.0, "system": "bam", "options": {}},
    ]


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


def _item(config: Mapping[str, Any], link: PCIeLink | None = None) -> dict[str, Any]:
    """A :func:`~repro.exec.tasks.price_trace_point` payload for ``config``.

    The config's own ``"link"`` (``None`` = the factory default) wins
    over the sweep's ``link``.
    """
    return {
        "x": config.get("x", 0.0),
        "system": config["system"],
        "link": config.get("link", link),
        "options": dict(config.get("options") or {}),
        "span": config.get("span"),
    }


def _price(
    trace: AccessTrace,
    configs: Sequence[Mapping[str, Any]],
    link: PCIeLink | None,
    executor: Executor,
) -> list[dict[str, Any]]:
    """Price ``configs`` against ``trace`` through ``executor``, in order."""
    task = functools.partial(price_trace_point, trace)
    return executor.map(task, [_item(cfg, link) for cfg in configs])


def sweep_trace(
    trace: AccessTrace,
    configs: Sequence[Mapping[str, Any]],
    link: PCIeLink | None = None,
    *,
    baseline: Mapping[str, Any] | None = None,
    executor: Executor | None = None,
) -> list[SweepPoint]:
    """Price ``configs`` against one shared trace, normalised in-order.

    Each config is ``{"x": knob, "system": registry name, "options":
    factory kwargs, "link": optional PCIeLink (default: ``link``),
    "span": optional telemetry span}``; ``baseline`` has the same shape
    and defaults to EMOGI at ``link``.  The trace is bound into the task
    with ``functools.partial`` so a process pool ships it once per
    chunk, and the baseline runtime is priced parent-side — the one
    division producing ``normalized_runtime`` always happens in the
    parent, keeping results bit-identical across executors.
    """
    link = link or PCIeLink.from_name("gen4")
    executor = executor or SerialExecutor()
    base = price_trace_point(trace, _item(baseline or {"system": "emogi"}, link))
    results = _price(trace, configs, link, executor)
    norms = normalized([r["runtime"] for r in results], base["runtime"])
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

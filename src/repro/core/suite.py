"""The full evaluation suite in one call.

``run_evaluation`` executes the complete paper matrix — every dataset,
both traversal algorithms, all four systems, plus the CXL latency sweep —
and returns a single structured report.  This is the programmatic
equivalent of "reproduce the evaluation section", used by the
``repro evaluate`` CLI command and the release smoke test.

Each (dataset, algorithm) workload is one :func:`evaluate_workload`
task, run through :meth:`~repro.exec.Executor.map`; the report
aggregates rows in fixed workload order.  Each task prices its cell
through :func:`~repro.core.sweep.sweep_trace` over
:func:`~repro.core.sweep.comparison_grid` and
:func:`~repro.core.sweep.cxl_latency_grid`, the same path as
:func:`repro.figures.figure6` and :func:`repro.figures.figure11`, so
the report's rows equal the figures' rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from ..errors import ModelError
from ..exec.executor import Executor, SerialExecutor
from ..interconnect.pcie import PCIeLink
from ..telemetry.tracer import get_tracer
from ..units import USEC
from .report import format_table, system_geomean
from .sweep import comparison_grid, cxl_latency_grid, sweep_trace, workload_for

__all__ = ["EvaluationReport", "evaluate_workload", "run_evaluation"]


@dataclass
class EvaluationReport:
    """All rows of one full evaluation run plus headline aggregates."""

    scale: int
    comparison_rows: list[dict] = field(default_factory=list)
    latency_rows: list[dict] = field(default_factory=list)
    xlfdd_geomean: float = 0.0
    bam_geomean: float = 0.0
    cxl_flat_worst: float = 0.0

    def render(self) -> str:
        """Human-readable multi-table report."""
        parts = [
            format_table(
                self.comparison_rows,
                title=f"evaluation @ scale {self.scale}: normalized runtimes "
                "(Figure 6 matrix)",
            ),
            "",
            format_table(
                self.latency_rows,
                title="CXL latency sweep, Gen3 (Figure 11 matrix)",
            ),
            "",
            f"geomean normalized runtime: xlfdd {self.xlfdd_geomean:.2f}x "
            f"(paper 1.13x), bam {self.bam_geomean:.2f}x (paper 2.76x)",
            f"worst CXL(+0us) deviation from host DRAM: "
            f"{100 * (self.cxl_flat_worst - 1):.1f}% (paper: 'almost identical')",
        ]
        return "\n".join(parts)

    def headline_checks(self) -> dict[str, bool]:
        """The paper's claims as booleans (for CI-style gating)."""
        return {
            "observation1_xlfdd_near_dram": self.xlfdd_geomean < 1.4,
            "observation1_bam_clearly_slower": self.bam_geomean > 1.4,
            "observation1_ordering": self.xlfdd_geomean < self.bam_geomean,
            "observation2_flat_at_zero": self.cxl_flat_worst < 1.12,
        }


def evaluate_workload(item: Mapping[str, Any]) -> dict[str, Any]:
    """One evaluation-suite cell: a (dataset, algorithm) workload.

    Payload: ``{"dataset", "scale", "seed", "algorithm",
    "added_latencies_us"}``.  Prices the Figure 6 comparison on Gen4 and
    the Figure 11 latency sweep on Gen3 through
    :func:`~repro.core.sweep.sweep_trace`, the same path the figure
    functions take, and returns ``{"comparison_rows", "latency_rows"}``;
    :func:`run_evaluation` aggregates geomeans across workloads in
    payload order.
    """
    cell = {"dataset": item["dataset"], "algorithm": item["algorithm"]}
    added_us = item["added_latencies_us"]
    with get_tracer().span("evaluate.workload", **cell):
        _, trace = workload_for(
            cell["dataset"], item["scale"], item["seed"], cell["algorithm"]
        )
        comparison = sweep_trace(
            trace, comparison_grid(), PCIeLink.from_name("gen4")
        )
        latency = sweep_trace(
            trace,
            cxl_latency_grid([u * USEC for u in added_us]),
            PCIeLink.from_name("gen3"),
        )
    return {
        "comparison_rows": [
            {**cell, "system": p.system, "normalized_runtime": p.normalized_runtime}
            for p in comparison
        ],
        "latency_rows": [
            {**cell, "added_latency_us": u, "normalized_runtime": p.normalized_runtime}
            for u, p in zip(added_us, latency)
        ],
    }


def run_evaluation(
    scale: int = 13,
    seed: int = 0,
    *,
    datasets: Sequence[str] = ("urand", "kron", "friendster"),
    algorithms: Sequence[str] = ("bfs", "sssp"),
    added_latencies_us: Sequence[float] = (0, 1, 2, 3),
    executor: Executor | None = None,
) -> EvaluationReport:
    """Run the complete evaluation matrix at ``scale``.

    One :func:`evaluate_workload` task per (dataset, algorithm)
    workload; rows are aggregated in workload order and the headline
    numbers are computed from them.  ``added_latencies_us`` must
    include 0: ``cxl_flat_worst`` is the worst runtime at zero added
    latency.
    """
    if not datasets or not algorithms:
        raise ModelError("need at least one dataset and one algorithm")
    if 0 not in added_latencies_us:
        raise ModelError(
            "added_latencies_us must include 0 for the flat-at-zero check, "
            f"got {tuple(added_latencies_us)}"
        )
    executor = executor or SerialExecutor()
    items = [
        {
            "dataset": dataset,
            "scale": scale,
            "seed": seed,
            "algorithm": algorithm,
            "added_latencies_us": tuple(added_latencies_us),
        }
        for dataset in datasets
        for algorithm in algorithms
    ]
    outputs = executor.map(evaluate_workload, items)
    report = EvaluationReport(scale=scale)
    for out in outputs:
        report.comparison_rows.extend(out["comparison_rows"])
        report.latency_rows.extend(out["latency_rows"])
    report.xlfdd_geomean = system_geomean(report.comparison_rows, "xlfdd")
    report.bam_geomean = system_geomean(report.comparison_rows, "bam")
    report.cxl_flat_worst = max(
        r["normalized_runtime"]
        for r in report.latency_rows
        if r["added_latency_us"] == 0
    )
    return report

"""The full evaluation suite in one call.

``run_evaluation`` executes the complete paper matrix — every dataset,
both traversal algorithms, all four systems, plus the CXL latency sweep —
and returns a single structured report.  This is the programmatic
equivalent of "reproduce the evaluation section", used by the
``repro evaluate`` CLI command and the release smoke test.

Each (dataset, algorithm) workload is one pure
:func:`~repro.exec.tasks.evaluate_workload` task, so the matrix fans
out across a :class:`~repro.exec.Executor` — workloads are independent
(they share only deterministic inputs), and the report aggregates rows
in fixed workload order, making the result bit-identical for any
executor.  Each task prices its cell through
:func:`~repro.core.sweep.sweep_trace` over
:func:`~repro.core.sweep.comparison_grid` and
:func:`~repro.core.sweep.cxl_latency_grid`, the same path as
:func:`repro.figures.figure6` and :func:`repro.figures.figure11`, so
the report's rows equal the figures' rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..errors import ModelError
from ..exec.executor import Executor, SerialExecutor
from ..exec.tasks import evaluate_workload
from .report import format_table, system_geomean

__all__ = ["EvaluationReport", "run_evaluation"]


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

    One executor task per (dataset, algorithm) workload; rows are
    aggregated in workload order and the headline numbers are computed
    from them, so the report is identical whether the matrix ran
    serially or across a process pool.  ``added_latencies_us`` must
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

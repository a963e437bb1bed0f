"""The benchmark's workloads: ``evaluate``, ``engine`` and ``figures``.

Each workload is built from a seed, sets up its inputs once
(:meth:`Workload.setup`), and then runs timed iterations
(:meth:`Workload.iterate`).  Every iteration's output is checked twice
outside the timed region: structurally (:meth:`Workload.check`) and by a
content digest (:meth:`Workload.digest`) that must equal the digest
pinned for the seed in ``digests.json``.

Library calls that the traced run wraps (``load_dataset``, ``raf_curve``)
are made through their module, so a wrapper installed on the module
attribute sees them.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any

import repro.graph.datasets as datasets
import repro.memsim.raf as raf
from repro import systems
from repro import workloads as registry
from repro.core.evalcache import clear_evaluation_cache
from repro.core.experiment import default_source
from repro.core.runtime_model import predict_runtime_des
from repro.core.suite import EvaluationReport, run_evaluation
from repro.core.sweep import alignment_grid, cxl_latency_grid, sweep_trace
from repro.engine.engine import FULLY_EXTERNAL
from repro.exec.executor import SerialExecutor
from repro.interconnect.pcie import PCIeLink
from repro.memsim.cache import IdealCache
from repro.traversal.bfs import bfs

#: Graph scale (log2 vertices) of the evaluation matrix and the figures.
PAPER_SCALE = 14
#: Graph scale of the urand graph behind the engine workload.
ENGINE_SCALE = 15
DATASETS = ("urand", "kron", "friendster")
ALGORITHMS = ("bfs", "sssp")
#: Figure 3's alignments in bytes.
ALIGNMENTS = (16, 32, 64, 128, 256, 512, 1024, 2048, 4096)
#: Engine disciplines: zero-copy, direct 16 B, cached 4 kB.
DISCIPLINES = ("emogi", "xlfdd", "bam")
#: Subsampling cap of the DES cross-check of Figure 11.
DES_MAX_REQUESTS_PER_STEP = 4_000
PAPER_XLFDD_GEOMEAN = 1.13
PAPER_BAM_GEOMEAN = 2.76


def _digest(content: Any) -> str:
    text = json.dumps(content, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _bad_numbers(values: list[float], what: str) -> list[str]:
    bad = [v for v in values if not (math.isfinite(v) and v > 0)]
    return [f"{what}: {len(bad)} values not finite and positive"] if bad else []


def paper_traces(scale: int, seed: int) -> dict[tuple[str, str], Any]:
    """BFS and SSSP traces of the three paper datasets at ``scale``."""
    traces = {}
    for dataset in DATASETS:
        graph = datasets.load_dataset(dataset, scale=scale, seed=seed)
        for algorithm in ALGORITHMS:
            traces[(dataset, algorithm)] = registry.get(algorithm).trace(graph)
    return traces


def figure11_with_des(
    traces: dict[tuple[str, str], Any],
) -> tuple[list[dict[str, Any]], list[float]]:
    """Figure 11 rows (fluid model) and the DES runtime of every row."""
    gen3 = PCIeLink.from_name("gen3")
    rows: list[dict[str, Any]] = []
    des_times: list[float] = []
    for (dataset, algorithm), trace in traces.items():
        grid = cxl_latency_grid()
        points = sweep_trace(trace, grid, gen3, executor=SerialExecutor())
        for config, point in zip(grid, points):
            system = systems.get("cxl", gen3, **config["options"])
            des_times.append(
                float(
                    predict_runtime_des(
                        trace,
                        system,
                        max_requests_per_step=DES_MAX_REQUESTS_PER_STEP,
                    )
                )
            )
            rows.append({"dataset": dataset, "algorithm": algorithm, **point.as_dict()})
    return rows, des_times


def fidelity(
    scale: int,
    seed: int,
    report: EvaluationReport | None = None,
    figure11: tuple[list[dict[str, Any]], list[float]] | None = None,
) -> dict[str, float]:
    """The four paper-fidelity errors; computes whichever input is missing."""
    if report is None:
        clear_evaluation_cache()
        report = run_evaluation(scale=scale, seed=seed, executor=SerialExecutor())
    if figure11 is None:
        figure11 = figure11_with_des(paper_traces(scale, seed))
    rows, des_times = figure11
    return {
        "err.xlfdd_geomean": abs(report.xlfdd_geomean / PAPER_XLFDD_GEOMEAN - 1),
        "err.bam_geomean": abs(report.bam_geomean / PAPER_BAM_GEOMEAN - 1),
        "err.cxl_flat": report.cxl_flat_worst - 1,
        "err.fluid_vs_des": max(
            abs(row["runtime"] / des - 1) for row, des in zip(rows, des_times)
        ),
    }


class Workload:
    """One benchmark workload; subclasses fill in the hooks below."""

    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        """Build the inputs every iteration shares (untimed by run_s)."""

    def iterate(self) -> Any:
        """One timed iteration; returns its output."""
        raise NotImplementedError

    def content(self, out: Any) -> Any:
        """The JSON-able content of ``out`` that the digest pins."""
        raise NotImplementedError

    def digest(self, out: Any) -> str:
        """SHA-256 of :meth:`content`."""
        return _digest(self.content(out))

    def check(self, out: Any) -> list[str]:
        """Structural problems with ``out`` (empty when it is sound)."""
        return []

    def reference_check(self, out: Any) -> list[str]:
        """Slower cross-checks against independent code, run once."""
        return []

    def fidelity(self, out: Any) -> dict[str, float]:
        """The ``err.*`` metrics for this seed."""
        raise NotImplementedError


class EvaluateWorkload(Workload):
    """Cold-cache ``run_evaluation``: the Fig 6 + Fig 11 matrix."""

    name = "evaluate"

    def __init__(self, seed: int, scale: int = PAPER_SCALE) -> None:
        super().__init__(seed)
        self.scale = scale

    def iterate(self) -> EvaluationReport:
        clear_evaluation_cache()
        return run_evaluation(scale=self.scale, seed=self.seed, executor=SerialExecutor())

    def content(self, out: EvaluationReport) -> Any:
        return {
            "comparison_rows": out.comparison_rows,
            "latency_rows": out.latency_rows,
            "geomeans": [out.xlfdd_geomean, out.bam_geomean, out.cxl_flat_worst],
        }

    def check(self, out: EvaluationReport) -> list[str]:
        cells = len(DATASETS) * len(ALGORITHMS)
        problems = []
        if len(out.comparison_rows) != 2 * cells or len(out.latency_rows) != 4 * cells:
            problems.append("evaluation matrix has the wrong number of rows")
        norms = [r["normalized_runtime"] for r in out.comparison_rows + out.latency_rows]
        problems += _bad_numbers(norms, "normalized runtimes")
        if problems:
            return problems
        for prefix, geomean in (("xlfdd", out.xlfdd_geomean), ("bam", out.bam_geomean)):
            values = [
                r["normalized_runtime"]
                for r in out.comparison_rows
                if r["system"].startswith(prefix)
            ]
            expected = math.exp(sum(math.log(v) for v in values) / len(values))
            if not math.isclose(geomean, expected, rel_tol=1e-9):
                problems.append(f"{prefix} geomean {geomean} != rows' {expected}")
        flat = max(
            r["normalized_runtime"]
            for r in out.latency_rows
            if r["added_latency_us"] == 0
        )
        if flat != out.cxl_flat_worst:
            problems.append(f"cxl_flat_worst {out.cxl_flat_worst} != rows' {flat}")
        return problems

    def fidelity(self, out: EvaluationReport) -> dict[str, float]:
        return fidelity(self.scale, self.seed, report=out)


class EngineWorkload(Workload):
    """bfs/sssp/cc through ``ExternalGraphEngine`` on every discipline."""

    name = "engine"

    def __init__(
        self, seed: int, scale: int = ENGINE_SCALE, paper_scale: int = PAPER_SCALE
    ) -> None:
        super().__init__(seed)
        self.scale = scale
        self.paper_scale = paper_scale
        self.graph: Any = None
        self.runs: list[tuple[str, Any, Any]] = []

    def setup(self) -> None:
        self.graph = datasets.load_dataset("urand", scale=self.scale, seed=self.seed)
        bfs_wl, sssp_wl, cc_wl = (registry.get(n) for n in ("bfs", "sssp", "cc"))
        self.runs = []
        for name in DISCIPLINES:
            system = systems.get(name)
            plain = registry.build_engine(self.graph, system)
            weighted = registry.build_engine(self.graph, system, workload=sssp_wl)
            fully = registry.build_engine(self.graph, system, memory_mode=FULLY_EXTERNAL)
            self.runs += [
                (f"{name}/bfs", bfs_wl, plain),
                (f"{name}/sssp", sssp_wl, weighted),
                (f"{name}/cc", cc_wl, plain),
                (f"{name}/bfs-fully-external", bfs_wl, fully),
            ]

    def iterate(self) -> list[tuple[str, Any]]:
        return [(label, wl.run(engine)) for label, wl, engine in self.runs]

    def content(self, out: list[tuple[str, Any]]) -> Any:
        return [
            {
                "run": label,
                "values": hashlib.sha256(run.values.tobytes()).hexdigest(),
                "dtype": str(run.values.dtype),
                "steps": run.steps,
                "requests": run.stats.requests,
                "fetched_bytes": run.stats.fetched_bytes,
                "useful_bytes": run.stats.useful_bytes,
            }
            for label, run in out
        ]

    def check(self, out: list[tuple[str, Any]]) -> list[str]:
        # Values and useful bytes depend on the algorithm only, never on
        # the discipline; fully-external BFS computes the same depths.
        problems = []
        by_label = dict(out)
        for algorithm in ("bfs", "sssp", "cc", "bfs-fully-external"):
            runs = [by_label[f"{name}/{algorithm}"] for name in DISCIPLINES]
            first = runs[0]
            if any(not (r.values == first.values).all() for r in runs[1:]):
                problems.append(f"{algorithm}: values differ between disciplines")
            if len({r.stats.useful_bytes for r in runs}) != 1:
                problems.append(f"{algorithm}: useful bytes differ between disciplines")
            if any(r.stats.requests <= 0 for r in runs):
                problems.append(f"{algorithm}: a run issued no requests")
        semi, fully = by_label["emogi/bfs"], by_label["emogi/bfs-fully-external"]
        if not (semi.values == fully.values).all():
            problems.append("fully-external BFS depths differ from semi-external")
        return problems

    def reference_check(self, out: list[tuple[str, Any]]) -> list[str]:
        depths = bfs(self.graph, default_source(self.graph)).depths
        return [
            f"{label}: depths differ from repro.traversal.bfs"
            for label, run in out
            if label.endswith("/bfs") and not (run.values == depths).all()
        ]

    def fidelity(self, out: Any) -> dict[str, float]:
        return fidelity(self.paper_scale, self.seed)


def _ideal_cache(alignment: int) -> IdealCache:
    return IdealCache()


class FiguresWorkload(Workload):
    """Figures 3, 5 and 11 from prebuilt traces, plus the DES cross-check."""

    name = "figures"

    def __init__(self, seed: int, scale: int = PAPER_SCALE) -> None:
        super().__init__(seed)
        self.scale = scale
        self.traces: dict[tuple[str, str], Any] = {}

    def setup(self) -> None:
        self.traces = paper_traces(self.scale, self.seed)

    def iterate(self) -> dict[str, Any]:
        clear_evaluation_cache()
        figure3 = [
            {
                "dataset": dataset,
                "algorithm": algorithm,
                "alignment_B": result.alignment,
                "raf": result.raf,
            }
            for (dataset, algorithm), trace in self.traces.items()
            for result in raf.raf_curve(trace, ALIGNMENTS, _ideal_cache)
        ]
        figure5 = sweep_trace(
            self.traces[("urand", "bfs")], alignment_grid(), executor=SerialExecutor()
        )
        figure11, des_times = figure11_with_des(self.traces)
        return {
            "figure3": figure3,
            "figure5": [p.as_dict() for p in figure5],
            "figure11": figure11,
            "des_s": des_times,
        }

    def content(self, out: dict[str, Any]) -> Any:
        return out

    def check(self, out: dict[str, Any]) -> list[str]:
        cells = len(self.traces)
        expected = {
            "figure3": cells * len(ALIGNMENTS),
            "figure5": len(alignment_grid()),
            "figure11": cells * len(cxl_latency_grid()),
            "des_s": cells * len(cxl_latency_grid()),
        }
        problems = [
            f"{key}: {len(out[key])} rows, expected {n}"
            for key, n in expected.items()
            if len(out[key]) != n
        ]
        problems += _bad_numbers([r["raf"] for r in out["figure3"]], "figure3 RAF")
        problems += _bad_numbers(
            [r["runtime"] for r in out["figure5"] + out["figure11"]], "sweep runtimes"
        )
        problems += _bad_numbers(out["des_s"], "DES runtimes")
        return problems

    def fidelity(self, out: dict[str, Any]) -> dict[str, float]:
        return fidelity(self.scale, self.seed, figure11=(out["figure11"], out["des_s"]))


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (EvaluateWorkload, EngineWorkload, FiguresWorkload)
}

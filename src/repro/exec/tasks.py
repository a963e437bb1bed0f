"""Pure, picklable task functions for sweep executors.

Every function here is a module-level callable taking one plain-data
payload and returning a plain-data result — the executor contract.
Closures cannot cross a process boundary; ``functools.partial`` over
these functions can, which is how callers bind a shared
:class:`~repro.traversal.trace.AccessTrace` without re-pickling it per
point (the partial ships once per chunk).

Workers rebuild graphs and traces deterministically from
``(dataset, scale, seed, algorithm, source)`` through the per-process
:data:`repro.core.evalcache.workload_memo`, so a chunk of sweep points
over one workload pays the traversal once — the worker-side analogue of
the parent passing a shared trace.  All heavy imports (:mod:`repro.core`,
:mod:`repro.systems`) stay inside function bodies: this module is
imported by ``repro.core.sweep`` during package init, and a top-level
back-import would cycle.

Determinism note: results carry built-in floats produced by the same
numpy expressions regardless of the process they ran in, so serial and
process-pool sweeps are bit-identical (a tier-1 property test pins
this).
"""

from __future__ import annotations

from typing import Any, Mapping

__all__ = [
    "evaluate_sweep_point",
    "price_trace_point",
    "compare_methods_cell",
    "evaluate_workload",
]

def _workload_for(
    dataset: str,
    scale: int,
    seed: int,
    algorithm: str,
    source: int | None = None,
) -> tuple[Any, Any]:
    """``(graph, trace)`` for a workload key, memoized per process.

    Rebuilt graphs and traces are deterministic in their key, so sharing
    them across the points of a chunk is safe.
    """
    from ..core.evalcache import workload_memo
    from ..core.experiment import run_algorithm
    from ..graph.datasets import load_dataset

    def build() -> tuple[Any, Any]:
        graph = load_dataset(dataset, scale=scale, seed=seed)
        return graph, run_algorithm(graph, algorithm, source)

    return workload_memo.get_or_compute(
        (dataset, scale, seed, algorithm, source), build
    )


def evaluate_sweep_point(item: Mapping[str, Any]) -> dict[str, Any]:
    """Price one sweep point described entirely by plain data.

    Payload: ``{"spec": <ExperimentSpec dict>, "overrides": {...}}``.
    The overrides are dotted-path assignments applied on top of the
    spec (one sweep-grid point).  The worker rebuilds the workload from
    the spec's graph section, resolves the system through the registry,
    and returns the priced point as a plain dict — the parent attaches
    normalisation and orders results.
    """
    from ..core.runtime_model import predict_runtime
    from .spec import ExperimentSpec

    spec = ExperimentSpec.from_dict(item["spec"])
    overrides = dict(item.get("overrides") or {})
    if overrides:
        spec = spec.with_overrides(overrides)
    _, trace = _workload_for(
        spec.graph.dataset,
        spec.graph.scale,
        spec.graph.seed,
        spec.effective_algorithm,
        spec.source,
    )
    result = predict_runtime(trace, spec.resolve_system())
    return {
        "overrides": overrides,
        "runtime": float(result.runtime),
        "system": str(result.system),
        "bound": str(result.dominant_bound()),
    }


def price_trace_point(trace: Any, item: Mapping[str, Any]) -> dict[str, Any]:
    """Price one system configuration against an already-built trace.

    Bind the trace with ``functools.partial(price_trace_point, trace)``
    — the executor ships the partial once per chunk.  Payload::

        {"x": <knob value>, "system": <registry name>,
         "link": <PCIeLink | None>, "options": {...},
         "span": (<name>, {attrs}) | None}

    ``span`` reproduces the legacy per-point telemetry
    (``sweep.alignment.point`` etc.); in worker processes the span
    lands in the worker's tracer and is simply not collected, which
    keeps parent telemetry identical across executors.
    """
    from .. import systems as systems_registry
    from ..core.runtime_model import predict_runtime
    from ..telemetry.tracer import get_tracer

    system = systems_registry.get(
        item["system"], item.get("link"), **dict(item.get("options") or {})
    )
    span = item.get("span")
    if span is not None:
        name, attrs = span
        with get_tracer().span(name, **attrs):
            result = predict_runtime(trace, system)
    else:
        result = predict_runtime(trace, system)
    return {
        "x": float(item["x"]),
        "runtime": float(result.runtime),
        "system": str(result.system),
        "bound": str(result.dominant_bound()),
    }


def compare_methods_cell(
    graphs: tuple[Any, ...],
    link: Any,
    systems: tuple[Any, ...],
    source: int | None,
    item: Mapping[str, Any],
) -> list[dict[str, Any]]:
    """One Figure 6 cell: every compared system on one (graph, algorithm).

    Bind ``(graphs, link, systems, source)`` with ``functools.partial``;
    the payload is ``{"graph_index": i, "algorithm": name}``.  The cell
    builds its trace once, prices the EMOGI baseline, and returns the
    compared systems' rows (``ExperimentResult.as_row`` plus
    ``normalized_runtime``) in ``systems`` order.
    """
    from .. import systems as systems_registry
    from ..core.experiment import run_algorithm, run_experiment

    graph = graphs[item["graph_index"]]
    algorithm = item["algorithm"]
    trace = run_algorithm(graph, algorithm, source)
    baseline = run_experiment(
        graph, algorithm, systems_registry.get("emogi", link), trace=trace
    ).runtime
    rows: list[dict[str, Any]] = []
    for system in systems:
        result = run_experiment(graph, algorithm, system, trace=trace)
        row = result.as_row()
        row["normalized_runtime"] = result.runtime / baseline
        rows.append(row)
    return rows


def evaluate_workload(item: Mapping[str, Any]) -> dict[str, Any]:
    """One evaluation-suite cell: a (dataset, algorithm) workload.

    Payload: ``{"dataset", "scale", "seed", "algorithm",
    "added_latencies_us"}``.  Runs the Figure 6 comparison on Gen4 and
    the Figure 11 latency matrix on Gen3 for this workload and returns
    the rows plus the normalisation samples; the parent aggregates
    geomeans across workloads in deterministic payload order.
    """
    from .. import systems as systems_registry
    from ..core.experiment import run_experiment
    from ..interconnect.pcie import PCIeLink
    from ..telemetry.tracer import get_tracer
    from ..units import USEC

    dataset = item["dataset"]
    algorithm = item["algorithm"]
    out: dict[str, Any] = {
        "dataset": dataset,
        "algorithm": algorithm,
        "comparison_rows": [],
        "latency_rows": [],
        "xlfdd_norms": [],
        "bam_norms": [],
        "cxl_flat": [],
    }
    with get_tracer().span(
        "evaluate.workload", dataset=dataset, algorithm=algorithm
    ):
        graph, trace = _workload_for(
            dataset, item["scale"], item["seed"], algorithm
        )
        gen3 = PCIeLink.from_name("gen3")
        gen4 = PCIeLink.from_name("gen4")
        # Figure 6 matrix on Gen4.
        baseline4 = run_experiment(
            graph, algorithm, systems_registry.get("emogi", gen4), trace=trace
        ).runtime
        for system in (
            systems_registry.get("xlfdd", gen4),
            systems_registry.get("bam", gen4),
        ):
            result = run_experiment(graph, algorithm, system, trace=trace)
            norm = result.runtime / baseline4
            (
                out["xlfdd_norms"] if "xlfdd" in system.name else out["bam_norms"]
            ).append(norm)
            out["comparison_rows"].append(
                {
                    "dataset": dataset,
                    "algorithm": algorithm,
                    "system": system.name,
                    "normalized_runtime": norm,
                }
            )
        # Figure 11 matrix on Gen3.
        baseline3 = run_experiment(
            graph, algorithm, systems_registry.get("emogi", gen3), trace=trace
        ).runtime
        for added_us in item["added_latencies_us"]:
            result = run_experiment(
                graph,
                algorithm,
                systems_registry.get("cxl", gen3, added_latency=added_us * USEC),
                trace=trace,
            )
            norm = result.runtime / baseline3
            if added_us == 0:
                out["cxl_flat"].append(norm)
            out["latency_rows"].append(
                {
                    "dataset": dataset,
                    "algorithm": algorithm,
                    "added_latency_us": added_us,
                    "normalized_runtime": norm,
                }
            )
    return out

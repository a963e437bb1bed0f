"""Pure, picklable task functions for sweep executors.

Every task here is a module-level callable taking one plain-data
payload and returning a plain-data result — the executor contract.
Closures cannot cross a process boundary; ``functools.partial`` over
these functions can, which is how :func:`~repro.core.sweep.sweep_trace`
binds a shared :class:`~repro.traversal.trace.AccessTrace` into
:func:`price_trace_point` without re-pickling it per point (the partial
ships once per chunk).

:func:`workload_for` builds a ``(graph, trace)`` pair from
``(dataset, scale, seed, algorithm, source)`` through the per-process
:data:`repro.core.evalcache.workload_memo`, so every caller — the
declarative sweeps and the evaluation suite's workers — pays each
traversal once.  All heavy imports
(:mod:`repro.core`, :mod:`repro.systems`) stay inside function bodies:
``repro.core.sweep`` imports this module at its top, so a top-level
import back would cycle, and the rest load only for the task that
needs them.

:func:`evaluate_workload` (one ``repro evaluate`` cell) prices through
:func:`~repro.core.sweep.sweep_trace`, the one code path that
normalises a runtime to its baseline.

Determinism note: results carry built-in floats produced by the same
numpy expressions regardless of the process they ran in, so serial and
process-pool sweeps are bit-identical (a tier-1 property test pins
this).
"""

from __future__ import annotations

from typing import Any, Mapping

__all__ = [
    "workload_for",
    "price_trace_point",
    "evaluate_workload",
]


def workload_for(
    dataset: str,
    scale: int,
    seed: int,
    algorithm: str,
    source: int | None = None,
) -> tuple[Any, Any]:
    """``(graph, trace)`` for a workload key, memoized per process.

    Graphs and traces are deterministic in their key, so every caller
    pricing the same workload may share them.
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


def evaluate_workload(item: Mapping[str, Any]) -> dict[str, Any]:
    """One evaluation-suite cell: a (dataset, algorithm) workload.

    Payload: ``{"dataset", "scale", "seed", "algorithm",
    "added_latencies_us"}``.  Prices the Figure 6 comparison on Gen4 and
    the Figure 11 latency sweep on Gen3 through
    :func:`~repro.core.sweep.sweep_trace`, the same path the figure
    functions take, and returns ``{"comparison_rows", "latency_rows"}``;
    the parent aggregates geomeans across workloads in payload order.
    """
    from ..core.sweep import comparison_grid, cxl_latency_grid, sweep_trace
    from ..interconnect.pcie import PCIeLink
    from ..telemetry.tracer import get_tracer
    from ..units import USEC

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

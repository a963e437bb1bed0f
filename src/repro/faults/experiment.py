"""End-to-end fault experiments: functional engine run + priced degradation.

:func:`run_fault_experiment` is what the CLI's ``--fault-*`` flags drive:
it executes the traversal through a :class:`~repro.faults.backend.FaultyBackend`
over a backend read through the system's own access method (so retries
and evictions really happen and are measured), and prices the same
workload analytically with and without the fault plan (so the
degradation is *modeled*, not just observed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.evalcache import cached_physical_trace
from ..core.experiment import default_source, run_algorithm
from ..core.runtime_model import SystemModel, predict_runtime
from ..engine.backend import ExternalMemoryBackend, MemoryStats
from ..engine.engine import SEMI_EXTERNAL, ExternalGraphEngine
from ..errors import ModelError
from ..graph.csr import CSRGraph
from ..units import to_usec
from .backend import FaultyBackend
from .model import faulty_trace_time
from .plan import FaultPlan
from .retry import RetryPolicy

__all__ = ["FaultExperimentResult", "run_fault_experiment"]


@dataclass(frozen=True)
class FaultExperimentResult:
    """One fault experiment: measured exposure plus modeled degradation."""

    graph: str
    algorithm: str
    system: str
    plan: FaultPlan
    policy: RetryPolicy
    values: np.ndarray
    stats: MemoryStats
    health_summary: str
    surviving_fraction: float
    healthy_runtime: float
    faulty_runtime: float

    @property
    def slowdown(self) -> float:
        """Modeled runtime inflation caused by the fault plan."""
        return (
            self.faulty_runtime / self.healthy_runtime
            if self.healthy_runtime > 0
            else 1.0
        )

    def as_row(self) -> dict[str, float | str]:
        """Flat dict for report tables (performance + fault exposure)."""
        return {
            "graph": self.graph,
            "algorithm": self.algorithm,
            "system": self.system,
            "runtime_s": self.healthy_runtime,
            "faulty_runtime_s": self.faulty_runtime,
            "slowdown": self.slowdown,
            "retries": self.stats.retries,
            "timeouts": self.stats.timeouts,
            "evictions": self.stats.evictions,
            "retry_factor": self.stats.retry_factor,
            "latency_p50_us": to_usec(self.stats.latency_p50),
            "latency_p99_us": to_usec(self.stats.latency_p99),
            "latency_p999_us": to_usec(self.stats.latency_p999),
        }


def run_fault_experiment(
    graph: CSRGraph,
    algorithm: str,
    system: SystemModel,
    plan: FaultPlan,
    policy: RetryPolicy | None = None,
    *,
    source: int | None = None,
    failure_threshold: int = 3,
    memory_mode: str = SEMI_EXTERNAL,
) -> FaultExperimentResult:
    """Run ``algorithm`` under ``plan`` on ``system``'s access method.

    The functional engine executes through a :class:`FaultyBackend`
    (retries, timeouts and evictions are real and measured); the fluid
    model prices the same trace healthy and fault-adjusted, with the
    surviving-pool fraction taken from the run's actual health outcome.
    May raise :class:`~repro.errors.FaultExhaustedError` when the plan
    overwhelms the retry budget — that is the experiment's result too.
    """
    from .. import workloads
    from ..errors import WorkloadError

    policy = policy if policy is not None else RetryPolicy()
    algorithm = algorithm.lower()
    try:
        workload = workloads.get(algorithm)
    except WorkloadError as exc:
        raise ModelError(
            f"fault experiments support {workloads.available()}, "
            f"got {algorithm!r}"
        ) from exc
    graph = workload.prepare(graph)
    if source is None:
        source = default_source(graph)

    engine = ExternalGraphEngine(
        graph,
        lambda data: FaultyBackend(
            ExternalMemoryBackend(data, system.method),
            plan,
            policy,
            num_devices=system.pool.count,
            base_latency=system.total_latency,
            pool=system.pool,
            failure_threshold=failure_threshold,
        ),
        memory_mode=memory_mode,
    )
    run = workload.run(engine, source)
    backend: FaultyBackend = engine.backend  # type: ignore[assignment]

    trace = run_algorithm(graph, algorithm, source=source)
    healthy = predict_runtime(trace, system)
    physical = cached_physical_trace(system.method, trace)
    faulty = faulty_trace_time(
        physical.step_inputs(),
        system.fluid_params(),
        plan,
        policy,
        surviving_fraction=backend.health.surviving_fraction,
    )
    return FaultExperimentResult(
        graph=graph.name,
        algorithm=algorithm,
        system=system.name,
        plan=plan,
        policy=policy,
        values=run.values,
        stats=run.stats,
        health_summary=backend.describe_health(),
        surviving_fraction=backend.health.surviving_fraction,
        healthy_runtime=healthy.runtime,
        faulty_runtime=faulty.total_time,
    )

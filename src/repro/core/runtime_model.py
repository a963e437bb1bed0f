"""End-to-end runtime prediction: trace + system -> graph processing time.

A :class:`SystemModel` bundles the four things that determine performance
(access method, device pool, PCIe link, GPU-observed path latency) and
knows how to derive the fluid model's parameters from them.
:func:`predict_runtime` then prices a logical trace: access method turns
it into physical steps, the fluid model times each step, and the result
carries the paper's reporting quantities (D, RAF, d, T) alongside.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import GPU_ACTIVE_WARPS_BFS, KERNEL_STEP_OVERHEAD
from ..devices.base import AccessKind, DevicePool
from ..errors import ModelError
from ..gpu.base import AccessMethod, PhysicalTrace
from ..interconnect.pcie import PCIeLink
from ..sim.fluid import FluidParams, TraceTiming, trace_time
from ..traversal.trace import AccessTrace
from .evalcache import Memo, cached_physical_trace

__all__ = ["SystemModel", "RuntimeResult", "predict_runtime", "predict_runtime_des"]

#: (requests, size, DESConfig) -> simulated time of one uniform
#: round-robin step, for :func:`predict_runtime_des`; one Figure 11
#: sweep of the paper datasets simulates about 120 distinct steps.
des_step_memo = Memo(capacity=1024)


@dataclass(frozen=True)
class SystemModel:
    """One named system configuration (e.g. "EMOGI on host DRAM").

    ``path_latency`` is the GPU-to-device round-trip *excluding* the
    device's internal latency (which the pool's profile carries); their
    sum is what the pointer chase of Figure 9 observes.
    """

    name: str
    method: AccessMethod
    pool: DevicePool
    link: PCIeLink
    path_latency: float
    gpu_concurrency: int = GPU_ACTIVE_WARPS_BFS
    step_overhead: float = KERNEL_STEP_OVERHEAD

    def __post_init__(self) -> None:
        if self.path_latency <= 0:
            raise ModelError(f"{self.name}: path latency must be positive")
        if self.gpu_concurrency < 1:
            raise ModelError(f"{self.name}: gpu_concurrency must be >= 1")

    @property
    def total_latency(self) -> float:
        """GPU-observed round trip: path + device internals (Figure 9)."""
        return self.path_latency + self.pool.latency

    def fluid_params(self) -> FluidParams:
        """Fluid-model parameters of this system.

        The PCIe outstanding-read limit applies to memory devices only
        (Section 3.2); storage is queue-depth limited via the pool.
        """
        link_outstanding = (
            self.link.max_outstanding_reads
            if self.pool.kind is AccessKind.MEMORY
            else None
        )
        return FluidParams(
            link_bandwidth=self.link.effective_bandwidth,
            device_iops=self.pool.iops,
            device_internal_bandwidth=self.pool.internal_bandwidth,
            latency=self.total_latency,
            link_outstanding=link_outstanding,
            device_outstanding=self.pool.max_outstanding,
            gpu_concurrency=self.gpu_concurrency,
            step_overhead=self.step_overhead,
        )

    def describe(self) -> str:
        """Multi-line human-readable configuration summary."""
        from ..units import to_usec

        return (
            f"{self.name}: {self.method.name} on {self.pool.name} via "
            f"{self.link.describe()}, GPU-observed latency "
            f"{to_usec(self.total_latency):.2f} us"
        )


@dataclass(frozen=True)
class RuntimeResult:
    """Predicted graph processing time plus the paper's reporting metrics."""

    system: str
    runtime: float
    physical: PhysicalTrace
    timing: TraceTiming

    @property
    def fetched_bytes(self) -> int:
        """The paper's ``D``."""
        return self.physical.fetched_bytes

    @property
    def raf(self) -> float:
        """Read amplification D / E."""
        return self.physical.raf

    @property
    def avg_transfer_bytes(self) -> float:
        """Average link request size ``d``."""
        return self.physical.avg_transfer_bytes

    @property
    def avg_throughput(self) -> float:
        """Achieved average throughput ``T = D / t`` (Equation 1 inverted)."""
        return self.fetched_bytes / self.runtime if self.runtime > 0 else 0.0

    def dominant_bound(self) -> str:
        """The resource that accounts for most of the runtime."""
        by_bound = self.timing.time_by_bound()
        return max(by_bound, key=by_bound.get)  # type: ignore[arg-type]


def predict_runtime(trace: AccessTrace, system: SystemModel) -> RuntimeResult:
    """Price ``trace`` on ``system``; checks capacity first.

    The expensive logical-to-physical expansion is memoized process-wide,
    keyed by (trace content, method configuration) — see
    :mod:`repro.core.evalcache`; sweeps that vary only the device or the
    latency re-price the same physical trace without recomputing it.
    """
    system.pool.check_fits(trace.edge_list_bytes)
    physical = cached_physical_trace(system.method, trace)
    timing = trace_time(physical.step_inputs(), system.fluid_params())
    return RuntimeResult(
        system=system.name,
        runtime=timing.total_time,
        physical=physical,
        timing=timing,
    )


def predict_runtime_des(
    trace: AccessTrace,
    system: SystemModel,
    *,
    max_requests_per_step: int | None = None,
) -> float:
    """Price ``trace`` on ``system`` with the discrete-event simulator.

    First-principles counterpart of :func:`predict_runtime` for
    cross-validation: every request is simulated through warp slots,
    tags, device queues and the shared link.  Request sizes within a step
    are approximated as uniform (``link_bytes / requests``) because the
    physical trace stores aggregates; for the paper's workloads the size
    spread within a step is small (32-128 B transactions).

    ``max_requests_per_step`` subsamples huge steps: the simulated time
    of the first ``max_requests_per_step`` requests is scaled back up
    linearly, which stretches the step's fill transient along with its
    steady part.  Capped at 4,000 requests, the DES reads 3.0–4.9 % high
    against the uncapped DES on all 24 Figure 11 points (scale 14, seed
    0), and the fluid model's largest relative gap to it (perfbench's
    ``err.fluid_vs_des``) is 0.057 capped against 0.012 uncapped.
    Returns the total runtime in seconds.

    A step's simulated time is then a pure function of its (capped)
    request count, its request size and the
    :class:`~repro.sim.des.DESConfig`, so each distinct step is simulated
    once per process through :data:`des_step_memo`, keyed by
    ``(requests, size, config)``;
    :func:`~repro.core.evalcache.clear_evaluation_cache` flushes it.  The
    sweeps of Figure 11 repeat a third of their steps.
    """
    import numpy as np

    from ..sim.des import DESConfig, simulate_step

    system.pool.check_fits(trace.edge_list_bytes)
    physical = cached_physical_trace(system.method, trace)
    params = system.fluid_params()
    config = DESConfig.from_fluid(params, num_devices=system.pool.count)
    total = 0.0
    for step in physical.steps:
        if step.requests == 0:
            total += params.step_overhead
            continue
        requests = step.requests
        scale = 1.0
        if max_requests_per_step is not None and requests > max_requests_per_step:
            scale = requests / max_requests_per_step
            requests = max_requests_per_step
        size = max(1, step.link_bytes // step.requests)
        time = des_step_memo.get_or_compute(
            (requests, size, config),
            lambda: simulate_step(
                np.full(requests, size, dtype=np.int64), config
            ).time,
        )
        total += time * scale + params.step_overhead
    return total

"""Fault injection and graceful degradation for external-memory devices.

The paper evaluates healthy devices; the media it targets fails in
well-characterized ways: transient read errors and ECC retries on flash,
heavy-tailed latency spikes, stuck-slow devices, and whole-device
dropouts in striped pools.  This subpackage answers the question the
paper does not: *how much of the host-DRAM-class performance survives
when devices misbehave, and does the system degrade gracefully?*

* :mod:`repro.faults.plan` — :class:`FaultPlan`, a deterministic,
  seed-driven schedule of injected faults (counter-based hashing, so
  outcomes are independent of evaluation order and identical between the
  vectorized backend and the scalar discrete-event simulator);
* :mod:`repro.faults.retry` — :class:`RetryPolicy`: bounded attempts,
  exponential backoff in simulated time, per-attempt timeout;
* :mod:`repro.faults.backend` — :class:`FaultyBackend`, a wrapper over
  any :class:`~repro.engine.backend.ExternalMemoryBackend` that injects
  the plan, retries transparently, and records fault exposure in
  :class:`~repro.engine.backend.MemoryStats`;
* :mod:`repro.faults.health` — :class:`PoolHealthTracker`: detects a
  failed stripe member, evicts it, and re-plans placement over the
  survivors so the run continues at reduced throughput;
* :mod:`repro.faults.model` — the analytical side: retry-inflated
  ``t = f·D / T'`` with the degraded pool's ``T'`` (docs/MODEL.md §6).
"""

from .. import _attach

__all__ = [
    "FaultPlan",
    "RetryPolicy",
    "FaultyBackend",
    "faulty_factory",
    "PoolHealthTracker",
    "expected_attempts",
    "retry_inflated_step",
    "degraded_fluid_params",
    "effective_throughput_under_faults",
    "faulty_trace_time",
    "FaultExperimentResult",
    "run_fault_experiment",
]

__getattr__, __dir__ = _attach(
    __name__,
    {
        ".plan": ("FaultPlan",),
        ".retry": ("RetryPolicy",),
        ".backend": ("FaultyBackend", "faulty_factory"),
        ".health": ("PoolHealthTracker",),
        ".model": (
            "expected_attempts", "retry_inflated_step",
            "degraded_fluid_params", "effective_throughput_under_faults",
            "faulty_trace_time",
        ),
        ".experiment": ("FaultExperimentResult", "run_fault_experiment"),
    },
)

"""Performance simulation: discrete-event and fluid models.

Two complementary engines price the physical request streams produced by
:mod:`repro.memsim`:

* :mod:`repro.sim.des` — a first-principles discrete-event simulation of
  requests flowing through warp slots, PCIe tags, device queues and the
  shared link; exact but per-request, so used at microbenchmark scale and
  to validate the fluid model.
* :mod:`repro.sim.fluid` — the closed-form step-time model derived from
  the paper's Equation 2 plus Little's law; used to price full traversals.

:mod:`repro.sim.pointer_chase` reproduces Appendix B's latency
microbenchmark on the DES.
"""

from .. import _attach

__all__ = [
    "EventQueue",
    "Simulator",
    "FifoServer",
    "Semaphore",
    "RateServer",
    "FluidParams",
    "StepInput",
    "StepTiming",
    "TraceTiming",
    "step_time",
    "trace_time",
    "DESConfig",
    "DESResult",
    "simulate_step",
    "simulate_trace",
    "PointerChaseResult",
    "pointer_chase_latency",
    "CalibrationResult",
    "calibrate_throughput_profile",
    "fit_base_latency",
    "fit_channel_bandwidth",
    "fit_outstanding_limit",
]

__getattr__, __dir__ = _attach(
    __name__,
    {
        ".events": ("EventQueue", "Simulator"),
        ".resources": ("FifoServer", "Semaphore", "RateServer"),
        ".fluid": (
            "FluidParams", "StepInput", "StepTiming", "TraceTiming",
            "step_time", "trace_time",
        ),
        ".des": ("DESConfig", "DESResult", "simulate_step", "simulate_trace"),
        ".pointer_chase": ("PointerChaseResult", "pointer_chase_latency"),
        ".calibration": (
            "CalibrationResult", "calibrate_throughput_profile",
            "fit_base_latency", "fit_channel_bandwidth",
            "fit_outstanding_limit",
        ),
    },
)

"""Effective throughput under faults — the analytical counterpart.

The paper's runtime equation is ``t = D / T`` (Equation 1).  Faults change
both sides (docs/MODEL.md §6):

* transient errors with per-attempt probability ``p`` and a retry budget
  of ``m`` attempts inflate demand by the **retry factor**
  ``f(p, m) = (1 - p**m) / (1 - p)`` — the expected number of issues per
  successful request (a truncated geometric series);
* evicting ``k`` of ``n`` stripe members degrades supply linearly:
  ``T' = ((n - k) / n) * T`` for the rate terms (``S·d``, internal
  bandwidth, outstanding budget);

so the fault-adjusted runtime is ``t' = f · D / T'``.  The discrete-event
simulator replays the same retries as real extra events; the property
suite asserts both sides agree under faults too.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

import numpy as np

from ..devices.base import DevicePool
from ..errors import ModelError
from ..sim.fluid import FluidParams, StepInput, TraceTiming, trace_time
from .plan import FaultPlan
from .retry import RetryPolicy

__all__ = [
    "expected_attempts",
    "retry_inflated_step",
    "degraded_fluid_params",
    "effective_throughput_under_faults",
    "faulty_trace_time",
]


def expected_attempts(error_rate: float, max_attempts: int) -> float:
    """Expected issues per successful request: ``(1 - p**m) / (1 - p)``.

    This is the retry factor ``f`` that inflates the paper's ``D``; it is
    1 at ``p = 0`` and approaches ``1 / (1 - p)`` as the budget grows.
    """
    if not 0.0 <= error_rate < 1.0:
        raise ModelError(f"error_rate must be in [0, 1), got {error_rate}")
    if max_attempts < 1:
        raise ModelError(f"max_attempts must be >= 1, got {max_attempts}")
    # Exact sentinel: only p identically 0 means "no faults configured";
    # a tiny-but-nonzero p must still inflate D.
    if error_rate == 0.0:  # simlint: disable=FLOAT001
        return 1.0
    return (1.0 - error_rate**max_attempts) / (1.0 - error_rate)


def retry_inflated_step(step: StepInput, factor: float) -> StepInput:
    """A step's physical traffic with retries folded in.

    Failed attempts consume device ops, device bytes, and request slots
    (they occupy warps and pay latency) but deliver no data, so
    ``link_bytes`` — the useful response traffic — stays put while the
    other three scale by ``factor``.
    """
    if factor < 1.0:
        raise ModelError(f"retry factor must be >= 1, got {factor}")
    if step.requests == 0:
        return step
    return StepInput(
        requests=max(1, round(step.requests * factor)),
        link_bytes=step.link_bytes,
        device_ops=max(1, round(step.device_ops * factor)),
        device_bytes=max(1, round(step.device_bytes * factor)),
    )


def degraded_fluid_params(
    params: FluidParams, surviving_fraction: float
) -> FluidParams:
    """Fluid parameters after losing part of a striped pool.

    Device-side rates (IOPS, internal bandwidth) and the device
    outstanding budget shrink linearly with the survivors; the link and
    the GPU are unaffected.
    """
    if not 0.0 < surviving_fraction <= 1.0:
        raise ModelError(
            f"surviving_fraction must be in (0, 1], got {surviving_fraction}"
        )
    # Exact sentinel: 1.0 means "nothing evicted", where the caller is
    # owed the identical params object, not a rescaled copy.
    if surviving_fraction == 1.0:  # simlint: disable=FLOAT001
        return params
    outstanding = params.device_outstanding
    if outstanding is not None:
        outstanding = max(1, int(outstanding * surviving_fraction))
    return replace(
        params,
        device_iops=params.device_iops * surviving_fraction,
        device_internal_bandwidth=params.device_internal_bandwidth
        * surviving_fraction,
        device_outstanding=outstanding,
    )


def effective_throughput_under_faults(
    pool: DevicePool,
    transfer_bytes: float,
    *,
    error_rate: float = 0.0,
    max_attempts: int = 5,
    failed_devices: int = 0,
    extra_latency: float = 0.0,
) -> float:
    """Deliverable *useful* throughput of a degraded, retrying pool.

    ``T_eff = T_degraded / f``: the surviving members' raw throughput,
    divided by the retry factor because a fraction of every device-second
    is spent re-reading data that arrived broken.
    """
    degraded = pool.degraded(failed_devices)
    factor = expected_attempts(error_rate, max_attempts)
    return degraded.throughput(transfer_bytes, extra_latency) / factor


def faulty_trace_time(
    steps: Sequence[StepInput],
    params: FluidParams,
    plan: FaultPlan,
    policy: RetryPolicy | None = None,
    *,
    surviving_fraction: float = 1.0,
) -> TraceTiming:
    """Fluid runtime of a traversal under a transient-fault plan.

    Each step's traffic is inflated by the expected retry factor and
    priced on the (possibly degraded) parameters.  A bulk step then ends
    with its *worst* request's retry chain, so each step also pays the
    expected maximum of ``n`` chains: with ``n`` the step's (uninflated)
    requests, ``p`` the error rate and ``m`` the attempt budget,

        tail = sum_{k=1}^{m-1} [1 - (1 - p^k)^n] * (backoff(k) + L)

    — the ``k``-th backoff and reissue latency are paid when at least one
    of the ``n`` requests fails ``k`` times in a row.
    """
    policy = policy if policy is not None else RetryPolicy()
    p = plan.read_error_rate
    factor = expected_attempts(p, policy.max_attempts)
    degraded = degraded_fluid_params(params, surviving_fraction)
    inflated = [retry_inflated_step(s, factor) for s in steps]
    timing = trace_time(inflated, degraded)
    if p > 0:
        n = np.array([s.requests for s in steps], dtype=np.float64)
        tail = np.zeros_like(n)
        for k in range(1, policy.max_attempts):
            tail += (1.0 - (1.0 - p**k) ** n) * (policy.backoff(k) + degraded.latency)
        step_times = timing.step_times + tail
        timing = TraceTiming(
            total_time=float(step_times.sum()),
            step_times=step_times,
            step_bounds=timing.step_bounds,
        )
    return timing

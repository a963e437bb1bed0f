"""A fault-injecting, retrying wrapper over any external-memory backend.

:class:`FaultyBackend` sits between :class:`~repro.engine.engine.ExternalGraphEngine`
and an :class:`~repro.engine.backend.ExternalMemoryBackend` reading
through some access method.  Every logical byte-range request runs
through the :class:`~repro.faults.plan.FaultPlan`:
attempts may fail transiently, draw tail latency, time out, or hit a
dropped stripe member.  Failed attempts are retried under the
:class:`~repro.faults.retry.RetryPolicy` — each reissue re-crosses the
device discipline, so retries inflate the measured ``D`` and request
counts exactly the way the analytical model (:mod:`repro.faults.model`)
predicts.  A permanent dropout trips the
:class:`~repro.faults.health.PoolHealthTracker`, which evicts the member
and remaps its stripes onto the survivors so the traversal *completes* at
reduced modeled throughput instead of crashing.

Correctness invariant: the returned bytes always come from the underlying
store, so any run that does not raise produces **bit-identical results**
to the fault-free run — faults perturb accounting, latency, and health
state only.  (For inners read through a cache-bearing method such as
:class:`~repro.gpu.bam.BaMMethod`, a reissued request is priced by the
method's cache like any other batch, so retry traffic is
discipline-accurate, not a flat multiplier.)
"""

from __future__ import annotations

import numpy as np

from ..devices.base import DevicePool
from ..engine.backend import ExternalMemoryBackend, MemoryStats
from ..errors import DeviceError, FaultExhaustedError
from ..graph.csr import sorted_unique
from ..graph.partition import StripedLayout
from ..telemetry.tracer import get_tracer
from ..units import USEC
from .health import PoolHealthTracker
from .plan import FaultPlan
from .retry import RetryPolicy

__all__ = ["FaultyBackend", "faulty_factory"]

#: Default stripe granularity for request-to-device mapping.
DEFAULT_STRIPE_BYTES = 4_096


class FaultyBackend:
    """Fault injection + retry + degradation around an inner backend.

    Parameters
    ----------
    inner:
        The discipline backend actually holding the bytes.
    plan / policy:
        What goes wrong, and how hard the system fights back.
    num_devices:
        Stripe members the byte range is spread over; requests map to
        members through a
        :class:`~repro.graph.partition.StripedLayout` of ``stripe_bytes``.
    base_latency:
        Healthy per-attempt service latency in simulated seconds (the
        GPU-observed round trip); spikes and stuck-slow multipliers add
        on top, timeouts cut it off.
    pool:
        Optional :class:`~repro.devices.base.DevicePool` being modeled;
        enables :attr:`effective_pool` so callers can price the degraded
        configuration.  Its ``count`` must equal ``num_devices``.
    failure_threshold:
        Consecutive failures before the health tracker evicts a member.
    """

    def __init__(
        self,
        inner: ExternalMemoryBackend,
        plan: FaultPlan,
        policy: RetryPolicy | None = None,
        *,
        num_devices: int = 1,
        base_latency: float = 10 * USEC,
        stripe_bytes: int = DEFAULT_STRIPE_BYTES,
        pool: DevicePool | None = None,
        failure_threshold: int = 3,
    ) -> None:
        if base_latency <= 0 or not np.isfinite(base_latency):
            raise DeviceError("base_latency must be positive and finite")
        self.layout = StripedLayout(num_devices, stripe_bytes)
        if pool is not None and pool.count != num_devices:
            raise DeviceError(
                f"pool has {pool.count} members but num_devices={num_devices}"
            )
        self.inner = inner
        self.plan = plan
        self.policy = policy if policy is not None else RetryPolicy()
        self.base_latency = base_latency
        self.pool = pool
        self._failure_threshold = failure_threshold
        self._reset_fault_state()

    def _reset_fault_state(self) -> None:
        self.health = PoolHealthTracker(
            self.layout.num_devices, failure_threshold=self._failure_threshold
        )
        self.clock = 0.0
        self._requests_seen = 0
        self._dropped: set[int] = set()

    # -- backend protocol ----------------------------------------------------

    @property
    def stats(self) -> MemoryStats:
        """Traffic and fault-exposure counters (shared with the inner)."""
        return self.inner.stats

    @property
    def size_bytes(self) -> int:
        """Capacity of the stored byte range."""
        return self.inner.size_bytes

    def reset_stats(self) -> None:
        """Zero counters *and* fault state, so every run replays the plan."""
        self.inner.reset_stats()
        self._reset_fault_state()

    # -- device mapping ------------------------------------------------------

    def _map_devices(self, starts: np.ndarray) -> np.ndarray:
        """Stripe mapping with failed members remapped onto survivors."""
        base = self.layout.device_of(starts)
        if not self.health.failed:
            return base
        survivors = np.array(self.health.surviving, dtype=np.int64)
        mapped = base.copy()
        lost = np.isin(base, list(self.health.failed))
        mapped[lost] = survivors[base[lost] % survivors.size]
        return mapped

    def _update_drop_trigger(self) -> None:
        dev = self.plan.drop_device_index
        if dev < self.layout.num_devices and self.plan.device_dropped(
            dev, self._requests_seen, self.clock
        ):
            self._dropped.add(dev)

    # -- the retry loop ------------------------------------------------------

    def read(self, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """Serve a batch of byte-range reads under the fault plan."""
        self.request(starts, lengths)
        return self.gather(starts, lengths)

    def gather(self, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """The inner backend's bytes of the ranges; faults never touch data."""
        return self.inner.gather(starts, lengths)

    def request(self, starts: np.ndarray, lengths: np.ndarray) -> None:
        """Price a batch of byte-range reads under the fault plan; no data.

        What faults change is the accounting (extra attempts re-cross the
        discipline), the recorded completion latencies, and the pool
        health state.
        """
        starts = np.asarray(starts, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        self._update_drop_trigger()
        self.inner.request(starts, lengths)

        active = np.flatnonzero(lengths > 0)
        n = active.size
        if n == 0 or not self.plan.is_faulty:
            if n:
                self.stats.record_latency(
                    np.full(n, self.base_latency, dtype=np.float64)
                )
                self._requests_seen += n
                self.clock += self.base_latency
            return

        tracer = get_tracer()
        ids = self._requests_seen + np.arange(n, dtype=np.int64)
        a_starts = starts[active]
        a_lengths = lengths[active]
        elapsed = np.zeros(n, dtype=np.float64)
        pending = np.arange(n, dtype=np.int64)
        attempt = 1
        while pending.size:
            devs = self._map_devices(a_starts[pending])
            base = self.base_latency * self.plan.latency_multipliers(devs)
            lat = base + self.plan.spike_latencies(ids[pending], attempt)
            timed_out = (
                lat > self.policy.timeout
                if self.policy.timeout is not None
                else np.zeros(pending.size, dtype=bool)
            )
            lat = np.minimum(lat, self.policy.timeout) if self.policy.timeout else lat
            dropped = np.isin(devs, list(self._dropped - self.health.failed))
            transient = self.plan.transient_failures(ids[pending], attempt)
            failed = dropped | transient | timed_out
            elapsed[pending] += lat

            ok_devices = set(sorted_unique(devs[~failed]).tolist())
            for dev in ok_devices:
                self.health.record_success(int(dev))
            ok = pending[~failed]
            if ok.size:
                self.stats.record_latency(elapsed[ok])

            if not failed.any():
                break
            fail_idx = pending[failed]
            self.stats.faults_injected += int(failed.sum())
            self.stats.timeouts += int(timed_out.sum())
            if tracer.enabled and timed_out.any():
                tracer.event(
                    "fault.timeout",
                    attempt=attempt,
                    requests=int(timed_out.sum()),
                )
            # Health evidence per round: a member that answered *nothing*
            # this round is suspect; one that served some requests while
            # dropping others is merely erroring transiently.
            for dev in sorted_unique(devs[failed]):
                if int(dev) in ok_devices:
                    continue
                on_dev = devs[failed] == dev
                first_req = int(ids[fail_idx[on_dev][0]])
                if self.health.record_failure(
                    int(dev), request_id=first_req, failures=int(on_dev.sum())
                ):
                    self.stats.evictions += 1
                    if tracer.enabled:
                        tracer.event(
                            "fault.eviction",
                            device=int(dev),
                            request_id=first_req,
                        )
            if attempt >= self.policy.max_attempts:
                first = int(fail_idx[0])
                raise FaultExhaustedError(
                    f"request {int(ids[first])} failed {attempt} times "
                    f"(device {int(devs[failed][0])}); retry budget exhausted",
                    request_id=int(ids[first]),
                    device=int(devs[failed][0]),
                    attempts=attempt,
                )
            if self.policy.jitter > 0:
                waits = self.policy.backoff(
                    attempt, u=self.plan.backoff_jitters(ids[fail_idx], attempt)
                )
                elapsed[fail_idx] += waits
                self.stats.retry_wait_time += float(waits.sum())
                mean_wait = float(waits.mean())
            else:
                wait = self.policy.backoff(attempt)
                elapsed[fail_idx] += wait
                self.stats.retry_wait_time += wait * fail_idx.size
                mean_wait = wait
            self.stats.retries += fail_idx.size
            if tracer.enabled:
                tracer.event(
                    "fault.retry",
                    attempt=attempt,
                    requests=int(fail_idx.size),
                    backoff=mean_wait,
                )
            # The reissue re-crosses the device discipline: extra requests
            # and fetched bytes, deduplicated exactly as the inner rules say.
            self.inner._account(a_starts[fail_idx], a_lengths[fail_idx])
            pending = fail_idx
            attempt += 1

        # A step's batch runs in parallel; the batch costs its slowest request.
        self.clock += float(elapsed.max()) if n else 0.0
        self._requests_seen += n

    # -- degradation surface -------------------------------------------------

    @property
    def effective_pool(self) -> DevicePool | None:
        """The pool reduced to surviving members (None if no pool given)."""
        if self.pool is None:
            return None
        return self.health.degraded_pool(self.pool)

    def describe_health(self) -> str:
        """Health summary including any capacity loss."""
        return self.health.describe()


def faulty_factory(
    inner_factory,
    plan: FaultPlan,
    policy: RetryPolicy | None = None,
    **kwargs,
):
    """Engine-compatible backend factory wrapping ``inner_factory``.

    Example::

        engine = ExternalGraphEngine(
            graph,
            faulty_factory(lambda d: ExternalMemoryBackend(d, XLFDDMethod(16)),
                           FaultPlan(seed=1, read_error_rate=0.05),
                           num_devices=16),
        )
    """
    return lambda data: FaultyBackend(inner_factory(data), plan, policy, **kwargs)

"""The serving scenario: open traffic against a striped pool under a storm.

A :class:`ServingScenario` runs a production-shaped workload on the DES
clock: queries from a :class:`~repro.ops.traffic.TrafficModel` queue for
a fixed number of GPU executors; each admitted query's service time is
priced from the *current* pool state (surviving width, stuck-slow
multipliers, error-burst retry inflation, Pareto spikes from the storm's
:class:`~repro.faults.plan.FaultPlan`); a
:class:`~repro.faults.health.PoolHealthTracker` absorbs dropouts exactly
as the fault layer does (reactive eviction after consecutive failures —
the controller-off baseline is PR 1's behavior, not a strawman).  With a
controller attached, control ticks interleave with traffic on the same
event queue and every remediation lands on the simulated timeline.

The striped-read service model: a query's fetch spreads over the ``m``
active members, so the query completes when the *slowest* member
finishes its share — one stuck-slow member drags every query, which is
precisely why early eviction beats waiting (losing ``1/m`` of width
costs far less than a 10x member multiplier).

Signals are published where the controller (and any observer) can read
them: per-device access latencies into the ``memory.latency_us``
histogram and ``health.latency_ratio.dev*`` gauges, the windowed p99
into ``ops.p99_window_us``, and health transitions through the
tracker's ``health.*`` metrics.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..devices.base import DevicePool
from ..errors import ConfigError, PoolExhaustedError
from ..faults.health import PoolHealthTracker
from ..faults.model import expected_attempts
from ..sim.events import Simulator
from ..telemetry.clock import SimClock
from ..telemetry.metrics import MetricRegistry, set_registry
from ..telemetry.tracer import get_tracer
from ..units import MIB, MSEC, USEC
from .controller import ControllerPolicy, ServingController
from .slo import Incident, SloReport, percentiles_us
from .storm import FaultStorm
from .traffic import Query, TrafficModel

__all__ = ["ServingConfig", "ServingScenario", "run_serving_scenario"]

#: Histogram buckets (microseconds) sized for end-to-end query latencies.
QUERY_LATENCY_BUCKETS_US: tuple[float, ...] = (
    250.0, 500.0, 1_000.0, 2_000.0, 4_000.0, 8_000.0,
    16_000.0, 32_000.0, 64_000.0, 128_000.0,
)


def jain_fairness(values: list[float]) -> float:
    """Jain's index over per-tenant progress rates: 1.0 is perfectly fair."""
    if not values:
        return 1.0
    arr = np.asarray(values, dtype=np.float64)
    denom = float(arr.size * (arr**2).sum())
    if denom == 0.0:  # simlint: disable=FLOAT001
        return 1.0
    return float(arr.sum() ** 2 / denom)


@dataclass(frozen=True)
class ServingConfig:
    """Shape of the serving cluster and its SLO (times in sim seconds)."""

    duration: float = 3.0
    slo_p99: float = 4 * MSEC
    concurrency: int = 4
    queue_limit: int = 96
    standby_devices: int = 2
    transfer_bytes: float = 4096.0
    work_bytes: dict[str, float] = field(
        default_factory=lambda: {
            "bfs": 24 * MIB,
            "cc": 40 * MIB,
            "sssp": 64 * MIB,
        }
    )
    overhead: float = 150 * USEC
    drop_penalty: float = 2 * MSEC
    failure_threshold: int = 3
    error_retry_attempts: int = 4
    latency_window: float = 0.25
    ewma_alpha: float = 0.3
    incident_clear_fraction: float = 0.8

    def __post_init__(self) -> None:
        if not math.isfinite(self.duration) or self.duration <= 0:
            raise ConfigError("duration must be positive and finite")
        if not math.isfinite(self.slo_p99) or self.slo_p99 <= 0:
            raise ConfigError("slo_p99 must be positive and finite")
        if self.concurrency < 1 or self.queue_limit < 1:
            raise ConfigError("concurrency and queue_limit must be >= 1")
        if self.standby_devices < 0:
            raise ConfigError("standby_devices must be >= 0")
        if self.transfer_bytes <= 0 or self.overhead < 0:
            raise ConfigError("transfer_bytes must be > 0, overhead >= 0")
        if not self.work_bytes or any(w <= 0 for w in self.work_bytes.values()):
            raise ConfigError("work_bytes must map every kind to > 0 bytes")
        if self.drop_penalty <= 0:
            raise ConfigError("drop_penalty must be positive")
        if self.failure_threshold < 1 or self.error_retry_attempts < 1:
            raise ConfigError("thresholds and retry attempts must be >= 1")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ConfigError("ewma_alpha must be in (0, 1]")
        if self.latency_window <= 0:
            raise ConfigError("latency_window must be positive")
        if not 0.0 < self.incident_clear_fraction <= 1.0:
            raise ConfigError("incident_clear_fraction must be in (0, 1]")


class ServingScenario:
    """One seeded serving run; :meth:`run` executes it and reports SLOs.

    Parameters
    ----------
    pool:
        The striped pool serving queries (its ``count`` is the target
        width; ``config.standby_devices`` spares sit behind it).
    base_latency:
        Healthy GPU-observed per-access latency (the stuck-ratio
        baseline), typically ``system.total_latency``.
    controller_policy:
        ``None`` runs the controller-off baseline (reactive eviction
        only); a :class:`~repro.ops.controller.ControllerPolicy` attaches
        the self-healing controller.
    """

    def __init__(
        self,
        pool: DevicePool,
        config: ServingConfig,
        traffic: TrafficModel,
        storm: FaultStorm,
        *,
        base_latency: float = 10 * USEC,
        controller_policy: ControllerPolicy | None = None,
    ) -> None:
        unknown = set(traffic.mix) - set(config.work_bytes)
        if unknown:
            raise ConfigError(
                f"traffic mix kinds {sorted(unknown)} have no work_bytes entry"
            )
        if base_latency <= 0 or not math.isfinite(base_latency):
            raise ConfigError("base_latency must be positive and finite")
        self.pool = pool
        self.config = config
        self.traffic = traffic
        self.storm = storm
        self.base_latency = base_latency
        self.target_width = pool.count
        total = pool.count + config.standby_devices
        self.tracker = PoolHealthTracker(
            total, failure_threshold=config.failure_threshold
        )
        self.registry = MetricRegistry()
        self._policy = controller_policy
        self.controller: ServingController | None = None
        self._device_tput = pool.device.throughput(config.transfer_bytes)
        # Mutable per-device state driven by the storm schedule.
        self._attached = set(range(pool.count))
        self._standby = list(range(pool.count, total))
        self._stuck = [1.0] * total
        self._error_rate = [0.0] * total
        self._dropped = [False] * total

    # -- signal surface (what the controller is allowed to see) --------------

    def active_devices(self) -> list[int]:
        """Members currently taking traffic, in stripe order."""
        return [d for d in self.tracker.surviving if d in self._attached]

    def device_latency_ratio(self, device: int) -> float:
        """Observed/healthy access-latency ratio (``health.*`` gauge)."""
        return self.registry.gauge(f"health.latency_ratio.dev{device}").value

    def windowed_p99(self) -> float:
        """Windowed p99 of completed-query latency, seconds."""
        return self.registry.gauge("ops.p99_window_us").value * USEC

    def current_arrival_rate(self) -> float:
        """The traffic model's instantaneous rate right now."""
        return self.traffic.rate_at(self._sim.now)

    def standby_available(self) -> bool:
        """Whether an unattached spare exists."""
        return bool(self._standby)

    # -- remediation surface (what the controller may do) ---------------------

    def suspend_device(self, device: int, reason: str = "") -> None:
        """Open the circuit: probation via the health tracker."""
        self.tracker.suspend(device, request_id=-1, reason=reason)

    def readmit_device(self, device: int) -> None:
        """Close the circuit: the probation member returns to service."""
        self.tracker.readmit(device, request_id=-1, reason="probes healthy")
        # A re-admitted member starts with a clean latency estimate so the
        # stale stuck-era EWMA cannot immediately re-trip the detector.
        self.registry.gauge(f"health.latency_ratio.dev{device}").set(1.0)
        self._ewma[device] = self.base_latency

    def evict_device(self, device: int, reason: str = "") -> None:
        """Permanent removal (failed probation)."""
        self.tracker.evict(device, request_id=-1, reason=reason)

    def attach_standby(self, delay: float, callback) -> None:
        """Warm up the next spare; it joins the active set after ``delay``."""
        if not self._standby:
            return
        device = self._standby.pop(0)

        def attach() -> None:
            self._attached.add(device)
            self._event("ops.standby.attach", device=device)
            callback(device)

        self._sim.schedule(delay, attach)

    def retire_standby(self) -> bool:
        """Detach one attached spare (scale-down); False if none attached."""
        spares = [
            d
            for d in sorted(self._attached, reverse=True)
            if d >= self.pool.count and d in self.tracker.surviving
        ]
        if not spares or len(self.active_devices()) <= 1:
            return False
        device = spares[0]
        self._attached.discard(device)
        self._standby.insert(0, device)
        self._event("ops.standby.retire", device=device)
        return True

    def launch_probe(self, device: int, callback) -> None:
        """Half-open probe: one synthetic access against the member alone."""
        if self._dropped[device]:
            latency, ok = self.config.drop_penalty, False
        else:
            latency = (
                self.base_latency
                * self._stuck[device]
                * self._retry_factor(device)
            )
            ok = True
        ratio = latency / self.base_latency
        self._sim.schedule(
            latency, lambda: callback(device, ok, ratio, self._sim.now)
        )

    def controller_event(self, name: str, **attrs) -> None:
        """Telemetry fan-out for controller decisions: event + counter."""
        self._event(name, **attrs)
        self.registry.counter(name).inc()

    # -- internals -----------------------------------------------------------

    def _event(self, name: str, **attrs) -> None:
        if self._tracer.enabled:
            self._sim_tracer.event(name, **attrs)

    def _retry_factor(self, device: int) -> float:
        rate = self._error_rate[device]
        if rate <= 0:
            return 1.0
        return expected_attempts(rate, self.config.error_retry_attempts)

    def _observe_device(self, device: int) -> None:
        """One access-latency observation: histogram + EWMA ratio gauge."""
        if self._dropped[device]:
            observed = self.config.drop_penalty
        else:
            observed = (
                self.base_latency
                * self._stuck[device]
                * self._retry_factor(device)
            )
        alpha = self.config.ewma_alpha
        self._ewma[device] = (1 - alpha) * self._ewma[device] + alpha * observed
        self.registry.histogram("memory.latency_us").observe(observed / USEC)
        self.registry.gauge(f"health.latency_ratio.dev{device}").set(
            self._ewma[device] / self.base_latency
        )

    def _service_time(self, query: Query, members: list[int]) -> float:
        """Striped-read completion time under the current pool state."""
        if not members:
            raise PoolExhaustedError("no pool members left in service")
        m = len(members)
        work = self.config.work_bytes[query.kind]
        worst = 0.0
        penalty = 0.0
        for device in members:
            share_time = (work / m) / self._device_tput
            if self._dropped[device]:
                # Failed attempts against the dead member: timeout + failover.
                penalty = self.config.drop_penalty
                continue
            share_time *= self._stuck[device] * self._retry_factor(device)
            worst = max(worst, share_time)
        spike = self.storm.plan.spike_latency(query.id, attempt=1)
        return self.config.overhead + worst + penalty + spike

    def _record_health(self, query: Query, members: list[int]) -> None:
        """Feed the PR-1 reactive health layer (both controller modes)."""
        for device in members:
            if self._dropped[device]:
                if self.tracker.record_failure(
                    device, request_id=query.id, failures=2
                ):
                    self._event("fault.eviction", device=device, request_id=query.id)
            else:
                self.tracker.record_success(device)

    # -- the run -------------------------------------------------------------

    def run(self) -> SloReport:
        """Execute the scenario; returns the :class:`SloReport`."""
        config = self.config
        sim = Simulator()
        self._sim = sim
        tracer = get_tracer()
        self._tracer = tracer
        self._sim_tracer = (
            tracer.with_clock(SimClock(sim)) if tracer.enabled else tracer
        )
        total = self.pool.count + config.standby_devices
        self._ewma = [self.base_latency] * total
        for device in range(total):
            self.registry.gauge(f"health.latency_ratio.dev{device}").set(1.0)
        self.registry.histogram(
            "ops.query.latency_us", QUERY_LATENCY_BUCKETS_US
        )
        counters = {
            name: self.registry.counter(f"ops.queries.{name}")
            for name in (
                "arrived", "completed", "shed_admission", "shed_overflow",
                "deadline_misses",
            )
        }
        queue: deque[Query] = deque()
        free_slots = [config.concurrency]
        latencies: list[float] = []
        attained = [0]
        incidents: list[Incident] = []
        incident_start: list[float | None] = [None]
        window: deque[tuple[float, float]] = deque()
        # Per-tenant ledgers, kept only when the traffic model mixes
        # tenants (the default single-tenant path stays untouched).
        track_tenants = bool(self.traffic.tenants)
        tenant_arrived: dict[str, int] = {t: 0 for t in self.traffic.tenants}
        tenant_completed: dict[str, int] = {t: 0 for t in self.traffic.tenants}
        tenant_attained: dict[str, int] = {t: 0 for t in self.traffic.tenants}
        tenant_latencies: dict[str, list[float]] = {
            t: [] for t in self.traffic.tenants
        }

        controller = (
            ServingController(self, self._policy, config.slo_p99)
            if self._policy is not None
            else None
        )
        self.controller = controller

        def update_window(now: float, latency: float) -> None:
            window.append((now, latency))
            while window and window[0][0] < now - config.latency_window:
                window.popleft()
            values = np.array([lat for _, lat in window], dtype=np.float64)
            p99 = float(np.percentile(values, 99.0))
            self.registry.gauge("ops.p99_window_us").set(p99 / USEC)
            if incident_start[0] is None and p99 > config.slo_p99:
                incident_start[0] = now
                self._event("ops.incident.start", p99_us=p99 / USEC)
            elif (
                incident_start[0] is not None
                and p99 <= config.incident_clear_fraction * config.slo_p99
            ):
                incidents.append(Incident(start=incident_start[0], end=now))
                incident_start[0] = None
                self._event("ops.incident.end", p99_us=p99 / USEC)

        def complete(query: Query, members: list[int]) -> None:
            now = sim.now
            latency = now - query.arrival
            counters["completed"].inc()
            latencies.append(latency)
            self.registry.histogram("ops.query.latency_us").observe(
                latency / USEC
            )
            if track_tenants:
                tenant_completed[query.tenant] += 1
                tenant_latencies[query.tenant].append(latency)
            if latency <= config.slo_p99:
                attained[0] += 1
                if track_tenants:
                    tenant_attained[query.tenant] += 1
            else:
                counters["deadline_misses"].inc()
            for device in members:
                self._observe_device(device)
            self._record_health(query, members)
            update_window(now, latency)
            free_slots[0] += 1
            dispatch()

        def start(query: Query) -> None:
            free_slots[0] -= 1
            members = self.active_devices()
            service = self._service_time(query, members)
            sim.schedule(service, lambda: complete(query, members))

        def dispatch() -> None:
            while free_slots[0] > 0 and queue:
                start(queue.popleft())

        def arrive(query: Query) -> None:
            counters["arrived"].inc()
            if track_tenants:
                tenant_arrived[query.tenant] += 1
            if controller is not None and not controller.admit(sim.now):
                counters["shed_admission"].inc()
                self._event("ops.shed", query=query.id, kind="admission")
                return
            if free_slots[0] > 0:
                start(query)
            elif len(queue) < config.queue_limit:
                queue.append(query)
            else:
                counters["shed_overflow"].inc()
                self._event("ops.shed", query=query.id, kind="overflow")

        def apply_storm_event(event) -> None:
            self._event(
                "ops.storm.apply", kind=event.kind, device=event.device
            )
            if event.kind == "stuck":
                self._stuck[event.device] = event.factor
            elif event.kind == "drop":
                self._dropped[event.device] = True
            else:
                self._error_rate[event.device] = event.error_rate

        def revert_storm_event(event) -> None:
            self._event(
                "ops.storm.revert", kind=event.kind, device=event.device
            )
            if event.kind == "stuck":
                self._stuck[event.device] = 1.0
            elif event.kind == "error_burst":
                self._error_rate[event.device] = 0.0

        def tick() -> None:
            assert controller is not None
            with self._sim_tracer.span(
                "ops.controller.tick",
                p99_us=self.registry.gauge("ops.p99_window_us").value,
                active=len(self.active_devices()),
                shedding=controller.shedding,
            ):
                controller.on_tick(sim.now)
            next_time = sim.now + self._policy.tick
            if next_time < config.duration:
                sim.schedule(self._policy.tick, tick)

        arrivals = self.traffic.arrivals(config.duration)
        previous = set_registry(self.registry)
        try:
            with tracer.span(
                "ops.serve",
                controller=controller is not None,
                arrivals=len(arrivals),
                storm=self.storm.describe(),
            ):
                for query in arrivals:
                    sim.schedule_at(query.arrival, lambda q=query: arrive(q))
                for event in self.storm.events:
                    sim.schedule_at(event.at, lambda e=event: apply_storm_event(e))
                    if event.end is not None:
                        sim.schedule_at(
                            event.end, lambda e=event: revert_storm_event(e)
                        )
                if controller is not None:
                    sim.schedule(self._policy.tick, tick)
                end = sim.run()
        finally:
            set_registry(previous)

        if incident_start[0] is not None:
            incidents.append(Incident(start=incident_start[0], end=end))
        p50, p99, p999, mean = percentiles_us(latencies)
        tenant_stats: dict[str, dict[str, float]] = {}
        tenant_fairness = 1.0
        if track_tenants:
            for name in sorted(tenant_arrived):
                t50, t99, t999, tmean = percentiles_us(tenant_latencies[name])
                arrived_t = tenant_arrived[name]
                tenant_stats[name] = {
                    "arrived": float(arrived_t),
                    "completed": float(tenant_completed[name]),
                    "attained": float(tenant_attained[name]),
                    "attainment": (
                        tenant_attained[name] / arrived_t if arrived_t else 1.0
                    ),
                    "latency_p99_us": t99,
                    "latency_mean_us": tmean,
                }
            tenant_fairness = jain_fairness(
                [tenant_stats[n]["attainment"] for n in sorted(tenant_stats)]
            )
        return SloReport(
            duration=config.duration,
            slo_p99=config.slo_p99,
            controller=controller is not None,
            traffic_seed=self.traffic.seed,
            storm=self.storm.describe(),
            arrived=int(counters["arrived"].value),
            completed=int(counters["completed"].value),
            attained=attained[0],
            deadline_misses=int(counters["deadline_misses"].value),
            shed_admission=int(counters["shed_admission"].value),
            shed_overflow=int(counters["shed_overflow"].value),
            latency_p50_us=p50,
            latency_p99_us=p99,
            latency_p999_us=p999,
            latency_mean_us=mean,
            incidents=tuple(incidents),
            controller_actions=dict(controller.actions) if controller else {},
            health_events=tuple(e.describe() for e in self.tracker.events),
            tenants=tenant_stats,
            tenant_fairness=tenant_fairness,
        )


def run_serving_scenario(
    system_name: str = "xlfdd",
    *,
    config: ServingConfig | None = None,
    traffic: TrafficModel | None = None,
    storm: FaultStorm | None = None,
    controller: bool = True,
    controller_policy: ControllerPolicy | None = None,
) -> SloReport:
    """Resolve a system by name and run one serving scenario on its pool.

    The system resolves through :mod:`repro.systems`, so every registered
    configuration (``xlfdd``, ``cxl``, ``bam``, ...) can serve traffic.
    """
    from .. import systems

    system = systems.get(system_name)
    config = config if config is not None else ServingConfig()
    traffic = traffic if traffic is not None else TrafficModel()
    storm = storm if storm is not None else FaultStorm()
    policy = (
        (controller_policy if controller_policy is not None else ControllerPolicy())
        if controller
        else None
    )
    scenario = ServingScenario(
        system.pool,
        config,
        traffic,
        storm,
        base_latency=system.total_latency,
        controller_policy=policy,
    )
    return scenario.run()

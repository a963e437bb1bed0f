"""Discrete-event simulation of GPU-initiated external-memory reads.

First-principles counterpart of the fluid model: every request is an
entity that acquires a warp slot, a PCIe tag (memory devices only), and a
device queue slot; is admitted by the device at its IOPS rate and squeezed
through its internal bandwidth; waits out the access latency; and finally
moves its data across the shared PCIe link.  Completion of the last
request ends the step.

The DES exists to *validate* the fluid model (they must agree within a
small tolerance — property-tested) and to run serialized
microbenchmarks like Appendix B's pointer chase where a fluid model has
nothing to say.  :func:`simulate_step` is the one step-level simulator.

Fast-path notes (benchmarked by the ``des`` family, docs/PERFORMANCE.md):
a step first runs :func:`_index_order_step`, a heap-free
recurrence that is exact while requests complete in index order; it
checks that order and hands the step to the event loop if it breaks.
For general steps it is a scalar loop over tables built before it:
each request's device, its media and link service times, and the
earlier request whose completion gates its grant.  A uniform
round-robin step (one request size, no ``devices`` map) runs in blocks
instead (:func:`_uniform_step`): the gate lags a constant
``lag = min(G, L, D·d)`` requests behind, so every grant of a block of
``lag`` requests is a completion of the block before, and each FIFO
stage of the block (admission, media, link) is one array scan,
:func:`_fifo_scan`.  A stage whose every server is one reset run or
one busy run is a single vectorized pass with the loop's own float
additions.  A server whose runs alternate is, over a long block, an
integer max-plus scan in units of its binade's ulp
(:func:`_one_binade_scan`), exact while its departures stay in that
binade; whatever that leaves, and short blocks after one retry, runs
a scalar tail.  The order checks are whole-array comparisons at the
end of the step.

The event loop is the general path: it runs every step whose order
breaks, every step with an event budget (``max_events``) and every step
while tracing is on (the per-device queue-depth samples are sim-time
events).  Reached through ``max_events`` it is also the oracle the
recurrence is tested against.  Per-request state travels as event
arguments — one shared callback per stage for the whole step, no closure
allocation per request — and the three FIFO stages between the
device-tag grant and the shared link (IOPS admission, internal media
channel, access latency) are *fused*: their completion times are booked
analytically with :meth:`repro.sim.resources.FifoServer.book` and one
event is scheduled at the link-entry time, replacing three chained heap
events (per-device admission times strictly increase, so booking order
equals event order).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import GPU_ACTIVE_WARPS_BFS, KERNEL_STEP_OVERHEAD
from ..errors import SimulationError
from ..telemetry.clock import SimClock
from ..telemetry.tracer import get_tracer
from .events import Simulator
from .fluid import FluidParams
from .resources import FifoServer, RateServer, Semaphore

__all__ = [
    "DESConfig",
    "DESResult",
    "simulate_step",
    "simulate_trace",
]


@dataclass(frozen=True)
class DESConfig:
    """Resources of the simulated system (mirror of :class:`FluidParams`).

    Per-device quantities are per *member* device; ``num_devices`` scales
    them.  ``latency`` is the GPU-observed round-trip minus the explicit
    queueing the DES itself models.
    """

    link_bandwidth: float
    latency: float
    device_iops: float
    device_internal_bandwidth: float
    num_devices: int = 1
    link_outstanding: int | None = None
    device_outstanding: int | None = None
    gpu_concurrency: int = GPU_ACTIVE_WARPS_BFS
    step_overhead: float = KERNEL_STEP_OVERHEAD

    def __post_init__(self) -> None:
        if (
            self.link_bandwidth <= 0
            or self.latency <= 0
            or self.device_iops <= 0
            or self.device_internal_bandwidth <= 0
        ):
            raise SimulationError("bandwidths, IOPS and latency must be positive")
        if self.num_devices < 1 or self.gpu_concurrency < 1:
            raise SimulationError("num_devices and gpu_concurrency must be >= 1")
        if any(
            cap is not None and cap < 1
            for cap in (self.link_outstanding, self.device_outstanding)
        ):
            raise SimulationError("outstanding-request limits must be >= 1 or None")

    @classmethod
    def from_fluid(cls, params: FluidParams, num_devices: int = 1) -> "DESConfig":
        """Build a DES config equivalent to a fluid parameter set."""
        per_dev_outstanding = (
            None
            if params.device_outstanding is None
            else max(1, params.device_outstanding // num_devices)
        )
        return cls(
            link_bandwidth=params.link_bandwidth,
            latency=params.latency,
            device_iops=params.device_iops / num_devices,
            device_internal_bandwidth=params.device_internal_bandwidth / num_devices,
            num_devices=num_devices,
            link_outstanding=params.link_outstanding,
            device_outstanding=per_dev_outstanding,
            gpu_concurrency=params.gpu_concurrency,
            step_overhead=params.step_overhead,
        )


@dataclass
class DESResult:
    """Outcome of one simulated step (or trace)."""

    time: float
    requests: int
    link_busy_time: float
    max_link_tags: int
    max_warps: int
    completion_times: np.ndarray = field(repr=False)

    @property
    def link_utilization(self) -> float:
        """Fraction of the step the link's data path was busy."""
        return self.link_busy_time / self.time if self.time > 0 else 0.0


#: Requests :func:`_index_order_step` checks before a whole step's tables.
_ORDER_PREFIX = 32

#: Rounds of a block beyond which :func:`_fifo_scan` solves alternating
#: servers with :func:`_one_binade_scan`, whose dozen numpy calls cost
#: about as much as 100 scalar bookings; up to it, it retries the block
#: after each server's first request instead.
_CLOSED_FORM_ROWS = 128


def _one_run(queue: np.ndarray, arrivals: np.ndarray, service: float) -> bool:
    """Book the block if each server is one reset run or one busy run.

    Each column is one server: ``queue[0]`` is when it frees up and
    ``arrivals[r]`` its ``r``-th request's arrival, and the departures
    are ``queue[r + 1] = max(arrivals[r], queue[r]) + service``, the
    float expression of :meth:`~repro.sim.resources.FifoServer.book`.
    This books every request as if it found its server free (one reset
    run, ``arrivals + service``).  Only a request that arrives after
    that guess of its predecessor's departure can find the server free,
    since the true departure is never earlier.  So if every request
    does, the guess is exact, and if none does, each server is one busy
    run: ``np.add.accumulate`` over ``service`` from ``queue[0]``, the
    loop's own additions in its order.  Otherwise it returns ``False``
    with the guess, the drafts ``arrivals + service``, in ``queue[1:]``.
    """
    np.add(arrivals, service, out=queue[1:])
    resets = arrivals > queue[:-1]
    count = np.count_nonzero(resets)
    if count == resets.size:
        return True
    if count:
        return False
    queue[1:] = service
    np.add.accumulate(queue, axis=0, out=queue)
    return True


def _busy_run(queue: np.ndarray, arrivals: np.ndarray, service: float) -> bool:
    """Book the block as one busy run per server if no request finds its
    server free, checked against the busy departures themselves."""
    busy = np.full(queue.shape, service, dtype=np.float64)
    busy[0] = queue[0]
    np.add.accumulate(busy, axis=0, out=busy)
    if np.count_nonzero(arrivals > busy[:-1]):
        return False
    queue[1:] = busy[1:]
    return True


def _fifo_scan(queue: np.ndarray, arrivals: np.ndarray, service: float) -> None:
    """Book a block of requests on FIFO servers of one service time.

    The layout is :func:`_one_run`'s, which books most blocks.  In a
    block of few rounds a server is often one run after its first
    request, so that request is booked elementwise and the rest tried
    again.  A server whose runs alternate is solved by
    :func:`_one_binade_scan` if it has many requests, and whatever that
    leaves by the scalar loop.
    """
    if _one_run(queue, arrivals, service):
        return
    rows = arrivals.shape[0]
    if rows <= _CLOSED_FORM_ROWS:
        if _busy_run(queue, arrivals, service):
            return
        np.maximum(queue[1], queue[0] + service, out=queue[1])
        rest, later = queue[1:], arrivals[1:]
        if rows == 1 or _one_run(rest, later, service):
            return
        if _busy_run(rest, later, service):
            return
    for column in range(queue.shape[1]):
        departures = queue[:, column]
        start = 0
        if rows > _CLOSED_FORM_ROWS:
            start = _one_binade_scan(departures, service)
        # ``max(a, x) + s`` rounds to ``max(a + s, x + s)``: rounding is
        # monotone, so the drafts ``a + s`` stand in for the arrivals.
        free = float(departures[start])
        booked = []
        for draft in departures[start + 1 :].tolist():
            free += service
            if draft > free:
                free = draft
            booked.append(free)
        departures[start + 1 :] = booked


def _one_binade_scan(departures: np.ndarray, service: float) -> int:
    """Book one server's departures in closed form while they are exact.

    ``departures[0]`` is when the server frees up and ``departures[1:]``
    the drafts ``arrival + service``; the departures are ``x[r] =
    max(draft[r], x[r - 1] + service)``.  While every ``x`` lies in the
    binade ``[2**e, 2**(e + 1))`` of the first one, its floats are the
    integer multiples of one ulp ``u``, and adding ``service`` adds
    exactly ``k * u``, ``k`` the nearest integer to ``service / u``
    (unless ``service / u`` ends in exactly one half, when ties-to-even
    makes the step depend on parity).  In units of ``u`` the recurrence
    is then integer max-plus, ``x[j] = j * k + max(x[0], max over 0 < i
    <= j of draft[i] - i * k)``: one running maximum, exact in float64
    below ``2**53`` units, the top of the binade.  A draft below the
    binade cannot beat ``x[0]``, even rounded.  Books the departures
    that stay in the binade and returns how many it booked.
    """
    first = max(float(departures[1]), float(departures[0]) + service)
    departures[1] = first
    scale = 1.0 / float(np.spacing(first))
    step = service * scale
    twice = 2.0 * step
    if twice.is_integer() and int(twice) % 2:
        return 1
    units = departures[1:] * scale
    ramp = np.arange(units.size, dtype=np.float64) * float(round(step))
    units -= ramp
    np.maximum.accumulate(units, out=units)
    units += ramp
    booked = int(np.searchsorted(units, 2.0**53))
    np.divide(units[:booked], scale, out=departures[1 : booked + 1])
    return booked


def _uniform_step(
    n: int, size: int, config: DESConfig, window: int
) -> DESResult | None:
    """:func:`_index_order_step` of ``n`` round-robin requests of one size.

    The gate lags ``lag = min(window, num_devices * device_outstanding,
    n)`` requests behind, so the grants of a block of at most ``lag``
    requests are completions of earlier blocks, and the block's
    admission, media and link stages are three :func:`_fifo_scan` calls.
    A block is whole rounds of the devices (one row each, one column per
    device), so a request's same-device predecessor is the one a row
    up.  A block shorter than one round (``lag < num_devices``) and the
    last block's partial round are padded to a whole round; a padded
    slot is booked again by the block that owns it.  Each stage keeps
    one flat array over the step, request ``j`` behind a prefix of
    idle-server zeros: at ``num_devices + j`` for admission and media,
    and at ``lag + j`` for completions, so request ``j``'s grant is
    ``done[j]``.
    """
    devices = config.num_devices
    lag = window
    if config.device_outstanding is not None:
        lag = min(lag, devices * config.device_outstanding)
    lag = min(lag, n)
    block = lag - lag % devices if lag >= devices else lag
    op_time = 1.0 / config.device_iops
    media_time = size / config.device_internal_bandwidth
    service = size / config.link_bandwidth
    admitted = np.zeros(n + 2 * devices, dtype=np.float64)
    media = np.zeros(n + 2 * devices, dtype=np.float64)
    done = np.zeros(lag + n + devices, dtype=np.float64)
    for start in range(0, n, block):
        m = min(block, n - start)
        rows = -(-m // devices)
        span = (rows + 1) * devices
        admit = admitted[start : start + span].reshape(rows + 1, devices)
        grants = done[start : start + rows * devices].reshape(rows, devices)
        _fifo_scan(admit, grants, op_time)
        channel = media[start : start + span].reshape(rows + 1, devices)
        _fifo_scan(channel, admit[1:], media_time)
        arrivals = (channel[1:] + config.latency).reshape(-1, 1)[:m]
        link = done[lag + start - 1 : lag + start + m].reshape(m + 1, 1)
        _fifo_scan(link, arrivals, service)
    # The loop's per-request order checks, over the whole step.
    arrival = media[devices : devices + n] + config.latency
    grant = done[:n]
    completion = done[lag : lag + n]
    later, earlier = slice(1, None), slice(None, -1)
    if (
        (arrival[later] < arrival[earlier])
        | ((arrival[later] == arrival[earlier]) & (grant[later] < grant[earlier]))
        | (completion[later] <= completion[earlier])
    ).any():
        return None
    # ``link_busy`` sums the services one by one, as the loop does.
    busy = np.full(n, service, dtype=np.float64)
    np.add.accumulate(busy, out=busy)
    return DESResult(
        time=float(completion[-1]),
        requests=n,
        link_busy_time=float(busy[-1]),
        max_link_tags=min(n, window),
        max_warps=min(n, config.gpu_concurrency),
        completion_times=completion,
    )


def _index_order_step(
    sizes: np.ndarray,
    config: DESConfig,
    devices: np.ndarray | None,
    *,
    round_robin: bool = False,
) -> DESResult | None:
    """The step as a recurrence, or ``None`` if order breaks.

    ``sizes`` are positive and ``devices`` validated, one per request;
    ``round_robin`` says ``devices`` is ``arange(n) % num_devices``, and
    then ``devices`` may be ``None`` (it is built only for the tables).
    Valid while requests complete in index order: then every semaphore's
    waiters arrive and leave in index order, so request ``i``'s device
    tag is granted at ``max(completion[i - min(G, L)], completion of the
    request D earlier on its device)`` (a ``None`` capacity drops its
    term), and it books admission, media and the link exactly as the
    event loop would.  Completions then increase with the index, so the
    grant is the completion of the later of those two requests.  Two
    conditions make the event loop book the link in index order too:
    link arrivals never decrease, and equal arrivals come with
    non-decreasing grants (same-time events fire in scheduling order,
    which is grant order).  Completions must strictly increase.  If any
    condition fails the result is ``None`` and the caller runs the event
    loop from scratch.

    A round-robin step of one request size runs in blocks of the
    constant gate lag (:func:`_uniform_step`) and checks the conditions
    on whole arrays.  Any other step runs a scalar loop over tables: the
    gating request, ``i - min(G, L)`` by index or the same-device one by
    a stable argsort of ``devices``, is precomputed, and the conditions
    are checked per request, returning at the first violation.  A step
    that breaks order does so within its first few requests, so a long
    step first runs its first :data:`_ORDER_PREFIX` requests alone (the
    recurrence of a prefix is the prefix of the recurrence) and hands
    off without building its own tables if they break order.
    """
    n = sizes.size
    window = config.gpu_concurrency
    if config.link_outstanding is not None:
        window = min(window, config.link_outstanding)
    if round_robin and (sizes == sizes[0]).all():
        return _uniform_step(n, int(sizes[0]), config, window)
    if devices is None:
        devices = np.arange(n, dtype=np.int64) % config.num_devices
    if n > _ORDER_PREFIX and (
        _index_order_step(
            sizes[:_ORDER_PREFIX],
            config,
            devices[:_ORDER_PREFIX],
            round_robin=round_robin,
        )
        is None
    ):
        return None
    device_window = config.device_outstanding
    # The loop's feeds: each request's device, its service times (the
    # same IEEE divisions the scalar expressions make) and the request
    # whose completion gates the grant.  Of the two candidates,
    # ``window`` earlier and ``device_window`` earlier on the same
    # device, the later index wins: completions strictly increase while
    # the recurrence holds.  ``completion`` is offset by one behind a
    # sentinel slot 0 that stays 0.0, the gate of a request that neither
    # candidate holds back.
    device_feed = devices.tolist()
    media_times = (sizes / config.device_internal_bandwidth).tolist()
    link_times = (sizes / config.link_bandwidth).tolist()
    table = np.maximum(np.arange(1 - window, n + 1 - window, dtype=np.int64), 0)
    if device_window is not None and device_window < n:
        by_device = np.argsort(devices, kind="stable")
        later, earlier = by_device[device_window:], by_device[:-device_window]
        same = devices[later] == devices[earlier]
        later, earlier = later[same], earlier[same]
        table[later] = np.maximum(table[later], earlier + 1)
    gate = table.tolist()
    op_time = 1.0 / config.device_iops
    latency = config.latency
    admit_free = [0.0] * config.num_devices
    media_free = [0.0] * config.num_devices
    completion = [0.0]
    append = completion.append
    link_free = link_busy = 0.0
    last_arrival = last_grant = 0.0
    for gated_by, dev, media_time, service in zip(
        gate, device_feed, media_times, link_times
    ):
        grant = completion[gated_by]
        # Admission at the op rate, then the media channel: FifoServer.book.
        free = admit_free[dev]
        admitted = (grant if grant > free else free) + op_time
        admit_free[dev] = admitted
        free = media_free[dev]
        media_done = (admitted if admitted > free else free) + media_time
        media_free[dev] = media_done
        arrival = media_done + latency
        if arrival < last_arrival or (arrival == last_arrival and grant < last_grant):
            return None
        last_arrival = arrival
        last_grant = grant
        done = (arrival if arrival > link_free else link_free) + service
        if done <= link_free:
            return None
        link_free = done
        link_busy += service
        append(done)
    return DESResult(
        time=link_free,
        requests=n,
        link_busy_time=link_busy,
        max_link_tags=min(n, window),
        max_warps=min(n, config.gpu_concurrency),
        completion_times=np.array(completion, dtype=np.float64)[1:],
    )


def simulate_step(
    sizes: np.ndarray,
    config: DESConfig,
    devices: np.ndarray | None = None,
    *,
    include_overhead: bool = False,
    max_events: int | None = None,
) -> DESResult:
    """Simulate one step: all ``sizes`` requests ready at time zero.

    ``devices`` maps each request to a device index (round-robin by
    default).  Returns the completion time of the last request.
    Zero-size requests are dropped, with their ``devices`` entries.

    Without an event budget or enabled tracer the step is priced by
    :func:`_index_order_step` whenever its index-order check holds; its
    result equals the event loop's bit for bit.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    keep = sizes > 0
    if devices is not None:
        devices = np.asarray(devices, dtype=np.int64)
        if devices.shape != sizes.shape:
            raise SimulationError("devices must match sizes in shape")
        devices = devices[keep]
    sizes = sizes[keep]
    n = sizes.size
    if n == 0:
        return DESResult(
            time=config.step_overhead if include_overhead else 0.0,
            requests=0,
            link_busy_time=0.0,
            max_link_tags=0,
            max_warps=0,
            completion_times=np.empty(0, dtype=np.float64),
        )
    round_robin = devices is None
    if not round_robin and (devices.min() < 0 or devices.max() >= config.num_devices):
        raise SimulationError("device index out of range")
    tracer = get_tracer()
    traced = tracer.enabled
    overhead = config.step_overhead if include_overhead else 0.0
    if max_events is None and not traced:
        result = _index_order_step(
            sizes, config, devices, round_robin=round_robin
        )
        if result is not None:
            result.time += overhead
            return result
    if devices is None:
        devices = np.arange(n, dtype=np.int64) % config.num_devices

    sim = Simulator()
    warps = Semaphore(sim, config.gpu_concurrency, "warps")
    link_tags = Semaphore(sim, config.link_outstanding, "link-tags")
    device_tags = [
        Semaphore(sim, config.device_outstanding, f"dev{i}-tags")
        for i in range(config.num_devices)
    ]
    device_ops = [
        RateServer(sim, config.device_iops, f"dev{i}-ops")
        for i in range(config.num_devices)
    ]
    device_bw = [
        FifoServer(sim, f"dev{i}-bw") for i in range(config.num_devices)
    ]
    link = FifoServer(sim, "link-data")
    completion = np.zeros(n, dtype=np.float64)
    # Sim-time view: queue-depth samples land on the virtual timeline.
    sim_tracer = tracer.with_clock(SimClock(sim)) if traced else tracer

    def sample_depth(dev: int) -> None:
        sim_tracer.counter_sample(
            f"des.dev{dev}.queue_depth", device_tags[dev].depth
        )

    # Fast path: all callbacks are shared per step and carry the request
    # index/device as event args (no per-request closures), and the three
    # FIFO stages between the device-tag grant and the link — admission at
    # the op rate, the internal media channel, the fixed access latency —
    # are fused: their completion times are computable at the grant, so
    # one event at the link-entry time replaces three chained events.
    # The fused times are the exact same float expressions the chained
    # version evaluates, in the same order (per-device admission times
    # strictly increase, so booking order equals event order).
    sizes_list = sizes.tolist()
    devices_list = devices.tolist()
    media_bw = config.device_internal_bandwidth
    latency = config.latency
    link_bw = config.link_bandwidth

    def with_warp(i: int) -> None:
        link_tags.acquire(with_link_tag, i)

    def with_link_tag(i: int) -> None:
        device_tags[devices_list[i]].acquire(with_device_tag, i)

    def with_device_tag(i: int) -> None:
        dev = devices_list[i]
        if traced:
            sample_depth(dev)
        # Admission at the device's op rate, then the device's internal
        # channel, then the access latency — all booked analytically.
        admitted = device_ops[dev].book_op(sim.now)
        media_done = device_bw[dev].book(admitted, sizes_list[i] / media_bw)
        sim.schedule_at(media_done + latency, after_latency, i, dev)

    def after_latency(i: int, dev: int) -> None:
        # The response data serialises onto the shared link.
        link.submit(sizes_list[i] / link_bw, finish, i, dev)

    def finish(i: int, dev: int) -> None:
        completion[i] = sim.now
        device_tags[dev].release()
        link_tags.release()
        warps.release()
        if traced:
            sample_depth(dev)

    with tracer.span("des.step", requests=n, devices=config.num_devices):
        for i in range(n):
            warps.acquire(with_warp, i)
        end = sim.run(max_events=max_events)
    return DESResult(
        time=end + overhead,
        requests=n,
        link_busy_time=link.busy_time,
        max_link_tags=link_tags.max_in_use,
        max_warps=warps.max_in_use,
        completion_times=completion,
    )


def simulate_trace(
    step_sizes: list[np.ndarray],
    config: DESConfig,
    *,
    max_events: int | None = None,
) -> DESResult:
    """Simulate consecutive steps with a barrier between them.

    Per-step request-size arrays in, total runtime out (each step pays the
    kernel overhead, as in the fluid model).
    """
    if not step_sizes:
        raise SimulationError("simulate_trace needs at least one step")
    total = 0.0
    busy = 0.0
    requests = 0
    max_tags = 0
    max_warps = 0
    for sizes in step_sizes:
        result = simulate_step(
            sizes, config, include_overhead=True, max_events=max_events
        )
        total += result.time
        busy += result.link_busy_time
        requests += result.requests
        max_tags = max(max_tags, result.max_link_tags)
        max_warps = max(max_warps, result.max_warps)
    return DESResult(
        time=total,
        requests=requests,
        link_busy_time=busy,
        max_link_tags=max_tags,
        max_warps=max_warps,
        completion_times=np.empty(0, dtype=np.float64),
    )

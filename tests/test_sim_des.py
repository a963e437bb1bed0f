"""Discrete-event simulator: request pipelines and resource limits."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim.des import (
    _ORDER_PREFIX,
    DESConfig,
    _fifo_scan,
    _index_order_step,
    _one_binade_scan,
    simulate_step,
    simulate_trace,
)
from repro.sim.fluid import FluidParams
from repro.units import MB_PER_S, MIOPS, USEC


def make_config(**overrides):
    defaults = dict(
        link_bandwidth=24_000 * MB_PER_S,
        latency=1.2 * USEC,
        device_iops=100 * MIOPS,
        device_internal_bandwidth=100_000 * MB_PER_S,
        num_devices=1,
        link_outstanding=768,
        device_outstanding=None,
        gpu_concurrency=2_048,
        step_overhead=0.0,
    )
    defaults.update(overrides)
    return DESConfig(**defaults)


class TestSingleRequest:
    def test_time_is_latency_plus_service(self):
        config = make_config()
        result = simulate_step(np.array([128]), config)
        expected = (
            1 / (100 * MIOPS)  # device admission
            + 128 / (100_000 * MB_PER_S)  # media
            + 1.2 * USEC  # latency
            + 128 / (24_000 * MB_PER_S)  # link transfer
        )
        assert result.time == pytest.approx(expected, rel=1e-9)

    def test_empty_step(self):
        result = simulate_step(np.array([], dtype=np.int64), make_config())
        assert result.time == 0.0
        assert result.requests == 0

    def test_zero_sizes_filtered(self):
        result = simulate_step(np.array([0, 0, 64]), make_config())
        assert result.requests == 1


class TestResourceLimits:
    def test_link_tags_respected(self):
        config = make_config(link_outstanding=8)
        result = simulate_step(np.full(100, 64), config)
        assert result.max_link_tags <= 8

    def test_warp_limit_respected(self):
        config = make_config(gpu_concurrency=4, link_outstanding=None)
        result = simulate_step(np.full(50, 64), config)
        assert result.max_warps <= 4

    def test_latency_dominates_with_tiny_concurrency(self):
        config = make_config(gpu_concurrency=1)
        n = 20
        result = simulate_step(np.full(n, 32), config)
        # Fully serialized: n round trips.
        assert result.time >= n * 1.2 * USEC

    def test_bandwidth_bound_throughput(self):
        config = make_config()
        n, size = 5_000, 4_096
        result = simulate_step(np.full(n, size), config)
        # Achieved throughput within 2% of the link bandwidth.
        achieved = n * size / result.time
        assert achieved == pytest.approx(24_000 * MB_PER_S, rel=0.02)

    def test_iops_bound_throughput(self):
        config = make_config(device_iops=1 * MIOPS)
        n = 2_000
        result = simulate_step(np.full(n, 64), config)
        assert n / result.time == pytest.approx(1 * MIOPS, rel=0.02)

    def test_multi_device_scales_iops(self):
        slow = simulate_step(
            np.full(1_000, 64), make_config(device_iops=1 * MIOPS, num_devices=1)
        )
        fast = simulate_step(
            np.full(1_000, 64), make_config(device_iops=1 * MIOPS, num_devices=4)
        )
        assert slow.time / fast.time == pytest.approx(4, rel=0.1)

    def test_link_utilization_bounded(self):
        result = simulate_step(np.full(500, 128), make_config())
        assert 0.0 < result.link_utilization <= 1.0


class TestValidation:
    def test_config_validation(self):
        with pytest.raises(SimulationError):
            make_config(link_bandwidth=0)
        with pytest.raises(SimulationError):
            make_config(num_devices=0)
        for limit in ("link_outstanding", "device_outstanding"):
            with pytest.raises(SimulationError, match="outstanding"):
                make_config(**{limit: 0})

    def test_device_array_shape_checked(self):
        with pytest.raises(SimulationError, match="shape"):
            simulate_step(np.array([64, 64]), make_config(), devices=np.array([0]))

    def test_zero_sizes_dropped_with_their_devices(self):
        # Shapes are checked before zero-size requests are dropped, and the
        # same positions leave both arrays.
        config = make_config(num_devices=2)
        got = simulate_step(np.array([64, 0, 64]), config, np.array([0, 1, 1]))
        expected = simulate_step(np.array([64, 64]), config, np.array([0, 1]))
        assert got.requests == 2
        assert got.time == expected.time
        assert np.array_equal(got.completion_times, expected.completion_times)

    def test_device_index_range_checked(self):
        with pytest.raises(SimulationError, match="range"):
            simulate_step(np.array([64]), make_config(), devices=np.array([5]))

    def test_from_fluid_divides_per_device(self):
        params = FluidParams(
            link_bandwidth=12_000 * MB_PER_S,
            device_iops=10 * MIOPS,
            device_internal_bandwidth=10_000 * MB_PER_S,
            latency=2 * USEC,
            device_outstanding=320,
        )
        config = DESConfig.from_fluid(params, num_devices=5)
        assert config.device_iops == pytest.approx(2 * MIOPS)
        assert config.device_outstanding == 64
        assert config.num_devices == 5


class TestTrace:
    def test_steps_are_sequential_with_overhead(self):
        config = make_config(step_overhead=10 * USEC)
        one = simulate_step(np.full(100, 64), config, include_overhead=True)
        trace = simulate_trace([np.full(100, 64)] * 3, config)
        assert trace.time == pytest.approx(3 * one.time, rel=1e-6)
        assert trace.requests == 300

    def test_empty_trace_rejected(self):
        with pytest.raises(SimulationError, match="at least one"):
            simulate_trace([], make_config())


def oracle(sizes, config, devices=None, **kwargs):
    """The event loop: an event budget forces it on any step."""
    return simulate_step(sizes, config, devices, max_events=10**9, **kwargs)


def assert_same_result(got, expected):
    assert got.time == expected.time
    assert got.requests == expected.requests
    assert got.link_busy_time == expected.link_busy_time
    assert got.max_link_tags == expected.max_link_tags
    assert got.max_warps == expected.max_warps
    assert np.array_equal(got.completion_times, expected.completion_times)


def round_robin(n, num_devices):
    return np.arange(n, dtype=np.int64) % num_devices


class TestIndexOrderStep:
    """The event-free recurrence equals the event loop bit for bit."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        n=st.integers(min_value=30, max_value=300),
        num_devices=st.integers(min_value=1, max_value=4),
        assign_devices=st.booleans(),
        link_bandwidth=st.sampled_from([8e9, 24e9]),
        latency_us=st.sampled_from([1.0, 5.0, 10.0]),
        device_iops=st.sampled_from([1 * MIOPS, 4 * MIOPS, 8 * MIOPS]),
        media_bandwidth=st.sampled_from([6e9, 24e9]),
        device_outstanding=st.sampled_from([None, 1, 2, 8, 64]),
        link_outstanding=st.sampled_from([None, 4, 16, 768]),
        gpu_concurrency=st.sampled_from([1, 8, 64, 2048]),
    )
    def test_default_path_is_bit_identical_to_event_loop(
        self,
        seed,
        n,
        num_devices,
        assign_devices,
        link_bandwidth,
        latency_us,
        device_iops,
        media_bandwidth,
        device_outstanding,
        link_outstanding,
        gpu_concurrency,
    ):
        rng = np.random.default_rng(seed)
        sizes = rng.choice(np.array([32, 64, 128, 512, 4096]), size=n)
        devices = rng.integers(0, num_devices, size=n) if assign_devices else None
        config = DESConfig(
            link_bandwidth=link_bandwidth,
            latency=latency_us * USEC,
            device_iops=device_iops,
            device_internal_bandwidth=media_bandwidth,
            num_devices=num_devices,
            link_outstanding=link_outstanding,
            device_outstanding=device_outstanding,
            gpu_concurrency=gpu_concurrency,
        )
        assert_same_result(
            simulate_step(sizes, config, devices), oracle(sizes, config, devices)
        )

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_event_loop(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 300))
        num_devices = int(rng.integers(1, 5))
        if seed % 2:
            sizes = rng.choice(np.array([32, 64, 128, 512, 4096]), size=n)
        else:
            sizes = np.full(n, int(rng.choice([32, 512, 4096])))
        devices = rng.integers(0, num_devices, size=n) if seed % 3 == 0 else None
        config = make_config(
            link_bandwidth=float(rng.choice([8e9, 24e9])),
            latency=float(rng.choice([1.0, 5.0, 10.0])) * USEC,
            device_iops=float(rng.choice([1, 4, 8])) * MIOPS,
            device_internal_bandwidth=float(rng.choice([6e9, 24e9])),
            num_devices=num_devices,
            link_outstanding=rng.choice([None, 1, 4, 16, 768]),
            device_outstanding=rng.choice([None, 1, 2, 8, 64]),
            gpu_concurrency=int(rng.choice([1, 3, 64, 2048])),
            step_overhead=10 * USEC,
        )
        overhead = seed % 4 == 1
        assert_same_result(
            simulate_step(sizes, config, devices, include_overhead=overhead),
            oracle(sizes, config, devices, include_overhead=overhead),
        )

    @pytest.mark.parametrize("num_devices", [1, 5])
    @pytest.mark.parametrize("device_outstanding", [None, 64])
    def test_uniform_round_robin_runs_the_recurrence(
        self, num_devices, device_outstanding
    ):
        # The Fig 11 shape: one request size, devices assigned round-robin.
        n = 2_000
        sizes = np.full(n, 4_096, dtype=np.int64)
        config = make_config(
            num_devices=num_devices, device_outstanding=device_outstanding
        )
        devices = round_robin(n, num_devices)
        fast = _index_order_step(sizes, config, devices)
        assert fast is not None
        assert fast.max_warps == min(n, config.gpu_concurrency)
        assert fast.max_link_tags == min(n, config.link_outstanding)
        assert_same_result(fast, oracle(sizes, config))

    def test_mixed_sizes_on_two_devices_hand_off(self):
        # A small read on device 1 reaches the link before the large read
        # ahead of it on device 0, so completions leave index order.
        sizes = np.array([4_096, 32, 4_096, 32], dtype=np.int64)
        config = make_config(num_devices=2, device_internal_bandwidth=6e9)
        assert _index_order_step(sizes, config, round_robin(4, 2)) is None
        got = simulate_step(sizes, config)
        assert got.completion_times[1] < got.completion_times[0]
        assert_same_result(got, oracle(sizes, config))

    def test_equal_arrivals_out_of_grant_order_hand_off(self):
        # Requests 1 and 2 reach the link at the same instant, but request 2
        # was granted first, so the event loop serves it first.
        config = DESConfig(
            link_bandwidth=4.0,
            latency=1.0,
            device_iops=2.0,
            device_internal_bandwidth=2.0,
            num_devices=2,
            device_outstanding=1,
            gpu_concurrency=3,
        )
        sizes = np.array([2, 2, 8], dtype=np.int64)
        devices = np.array([1, 1, 0], dtype=np.int64)
        assert _index_order_step(sizes, config, devices) is None
        got = simulate_step(sizes, config, devices)
        assert got.completion_times.tolist() == [3.0, 8.0, 7.5]
        assert_same_result(got, oracle(sizes, config, devices))

    # Random device maps at up to 3,000 requests, so the grant's
    # same-device lag (``device_outstanding`` requests earlier on one
    # device) binds and not only the window lag.

    @staticmethod
    def device_map(rng, n, num_devices, kind):
        if kind == "uniform":
            return rng.integers(0, num_devices, size=n)
        if kind == "runs":
            return np.sort(rng.integers(0, num_devices, size=n))
        # A shuffled round-robin: a random device order, repeated.
        return rng.permutation(num_devices)[round_robin(n, num_devices)]

    @staticmethod
    def same_device_lag_binds(devices, completion, window, device_window):
        """Requests whose grant waits on the one ``device_window`` earlier
        on their device rather than on the one ``window`` earlier."""
        earlier: dict[int, list[int]] = {}
        binds = 0
        for i, dev in enumerate(devices.tolist()):
            mine = earlier.setdefault(dev, [])
            by_window = completion[i - window] if i >= window else 0.0
            if len(mine) >= device_window and completion[mine[-device_window]] > by_window:
                binds += 1
            mine.append(i)
        return binds

    @pytest.mark.parametrize("device_outstanding", [1, 8, 64])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_device_maps_match_event_loop(self, seed, device_outstanding):
        rng = np.random.default_rng(1_000 + seed)
        n = int(rng.integers(300, 3_001))
        num_devices = int(rng.integers(1, 9))
        kind = ("uniform", "runs", "shuffled")[seed % 3]
        devices = self.device_map(rng, n, num_devices, kind)
        sizes = np.full(n, int(rng.choice([32, 512, 4096])), dtype=np.int64)
        config = make_config(
            link_bandwidth=float(rng.choice([8e9, 24e9])),
            latency=float(rng.choice([1.0, 5.0, 10.0])) * USEC,
            device_iops=float(rng.choice([1, 4, 8])) * MIOPS,
            device_internal_bandwidth=float(rng.choice([6e9, 24e9])),
            num_devices=num_devices,
            link_outstanding=rng.choice([None, 16, 256, 768]),
            device_outstanding=device_outstanding,
            gpu_concurrency=int(rng.choice([64, 2048])),
        )
        expected = oracle(sizes, config, devices)
        fast = _index_order_step(sizes, config, devices)
        if fast is not None:
            assert_same_result(fast, expected)
        assert_same_result(simulate_step(sizes, config, devices), expected)

    @pytest.mark.parametrize("device_outstanding", [1, 8, 64])
    @pytest.mark.parametrize("num_devices", [3, 5])
    def test_same_device_lag_binds_on_shuffled_round_robin(
        self, num_devices, device_outstanding
    ):
        rng = np.random.default_rng(num_devices * device_outstanding)
        n = 3_000
        devices = self.device_map(rng, n, num_devices, "shuffled")
        sizes = np.full(n, 4_096, dtype=np.int64)
        config = make_config(
            num_devices=num_devices,
            device_outstanding=device_outstanding,
            device_iops=4 * MIOPS,
            device_internal_bandwidth=6e9,
            latency=5 * USEC,
        )
        fast = _index_order_step(sizes, config, devices)
        assert fast is not None
        binds = self.same_device_lag_binds(
            devices, fast.completion_times, config.link_outstanding, device_outstanding
        )
        assert binds > n // 2
        assert_same_result(fast, oracle(sizes, config, devices))

    @pytest.mark.parametrize("n", [1, 7, 64])
    def test_device_outstanding_at_least_n(self, n):
        # Every same-device lag points at the sentinel: no grant waits on it.
        rng = np.random.default_rng(n)
        devices = rng.integers(0, 3, size=n)
        sizes = np.full(n, 512, dtype=np.int64)
        unbounded = make_config(num_devices=3, gpu_concurrency=4, link_outstanding=None)
        for device_outstanding in (n, n + 1):
            config = make_config(
                num_devices=3,
                device_outstanding=device_outstanding,
                gpu_concurrency=4,
                link_outstanding=None,
            )
            got = _index_order_step(sizes, config, devices)
            assert got is not None
            assert_same_result(got, oracle(sizes, config, devices))
            assert_same_result(got, simulate_step(sizes, unbounded, devices))

    @pytest.mark.parametrize("n", [_ORDER_PREFIX - 1, _ORDER_PREFIX, _ORDER_PREFIX + 1, 200])
    @pytest.mark.parametrize("device_outstanding", [None, 1, 8])
    def test_gates_across_the_prefix_boundary(self, n, device_outstanding):
        # Requests after the checked prefix are gated by ones inside it.
        rng = np.random.default_rng(n)
        devices = rng.permutation(3)[round_robin(n, 3)]
        sizes = np.full(n, 512, dtype=np.int64)
        config = make_config(
            num_devices=3,
            device_outstanding=device_outstanding,
            gpu_concurrency=_ORDER_PREFIX // 2 + 3,
            device_iops=4 * MIOPS,
        )
        fast = _index_order_step(sizes, config, devices)
        assert fast is not None
        assert_same_result(fast, oracle(sizes, config, devices))

    @pytest.mark.parametrize("position", [0, _ORDER_PREFIX - 1, _ORDER_PREFIX, 3 * _ORDER_PREFIX])
    def test_break_before_or_after_the_prefix_hands_off(self, position):
        # Large reads on device 0 and one small read on device 1: the small
        # read overtakes the large one issued just before it.
        n = 4 * _ORDER_PREFIX
        sizes = np.full(n, 4_096, dtype=np.int64)
        devices = np.zeros(n, dtype=np.int64)
        sizes[position + 1] = 32
        devices[position + 1] = 1
        config = make_config(num_devices=2, device_internal_bandwidth=6e9)
        head = position + 1
        assert _index_order_step(sizes[:head], config, devices[:head]) is not None
        assert _index_order_step(sizes, config, devices) is None
        assert_same_result(
            simulate_step(sizes, config, devices), oracle(sizes, config, devices)
        )

    @pytest.mark.parametrize("device_outstanding", [None, 1, 2])
    def test_fewer_requests_than_the_window(self, device_outstanding):
        # Every window lag points at the sentinel: only devices gate grants.
        n = 40
        sizes = np.full(n, 4_096, dtype=np.int64)
        config = make_config(
            num_devices=2,
            device_outstanding=device_outstanding,
            link_outstanding=n + 1,
        )
        devices = round_robin(n, 2)
        fast = _index_order_step(sizes, config, devices)
        assert fast is not None
        assert fast.max_link_tags == fast.max_warps == n
        assert_same_result(fast, oracle(sizes, config, devices))


def _uniform_round_robin_cases():
    """(num_devices, device_outstanding, gpu_concurrency, link_outstanding):
    the GPU window, the link window and ``num_devices * device_outstanding``
    each bind in some case."""
    for num_devices in (1, 3, 5):
        for device_outstanding in (None, 1, 8, 64):
            for gpu, link in ((6, 40), (2_048, 6), (48, None)):
                yield num_devices, device_outstanding, gpu, link


def _binding_window(num_devices, device_outstanding, gpu, link):
    windows = {"gpu": gpu, "link": link}
    if device_outstanding is not None:
        windows["device"] = num_devices * device_outstanding
    lag = min(w for w in windows.values() if w is not None)
    return lag, [name for name, w in windows.items() if w == lag]


class TestUniformRoundRobin:
    """A round-robin step of one request size runs without tables."""

    def test_every_window_binds_in_some_case(self):
        binding = {
            names[0]
            for names in (
                _binding_window(*case)[1] for case in _uniform_round_robin_cases()
            )
            if len(names) == 1
        }
        assert binding == {"gpu", "link", "device"}

    @pytest.mark.parametrize("case", list(_uniform_round_robin_cases()))
    def test_matches_tables_and_event_loop(self, case):
        num_devices, device_outstanding, gpu, link = case
        config = make_config(
            num_devices=num_devices,
            device_outstanding=device_outstanding,
            gpu_concurrency=gpu,
            link_outstanding=link,
            device_iops=4 * MIOPS,
            device_internal_bandwidth=6e9,
            latency=5 * USEC,
        )
        lag, _ = _binding_window(*case)
        # Below, at and above the window, and across the checked prefix.
        lengths = {lag - 1, lag, lag + 1, 3 * _ORDER_PREFIX + 5}
        lengths |= {_ORDER_PREFIX - 1, _ORDER_PREFIX, _ORDER_PREFIX + 1}
        for n in sorted(lengths - {0}):
            sizes = np.full(n, 512, dtype=np.int64)
            devices = round_robin(n, num_devices)
            fast = _index_order_step(sizes, config, devices, round_robin=True)
            assert fast is not None
            assert_same_result(fast, _index_order_step(sizes, config, devices))
            assert_same_result(fast, oracle(sizes, config))
            assert_same_result(simulate_step(sizes, config), fast)
            assert_same_result(simulate_step(sizes, config, devices), fast)

    def test_mixed_sizes_keep_the_tables(self):
        # Round-robin alone does not select the constant feed.
        sizes = np.array([4_096, 32, 4_096, 32], dtype=np.int64)
        config = make_config(num_devices=2, device_internal_bandwidth=6e9)
        devices = round_robin(4, 2)
        assert _index_order_step(sizes, config, devices, round_robin=True) is None
        assert_same_result(simulate_step(sizes, config), oracle(sizes, config))

    @pytest.mark.parametrize("n", [2, 3 * _ORDER_PREFIX])
    def test_rounded_away_service_hands_off(self, n):
        # Two devices deliver requests 0 and 1 at the same instant, and a
        # link service far below the clock's resolution leaves request 1
        # completing with request 0: completions stop strictly increasing.
        sizes = np.ones(n, dtype=np.int64)
        config = make_config(num_devices=2, link_bandwidth=1e30)
        devices = round_robin(n, 2)
        assert _index_order_step(sizes, config, devices, round_robin=True) is None
        got = simulate_step(sizes, config)
        assert got.completion_times[1] == got.completion_times[0]
        assert_same_result(got, oracle(sizes, config))


# The block path of a uniform round-robin step (``_uniform_step``), fuzzed
# per binding resource against the table-fed loop and the event loop.

#: Per-request service times that make each named resource bind.
_REGIMES = {
    # (op time, media time, link time, latency), seconds per request
    "iops": (1e-6, 1e-9, 1e-9, 1e-6),
    "media": (1e-8, 1e-6, 1e-9, 1e-6),
    "link": (1e-8, 1e-9, 1e-6, 1e-6),
    "latency": (1e-8, 1e-9, 1e-9, 10e-6),
}


def _regime_config(regime, num_devices, rng):
    op_time, media_time, link_time, latency = _REGIMES[regime]
    size = int(rng.choice([64, 512, 4_096]))
    if regime == "latency":
        # A small window: ``lag`` requests per latency sets the rate.
        gpu = int(rng.choice([8, 16]))
        device_outstanding = rng.choice([None, 1, 2])
        link_outstanding = None
    else:
        gpu = 2_048
        device_outstanding = rng.choice([None, 64])
        link_outstanding = rng.choice([None, 48, 768])
    jitter = float(rng.uniform(0.9, 1.1))
    config = make_config(
        link_bandwidth=size / (link_time * jitter),
        latency=latency * jitter,
        device_iops=1.0 / op_time,
        device_internal_bandwidth=size / media_time,
        num_devices=num_devices,
        link_outstanding=link_outstanding,
        device_outstanding=device_outstanding,
        gpu_concurrency=gpu,
    )
    return config, size


def _gate_lag(config):
    return _binding_window(
        config.num_devices,
        config.device_outstanding,
        config.gpu_concurrency,
        config.link_outstanding,
    )[0]


def _rate_bounds(config, size):
    """Seconds per request each resource allows on a long step."""
    devices = config.num_devices
    return {
        "iops": 1.0 / (devices * config.device_iops),
        "media": size / (devices * config.device_internal_bandwidth),
        "link": size / config.link_bandwidth,
        "latency": config.latency / _gate_lag(config),
    }


def _scalar_scan(free, arrivals, service):
    booked = []
    for arrival in arrivals:
        free = (arrival if arrival > free else free) + service
        booked.append(free)
    return booked


class TestUniformBlocks:
    """``_index_order_step(..., round_robin=True)`` on one request size
    runs in lag-sized blocks of array scans; it equals the table-fed loop
    (the same recurrence without ``round_robin``) bit for bit."""

    @pytest.mark.parametrize("num_devices", range(1, 9))
    @pytest.mark.parametrize("regime", list(_REGIMES))
    def test_matches_tables_and_event_loop(self, regime, num_devices):
        rng = np.random.default_rng([list(_REGIMES).index(regime), num_devices])
        config, size = _regime_config(regime, num_devices, rng)
        bounds = _rate_bounds(config, size)
        assert max(bounds, key=bounds.get) == regime
        lag = _gate_lag(config)
        for n in sorted({lag - 1, lag, lag + 1, 3 * lag + 5} - {0}):
            sizes = np.full(n, size, dtype=np.int64)
            devices = round_robin(n, num_devices)
            fast = _index_order_step(sizes, config, devices, round_robin=True)
            assert fast is not None
            assert_same_result(fast, _index_order_step(sizes, config, devices))
            if n <= 2_000:
                assert_same_result(fast, oracle(sizes, config))

    def test_first_block_queues_on_zero_grants(self):
        # Every grant of the first block is 0.0, so each device's
        # admissions queue back to back at the op rate.
        config = make_config(num_devices=3, device_iops=1 * MIOPS)
        n = 3 * 40
        sizes = np.full(n, 512, dtype=np.int64)
        devices = round_robin(n, 3)
        fast = _index_order_step(sizes, config, devices, round_robin=True)
        assert n <= _gate_lag(config)
        assert_same_result(fast, _index_order_step(sizes, config, devices))
        assert_same_result(fast, oracle(sizes, config))
        spacing = np.diff(fast.completion_times[::3])
        assert np.allclose(spacing, 1.0 / config.device_iops)

    def test_alternating_runs_take_the_scalar_tail(self):
        # Column 0 alternates between finding its server free and
        # queueing; column 1 queues throughout: neither single-run pass
        # applies, and the scan must equal the scalar loop per column.
        service = 1.0
        arrivals = np.array(
            [[0.5, 0.0], [3.0, 0.0], [3.5, 0.0], [9.0, 0.0], [9.2, 0.0]]
        )
        queue = np.zeros((6, 2))
        queue[0] = [0.0, 2.0]
        _fifo_scan(queue, arrivals, service)
        for column in range(2):
            expected = _scalar_scan(queue[0, column], arrivals[:, column], service)
            assert queue[1:, column].tolist() == expected
        assert queue[1:, 0].tolist() == [1.5, 4.0, 5.0, 10.0, 11.0]

    def test_alternating_link_step_matches_tables(self):
        # A Figure 11 step whose link alternates between idle and busy
        # within each block: its link scans run the scalar tail.
        config = DESConfig(
            link_bandwidth=12e9,
            latency=3.82e-06,
            device_iops=89_062_500.0 / 5,
            device_internal_bandwidth=5.7e9 / 5,
            num_devices=5,
            link_outstanding=256,
            device_outstanding=64,
            gpu_concurrency=2_048,
        )
        n = 4_000
        sizes = np.full(n, 117, dtype=np.int64)
        devices = round_robin(n, 5)
        fast = _index_order_step(sizes, config, devices, round_robin=True)
        tables = _index_order_step(sizes, config, devices)
        assert tables is not None
        assert_same_result(fast, tables)
        # The link is idle before some requests and busy before others.
        gaps = np.diff(fast.completion_times)
        service = 117 / config.link_bandwidth
        assert (gaps > service * (1 + 1e-9)).any()
        assert (gaps <= service * (1 + 1e-9)).any()

    def test_link_busy_time_sums_in_request_order(self):
        # Past 8,192 terms a pairwise sum (np.sum) rounds differently
        # from the loop's one-by-one sum; only the sequential one matches.
        n = 10_000
        config = make_config()
        sizes = np.full(n, 64, dtype=np.int64)
        fast = _index_order_step(sizes, config, round_robin(n, 1), round_robin=True)
        service = 64 / config.link_bandwidth
        one_by_one = 0.0
        for _ in range(n):
            one_by_one += service
        assert fast.link_busy_time == one_by_one
        assert np.sum(np.full(n, service)) != one_by_one
        tables = _index_order_step(sizes, config, round_robin(n, 1))
        assert_same_result(fast, tables)


class TestFifoScan:
    """One block of one stage: ``_fifo_scan`` equals the scalar loop on
    servers whose runs alternate, through each of its paths."""

    @staticmethod
    def alternating(first_arrival, rows, service, seed):
        # Gaps around the service time: the server idles before some
        # requests and queues others.
        rng = np.random.default_rng(seed)
        gaps = service * rng.uniform(0.3, 1.7, size=rows)
        return first_arrival + np.cumsum(gaps)

    @staticmethod
    def drafts(free, arrivals, service):
        departures = np.empty(arrivals.size + 1)
        departures[0] = free
        departures[1:] = arrivals + service
        return departures

    def scan(self, free, arrivals, service):
        queue = np.empty((arrivals.size + 1, 1))
        queue[0] = free
        _fifo_scan(queue, arrivals.reshape(-1, 1), service)
        assert queue[1:, 0].tolist() == _scalar_scan(free, arrivals.tolist(), service)
        return queue

    @pytest.mark.parametrize("seed", range(5))
    def test_alternating_server_within_one_binade(self, seed):
        # 1.1e-5 s plus 300 services stays below 2**-16 s.
        service = 7.9e-9
        arrivals = self.alternating(1.1e-5, 300, service, seed)
        self.scan(1.1e-5, arrivals, service)
        departures = self.drafts(1.1e-5, arrivals, service)
        assert _one_binade_scan(departures, service) == 300

    @pytest.mark.parametrize("seed", range(5))
    def test_departures_that_leave_the_binade_finish_scalar(self, seed):
        # From 1.45e-5 s the departures cross 2**-16 s part way through.
        service = 7.9e-9
        arrivals = self.alternating(1.45e-5, 300, service, seed)
        self.scan(1.45e-5, arrivals, service)
        departures = self.drafts(1.45e-5, arrivals, service)
        booked = _one_binade_scan(departures, service)
        assert 1 < booked < 300
        assert departures[booked] < 2.0**-16

    def test_half_ulp_service_finishes_scalar(self):
        # A service of k + 1/2 ulps rounds half to even.  The server frees
        # up just below 2**-17 s, so its first departure crosses into the
        # next binade on an odd multiple of the ulp, and adding the
        # service there rounds up to k + 1 ulps, not the even k.
        binade = 2.0**-17
        unit = float(np.spacing(binade))
        service = (2**19 + 0.5) * unit
        free = binade - unit - 2**19 * unit
        gaps = service * np.where(np.arange(300) % 3, 0.25, 1.9)
        arrivals = free - service + np.cumsum(gaps)
        queue = self.scan(free, arrivals, service)
        assert queue[1, 0] >= binade
        assert (queue[1, 0] / unit) % 2 == 1
        departures = self.drafts(free, arrivals, service)
        assert _one_binade_scan(departures, service) == 1

    def test_short_block_retries_after_the_first_request(self):
        # Three servers: each finds its server free at its first request
        # and queues from then on, a busy run only after the first row.
        service = 1.0
        queue = np.zeros((5, 3))
        arrivals = np.array([[5.0, 6.0, 7.0]] + [[5.5, 6.5, 7.5]] * 3)
        expected = [
            _scalar_scan(0.0, arrivals[:, column].tolist(), service)
            for column in range(3)
        ]
        _fifo_scan(queue, arrivals, service)
        assert queue[1:].T.tolist() == expected
        assert queue[1:, 0].tolist() == [6.0, 7.0, 8.0, 9.0]

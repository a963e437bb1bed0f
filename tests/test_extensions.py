"""Extension features: OoO bridge, DES prediction, flash-CXL, cost model."""

import numpy as np
import pytest

from repro import systems
from repro import workloads as registry
from repro.core.cost import MEDIA_COSTS, MediaCost, cost_performance, system_memory_cost
from repro.core.experiment import (
    bam_system,
    cxl_system,
    emogi_system,
    flash_cxl_system,
    run_algorithm,
    xlfdd_system,
)
from repro.core.evalcache import cached_physical_trace, clear_evaluation_cache
from repro.core.runtime_model import (
    des_step_memo,
    predict_runtime,
    predict_runtime_des,
)
from repro.core.sweep import cxl_latency_grid
from repro.devices.cxl import (
    LatencyBridge,
    OutOfOrderLatencyBridge,
    head_of_line_penalty,
)
from repro.errors import DeviceError, ModelError
from repro.graph.datasets import load_dataset
from repro.interconnect.pcie import PCIeLink
from repro.sim import des
from repro.sim.des import DESConfig, simulate_step
from repro.traversal.trace import AccessTrace, TraceStep
from repro.units import USEC


class TestOutOfOrderBridge:
    def test_equivalent_to_fifo_for_constant_latency(self):
        arrivals = np.sort(np.random.default_rng(0).uniform(0, 1e-4, 100))
        fifo = LatencyBridge(1 * USEC).release_times(arrivals, 0.1 * USEC)
        ooo = OutOfOrderLatencyBridge(1 * USEC).release_times(arrivals, 0.1 * USEC)
        assert np.allclose(fifo, ooo)

    def test_no_head_of_line_blocking(self):
        bridge = OutOfOrderLatencyBridge(0.0)
        arrivals = np.array([0.0, 1e-9])
        # First request is slow; second must not wait for it.
        out = bridge.release_times_variable(arrivals, np.array([5 * USEC, 0.1 * USEC]))
        assert out[1] < out[0]

    def test_penalty_zero_for_constant_latency(self):
        arrivals = np.linspace(0, 1e-4, 50)
        assert head_of_line_penalty(arrivals, np.full(50, 1e-7)) == 0.0

    def test_penalty_positive_for_variable_latency(self):
        rng = np.random.default_rng(1)
        arrivals = np.sort(rng.uniform(0, 1e-5, 200))
        latencies = rng.exponential(0.5e-6, 200)
        assert head_of_line_penalty(arrivals, latencies) > 0.0

    def test_penalty_grows_with_variance(self):
        rng = np.random.default_rng(2)
        arrivals = np.sort(rng.uniform(0, 1e-5, 500))
        low_var = rng.normal(1e-6, 1e-8, 500).clip(min=0)
        high_var = rng.normal(1e-6, 5e-7, 500).clip(min=0)
        assert head_of_line_penalty(arrivals, high_var) > head_of_line_penalty(
            arrivals, low_var
        )

    def test_validation(self):
        with pytest.raises(DeviceError):
            head_of_line_penalty(np.array([0.0]), np.array([1e-6, 2e-6]))
        with pytest.raises(DeviceError):
            OutOfOrderLatencyBridge(0.0).release_times(
                np.array([1.0, 0.0]), 1e-6
            )


class TestDESPrediction:
    def test_matches_fluid_prediction(self, urand_paper, paper_bfs_trace):
        system = emogi_system()
        fluid = predict_runtime(paper_bfs_trace, system).runtime
        des = predict_runtime_des(
            paper_bfs_trace, system, max_requests_per_step=4_000
        )
        assert des == pytest.approx(fluid, rel=0.2)

    def test_cxl_latency_effect_visible_in_des(self, paper_bfs_trace):
        fast = predict_runtime_des(
            paper_bfs_trace, cxl_system(0.0), max_requests_per_step=2_000
        )
        slow = predict_runtime_des(
            paper_bfs_trace, cxl_system(3 * USEC), max_requests_per_step=2_000
        )
        assert slow > 1.5 * fast


def figure11_systems():
    """The CXL pool of Figure 11 at each added device latency."""
    gen3 = PCIeLink.from_name("gen3")
    return [systems.get("cxl", gen3, **c["options"]) for c in cxl_latency_grid()]


@pytest.fixture
def cold_caches():
    clear_evaluation_cache()
    yield
    clear_evaluation_cache()


class TestDESStepMemo:
    """predict_runtime_des simulates each distinct step once."""

    def test_flushed_by_clear_evaluation_cache(self, cold_caches, paper_bfs_trace):
        predict_runtime_des(
            paper_bfs_trace, cxl_system(0.0), max_requests_per_step=4_000
        )
        assert des_step_memo.stats()["entries"] > 0
        clear_evaluation_cache()
        assert des_step_memo.stats() == {"hits": 0, "misses": 0, "entries": 0}

    def test_repeat_equals_fresh(self, cold_caches, paper_bfs_trace):
        system = cxl_system(1 * USEC)
        fresh = predict_runtime_des(
            paper_bfs_trace, system, max_requests_per_step=4_000
        )
        entries = des_step_memo.stats()["entries"]
        repeat = predict_runtime_des(
            paper_bfs_trace, system, max_requests_per_step=4_000
        )
        assert des_step_memo.stats()["entries"] == entries
        assert des_step_memo.stats()["hits"] >= entries
        assert repeat == fresh
        clear_evaluation_cache()
        assert (
            predict_runtime_des(paper_bfs_trace, system, max_requests_per_step=4_000)
            == fresh
        )

    def test_cxl_latencies_never_share_an_entry(self, cold_caches, paper_bfs_trace):
        alone = []
        for system in figure11_systems():
            clear_evaluation_cache()
            predict_runtime_des(paper_bfs_trace, system, max_requests_per_step=4_000)
            alone.append(des_step_memo.stats())
        clear_evaluation_cache()
        for system in figure11_systems():
            predict_runtime_des(paper_bfs_trace, system, max_requests_per_step=4_000)
        together = des_step_memo.stats()
        assert len(alone) == 4
        for counter in ("hits", "misses", "entries"):
            assert together[counter] == sum(stats[counter] for stats in alone)

    def test_capped_steps_are_keyed_on_the_capped_count(self, cold_caches):
        # Two steps of 100 and 150 separate 128 B reads, both capped to 50.
        trace = AccessTrace("bfs", "two-steps", edge_list_bytes=256 * 150)
        for count in (100, 150):
            starts = np.arange(count, dtype=np.int64) * 256
            trace.append(TraceStep(np.arange(count), starts, np.full(count, 128)))
        system = cxl_system(0.0)
        steps = cached_physical_trace(system.method, trace).steps
        assert [(s.requests, s.link_bytes) for s in steps] == [
            (100, 100 * 128),
            (150, 150 * 128),
        ]
        capped = predict_runtime_des(trace, system, max_requests_per_step=50)
        assert des_step_memo.stats() == {"hits": 1, "misses": 1, "entries": 1}
        params = system.fluid_params()
        config = DESConfig.from_fluid(params, num_devices=system.pool.count)
        time = simulate_step(np.full(50, 128), config).time
        assert capped == (time * 2.0 + params.step_overhead) + (
            time * 3.0 + params.step_overhead
        )
        clear_evaluation_cache()
        predict_runtime_des(trace, system)
        assert des_step_memo.stats() == {"hits": 0, "misses": 2, "entries": 2}

    def test_simulate_step_itself_is_not_memoised(self, cold_caches, monkeypatch):
        calls = []
        index_order_step = des._index_order_step

        def counted(*args, **kwargs):
            calls.append(args[0].size)
            return index_order_step(*args, **kwargs)

        monkeypatch.setattr(des, "_index_order_step", counted)
        config = DESConfig(
            link_bandwidth=24e9,
            latency=1 * USEC,
            device_iops=1e7,
            device_internal_bandwidth=24e9,
        )
        sizes = np.full(16, 64, dtype=np.int64)
        first = simulate_step(sizes, config)
        second = simulate_step(sizes, config)
        assert calls == [16, 16]
        assert second is not first
        assert des_step_memo.stats() == {"hits": 0, "misses": 0, "entries": 0}


class TestFigure11Replay:
    """Every distinct DES step of Figure 11, default path against event loop."""

    def test_default_path_matches_event_loop(self, cold_caches, monkeypatch):
        steps = {}
        simulate = des.simulate_step

        def record(sizes, config, *args, **kwargs):
            steps[(sizes.size, int(sizes[0]), config)] = sizes
            return simulate(sizes, config, *args, **kwargs)

        # predict_runtime_des looks simulate_step up at call time.
        monkeypatch.setattr(des, "simulate_step", record)
        for dataset in ("urand", "kron", "friendster"):
            graph = load_dataset(dataset, scale=12, seed=0)
            for algorithm in ("bfs", "sssp"):
                trace = registry.get(algorithm).trace(graph)
                for system in figure11_systems():
                    predict_runtime_des(trace, system, max_requests_per_step=4_000)
        monkeypatch.undo()
        assert len(steps) > 100
        assert max(n for n, _, _ in steps) == 4_000
        for (n, _, config), sizes in steps.items():
            # The step keeps index order: the default path is the recurrence.
            devices = np.arange(n, dtype=np.int64) % config.num_devices
            assert des._index_order_step(
                sizes, config, devices, round_robin=True
            ) is not None
            got = simulate_step(sizes, config)
            loop = simulate_step(sizes, config, max_events=10**9)
            assert got.time == loop.time
            assert got.link_busy_time == loop.link_busy_time
            assert np.array_equal(got.completion_times, loop.completion_times)
            assert got.max_link_tags == loop.max_link_tags
            assert got.max_warps == loop.max_warps


class TestFlashCXL:
    def test_today_flash_exceeds_budget(self, paper_bfs_trace):
        """4 us flash + CXL + path > 2.87 us allowance: visibly slower."""
        dram = predict_runtime(paper_bfs_trace, emogi_system()).runtime
        flash = predict_runtime(paper_bfs_trace, flash_cxl_system(4 * USEC)).runtime
        assert flash > 1.4 * dram

    def test_projected_flash_is_close(self, paper_bfs_trace):
        """The paper's 'within reach' projection: ~1.5 us flash lands the
        total near the allowance and the runtime near host DRAM."""
        dram = predict_runtime(paper_bfs_trace, emogi_system()).runtime
        flash = predict_runtime(
            paper_bfs_trace, flash_cxl_system(1.2 * USEC)
        ).runtime
        assert flash < 1.25 * dram

    def test_runtime_monotone_in_flash_latency(self, paper_bfs_trace):
        runtimes = [
            predict_runtime(paper_bfs_trace, flash_cxl_system(l * USEC)).runtime
            for l in (1, 2, 4, 8)
        ]
        assert runtimes == sorted(runtimes)

    def test_validation(self):
        with pytest.raises(ModelError):
            flash_cxl_system(0.0)


class TestCostModel:
    def test_media_cost_linear_below_tier(self):
        media = MediaCost("m", usd_per_gb=2.0)
        assert media.cost(int(10e9)) == pytest.approx(20.0)

    def test_tier_multiplier_applies_above_threshold(self):
        media = MediaCost(
            "m", usd_per_gb=2.0, tier_threshold_gb=10.0, tier_multiplier=3.0
        )
        # 10 GB at base + 5 GB at 3x.
        assert media.cost(int(15e9)) == pytest.approx(10 * 2 + 5 * 6)

    def test_device_fixed_costs(self):
        media = MediaCost("m", usd_per_gb=1.0, usd_per_device=100.0)
        assert media.cost(int(1e9), devices=4) == pytest.approx(401.0)

    def test_validation(self):
        with pytest.raises(ModelError):
            MediaCost("m", usd_per_gb=-1)
        with pytest.raises(ModelError):
            MediaCost("m", usd_per_gb=1, tier_multiplier=0.5)
        with pytest.raises(ModelError):
            MediaCost("m", usd_per_gb=1).cost(-1)

    def test_system_media_resolution(self):
        data = int(35.2e9)
        assert system_memory_cost(emogi_system(), data) > 0
        # flash-cxl resolves to the flash tier, far cheaper per GB than
        # cxl-dram at large capacity.
        big = int(2e12)
        assert system_memory_cost(
            flash_cxl_system(2 * USEC), big
        ) < system_memory_cost(cxl_system(0.0), big)

    def test_unknown_system_rejected(self, emogi_gen4):
        from dataclasses import replace

        odd = replace(emogi_gen4, name="mystery-system")
        with pytest.raises(ModelError, match="no media pricing"):
            system_memory_cost(odd, 10**9)

    def test_paper_scale_frontier(self, paper_bfs_trace):
        """At multi-TB capacities, flash-backed CXL wins cost-performance
        over DRAM — the paper's economic thesis."""
        systems = [
            emogi_system(),
            cxl_system(0.0, link=emogi_system().link, devices=12),
            flash_cxl_system(1.2 * USEC),
        ]
        rows = cost_performance(paper_bfs_trace, systems, data_bytes=int(2e12))
        by_name = {str(r["system"]): r for r in rows}
        flash_row = next(v for k, v in by_name.items() if k.startswith("flash"))
        dram_row = by_name["emogi-dram"]
        assert flash_row["memory_cost_usd"] < 0.3 * dram_row["memory_cost_usd"]
        assert flash_row["cost_x_runtime"] < dram_row["cost_x_runtime"]

    def test_empty_systems_rejected(self, paper_bfs_trace):
        with pytest.raises(ModelError):
            cost_performance(paper_bfs_trace, [])

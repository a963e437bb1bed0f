"""DES vs fluid model agreement, Little's-law helpers, pointer chase.

The fluid model prices whole traversals; the DES is the ground truth.
These tests pin their agreement across operating regimes so the cheap
model can be trusted for the figures.
"""

import numpy as np
import pytest

from repro.core.equations import (
    concurrency_for,
    latency_for,
    little_throughput_profile,
    throughput_cap,
)
from repro.errors import ModelError, SimulationError
from repro.sim.des import DESConfig, simulate_step
from repro.sim.fluid import FluidParams, StepInput, step_time
from repro.sim.pointer_chase import pointer_chase_latency
from repro.units import MB_PER_S, MIOPS, USEC


def agreement(params: FluidParams, sizes: np.ndarray, num_devices=1) -> float:
    """DES time / fluid time for one step (excluding overhead)."""
    des = simulate_step(sizes, DESConfig.from_fluid(params, num_devices))
    fluid = step_time(
        StepInput(
            requests=int(sizes.size),
            link_bytes=int(sizes.sum()),
            device_ops=int(sizes.size),
            device_bytes=int(sizes.sum()),
        ),
        params,
    )
    return des.time / (fluid.time - params.step_overhead)


class TestDESvsFluid:
    def test_bandwidth_bound_regime(self):
        params = FluidParams(
            link_bandwidth=24_000 * MB_PER_S,
            device_iops=1e10,
            device_internal_bandwidth=1e12,
            latency=1.2 * USEC,
            link_outstanding=768,
            step_overhead=0.0,
        )
        ratio = agreement(params, np.full(5_000, 4096))
        assert ratio == pytest.approx(1.0, rel=0.05)

    def test_iops_bound_regime(self):
        params = FluidParams(
            link_bandwidth=24_000 * MB_PER_S,
            device_iops=2 * MIOPS,
            device_internal_bandwidth=1e12,
            latency=10 * USEC,
            link_outstanding=None,
            step_overhead=0.0,
        )
        ratio = agreement(params, np.full(3_000, 512), num_devices=4)
        assert ratio == pytest.approx(1.0, rel=0.1)

    def test_latency_bound_regime(self):
        params = FluidParams(
            link_bandwidth=12_000 * MB_PER_S,
            device_iops=1e10,
            device_internal_bandwidth=1e12,
            latency=4 * USEC,
            link_outstanding=256,
            step_overhead=0.0,
        )
        ratio = agreement(params, np.full(10_000, 96))
        assert ratio == pytest.approx(1.0, rel=0.1)

    def test_mixed_sizes_emogi_like(self):
        rng = np.random.default_rng(0)
        sizes = rng.choice([32, 64, 96, 128], size=8_000, p=[0.2, 0.2, 0.2, 0.4])
        params = FluidParams(
            link_bandwidth=12_000 * MB_PER_S,
            device_iops=5 * 89e6,  # five Agilex-like devices' flit rate
            device_internal_bandwidth=5 * 5_700 * MB_PER_S,
            latency=1.7 * USEC,
            link_outstanding=256,
            device_outstanding=320,
            step_overhead=0.0,
        )
        ratio = agreement(params, sizes, num_devices=5)
        assert 0.85 <= ratio <= 1.25


class TestLittlesLaw:
    def test_equation3_roundtrip(self):
        """N d = T L: the three helpers are mutually consistent."""
        cap = throughput_cap(256, 89.6, 1.91e-6)
        assert concurrency_for(cap, 89.6, 1.91e-6) == pytest.approx(256)
        assert latency_for(cap, 89.6, 256) == pytest.approx(1.91e-6)

    def test_paper_gen3_allowance(self):
        """Section 4.2.2: L = 256 * 89.6 B / 12,000 MB/s = 1.91 us."""
        latency = latency_for(12_000 * MB_PER_S, 89.6, 256)
        assert latency == pytest.approx(1.91 * USEC, rel=0.005)

    def test_profile_shape(self):
        latencies = np.array([0.5, 1.0, 2.0, 4.0]) * USEC
        profile = little_throughput_profile(
            latencies, outstanding=128, transfer_bytes=64, bandwidth_cap=5_700 * MB_PER_S
        )
        # Flat at the cap, then decaying.
        assert profile[0] == pytest.approx(5_700 * MB_PER_S)
        assert profile[-1] == pytest.approx(128 * 64 / (4 * USEC))
        assert np.all(np.diff(profile) <= 0)

    def test_validation(self):
        with pytest.raises(ModelError):
            throughput_cap(0, 64, 1e-6)
        with pytest.raises(ModelError):
            concurrency_for(1.0, 64, 0)
        with pytest.raises(ModelError):
            little_throughput_profile(np.array([0.0]), 1, 64, 1.0)


class TestPointerChase:
    def make_config(self, latency):
        return DESConfig(
            link_bandwidth=12_000 * MB_PER_S,
            latency=latency,
            device_iops=89e6,
            device_internal_bandwidth=5_700 * MB_PER_S,
        )

    def test_measures_round_trip(self):
        result = pointer_chase_latency(self.make_config(1.2 * USEC), hops=64)
        # Latency plus small per-hop service times.
        assert 1.2 * USEC <= result.latency <= 1.4 * USEC

    def test_latency_additivity(self):
        base = pointer_chase_latency(self.make_config(1.7 * USEC), hops=16)
        plus2 = pointer_chase_latency(self.make_config(3.7 * USEC), hops=16)
        assert plus2.latency - base.latency == pytest.approx(2 * USEC, rel=0.01)

    def test_hops_dont_change_per_hop_latency(self):
        config = self.make_config(2 * USEC)
        few = pointer_chase_latency(config, hops=8)
        many = pointer_chase_latency(config, hops=512)
        assert few.latency == pytest.approx(many.latency, rel=1e-9)

    def test_validation(self):
        with pytest.raises(SimulationError):
            pointer_chase_latency(self.make_config(1e-6), hops=0)
        with pytest.raises(SimulationError):
            pointer_chase_latency(self.make_config(1e-6), pointer_bytes=0)

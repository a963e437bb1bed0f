"""System models and end-to-end runtime prediction."""

import pytest

from repro.core.experiment import bam_system, cxl_system, emogi_system, xlfdd_system
from repro.core.runtime_model import SystemModel, predict_runtime
from repro.devices.base import DevicePool
from repro.devices.dram import host_dram_device
from repro.errors import CapacityError, ModelError
from repro.gpu.zerocopy import ZeroCopyMethod
from repro.interconnect.pcie import PCIeLink
from repro.units import USEC


class TestSystemModel:
    def test_emogi_latency_is_1_2us(self):
        """Figure 9: GPU-observed host-DRAM latency ~1.2 us."""
        assert emogi_system().total_latency == pytest.approx(1.2 * USEC)

    def test_cxl_zero_added_latency_near_1_8us(self):
        """1.2 (path incl. remote-socket mix) + 0.5 (CXL base)."""
        system = cxl_system(0.0)
        assert 1.6 * USEC <= system.total_latency <= 1.9 * USEC

    def test_cxl_added_latency_is_additive(self):
        base = cxl_system(0.0).total_latency
        plus3 = cxl_system(3 * USEC).total_latency
        assert plus3 - base == pytest.approx(3 * USEC)

    def test_local_devices_shorten_path(self):
        all_local = cxl_system(0.0, local_devices=5)
        all_remote = cxl_system(0.0, local_devices=0)
        assert all_local.total_latency < all_remote.total_latency

    def test_memory_systems_get_link_tag_limit(self):
        params = emogi_system(PCIeLink.from_name("gen3")).fluid_params()
        assert params.link_outstanding == 256

    def test_storage_systems_have_no_link_tag_limit(self):
        assert xlfdd_system().fluid_params().link_outstanding is None
        assert bam_system().fluid_params().link_outstanding is None

    def test_cxl_pool_tags_exposed(self):
        params = cxl_system(0.0).fluid_params()
        assert params.device_outstanding == 320

    def test_describe_mentions_components(self):
        text = cxl_system(1e-6).describe()
        assert "cxl" in text and "gen3" in text

    def test_validation(self):
        with pytest.raises(ModelError):
            SystemModel(
                name="bad",
                method=ZeroCopyMethod(),
                pool=DevicePool(device=host_dram_device(), count=1),
                link=PCIeLink.from_name("gen4"),
                path_latency=0.0,
            )
        with pytest.raises(ModelError):
            cxl_system(0.0, local_devices=9)
        with pytest.raises(ModelError):
            cxl_system(0.0, devices=0, local_devices=0)


class TestPredictRuntime:
    def test_result_quantities(self, bfs_trace):
        result = predict_runtime(bfs_trace, emogi_system())
        assert result.runtime > 0
        assert result.fetched_bytes >= bfs_trace.useful_bytes
        assert result.raf >= 1.0
        assert 32 <= result.avg_transfer_bytes <= 128
        assert result.avg_throughput > 0

    def test_throughput_below_link_bandwidth(self, bfs_trace):
        system = emogi_system()
        result = predict_runtime(bfs_trace, system)
        assert result.avg_throughput <= system.link.effective_bandwidth

    def test_dominant_bound_reported(self, bfs_trace):
        result = predict_runtime(bfs_trace, emogi_system())
        assert result.dominant_bound() in {
            "link-bandwidth",
            "device-iops",
            "device-bandwidth",
            "latency",
            "overhead",
        }

    def test_capacity_enforced(self, bfs_trace):
        small = xlfdd_system(drives=16)
        # Shrink capacity below the edge list.
        from dataclasses import replace
        from repro.devices.xlfdd import xlfdd_device

        tiny_pool = DevicePool(
            device=replace(xlfdd_device(), capacity_bytes=16), count=1
        )
        system = replace(small, pool=tiny_pool)
        with pytest.raises(CapacityError):
            predict_runtime(bfs_trace, system)

    def test_runtime_monotone_in_cxl_latency(self, bfs_trace):
        runtimes = [
            predict_runtime(bfs_trace, cxl_system(u * USEC)).runtime
            for u in (0, 1, 2, 3)
        ]
        assert runtimes == sorted(runtimes)

    def test_gen5_never_slower_than_gen4(self, bfs_trace):
        gen4 = predict_runtime(bfs_trace, emogi_system(PCIeLink.from_name("gen4")))
        gen5 = predict_runtime(bfs_trace, emogi_system(PCIeLink.from_name("gen5")))
        assert gen5.runtime <= gen4.runtime

"""Device profiles and pools: validation, throughput, aggregation."""

import pytest

from repro.devices.base import AccessKind, DeviceProfile, DevicePool
from repro.errors import CapacityError, DeviceError
from repro.units import MB_PER_S, MIOPS, USEC


def make_device(**overrides):
    defaults = dict(
        name="dev",
        kind=AccessKind.STORAGE,
        alignment_bytes=16,
        iops=10 * MIOPS,
        latency=5 * USEC,
        internal_bandwidth=3_000 * MB_PER_S,
        max_transfer_bytes=2_048,
        max_outstanding=256,
        capacity_bytes=10**9,
    )
    defaults.update(overrides)
    return DeviceProfile(**defaults)


class TestValidation:
    def test_valid_device(self):
        assert make_device().iops == 10 * MIOPS

    @pytest.mark.parametrize(
        "field,value",
        [
            ("alignment_bytes", 0),
            ("iops", 0),
            ("latency", -1.0),
            ("internal_bandwidth", 0),
            ("max_outstanding", 0),
            ("capacity_bytes", 0),
        ],
    )
    def test_invalid_fields(self, field, value):
        with pytest.raises(DeviceError):
            make_device(**{field: value})

    @pytest.mark.parametrize("field", ["iops", "latency", "internal_bandwidth"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_fields_rejected(self, field, value):
        """NaN slips past ``< 0`` checks; the profile must catch it."""
        with pytest.raises(DeviceError):
            make_device(**{field: value})

    def test_max_transfer_must_be_multiple_of_alignment(self):
        with pytest.raises(DeviceError, match="multiple"):
            make_device(alignment_bytes=16, max_transfer_bytes=100)


class TestThroughput:
    def test_iops_bound(self):
        device = make_device(max_outstanding=None)
        # Small transfers: S * d.
        assert device.throughput(16) == pytest.approx(10 * MIOPS * 16)

    def test_bandwidth_bound(self):
        device = make_device(max_outstanding=None)
        # Huge transfers hit the internal bandwidth cap.
        assert device.throughput(10**6) == pytest.approx(3_000 * MB_PER_S)

    def test_little_bound_with_extra_latency(self):
        device = make_device()
        slow = device.throughput(64, extra_latency=100 * USEC)
        # 256 outstanding * 64 B / 105 us.
        assert slow == pytest.approx(256 * 64 / (105 * USEC))
        assert slow < device.throughput(64)

    def test_invalid_inputs(self):
        with pytest.raises(DeviceError):
            make_device().throughput(0)
        with pytest.raises(DeviceError):
            make_device().throughput(64, extra_latency=-1)

    def test_non_finite_inputs_rejected(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(DeviceError):
                make_device().throughput(bad)
            with pytest.raises(DeviceError):
                make_device().throughput(64, extra_latency=bad)


class TestDeviceHelpers:
    def test_with_added_latency(self):
        slower = make_device().with_added_latency(2 * USEC)
        assert slower.latency == pytest.approx(7 * USEC)
        with pytest.raises(DeviceError):
            make_device().with_added_latency(-1e-6)
        with pytest.raises(DeviceError):
            make_device().with_added_latency(float("nan"))

    def test_check_fits(self):
        make_device().check_fits(10**9)
        with pytest.raises(CapacityError):
            make_device().check_fits(10**9 + 1)

    def test_unbounded_capacity(self):
        make_device(capacity_bytes=None).check_fits(10**15)

    def test_describe_contains_name_and_units(self):
        text = make_device().describe()
        assert "dev" in text
        assert "MIOPS" in text


class TestPool:
    def test_aggregation_is_linear(self):
        pool = DevicePool(device=make_device(), count=4)
        assert pool.iops == pytest.approx(40 * MIOPS)
        assert pool.internal_bandwidth == pytest.approx(12_000 * MB_PER_S)
        assert pool.max_outstanding == 1024
        assert pool.capacity_bytes == 4 * 10**9
        # Latency does not aggregate.
        assert pool.latency == pytest.approx(5 * USEC)

    def test_unbounded_fields_stay_unbounded(self):
        pool = DevicePool(
            device=make_device(max_outstanding=None, capacity_bytes=None), count=3
        )
        assert pool.max_outstanding is None
        assert pool.capacity_bytes is None

    def test_pool_throughput_scales(self):
        device = make_device(max_outstanding=None)
        pool = DevicePool(device=device, count=4)
        assert pool.throughput(64) == pytest.approx(4 * device.throughput(64))

    def test_geometry_passthrough(self):
        pool = DevicePool(device=make_device(), count=2)
        assert pool.alignment_bytes == 16
        assert pool.max_transfer_bytes == 2_048
        assert pool.kind is AccessKind.STORAGE
        assert pool.name == "2x dev"

    def test_devices_required_for(self):
        pool = DevicePool(device=make_device(), count=1)
        assert pool.devices_required_for(95 * MIOPS) == 10
        assert pool.devices_required_for(1) == 1
        with pytest.raises(DeviceError):
            pool.devices_required_for(0)

    def test_pool_capacity_check(self):
        pool = DevicePool(device=make_device(), count=2)
        pool.check_fits(2 * 10**9)
        with pytest.raises(CapacityError, match="pool capacity"):
            pool.check_fits(2 * 10**9 + 1)

    def test_count_validation(self):
        with pytest.raises(DeviceError):
            DevicePool(device=make_device(), count=0)

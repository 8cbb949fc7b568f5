"""Tests for device and interconnect specifications."""

import pytest

from repro.hardware.device import B200, DeviceSpec
from repro.hardware.interconnect import (
    INFINIBAND,
    NVLINK,
    WSC_CROSS_WAFER,
    WSC_LINK,
    InterconnectSpec,
)


class TestDeviceSpec:
    def test_b200_matches_paper_numbers(self):
        assert B200.fp16_flops == pytest.approx(2250e12)
        assert B200.hbm_capacity == pytest.approx(180e9)
        assert B200.hbm_bandwidth == pytest.approx(8e12)

    def test_int8_defaults_to_twice_fp16(self):
        assert B200.int8_ops == pytest.approx(2 * B200.fp16_flops)

    def test_explicit_int8(self):
        spec = DeviceSpec.from_units("x", 100, 10, 1, int8_tops=300)
        assert spec.int8_ops == pytest.approx(300e12)

    def test_from_units_conversions(self):
        spec = DeviceSpec.from_units("x", fp16_tflops=1, hbm_capacity_gb=2, hbm_bandwidth_tbps=3)
        assert spec.fp16_flops == pytest.approx(1e12)
        assert spec.hbm_capacity == pytest.approx(2e9)
        assert spec.hbm_bandwidth == pytest.approx(3e12)

    @pytest.mark.parametrize(
        "field", ["fp16_flops", "int8_ops", "hbm_capacity", "hbm_bandwidth"]
    )
    def test_rejects_nonpositive(self, field):
        kwargs = dict(
            name="bad", fp16_flops=1.0, int8_ops=1.0, hbm_capacity=1.0, hbm_bandwidth=1.0
        )
        kwargs[field] = 0.0
        with pytest.raises(ValueError, match=field):
            DeviceSpec(**kwargs)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "field", ["fp16_flops", "int8_ops", "hbm_capacity", "hbm_bandwidth"]
    )
    def test_rejects_non_finite(self, field, value):
        kwargs = dict(
            name="bad", fp16_flops=1.0, int8_ops=1.0, hbm_capacity=1.0, hbm_bandwidth=1.0
        )
        kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            DeviceSpec(**kwargs)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            B200.fp16_flops = 1.0


class TestInterconnectSpec:
    def test_wsc_link_is_one_terabyte_per_direction(self):
        assert WSC_LINK.bandwidth == pytest.approx(1e12)

    def test_cross_wafer_is_half_of_nine_tbps_bidirectional(self):
        assert WSC_CROSS_WAFER.bandwidth == pytest.approx(4.5e12)

    def test_nvlink_per_direction(self):
        assert NVLINK.bandwidth == pytest.approx(0.9e12)

    def test_infiniband_is_much_slower_than_nvlink(self):
        assert INFINIBAND.bandwidth < NVLINK.bandwidth / 10

    def test_transfer_time_eq1(self):
        spec = InterconnectSpec("t", bandwidth=1e9, link_latency=1e-6)
        # (1 MB / 1 GB/s + 1 us) * 2 hops
        assert spec.transfer_time(1e6, hops=2) == pytest.approx(2 * (1e-3 + 1e-6))

    def test_transfer_time_zero_hops(self):
        assert WSC_LINK.transfer_time(1e6, hops=0) == 0.0

    def test_transfer_time_rejects_negative_volume(self):
        with pytest.raises(ValueError, match="volume"):
            WSC_LINK.transfer_time(-1.0)

    def test_transfer_time_rejects_negative_hops(self):
        with pytest.raises(ValueError, match="hops"):
            WSC_LINK.transfer_time(1.0, hops=-1)

    def test_rejects_zero_bandwidth(self):
        with pytest.raises(ValueError, match="bandwidth"):
            InterconnectSpec("bad", bandwidth=0.0, link_latency=0.0)

    def test_rejects_negative_latency(self):
        with pytest.raises(ValueError, match="link_latency"):
            InterconnectSpec("bad", bandwidth=1.0, link_latency=-1.0)

    def test_wsc_latency_below_nvlink(self):
        assert WSC_LINK.link_latency < NVLINK.link_latency

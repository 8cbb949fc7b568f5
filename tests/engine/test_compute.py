"""Tests for the roofline compute model."""

import numpy as np
import pytest

from repro.engine.compute import ComputeModel, RooflineTimes
from repro.hardware.device import B200
from repro.mapping.placement import StackedPlacement
from repro.models import DEEPSEEK_V3


@pytest.fixture
def model():
    return ComputeModel(B200, DEEPSEEK_V3)


class TestRooflineTimes:
    def test_total_is_sum(self):
        times = RooflineTimes(compute=2.0, memory=3.0)
        assert times.total == 5.0

    def test_memory_fraction(self):
        times = RooflineTimes(compute=1.0, memory=3.0)
        assert times.memory_fraction == pytest.approx(0.75)

    def test_zero_total_fraction(self):
        assert RooflineTimes(0.0, 0.0).memory_fraction == 0.0


class TestAttention:
    def test_decode_memory_grows_with_context(self, model):
        short = model.attention_time(64, context_len=1024, tp=4)
        long = model.attention_time(64, context_len=8192, tp=4)
        assert long.memory > short.memory

    def test_tp_splits_work(self, model):
        tp1 = model.attention_time(64, 4096, tp=1)
        tp4 = model.attention_time(64, 4096, tp=4)
        assert tp4.compute == pytest.approx(tp1.compute / 4)

    def test_decode_memory_bound(self, model):
        """Decode attention with long context is dominated by KV reads."""
        times = model.attention_time(16, context_len=16384, tp=4, decode=True)
        assert times.memory_fraction > 0.5

    def test_prefill_less_memory_bound_than_decode(self, model):
        decode = model.attention_time(256, 4096, tp=4, decode=True)
        prefill = model.attention_time(256, 4096, tp=4, decode=False)
        assert prefill.memory < decode.memory

    def test_rejects_bad_args(self, model):
        with pytest.raises(ValueError):
            model.attention_time(0, 4096, tp=4)
        with pytest.raises(ValueError):
            model.attention_time(64, -1, tp=4)


def device_times(model, loads, placement):
    """Every device's MoE roofline on a one-layer stack, read through
    ``moe_peak_time``: a one-hot ``device_scale`` zeroes every other
    device, so the peak is that device's time (0 when it is idle)."""
    devices = np.eye(placement.num_devices)
    return [
        model.moe_peak_time(loads, placement, device_scale=scale) for scale in devices
    ]


class TestMoE:
    def test_balanced_load_uniform_times(self, model):
        placement = StackedPlacement(1, 256, 256)
        loads = np.full(256, 8.0)
        times = device_times(model, loads, placement)
        totals = [t.total for t in times]
        assert max(totals) == pytest.approx(min(totals))
        assert min(totals) > 0

    def test_hot_expert_creates_peak(self, model):
        placement = StackedPlacement(1, 256, 256)
        loads = np.full(256, 8.0)
        loads[3] = 800.0
        peak = model.moe_peak_time(loads, placement)
        balanced = model.moe_peak_time(np.full(256, 8.0), placement)
        assert peak.total > balanced.total

    def test_replication_splits_tokens(self, model):
        placement = StackedPlacement(1, 256, 256, shadow_slots=1)
        loads = np.zeros(256)
        loads[0] = 100.0
        before = model.moe_peak_time(loads, placement)
        placement.add_replica(0, 0, 128)
        after = model.moe_peak_time(loads, placement)
        assert after.compute == pytest.approx(before.compute / 2)

    def test_memory_counts_activated_experts_once(self, model):
        placement = StackedPlacement(1, 256, 64)  # 4 experts per device
        loads = np.full(256, 1.0)
        times = device_times(model, loads, placement)
        expected = 4 * DEEPSEEK_V3.expert_bytes / B200.hbm_bandwidth
        assert times[0].memory == pytest.approx(expected)

    def test_memory_fraction_falls_with_ep(self, model):
        """Fig. 4: growing EP cuts the per-device memory-access share."""
        fractions = []
        for num_devices in (32, 64, 128, 256):
            placement = StackedPlacement(1, 256, num_devices)
            tokens_per_device = 64
            loads = np.full(256, tokens_per_device * num_devices * 8 / 256)
            peak = model.moe_peak_time(loads, placement)
            fractions.append(peak.memory_fraction)
        assert fractions == sorted(fractions, reverse=True)

    def test_shape_validated(self, model):
        placement = StackedPlacement(2, 256, 16)
        with pytest.raises(ValueError, match=r"expected \(2, 256\) layer loads"):
            model.moe_peak_arrays(np.zeros((1, 256)), placement)
        with pytest.raises(ValueError, match=r"expected \(2, 256\) layer loads"):
            model.moe_peak_arrays(np.zeros((2, 261)), placement)
        with pytest.raises(ValueError, match=r"expected \(2, 256\) layer loads"):
            model.moe_peak_time(np.zeros(256), placement)

    def test_idle_expert_no_memory_charge(self, model):
        placement = StackedPlacement(1, 256, 256)
        loads = np.zeros(256)
        loads[0] = 10.0
        times = device_times(model, loads, placement)
        assert times[0].total > 0
        assert times[1].memory == 0.0
        assert times[1].compute == 0.0

    def test_peak_time_is_the_one_layer_peak_array(self, model):
        placement = StackedPlacement(1, 256, 16, shadow_slots=1)
        placement.add_replica(0, 3, 9)
        loads = np.random.default_rng(5).uniform(0.0, 50.0, 256)
        scale = np.linspace(1.0, 2.0, 16)
        peak = model.moe_peak_time(loads, placement, device_scale=scale)
        compute, memory = model.moe_peak_arrays(loads[None], placement, scale)
        assert (peak.compute, peak.memory) == (compute[0], memory[0])

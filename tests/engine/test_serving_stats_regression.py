"""Regression tests for the serving engine's vectorized statistics path."""

from dataclasses import replace

import numpy as np
import pytest

from placement_reference import dense_device_token_loads
from placement_replay import snapshot

from repro.balancer import NonInvasiveBalancer
from repro.engine import EngineConfig, ServingConfig, ServingSimulator
from repro.models import QWEN3_235B
from repro.systems import build_wsc
from repro.workload import GatingSimulator, MATH


@pytest.fixture
def simulator():
    model = replace(QWEN3_235B, name="qwen3-16e", num_experts=16)
    system = build_wsc(model, side=4, tp=4, mapping="er")
    workload = GatingSimulator(
        model,
        num_groups=system.mapping.dp,
        tokens_per_group=32,
        mixer=MATH,
        num_layers=2,
        seed=3,
    )
    return ServingSimulator(
        system.device,
        model,
        system.mapping,
        workload,
        NonInvasiveBalancer,
        engine_config=EngineConfig(tokens_per_group=32),
        serving_config=ServingConfig(num_iterations=30),
    )


def loop_device_load_stats(simulator, layer_loads):
    """The seed implementation of _device_load_stats, on the dense
    per-layer device loads."""
    max_loads = []
    mean_loads = []
    for layer in range(simulator.num_layers):
        device_loads = dense_device_token_loads(
            layer_loads[layer], snapshot(simulator.engine.placement, layer)
        )
        max_loads.append(device_loads.max())
        mean_loads.append(device_loads.mean())
    return float(np.mean(max_loads)), float(np.mean(mean_loads))


class TestDeviceLoadStats:
    def test_matches_loop_on_native_placement(self, simulator):
        rng = np.random.default_rng(11)
        layer_loads = rng.uniform(0.0, 64.0, (2, 16))
        assert simulator._device_load_stats(layer_loads) == pytest.approx(
            loop_device_load_stats(simulator, layer_loads)
        )

    def test_matches_loop_after_serving_run(self, simulator):
        trace = simulator.run()
        assert len(trace.records) == 30
        # The run mutates placements (migrations + evictions); the stats
        # must still agree with the per-layer loop on fresh loads.
        rng = np.random.default_rng(13)
        layer_loads = rng.uniform(0.0, 64.0, (2, 16))
        assert simulator._device_load_stats(layer_loads) == pytest.approx(
            loop_device_load_stats(simulator, layer_loads)
        )

    def test_record_load_stats_are_consistent(self, simulator):
        record = simulator.step()
        assert record.max_device_load >= record.mean_device_load > 0

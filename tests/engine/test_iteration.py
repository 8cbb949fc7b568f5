"""Tests for the iteration latency model."""

import numpy as np
import pytest

from repro.engine.iteration import (
    EngineConfig,
    IterationBreakdown,
    IterationSimulator,
    pipelined_time,
)
from repro.engine.compute import RooflineTimes
from repro.faults import health_version, topology_health
from repro.models import QWEN3_235B
from repro.systems import build_wsc


@pytest.fixture
def system():
    return build_wsc(QWEN3_235B, side=4, tp=4, mapping="er")


@pytest.fixture
def simulator(system):
    return IterationSimulator(
        system.device,
        system.model,
        system.mapping,
        EngineConfig(tokens_per_group=64),
    )


class TestPipelinedTime:
    def test_perfect_overlap_limit(self):
        assert pipelined_time(10.0, 10.0, 10**9) == pytest.approx(10.0)

    def test_no_overlap_limit(self):
        assert pipelined_time(10.0, 4.0, 1) == 14.0

    def test_symmetric(self):
        assert pipelined_time(3.0, 7.0, 4) == pipelined_time(7.0, 3.0, 4)

    def test_rejects_bad_stages(self):
        with pytest.raises(ValueError):
            pipelined_time(1.0, 1.0, 0)


class TestEngineConfig:
    def test_defaults(self):
        config = EngineConfig()
        assert config.tokens_per_group == 256
        assert config.decode is True

    def test_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(tokens_per_group=0)
        with pytest.raises(ValueError):
            EngineConfig(pipeline_stages=0)
        with pytest.raises(ValueError):
            EngineConfig(context_len=-1)

    @pytest.mark.parametrize("value", [float("nan"), 2.5])
    def test_pipeline_stages_must_be_an_integer(self, value):
        with pytest.raises(ValueError, match="pipeline_stages"):
            EngineConfig(pipeline_stages=value)

    @pytest.mark.parametrize("value", [float("nan"), 2.5])
    def test_tokens_per_group_must_be_an_integer(self, value):
        with pytest.raises(ValueError, match="tokens_per_group"):
            EngineConfig(tokens_per_group=value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_context_len_must_be_an_integer(self, value):
        with pytest.raises(ValueError, match="context_len"):
            EngineConfig(context_len=value)

    def test_numpy_integers_stay_legal(self):
        config = EngineConfig(
            tokens_per_group=np.int64(64), context_len=np.int32(0), pipeline_stages=np.int64(2)
        )
        assert config.tokens_per_group == 64


class TestBreakdown:
    def test_phases_and_total(self):
        breakdown = IterationBreakdown(
            attention=RooflineTimes(1e-6, 1e-6),
            allreduce=4e-6,
            dispatch=3e-6,
            combine=3e-6,
            moe=RooflineTimes(2e-6, 2e-6),
            pipeline_stages=4,
            overlap=True,
        )
        assert breakdown.alltoall == pytest.approx(6e-6)
        assert breakdown.attention_phase == pytest.approx(4e-6 + 2e-6 / 4)
        assert breakdown.moe_phase == pytest.approx(6e-6 + 4e-6 / 4)
        assert breakdown.total == pytest.approx(
            breakdown.attention_phase + breakdown.moe_phase
        )

    def test_no_overlap_sums(self):
        breakdown = IterationBreakdown(
            attention=RooflineTimes(1e-6, 0.0),
            allreduce=4e-6,
            dispatch=1e-6,
            combine=1e-6,
            moe=RooflineTimes(2e-6, 0.0),
            overlap=False,
        )
        assert breakdown.attention_phase == pytest.approx(5e-6)
        assert breakdown.moe_phase == pytest.approx(4e-6)

    def test_migration_on_critical_path(self):
        breakdown = IterationBreakdown(
            attention=RooflineTimes(1e-6, 0.0),
            allreduce=0.0,
            dispatch=0.0,
            combine=0.0,
            moe=RooflineTimes(1e-6, 0.0),
            migration_exposed=5e-6,
        )
        assert breakdown.total == pytest.approx(1e-6 + 1e-6 + 5e-6)


class TestSimulateLayer:
    def test_full_simulation(self, simulator, system):
        counts = np.full((4, 128), 64 * 8 / 128)
        placement = system.fresh_placement()
        sim = simulator.simulate_layer(counts, placement)
        assert sim.breakdown.total > 0
        assert sim.breakdown.allreduce > 0
        assert sim.breakdown.alltoall > 0
        assert sim.allreduce_result.link_bytes
        assert sim.alltoall_result.link_bytes

    def test_counts_shape_validated(self, simulator, system):
        with pytest.raises(ValueError, match="shape"):
            simulator.simulate_layer(np.zeros((3, 128)), system.fresh_placement())

    def test_allreduce_volume(self, simulator):
        assert simulator.allreduce_volume() == 64 * QWEN3_235B.token_bytes

    def test_hot_expert_slows_moe(self, simulator, system):
        placement = system.fresh_placement()
        balanced = np.full((4, 128), 4.0)
        skewed = balanced.copy()
        skewed[:, 0] = 200.0
        balanced_sim = simulator.simulate_layer(balanced, placement)
        skewed_sim = simulator.simulate_layer(skewed, placement)
        assert skewed_sim.breakdown.moe.total > balanced_sim.breakdown.moe.total

    def test_migration_exposed_passed_through(self, simulator, system):
        counts = np.full((4, 128), 4.0)
        sim = simulator.simulate_layer(
            counts, system.fresh_placement(), migration_exposed=1e-3
        )
        assert sim.breakdown.migration_exposed == 1e-3


class TestAllreduceCache:
    @pytest.mark.parametrize("value", [float("nan"), 2.5])
    def test_per_call_tokens_per_group_must_be_an_integer(self, simulator, value):
        with pytest.raises(ValueError, match="tokens_per_group"):
            simulator.attention_and_allreduce(value)
        assert not simulator._allreduce_cache

    def test_cache_returns_same_result_object(self, simulator):
        volume = simulator.allreduce_volume()
        first = simulator.simulate_allreduce(volume)
        assert simulator.simulate_allreduce(volume) is first

    def test_cached_matches_uncached(self, simulator, system):
        volume = simulator.allreduce_volume()
        cached = simulator.simulate_allreduce(volume)
        fresh = system.mapping.simulate_allreduce(volume)
        assert cached.duration == fresh.duration
        assert cached.num_steps == fresh.num_steps
        assert cached.link_bytes == fresh.link_bytes

    def test_distinct_volumes_get_distinct_entries(self, simulator):
        small = simulator.simulate_allreduce(1e6)
        large = simulator.simulate_allreduce(2e6)
        assert small is not large
        assert large.duration > small.duration

    def test_health_change_drops_superseded_entries(self, simulator, system):
        """A lookup under a new fabric-health version drops the entries of
        older versions, which can never hit again; every result it returns
        still equals a fresh simulation bit for bit."""
        topology = system.mapping.topology
        volumes = (1e6, 2e6, 3e6)
        for volume in volumes:
            simulator.simulate_allreduce(volume)
        health = topology_health(topology, create=True)
        src, dst = next(iter(topology.links))
        for step in range(3):
            health.degrade_link(src, dst, 0.5 - 0.1 * step)
            for volume in volumes[: step + 1]:
                cached = simulator.simulate_allreduce(volume)
                fresh = system.mapping.simulate_allreduce(volume)
                assert cached.duration == fresh.duration
                assert cached.link_bytes == fresh.link_bytes
            versions = {version for _, version in simulator._allreduce_cache}
            assert versions == {health_version(topology)}
            assert len(simulator._allreduce_cache) == step + 1

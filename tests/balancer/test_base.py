"""Tests for the balancer base: prediction, heat, eviction.

Prediction, heat, commit and eviction run on the per-layer reference
(``tests/balancer_reference.py``); construction checks run on the
production classes.
"""

import numpy as np
import pytest

from balancer_reference import NoBalancer
from placement_reference import ExpertPlacement

from repro.balancer import GreedyBalancer, NonInvasiveBalancer, TopologyAwareBalancer
from repro.balancer.base import BalancerConfig, Migration
from repro.mapping.placement import StackedPlacement
from repro.topology.mesh import MeshTopology


@pytest.fixture
def balancer():
    placement = ExpertPlacement(8, 4, shadow_slots=1)
    return NoBalancer(placement, MeshTopology(2, 2), expert_bytes=1e6)


class TestMigrationValidation:
    def test_rejects_zero_volume(self):
        with pytest.raises(ValueError):
            Migration(expert=0, src=0, dst=1, volume=0.0)

    def test_rejects_same_src_dst(self):
        with pytest.raises(ValueError):
            Migration(expert=0, src=1, dst=1, volume=1.0)

    @pytest.mark.parametrize("volume", [float("nan"), float("inf")])
    def test_rejects_non_finite_volume(self, volume):
        with pytest.raises(ValueError, match="volume"):
            Migration(expert=0, src=0, dst=1, volume=volume)


STRATEGY_CLASSES = [GreedyBalancer, TopologyAwareBalancer, NonInvasiveBalancer]


class TestBalancerConstruction:
    @pytest.mark.parametrize("balancer_cls", STRATEGY_CLASSES)
    @pytest.mark.parametrize("expert_bytes", [float("nan"), float("inf"), 0.0])
    def test_rejects_bad_expert_bytes(self, balancer_cls, expert_bytes):
        with pytest.raises(ValueError, match="expert_bytes"):
            balancer_cls(StackedPlacement(1, 8, 4), MeshTopology(2, 2), expert_bytes)

    @pytest.mark.parametrize("balancer_cls", STRATEGY_CLASSES)
    def test_rejects_device_count_mismatch(self, balancer_cls):
        """Eight placement devices on a four-device mesh would plan
        migrations to devices the mesh does not have."""
        with pytest.raises(ValueError, match="8 devices but the topology has 4"):
            balancer_cls(StackedPlacement(1, 8, 8), MeshTopology(2, 2), 1.0)


class TestConfigValidation:
    def test_ewma_bounds(self):
        with pytest.raises(ValueError):
            BalancerConfig(ewma=0.0)

    def test_max_migrations_positive(self):
        with pytest.raises(ValueError):
            BalancerConfig(max_migrations_per_trigger=0)

    @pytest.mark.parametrize("cap", [float("nan"), float("inf"), 2.5, 4.0, -1])
    def test_max_migrations_is_a_positive_integer(self, cap):
        """A NaN, infinite or fractional plan cap would construct and then
        fail in ``range`` at the first plan."""
        with pytest.raises(ValueError, match="max_migrations_per_trigger"):
            BalancerConfig(max_migrations_per_trigger=cap)

    def test_numpy_integer_cap_is_legal(self):
        config = BalancerConfig(max_migrations_per_trigger=np.int64(3))
        assert config.max_migrations_per_trigger == 3

    def test_drop_fraction_bounds(self):
        with pytest.raises(ValueError):
            BalancerConfig(drop_fraction=1.0)


class TestObservation:
    def test_first_observation_copies(self, balancer):
        loads = np.arange(8, dtype=float)
        balancer.observe(loads)
        np.testing.assert_array_equal(balancer.predicted_loads, loads)

    def test_ewma_blends(self, balancer):
        balancer.observe(np.full(8, 10.0))
        balancer.observe(np.full(8, 20.0))
        # Default ewma 0.5: 0.5*10 + 0.5*20.
        np.testing.assert_allclose(balancer.predicted_loads, 15.0)

    def test_shape_checked(self, balancer):
        with pytest.raises(ValueError):
            balancer.observe(np.zeros(7))


class TestHeat:
    def test_native_heats_sum_loads(self, balancer):
        loads = np.arange(8, dtype=float)
        balancer.observe(loads)
        heats = balancer.heats()
        # Device d hosts experts 2d and 2d+1.
        np.testing.assert_allclose(heats, [1.0, 5.0, 9.0, 13.0])

    def test_replica_halves_per_device_load(self, balancer):
        balancer.observe(np.array([8.0] + [0.0] * 7))
        balancer.placement.add_replica(0, 3)
        heats = balancer.heats()
        assert heats[0] == pytest.approx(4.0)
        assert heats[3] == pytest.approx(4.0)

    def test_pending_counts_toward_heat(self, balancer):
        balancer.observe(np.array([8.0] + [0.0] * 7))
        balancer.pending.add((0, 2))
        heats = balancer.heats(include_pending=True)
        assert heats[0] == pytest.approx(4.0)
        assert heats[2] == pytest.approx(4.0)
        without = balancer.heats(include_pending=False)
        assert without[0] == pytest.approx(8.0)

    def test_imbalance_zero_when_uniform(self, balancer):
        balancer.observe(np.full(8, 5.0))
        assert balancer.imbalance() == pytest.approx(0.0)

    def test_imbalance_positive_when_skewed(self, balancer):
        balancer.observe(np.array([80.0] + [1.0] * 7))
        assert balancer.imbalance() > 1.0


class TestCommit:
    def test_commit_adds_replica_and_clears_pending(self, balancer):
        migration = Migration(expert=0, src=0, dst=3, volume=1.0)
        balancer.pending.add((0, 3))
        balancer.commit(migration)
        assert balancer.placement.hosts(3, 0)
        assert not balancer.pending

    def test_abandon_clears_pending_without_replica(self, balancer):
        migration = Migration(expert=0, src=0, dst=3, volume=1.0)
        balancer.pending.add((0, 3))
        balancer.abandon(migration)
        assert not balancer.placement.hosts(3, 0)
        assert not balancer.pending


class TestEviction:
    def test_stale_replica_dropped(self, balancer):
        balancer.placement.add_replica(0, 3)
        loads = np.full(8, 100.0)
        loads[0] = 0.001  # expert 0 went cold
        balancer.observe(loads)
        dropped = balancer.evict_stale()
        assert dropped == 1
        assert not balancer.placement.hosts(3, 0)

    def test_hot_replica_kept(self, balancer):
        balancer.placement.add_replica(0, 3)
        balancer.observe(np.full(8, 100.0))
        assert balancer.evict_stale() == 0
        assert balancer.placement.hosts(3, 0)

    def test_native_copies_never_dropped(self, balancer):
        balancer.observe(np.zeros(8))
        balancer.evict_stale()
        for expert in range(8):
            assert balancer.placement.num_replicas(expert) == 1


class TestFreeSlots:
    def test_pending_occupies_slot(self, balancer):
        balancer.pending.add((0, 3))
        assert balancer._free_slots()[3] == 0
        assert balancer._free_slots()[2] == 1

"""Fail-stop on placements: replica loss, orphans, dead-device invariants."""

import numpy as np
import pytest

from placement_reference import ExpertPlacement
from placement_replay import LayerReplay, assert_matches_replay, snapshots

from repro.mapping.placement import StackedPlacement


class TestExpertPlacementFailDevice:
    def test_drops_native_and_shadow_replicas(self):
        placement = ExpertPlacement(8, 4, shadow_slots=2)
        placement.add_replica(0, 1)  # shadow of expert 0 on device 1
        orphans = placement.fail_device(1)
        # Device 1 natively hosted experts 2 and 3; its shadow of expert 0
        # dies with it, but expert 0's native survives on device 0.
        assert orphans == [2, 3]
        assert placement.replicas(0) == [0]
        assert placement.replicas(2) == []
        assert placement.orphaned_experts() == [2, 3]
        assert placement.dead_devices == frozenset({1})

    def test_matrix_and_counts_consistent(self):
        placement = ExpertPlacement(8, 4, shadow_slots=2)
        placement.add_replica(0, 1)
        placement.fail_device(1)
        assert not placement.replica_matrix[:, 1].any()
        np.testing.assert_array_equal(
            placement.replica_counts, placement.replica_matrix.sum(axis=1)
        )
        # Orphan rows have all-zero destination shares, not NaN.
        assert np.isfinite(placement.destination_shares).all()
        np.testing.assert_array_equal(placement.destination_shares[2], 0.0)

    def test_idempotent(self):
        placement = ExpertPlacement(8, 4)
        first = placement.fail_device(1)
        version = placement.version
        assert placement.fail_device(1) == []
        assert placement.version == version
        assert first == [2, 3]

    def test_dead_device_has_no_shadow_capacity(self):
        placement = ExpertPlacement(8, 4, shadow_slots=2)
        placement.fail_device(1)
        assert placement.shadow_free(1) == 0
        assert placement.shadow_free(0) == 2

    def test_shadow_elsewhere_keeps_expert_alive(self):
        placement = ExpertPlacement(8, 4, shadow_slots=2)
        placement.add_replica(2, 3)  # expert 2 native on 1, shadow on 3
        orphans = placement.fail_device(1)
        assert orphans == [3]
        assert placement.replicas(2) == [3]
        assert placement.destination_shares[2, 3] == 1.0

    @pytest.mark.parametrize("batched", [False, True])
    def test_dropping_a_repaired_last_replica_orphans_without_nan(self, batched):
        placement = ExpertPlacement(8, 4, shadow_slots=2)
        placement.fail_device(1)
        placement.add_replica(2, 0)  # repair expert 2 onto device 0
        if batched:
            placement.drop_replicas(np.array([2]), np.array([0]))
        else:
            placement.drop_replica(2, 0)
        assert placement.orphaned_experts() == [2, 3]
        assert np.isfinite(placement.destination_shares).all()
        np.testing.assert_array_equal(placement.destination_shares[2], 0.0)

    def test_reset_shadows_after_failure_reorphans(self):
        placement = ExpertPlacement(8, 4, shadow_slots=2)
        placement.fail_device(1)
        placement.add_replica(2, 0)  # repair expert 2 onto device 0
        placement.add_replica(3, 2)
        assert placement.orphaned_experts() == []
        placement.reset_shadows()
        # A reset discards repairs; dead natives stay dead.
        assert placement.orphaned_experts() == [2, 3]
        assert placement.replicas(0) == [0]
        assert np.isfinite(placement.destination_shares).all()

    def test_reset_shadows_fault_free_path_unchanged(self):
        placement = ExpertPlacement(8, 4, shadow_slots=2)
        placement.add_replica(0, 3)
        placement.reset_shadows()
        reference = ExpertPlacement(8, 4, shadow_slots=2)
        np.testing.assert_array_equal(
            placement.replica_matrix, reference.replica_matrix
        )
        np.testing.assert_array_equal(
            placement.destination_shares, reference.destination_shares
        )


class TestStackedPlacementFailDevice:
    def make(self, layers=3, experts=8, devices=4, shadow_slots=2):
        return StackedPlacement(layers, experts, devices, shadow_slots=shadow_slots)

    def replay(self, layers=3, experts=8, devices=4, shadow_slots=2):
        return LayerReplay(layers, experts, devices, shadow_slots=shadow_slots)

    def test_fails_every_layer_and_stays_synced(self):
        stacked, replay = self.make(), self.replay()
        for target in (stacked, replay):
            target.add_replica(0, 0, 1)
            target.add_replica(2, 5, 1)
        layers, experts = stacked.fail_device(1)
        want_layers, want_experts = replay.fail_device(1)
        assert layers.tolist() == want_layers.tolist()
        assert experts.tolist() == want_experts.tolist()
        # Experts 2 and 3 are native to device 1 in every layer; the
        # shadows that died there had live natives elsewhere.
        assert sorted(set(experts.tolist())) == [2, 3]
        assert layers.size == 6
        assert_matches_replay(stacked, replay)
        assert stacked.dead_devices == frozenset({1})
        for layer in snapshots(stacked):
            assert layer.dead_devices == frozenset({1})

    def test_orphaned_matches_layers(self):
        stacked = self.make()
        stacked.fail_device(1)
        layers, experts = stacked.orphaned()
        assert layers.tolist() == [0, 0, 1, 1, 2, 2]
        assert experts.tolist() == [2, 3, 2, 3, 2, 3]

    def test_orphaned_empty_without_dead_devices(self):
        stacked = self.make()
        layers, experts = stacked.orphaned()
        assert layers.size == 0 and experts.size == 0

    def test_tensors_zeroed_for_dead_column(self):
        stacked, replay = self.make(), self.replay()
        for target in (stacked, replay):
            target.add_replica(1, 0, 1)
            target.fail_device(1)
        assert_matches_replay(stacked, replay)
        assert 1 not in stacked.replica_entries().device
        assert not replay.replica_tensor()[:, :, 1].any()
        assert not replay.shadow_mask()[:, :, 1].any()
        np.testing.assert_array_equal(stacked.shadow_counts[:, 1], 0)
        np.testing.assert_array_equal(
            stacked.replica_counts, replay.replica_tensor().sum(axis=2)
        )
        assert np.isfinite(replay.destination_shares()).all()

    def test_repair_then_check_synced(self):
        stacked, replay = self.make(), self.replay()
        for target in (stacked, replay):
            target.fail_device(1)
            for layer in range(3):
                target.add_replica(layer, 2, 0)
                target.add_replica(layer, 3, 2)
        layers, _ = stacked.orphaned()
        assert layers.size == 0
        assert_matches_replay(stacked, replay)

    def test_reset_shadows_after_failure(self):
        stacked, replay = self.make(), self.replay()
        for target in (stacked, replay):
            target.fail_device(1)
            for layer in range(3):
                target.add_replica(layer, 2, 0)
            target.reset_shadows()
        assert_matches_replay(stacked, replay)
        layers, experts = stacked.orphaned()
        assert sorted(set(experts.tolist())) == [2, 3]
        assert np.isfinite(replay.destination_shares()).all()

    def test_orphan_order_matches_layers(self):
        """Orphans come back per layer in ``ExpertPlacement.fail_device``'s
        order: natives, then shadows in insertion (stamp) order."""
        stacked = self.make(experts=8, devices=8, shadow_slots=3)
        replay = self.replay(experts=8, devices=8, shadow_slots=3)
        for target in (stacked, replay):
            target.fail_device(0)
            target.add_replica(1, 0, 5)
            target.add_replica(1, 7, 3)
            target.add_replica(1, 6, 3)
            target.add_replica(2, 6, 3)
            target.add_replica(2, 0, 3)
            target.fail_device(6)
        layers, experts = stacked.fail_device(3)
        want_layers, want_experts = replay.fail_device(3)
        got = list(zip(layers.tolist(), experts.tolist()))
        assert got == list(zip(want_layers.tolist(), want_experts.tolist()))
        assert got == [(0, 3), (1, 3), (1, 6), (2, 3), (2, 6), (2, 0)]
        assert_matches_replay(stacked, replay)

    def test_idempotent(self):
        stacked = self.make()
        stacked.fail_device(1)
        versions = stacked.versions.copy()
        layers, experts = stacked.fail_device(1)
        assert layers.size == 0 and experts.size == 0
        np.testing.assert_array_equal(stacked.versions, versions)

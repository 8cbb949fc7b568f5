"""Tests for expert placement and shadow slots."""

import numpy as np
import pytest

from placement_reference import ExpertPlacement
from placement_replay import LayerReplay, assert_matches_replay, snapshot, snapshots

from repro.mapping.placement import StackedPlacement


class TestNativeLayout:
    def test_uniform_blocks(self):
        placement = ExpertPlacement(16, 4)
        assert placement.native_experts_on(0) == [0, 1, 2, 3]
        assert placement.native_experts_on(3) == [12, 13, 14, 15]

    def test_one_expert_per_device(self):
        placement = ExpertPlacement(8, 8)
        for expert in range(8):
            assert placement.native_device(expert) == expert

    def test_fewer_experts_than_devices(self):
        placement = ExpertPlacement(4, 8)
        hosted = [len(placement.native_experts_on(d)) for d in range(8)]
        assert sum(hosted) == 4
        assert max(hosted) == 1

    def test_replicas_start_native(self):
        placement = ExpertPlacement(8, 4)
        for expert in range(8):
            assert placement.replicas(expert) == [placement.native_device(expert)]
            assert placement.num_replicas(expert) == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ExpertPlacement(0, 4)
        with pytest.raises(ValueError):
            ExpertPlacement(4, 4, shadow_slots=-1)


class TestShadowSlots:
    def test_add_replica(self):
        placement = ExpertPlacement(8, 4, shadow_slots=1)
        placement.add_replica(0, 3)
        assert placement.replicas(0) == [0, 3]
        assert placement.hosts(3, 0)
        assert placement.shadow_free(3) == 0

    def test_capacity_enforced(self):
        placement = ExpertPlacement(8, 4, shadow_slots=1)
        placement.add_replica(0, 3)
        with pytest.raises(ValueError, match="shadow slot"):
            placement.add_replica(1, 3)

    def test_duplicate_replica_rejected(self):
        placement = ExpertPlacement(8, 4, shadow_slots=2)
        placement.add_replica(0, 3)
        with pytest.raises(ValueError, match="already hosts"):
            placement.add_replica(0, 3)

    def test_native_host_cannot_take_replica(self):
        placement = ExpertPlacement(8, 4, shadow_slots=1)
        with pytest.raises(ValueError, match="already hosts"):
            placement.add_replica(0, 0)

    def test_drop_replica(self):
        placement = ExpertPlacement(8, 4, shadow_slots=1)
        placement.add_replica(0, 3)
        placement.drop_replica(0, 3)
        assert placement.replicas(0) == [0]
        assert placement.shadow_free(3) == 1

    def test_cannot_drop_native(self):
        placement = ExpertPlacement(8, 4)
        with pytest.raises(ValueError, match="no shadow replica"):
            placement.drop_replica(0, 0)

    def test_reset_shadows(self):
        placement = ExpertPlacement(8, 4, shadow_slots=2)
        placement.add_replica(0, 3)
        placement.add_replica(1, 3)
        placement.reset_shadows()
        for expert in range(8):
            assert placement.num_replicas(expert) == 1

    def test_experts_on_includes_shadows(self):
        placement = ExpertPlacement(8, 4, shadow_slots=1)
        placement.add_replica(0, 3)
        assert set(placement.experts_on(3)) == {6, 7, 0}


class TestDestinations:
    def test_equal_shares(self):
        placement = ExpertPlacement(8, 4, shadow_slots=1)
        placement.add_replica(0, 2)
        destinations = placement.destinations(0)
        assert destinations == [(0, 0.5), (2, 0.5)]

    def test_single_replica_full_share(self):
        placement = ExpertPlacement(8, 4)
        assert placement.destinations(5) == [(2, 1.0)]

    def test_orphaned_expert_has_no_destinations(self):
        """A fail-stop orphans the dead device's only expert: no
        destination, matching its all-zero share row."""
        placement = ExpertPlacement(4, 4)
        assert placement.fail_device(0) == [0]
        assert placement.destinations(0) == []
        assert not placement.destination_shares[0].any()
        assert placement.destinations(1) == [(1, 1.0)]


class TestClone:
    def test_clone_is_independent(self):
        placement = ExpertPlacement(8, 4, shadow_slots=1)
        clone = placement.clone()
        clone.add_replica(0, 3)
        assert placement.num_replicas(0) == 1
        assert clone.num_replicas(0) == 2


class TestBounds:
    def test_expert_out_of_range(self):
        placement = ExpertPlacement(8, 4)
        with pytest.raises(ValueError, match="expert"):
            placement.replicas(8)

    def test_device_out_of_range(self):
        placement = ExpertPlacement(8, 4)
        with pytest.raises(ValueError, match="device"):
            placement.experts_on(4)


def loop_shadow_entries(placement):
    """The seed implementation of shadow_entries, verbatim."""
    return [
        (device, expert)
        for device in range(placement.num_devices)
        for expert in placement._shadow[device]
    ]


class TestVectorizedShadowOps:
    """The mask-backed shadow_entries/reset_shadows match the seed loops."""

    def random_placement(self, seed, num_experts=24, num_devices=16, slots=2):
        rng = np.random.default_rng(seed)
        placement = ExpertPlacement(num_experts, num_devices, shadow_slots=slots)
        for _ in range(60):
            expert = int(rng.integers(num_experts))
            device = int(rng.integers(num_devices))
            if not placement.hosts(device, expert) and placement.shadow_free(device) > 0:
                placement.add_replica(expert, device)
            elif placement._shadow_mask[expert, device]:
                placement.drop_replica(expert, device)
        return placement

    @pytest.mark.parametrize("seed", range(4))
    def test_shadow_entries_matches_loop(self, seed):
        placement = self.random_placement(seed)
        # Within a device the vectorized path enumerates experts ascending
        # rather than insertion order — equivalent for every consumer (a
        # device hosts at most one shadow replica per expert) — so compare
        # as device-grouped sets and check the device-major ordering.
        entries = placement.shadow_entries()
        reference = loop_shadow_entries(placement)
        assert sorted(entries) == sorted(reference)
        assert [d for d, _ in entries] == sorted(d for d, _ in reference)
        devices, experts = placement.shadow_entry_arrays()
        assert list(zip(devices.tolist(), experts.tolist())) == entries

    @pytest.mark.parametrize("seed", range(4))
    def test_reset_shadows_matches_per_drop_loop(self, seed):
        placement = self.random_placement(seed)
        reference = placement.clone()
        placement.reset_shadows()
        for device in range(reference.num_devices):
            for expert in list(reference._shadow[device]):
                reference.drop_replica(expert, device)
        assert placement.version == reference.version
        np.testing.assert_array_equal(
            placement.replica_matrix, reference.replica_matrix
        )
        np.testing.assert_array_equal(
            placement.destination_shares, reference.destination_shares
        )
        for expert in range(placement.num_experts):
            assert placement.replicas(expert) == reference.replicas(expert)
        assert placement.shadow_entries() == []
        assert not placement._shadow_mask.any()

    def test_reset_on_clean_placement_keeps_version(self):
        placement = ExpertPlacement(8, 4)
        version = placement.version
        placement.reset_shadows()
        assert placement.version == version


class TestStackedPlacement:
    def test_rejects_nonpositive_layers(self):
        with pytest.raises(ValueError, match="num_layers"):
            StackedPlacement(0, 8, 4)

    @pytest.mark.parametrize("slots", [float("nan"), float("inf"), 1.5, 1.0, -1])
    def test_shadow_slots_is_a_non_negative_integer(self, slots):
        """A fractional slot count let one device take two shadows."""
        with pytest.raises(ValueError, match="shadow_slots"):
            StackedPlacement(1, 8, 4, shadow_slots=slots)

    def test_numpy_integer_shadow_slots_are_legal(self):
        stacked = StackedPlacement(1, 8, 4, shadow_slots=np.int64(1))
        stacked.add_replica(0, 0, 3)
        with pytest.raises(ValueError, match="no free shadow slot"):
            stacked.add_replica(0, 1, 3)

    def test_mirrors_track_mutations(self):
        rng = np.random.default_rng(3)
        stacked = StackedPlacement(3, 12, 8, shadow_slots=2)
        replay = LayerReplay(3, 12, 8, shadow_slots=2)
        for _ in range(120):
            layer = int(rng.integers(3))
            expert = int(rng.integers(12))
            device = int(rng.integers(8))
            target = snapshot(stacked, layer)
            if not target.hosts(device, expert) and target.shadow_free(device) > 0:
                stacked.add_replica(layer, expert, device)
                replay.add_replica(layer, expert, device)
            elif target._shadow_mask[expert, device]:
                stacked.drop_replica(layer, expert, device)
                replay.drop_replica(layer, expert, device)
        assert_matches_replay(stacked, replay)

    def test_layer_snapshot_is_detached(self):
        """``snapshot()`` rebuilds a layer: mutating it leaves the stack
        alone, and the next snapshot shows the stack's state."""
        stacked = StackedPlacement(2, 8, 4)
        entries = stacked.replica_entries()
        detached = snapshot(stacked, 1)
        detached.add_replica(0, 3)
        assert stacked.replica_entries() is entries
        assert stacked.versions.tolist() == [0, 0]
        assert snapshot(stacked, 1).replicas(0) == [0]
        assert_matches_replay(stacked, LayerReplay(2, 8, 4))

    def test_store_is_sparse(self):
        """The 58-layer, 256-expert, 1,024-device stack with its entry
        table built holds at most 2 MiB of arrays: nothing it stores grows
        with layers x experts x devices."""
        stacked = StackedPlacement(58, 256, 1024)
        stacked.replica_entries()
        stacked.shadow_entry_arrays()

        def nbytes(value) -> int:
            if isinstance(value, np.ndarray):
                return value.nbytes
            if isinstance(value, dict):
                return sum(nbytes(item) for item in value.values())
            if isinstance(value, (list, tuple, set, frozenset)):
                return sum(nbytes(item) for item in value)
            return 0

        assert 0 < nbytes(vars(stacked)) <= 2 * 2**20

    def test_stack_queries(self):
        stacked = StackedPlacement(2, 8, 4, shadow_slots=3)
        stacked.add_replica(1, 6, 0)
        stacked.add_replica(1, 2, 0)
        stacked.add_replica(1, 0, 3)
        assert stacked.hosts(1, 0, 6) and stacked.hosts(1, 0, 2)
        assert stacked.hosts(1, 0, 0) and not stacked.hosts(0, 0, 6)
        assert stacked.device_shadows(1, 0).tolist() == [6, 2]
        assert stacked.device_shadows(0, 0).tolist() == []
        assert stacked.first_replica(1, 0) == 0
        stacked.fail_device(0)
        assert not stacked.hosts(1, 0, 0)
        assert stacked.first_replica(1, 0) == 3
        with pytest.raises(ValueError, match="no live replica"):
            stacked.first_replica(0, 0)
        with pytest.raises(ValueError, match="out of range"):
            stacked.hosts(0, 4, 0)
        with pytest.raises(ValueError, match="out of range"):
            stacked.hosts(0, 0, 8)

    def test_shadow_entry_arrays_grouped_and_sorted(self):
        stacked = StackedPlacement(2, 8, 4, shadow_slots=2)
        stacked.add_replica(1, 0, 3)
        stacked.add_replica(0, 5, 0)
        stacked.add_replica(0, 5, 1)
        stacked.add_replica(0, 2, 3)
        layers, experts, devices = stacked.shadow_entry_arrays()
        entries = list(zip(layers.tolist(), experts.tolist(), devices.tolist()))
        assert entries == [(0, 2, 3), (0, 5, 0), (0, 5, 1), (1, 0, 3)]
        stacked.drop_replica(0, 5, 0)
        layers, experts, devices = stacked.shadow_entry_arrays()
        entries = list(zip(layers.tolist(), experts.tolist(), devices.tolist()))
        assert entries == [(0, 2, 3), (0, 5, 1), (1, 0, 3)]

    def test_reset_shadows_all_layers(self):
        stacked = StackedPlacement(2, 8, 4, shadow_slots=2)
        replay = LayerReplay(2, 8, 4, shadow_slots=2)
        for target in (stacked, replay):
            target.add_replica(0, 0, 3)
            target.add_replica(1, 4, 0)
            target.reset_shadows()
        assert_matches_replay(stacked, replay)
        assert not replay.shadow_mask().any()
        assert stacked.shadow_entry_arrays()[0].size == 0
        np.testing.assert_array_equal(
            stacked.replica_counts, np.ones((2, 8), dtype=np.int64)
        )

    def test_views_are_read_only(self):
        stacked = StackedPlacement(2, 8, 4)
        for view in (
            stacked.replica_counts,
            stacked.shadow_counts,
            stacked.versions,
        ):
            with pytest.raises(ValueError):
                view[(0,) * view.ndim] = 1

    def test_host_order_reproduces_experts_on_order(self):
        stacked = StackedPlacement(1, 8, 4, shadow_slots=2)
        stacked.add_replica(0, 7, 0)
        stacked.add_replica(0, 4, 0)
        entries = stacked.replica_entries()
        on_device = (entries.layer == 0) & (entries.device == 0)
        hosted = [
            expert
            for _stamp, expert in sorted(
                zip(entries.stamp[on_device].tolist(), entries.expert[on_device].tolist())
            )
        ]
        assert hosted == snapshot(stacked, 0).experts_on(0)
        assert hosted == [0, 1, 7, 4]


class TestBatchedMutations:
    """add_replicas/drop_replicas end in the sequential path's exact state."""

    def mutation_batch(self, seed, placement, size=12):
        rng = np.random.default_rng(seed)
        experts, devices = [], []
        while len(experts) < size:
            expert = int(rng.integers(placement.num_experts))
            device = int(rng.integers(placement.num_devices))
            if (
                not placement.hosts(device, expert)
                and (expert, device) not in zip(experts, devices)
                and devices.count(device)
                < placement.shadow_free(device)
            ):
                experts.append(expert)
                devices.append(device)
        return np.array(experts), np.array(devices)

    @pytest.mark.parametrize("seed", range(4))
    def test_add_replicas_matches_sequential(self, seed):
        batched = ExpertPlacement(24, 16, shadow_slots=2)
        sequential = ExpertPlacement(24, 16, shadow_slots=2)
        experts, devices = self.mutation_batch(seed, batched)
        batched.add_replicas(experts, devices)
        for expert, device in zip(experts.tolist(), devices.tolist()):
            sequential.add_replica(expert, device)
        assert batched.version == sequential.version
        np.testing.assert_array_equal(
            batched.replica_matrix, sequential.replica_matrix
        )
        np.testing.assert_array_equal(
            batched.destination_shares, sequential.destination_shares
        )
        np.testing.assert_array_equal(
            batched.shadow_counts, sequential.shadow_counts
        )
        for expert in range(24):
            assert batched.replicas(expert) == sequential.replicas(expert)

    @pytest.mark.parametrize("seed", range(4))
    def test_drop_replicas_matches_sequential(self, seed):
        batched = ExpertPlacement(24, 16, shadow_slots=2)
        experts, devices = self.mutation_batch(seed, batched)
        batched.add_replicas(experts, devices)
        sequential = batched.clone()
        batched.drop_replicas(experts, devices)
        for expert, device in zip(experts.tolist(), devices.tolist()):
            sequential.drop_replica(expert, device)
        assert batched.version == sequential.version
        np.testing.assert_array_equal(
            batched.replica_matrix, sequential.replica_matrix
        )
        np.testing.assert_array_equal(
            batched.destination_shares, sequential.destination_shares
        )
        for expert in range(24):
            assert batched.replicas(expert) == sequential.replicas(expert)

    def test_add_replicas_validates_capacity_across_batch(self):
        placement = ExpertPlacement(16, 8, shadow_slots=1)
        with pytest.raises(ValueError, match="shadow slot"):
            placement.add_replicas(np.array([0, 1]), np.array([7, 7]))

    def test_add_replicas_rejects_duplicate_entry(self):
        placement = ExpertPlacement(16, 8, shadow_slots=2)
        with pytest.raises(ValueError, match="already hosts"):
            placement.add_replicas(np.array([0, 0]), np.array([7, 7]))

    def test_drop_replicas_rejects_missing_replica(self):
        placement = ExpertPlacement(16, 8, shadow_slots=2)
        with pytest.raises(ValueError, match="no shadow replica"):
            placement.drop_replicas(np.array([0]), np.array([7]))

    def test_empty_batches_are_noops(self):
        placement = ExpertPlacement(16, 8)
        version = placement.version
        placement.add_replicas(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        placement.drop_replicas(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        assert placement.version == version


class TestStackedBatchedMutations:
    def build_batch(self, seed, stacked, size=20):
        rng = np.random.default_rng(seed)
        layers, experts, devices = [], [], []
        while len(layers) < size:
            layer = int(rng.integers(stacked.num_layers))
            expert = int(rng.integers(stacked.num_experts))
            device = int(rng.integers(stacked.num_devices))
            target = snapshot(stacked, layer)
            taken = sum(
                1 for l, _e, d in zip(layers, experts, devices)
                if l == layer and d == device
            )
            if (
                not target.hosts(device, expert)
                and (layer, expert, device) not in zip(layers, experts, devices)
                and target.shadow_free(device) - taken > 0
            ):
                layers.append(layer)
                experts.append(expert)
                devices.append(device)
        return np.array(layers), np.array(experts), np.array(devices)

    @pytest.mark.parametrize("seed", range(3))
    def test_add_replicas_matches_sequential(self, seed):
        batched = StackedPlacement(4, 16, 8, shadow_slots=2)
        sequential = StackedPlacement(4, 16, 8, shadow_slots=2)
        layers, experts, devices = self.build_batch(seed, batched)
        batched.add_replicas(layers, experts, devices)
        for layer, expert, device in zip(
            layers.tolist(), experts.tolist(), devices.tolist()
        ):
            sequential.add_replica(layer, expert, device)
        replay = LayerReplay(4, 16, 8, shadow_slots=2)
        replay.add_replicas(layers, experts, devices)
        assert_matches_replay(batched, replay)
        np.testing.assert_array_equal(batched.versions, sequential.versions)
        for column, other in zip(
            batched.replica_entries(), sequential.replica_entries()
        ):
            np.testing.assert_array_equal(column, other)
        assert [
            array.tolist() for array in batched.shadow_entry_arrays()
        ] == [array.tolist() for array in sequential.shadow_entry_arrays()]

    @pytest.mark.parametrize("seed", range(3))
    def test_drop_replicas_matches_sequential(self, seed):
        batched = StackedPlacement(4, 16, 8, shadow_slots=2)
        layers, experts, devices = self.build_batch(seed, batched)
        batched.add_replicas(layers, experts, devices)
        sequential = StackedPlacement(4, 16, 8, shadow_slots=2)
        sequential.add_replicas(layers, experts, devices)
        batched.drop_replicas(layers, experts, devices)
        for layer, expert, device in zip(
            layers.tolist(), experts.tolist(), devices.tolist()
        ):
            sequential.drop_replica(layer, expert, device)
        replay = LayerReplay(4, 16, 8, shadow_slots=2)
        replay.add_replicas(layers, experts, devices)
        replay.drop_replicas(layers, experts, devices)
        assert_matches_replay(batched, replay)
        np.testing.assert_array_equal(batched.versions, sequential.versions)
        for column, other in zip(
            batched.replica_entries(), sequential.replica_entries()
        ):
            np.testing.assert_array_equal(column, other)

    @staticmethod
    def snapshot(stacked):
        return (
            stacked.versions.tolist(),
            [
                [layer.replicas(expert) for expert in range(stacked.num_experts)]
                for layer in snapshots(stacked)
            ],
            [column.tolist() for column in stacked.replica_entries()],
            [array.tolist() for array in stacked.shadow_entry_arrays()],
        )

    def test_add_batch_with_a_bad_later_layer_changes_nothing(self):
        stacked = StackedPlacement(2, 4, 4)
        before = self.snapshot(stacked)
        # Layer 0's entry is valid; device 1 natively hosts expert 1.
        with pytest.raises(ValueError, match="already hosts expert 1"):
            stacked.add_replicas([0, 1], [0, 1], [1, 1])
        assert self.snapshot(stacked) == before
        assert stacked.versions.tolist() == [0, 0]
        assert_matches_replay(stacked, LayerReplay(2, 4, 4))

    def test_drop_batch_with_a_bad_later_layer_changes_nothing(self):
        stacked = StackedPlacement(2, 4, 4)
        stacked.add_replica(0, 0, 1)
        before = self.snapshot(stacked)
        # Layer 0 holds the shadow to drop; layer 1 does not.
        with pytest.raises(ValueError, match="no shadow replica"):
            stacked.drop_replicas([0, 1], [0, 0], [1, 1])
        assert self.snapshot(stacked) == before
        assert stacked.versions.tolist() == [1, 0]
        replay = LayerReplay(2, 4, 4)
        replay.add_replica(0, 0, 1)
        assert_matches_replay(stacked, replay)


class TestStackedArgumentChecks:
    """Out-of-range layers and devices raise before any state changes."""

    @staticmethod
    def state(stacked):
        return (
            stacked.versions.tolist(),
            sorted(stacked.dead_devices),
            [column.tolist() for column in stacked.replica_entries()],
            [array.tolist() for array in stacked.shadow_entry_arrays()],
        )

    @pytest.mark.parametrize("layer", [-1, 3])
    @pytest.mark.parametrize(
        "mutation",
        [
            lambda stacked, layer: stacked.add_replica(layer, 0, 1),
            lambda stacked, layer: stacked.add_replicas([0, layer], [0, 0], [1, 2]),
            lambda stacked, layer: stacked.drop_replica(layer, 0, 1),
            lambda stacked, layer: stacked.drop_replicas([0, layer], [0, 0], [1, 1]),
        ],
        ids=["add_replica", "add_replicas", "drop_replica", "drop_replicas"],
    )
    def test_layer_out_of_range(self, mutation, layer):
        stacked = StackedPlacement(3, 4, 4, shadow_slots=2)
        stacked.add_replica(0, 0, 1)
        before = self.state(stacked)
        with pytest.raises(ValueError, match=f"layer {layer} out of range"):
            mutation(stacked, layer)
        assert self.state(stacked) == before
        assert stacked.replica_entries().bounds.tolist() == [0, 5, 9, 13]

    @pytest.mark.parametrize("device", [-1, 4, 9])
    def test_fail_device_out_of_range(self, device):
        stacked = StackedPlacement(2, 4, 4)
        stacked.add_replica(1, 0, 2)
        before = self.state(stacked)
        with pytest.raises(ValueError, match=f"device {device} out of range"):
            stacked.fail_device(device)
        assert self.state(stacked) == before
        assert stacked.dead_devices == frozenset()

    def test_expert_placement_hosts_checks_arguments(self):
        placement = ExpertPlacement(4, 4)
        with pytest.raises(ValueError, match="device 9 out of range"):
            placement.hosts(9, 0)
        with pytest.raises(ValueError, match="expert 9 out of range"):
            placement.hosts(0, 9)
        assert placement.hosts(0, 0) and not placement.hosts(1, 0)

"""An independent per-layer replay of a stacked placement's mutations.

:class:`~repro.mapping.placement.StackedPlacement` stores one sparse entry
table for every layer.  :class:`LayerReplay` applies the same mutations to
one reference :class:`~placement_reference.ExpertPlacement` per layer —
batches validated on every layer before any layer changes, as the stack
does — and stacks those objects' dense views, so tests can hold the stack
to a model that shares none of its code.  :func:`assert_matches_replay`
compares the two.

:func:`snapshot` rebuilds one layer of a stack as a reference placement
(:func:`snapshots` every layer), and :func:`one_layer_stack` copies one
layer into a one-layer stack, the placement single-layer pricing takes.
"""

import numpy as np

from placement_reference import ExpertPlacement
from repro.mapping.placement import StackedPlacement


def snapshot(stack: StackedPlacement, layer: int) -> ExpertPlacement:
    """Layer ``layer`` of ``stack`` rebuilt as an :class:`ExpertPlacement`.

    The snapshot fails the dead devices, then adds the layer's shadows in
    stamp order, so ``replicas()`` and ``experts_on()`` list them in
    insertion order; its ``version`` is the layer's.  Later stack
    mutations do not reach it.
    """
    stack._check_layer(layer)
    placement = ExpertPlacement(
        stack.num_experts, stack.num_devices, shadow_slots=stack.shadow_slots
    )
    for device in sorted(stack.dead_devices):
        placement.fail_device(device)
    experts, devices = stack._layer_shadows(layer)
    placement.add_replicas(experts, devices)
    placement._version = int(stack.versions[layer])
    return placement


def snapshots(stack: StackedPlacement) -> list[ExpertPlacement]:
    """Every layer's :func:`snapshot`."""
    return [snapshot(stack, layer) for layer in range(stack.num_layers)]


def one_layer_stack(stack: StackedPlacement, layer: int) -> StackedPlacement:
    """Layer ``layer`` of ``stack`` copied into a new one-layer stack: the
    dead devices first, then the layer's shadows in stamp order."""
    stack._check_layer(layer)
    copied = StackedPlacement(
        1, stack.num_experts, stack.num_devices, shadow_slots=stack.shadow_slots
    )
    for device in sorted(stack.dead_devices):
        copied.fail_device(device)
    experts, devices = stack._layer_shadows(layer)
    copied.add_replicas(np.zeros(experts.size, dtype=np.int64), experts, devices)
    return copied


class LayerReplay:
    """One :class:`ExpertPlacement` per layer, mutated like a stack."""

    def __init__(
        self, num_layers: int, num_experts: int, num_devices: int, shadow_slots: int = 1
    ) -> None:
        self.layers = [
            ExpertPlacement(num_experts, num_devices, shadow_slots=shadow_slots)
            for _ in range(num_layers)
        ]

    # -- mutations ----------------------------------------------------------

    def add_replica(self, layer: int, expert: int, device: int) -> None:
        self._layer(layer).add_replica(expert, device)

    def drop_replica(self, layer: int, expert: int, device: int) -> None:
        self._layer(layer).drop_replica(expert, device)

    def add_replicas(self, layer_idx, expert_idx, device_idx) -> None:
        batches = self._batches(layer_idx, expert_idx, device_idx)
        for layer, experts, devices in batches:
            self.layers[layer]._check_adds(experts, devices)
        for layer, experts, devices in batches:
            self.layers[layer]._apply_adds(experts, devices)

    def drop_replicas(self, layer_idx, expert_idx, device_idx) -> None:
        batches = self._batches(layer_idx, expert_idx, device_idx)
        for layer, experts, devices in batches:
            self.layers[layer]._check_drops(experts, devices)
        for layer, experts, devices in batches:
            self.layers[layer]._apply_drops(experts, devices)

    def fail_device(self, device: int) -> tuple[np.ndarray, np.ndarray]:
        orphan_layers: list[int] = []
        orphan_experts: list[int] = []
        for index, layer in enumerate(self.layers):
            orphans = layer.fail_device(device)
            orphan_layers.extend([index] * len(orphans))
            orphan_experts.extend(orphans)
        return (
            np.array(orphan_layers, dtype=np.int64),
            np.array(orphan_experts, dtype=np.int64),
        )

    def reset_shadows(self) -> None:
        for layer in self.layers:
            layer.reset_shadows()

    def _layer(self, layer: int) -> ExpertPlacement:
        if not 0 <= layer < len(self.layers):
            raise ValueError(f"layer {layer} out of range")
        return self.layers[layer]

    def _batches(self, layer_idx, expert_idx, device_idx):
        layer_idx = np.asarray(layer_idx, dtype=np.int64)
        expert_idx = np.asarray(expert_idx, dtype=np.int64)
        device_idx = np.asarray(device_idx, dtype=np.int64)
        layers = np.unique(layer_idx).tolist()
        for layer in layers:
            self._layer(layer)
        return [
            (layer, expert_idx[layer_idx == layer], device_idx[layer_idx == layer])
            for layer in layers
        ]

    # -- dense views --------------------------------------------------------

    @property
    def dead_devices(self) -> frozenset[int]:
        return self.layers[0].dead_devices

    def versions(self) -> np.ndarray:
        return np.array([layer.version for layer in self.layers], dtype=np.int64)

    def replica_tensor(self) -> np.ndarray:
        """``(layers, experts, devices)`` 0/1 replica tensor."""
        return np.stack([layer.replica_matrix for layer in self.layers])

    def destination_shares(self) -> np.ndarray:
        return np.stack([layer.destination_shares for layer in self.layers])

    def shadow_mask(self) -> np.ndarray:
        return np.stack([layer._shadow_mask for layer in self.layers])

    def replica_counts(self) -> np.ndarray:
        return np.stack([layer.replica_counts for layer in self.layers])

    def shadow_counts(self) -> np.ndarray:
        return np.stack([layer.shadow_counts for layer in self.layers])

    def shadow_entry_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(layers, experts, devices)`` sorted (layer, expert, device)."""
        layers, experts, devices = np.nonzero(self.shadow_mask())
        return layers, experts, devices


def assert_matches_replay(stack, replay: LayerReplay) -> None:
    """The stack's counts, versions, entries, stamps, stack queries and
    :func:`snapshot` layers against the replay's layer objects."""
    np.testing.assert_array_equal(stack.versions, replay.versions())
    np.testing.assert_array_equal(stack.replica_counts, replay.replica_counts())
    np.testing.assert_array_equal(stack.shadow_counts, replay.shadow_counts())
    assert stack.dead_devices == replay.dead_devices
    entries = stack.replica_entries()
    index = (entries.layer, entries.expert, entries.device)
    tensor = np.zeros(replay.replica_tensor().shape)
    np.add.at(tensor, index, 1.0)
    np.testing.assert_array_equal(tensor, replay.replica_tensor())
    shares = np.zeros(tensor.shape)
    shares[index] = entries.share
    np.testing.assert_array_equal(shares, replay.destination_shares())
    assert [array.tolist() for array in stack.shadow_entry_arrays()] == [
        array.tolist() for array in replay.shadow_entry_arrays()
    ]
    # Each (layer, device) run in stamp order enumerates experts_on.
    by_stamp = np.lexsort((entries.stamp, entries.device, entries.layer))
    runs: dict[tuple[int, int], list[int]] = {}
    for layer, device, expert in zip(
        entries.layer[by_stamp].tolist(),
        entries.device[by_stamp].tolist(),
        entries.expert[by_stamp].tolist(),
    ):
        runs.setdefault((layer, device), []).append(expert)
    for layer, ref in enumerate(replay.layers):
        ours = snapshot(stack, layer)
        assert ours.version == ref.version, layer
        assert ours.dead_devices == ref.dead_devices, layer
        for expert in range(ref.num_experts):
            replicas = ref.replicas(expert)
            assert ours.replicas(expert) == replicas, (layer, expert)
            if replicas:
                assert stack.first_replica(layer, expert) == replicas[0]
            for device in replicas:
                assert stack.hosts(layer, device, expert)
            other = (ref.native_device(expert) + 1) % ref.num_devices
            assert stack.hosts(layer, other, expert) == ref.hosts(other, expert)
        for device in range(ref.num_devices):
            assert ours.experts_on(device) == ref.experts_on(device), (layer, device)
            assert runs.get((layer, device), []) == ref.experts_on(device)
            assert stack.device_shadows(layer, device).tolist() == ref._shadow[device]
        np.testing.assert_array_equal(ours.replica_matrix, ref.replica_matrix)
        np.testing.assert_array_equal(ours.destination_shares, ref.destination_shares)
        np.testing.assert_array_equal(ours.shadow_counts, ref.shadow_counts)
        assert [a.tolist() for a in ours.shadow_entry_arrays()] == [
            a.tolist() for a in ref.shadow_entry_arrays()
        ]

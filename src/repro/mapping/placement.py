"""Expert placement: native experts plus shadow-slot replicas.

Native placement is the uniform EP layout (expert ``e`` lives on device
``e * D // E``).  Balancers replicate hot experts into other devices'
*shadow slots* (Fig. 7a); a replicated expert's tokens split equally across
its replicas, mirroring the ``Load_e / Num_e`` sharing rule of
Algorithm 1.

:class:`StackedPlacement` is the one placement type: the serving loop
keeps every MoE layer in one stack, and single-layer callers (the
figures, ``simulate_alltoall``, ``System.fresh_placement``) use a
one-layer stack.
"""

import numbers
from typing import NamedTuple

import numpy as np

from repro import sanitize


class ReplicaEntries(NamedTuple):
    """Every live ``(layer, expert, device)`` hosting relation of a stack.

    Entries are grouped by ``(layer, device)`` in ascending order; within
    a group the natives come first, then the shadows, each
    expert-ascending.  ``stamp`` is the entry's host-order stamp (see
    :class:`StackedPlacement`), ``share`` its destination share, and
    ``bounds[l]:bounds[l + 1]`` is layer ``l``'s slice.
    """

    layer: np.ndarray  # (entries,)
    expert: np.ndarray  # (entries,)
    device: np.ndarray  # (entries,)
    stamp: np.ndarray  # (entries,) host-order stamp of each entry
    share: np.ndarray  # (entries,) destination share of each entry
    bounds: np.ndarray  # (layers + 1,) per-layer slice bounds


def _index_arrays(*indices) -> tuple[np.ndarray, ...]:
    return tuple(np.asarray(index, dtype=np.int64) for index in indices)


def _layer_major(
    layers: np.ndarray, experts: np.ndarray, devices: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A batch stably sorted by layer: each layer's entries keep their
    batch order."""
    if (layers[1:] < layers[:-1]).any():
        order = np.argsort(layers, kind="stable")
        return layers[order], experts[order], devices[order]
    return layers, experts, devices


class StackedPlacement:
    """All sparse layers' expert placements as one sparse entry table.

    A placement is a sparse relation: every expert's native copy plus the
    few shadow replicas the balancers copy in.  The stack keeps the
    natives implicit (:attr:`native_devices`, minus :attr:`dead_devices`)
    and each live shadow replica once, as a ``(layer, expert, device,
    stamp)`` column of swap-removable arrays, alongside per-(layer,
    expert) replica counts, per-(layer, device) shadow counts and
    per-layer versions.  Nothing it stores grows with layers x experts x
    devices.  Readers go through :meth:`replica_entries` (the table of
    every live hosting relation, cached per mutation epoch),
    :meth:`shadow_entry_arrays` and the point queries :meth:`hosts`,
    :meth:`first_replica` and :meth:`device_shadows`.

    Host-order stamps give each layer's host enumeration order: natives
    stamp ``expert``, shadows ``num_experts + insertion counter`` of their
    layer, so a device lists its natives and then its shadows in insertion
    order, and ties broken by the lowest stamp pick the first-listed
    expert.  Versions advance by the replicas each mutation touches, so
    derived caches key on ``(stack, layer, version)``.
    """

    def __init__(
        self,
        num_layers: int,
        num_experts: int,
        num_devices: int,
        shadow_slots: int = 1,
    ) -> None:
        if num_layers <= 0:
            raise ValueError(f"num_layers must be positive, got {num_layers}")
        if num_experts <= 0 or num_devices <= 0:
            raise ValueError("num_experts and num_devices must be positive")
        if not isinstance(shadow_slots, numbers.Integral) or shadow_slots < 0:
            raise ValueError(
                f"shadow_slots must be a non-negative integer, got {shadow_slots!r}"
            )
        self.num_layers = num_layers
        self.num_experts = num_experts
        self.num_devices = num_devices
        self.shadow_slots = shadow_slots
        self._counts = np.ones((num_layers, num_experts), dtype=np.int64)
        self._shadow_counts = np.zeros((num_layers, num_devices), dtype=np.int64)
        self._versions = np.zeros(num_layers, dtype=np.int64)
        self._next_stamp = np.full(num_layers, num_experts, dtype=np.int64)
        # Shadow entries as swap-removable (layer, expert, device, stamp)
        # columns: O(1) add/drop, one small sort per (mutation epoch, query).
        self._entry_data = np.zeros((4, 64), dtype=np.int64)
        self._entry_count = 0
        self._entry_pos: dict[tuple[int, int, int], int] = {}
        self._shadow_entries_cache: tuple[
            np.ndarray, np.ndarray, np.ndarray
        ] | None = None
        self._replica_entries: ReplicaEntries | None = None
        self._dead_devices: set[int] = set()

    # -- queries ----------------------------------------------------------------

    @property
    def native_devices(self) -> np.ndarray:
        """Per-expert native device (identical across layers)."""
        experts = np.arange(self.num_experts, dtype=np.int64)
        return experts * self.num_devices // self.num_experts

    @property
    def replica_counts(self) -> np.ndarray:
        """Read-only ``(layers, experts)`` replica counts."""
        view = self._counts.view()
        view.flags.writeable = False
        return view

    @property
    def shadow_counts(self) -> np.ndarray:
        """Read-only ``(layers, devices)`` occupied shadow-slot counts."""
        view = self._shadow_counts.view()
        view.flags.writeable = False
        return view

    @property
    def versions(self) -> np.ndarray:
        """Read-only per-layer version counters."""
        view = self._versions.view()
        view.flags.writeable = False
        return view

    @property
    def dead_devices(self) -> frozenset[int]:
        """Devices removed by :meth:`fail_device` (empty when healthy)."""
        return frozenset(self._dead_devices)

    def orphaned(self) -> tuple[np.ndarray, np.ndarray]:
        """``(layer, expert)`` index arrays of experts with zero replicas."""
        if not self._dead_devices:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        return np.nonzero(self._counts == 0)

    def hosts(self, layer: int, device: int, expert: int) -> bool:
        """Whether ``device`` holds a live replica of ``expert`` on ``layer``."""
        self._check_layer(layer)
        self._check_device(device)
        self._check_expert(expert)
        return self._hosts(layer, device, expert)

    def first_replica(self, layer: int, expert: int) -> int:
        """The device of ``expert``'s first live replica on ``layer``: its
        native while alive, else its lowest-stamp (oldest) shadow."""
        self._check_layer(layer)
        self._check_expert(expert)
        native = expert * self.num_devices // self.num_experts
        if native not in self._dead_devices:
            return native
        experts, devices = self._layer_shadows(layer)
        mine = np.flatnonzero(experts == expert)
        if mine.size == 0:
            raise ValueError(f"expert {expert} has no live replica on layer {layer}")
        return int(devices[mine[0]])

    def device_shadows(self, layer: int, device: int) -> np.ndarray:
        """Experts with a shadow replica on ``device`` at ``layer``, in
        stamp (insertion) order."""
        self._check_layer(layer)
        self._check_device(device)
        experts, devices = self._layer_shadows(layer)
        return experts[devices == device]

    def shadow_entry_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All shadow replicas as ``(layers, experts, devices)`` index
        arrays, sorted (layer, expert)-major with devices ascending — the
        grouping the stacked eviction pass consumes.  The entries are
        maintained incrementally (swap-remove on drop); each query after a
        mutation pays one lexsort over the live entries.  The arrays are
        cached until the next mutation: treat them as read-only (the
        sanitizer freezes them).
        """
        if self._shadow_entries_cache is None:
            layers, experts, devices = self._entry_data[:3, : self._entry_count]
            order = np.lexsort((devices, experts, layers))
            self._shadow_entries_cache = sanitize.freeze(
                (layers[order], experts[order], devices[order])
            )
        return self._shadow_entries_cache

    def replica_entries(self) -> ReplicaEntries:
        """Every live hosting relation, natives and shadows, as one
        entry table (see :class:`ReplicaEntries`).

        Sums over hosting relations — heats, MoE rooflines, device loads,
        the all-to-all pricer's cells — run over these entries.  Built
        after a mutation from the native layout and the shadow-entry
        table, with one sort; cached until the next mutation.
        """
        if self._replica_entries is None:
            self._replica_entries = sanitize.freeze(self._build_replica_entries())
        return self._replica_entries

    def device_sums(self, values: np.ndarray) -> np.ndarray:
        """Per-device sums of ``(layers, experts)`` values over each
        device's hosted experts, ``(layers, devices)``: one ``bincount``
        over :meth:`replica_entries`, which adds a device's entries in
        entry order."""
        entries = self.replica_entries()
        return np.bincount(
            entries.layer * self.num_devices + entries.device,
            weights=values[entries.layer, entries.expert],
            minlength=self.num_layers * self.num_devices,
        ).reshape(self.num_layers, self.num_devices)

    def _build_replica_entries(self) -> ReplicaEntries:
        num_layers, num_experts, num_devices = self.num_layers, self.num_experts, self.num_devices
        experts = np.arange(num_experts, dtype=np.int64)
        natives = self.native_devices
        if self._dead_devices:
            live = ~np.isin(natives, list(self._dead_devices))
            experts, natives = experts[live], natives[live]
        shadow_layers, shadow_experts, shadow_devices, shadow_stamps = (
            self._entry_data[:, : self._entry_count]
        )
        layer = np.concatenate(
            [np.repeat(np.arange(num_layers), experts.size), shadow_layers]
        )
        expert = np.concatenate([np.tile(experts, num_layers), shadow_experts])
        device = np.concatenate([np.tile(natives, num_layers), shadow_devices])
        stamp = np.concatenate([np.tile(experts, num_layers), shadow_stamps])
        shadow = np.arange(layer.size) >= layer.size - shadow_layers.size
        # Keys are unique: group by (layer, device), natives before
        # shadows, experts ascending within each.
        order = np.argsort(
            ((layer * num_devices + device) * 2 + shadow) * num_experts + expert
        )
        layer, expert = layer[order], expert[order]
        return ReplicaEntries(
            layer=layer,
            expert=expert,
            device=device[order],
            stamp=stamp[order],
            # Load/Num: every replica takes 1 / replicas of its expert.
            share=1.0 / self._counts[layer, expert],
            bounds=np.searchsorted(layer, np.arange(num_layers + 1)),
        )

    def _layer_shadows(self, layer: int) -> tuple[np.ndarray, np.ndarray]:
        """``(experts, devices)`` of ``layer``'s shadows in stamp order."""
        layers, experts, devices, stamps = self._entry_data[:, : self._entry_count]
        mine = np.flatnonzero(layers == layer)
        mine = mine[np.argsort(stamps[mine])]
        return experts[mine], devices[mine]

    def _hosts(self, layer: int, device: int, expert: int) -> bool:
        if (layer, expert, device) in self._entry_pos:
            return True
        native = expert * self.num_devices // self.num_experts
        return device == native and device not in self._dead_devices

    def _hosted(
        self, layers: np.ndarray, devices: np.ndarray, experts: np.ndarray
    ) -> np.ndarray:
        """:meth:`_hosts` of in-range index arrays."""
        hosted = devices == experts * self.num_devices // self.num_experts
        if self._dead_devices:
            hosted &= ~self._dead_mask()[devices]
        positions = self._entry_pos
        if positions:
            hosted |= np.fromiter(
                (
                    key in positions
                    for key in zip(layers.tolist(), experts.tolist(), devices.tolist())
                ),
                dtype=bool,
                count=layers.size,
            )
        return hosted

    def _repeats(self, layers: np.ndarray, experts: np.ndarray, devices: np.ndarray) -> np.ndarray:
        """Mask of the entries of an in-range batch that repeat an
        earlier entry's ``(layer, expert, device)``."""
        keys = (layers * self.num_experts + experts) * self.num_devices + devices
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        repeat = np.zeros(keys.size, dtype=bool)
        repeat[order[1:]] = keys[1:] == keys[:-1]
        return repeat

    def _dead_mask(self) -> np.ndarray:
        dead = np.zeros(self.num_devices, dtype=bool)
        dead[list(self._dead_devices)] = True
        return dead

    def _in_range(self, layers: np.ndarray, devices: np.ndarray, experts: np.ndarray) -> bool:
        """Whether every id of non-empty index arrays is in range."""
        return bool(
            layers.min() >= 0
            and layers.max() < self.num_layers
            and devices.min() >= 0
            and devices.max() < self.num_devices
            and experts.min() >= 0
            and experts.max() < self.num_experts
        )

    def _shadow_free(self, layer: int, device: int) -> int:
        if device in self._dead_devices:
            return 0
        return self.shadow_slots - int(self._shadow_counts[layer, device])

    def _invalidate_entries(self) -> None:
        """Drop the cached entry tables; every mutation calls this."""
        self._shadow_entries_cache = None
        self._replica_entries = None

    def _entries_append(
        self, layers: np.ndarray, experts: np.ndarray, devices: np.ndarray, stamps: np.ndarray
    ) -> None:
        start = self._entry_count
        stop = start + experts.size
        capacity = self._entry_data.shape[1]
        if stop > capacity:
            grown = np.zeros((4, max(stop, 2 * capacity)), dtype=np.int64)
            grown[:, :start] = self._entry_data[:, :start]
            self._entry_data = grown
        columns = self._entry_data[:, start:stop]
        columns[0], columns[1], columns[2], columns[3] = layers, experts, devices, stamps
        keys = zip(layers.tolist(), experts.tolist(), devices.tolist())
        self._entry_pos.update(zip(keys, range(start, stop)))
        self._entry_count = stop

    def _entry_remove(self, layer: int, expert: int, device: int) -> None:
        slot = self._entry_pos.pop((layer, expert, device))
        last = self._entry_count - 1
        if slot != last:
            moved = self._entry_data[:, last]
            self._entry_data[:, slot] = moved
            self._entry_pos[(int(moved[0]), int(moved[1]), int(moved[2]))] = slot
        self._entry_count = last

    # -- mutation ----------------------------------------------------------------

    def add_replica(self, layer: int, expert: int, device: int) -> None:
        """Copy ``expert`` into a shadow slot of ``device`` on ``layer``.

        Raises ValueError when the device already hosts the expert or has
        no free shadow slot (a dead device has none).
        """
        self.add_replicas([layer], [expert], [device])

    def drop_replica(self, layer: int, expert: int, device: int) -> None:
        """Release a shadow replica on ``layer`` (never the native copy)."""
        self.drop_replicas([layer], [expert], [device])

    def add_replicas(
        self,
        layer_idx: np.ndarray,
        expert_idx: np.ndarray,
        device_idx: np.ndarray,
    ) -> None:
        """Batched :meth:`add_replica` over parallel index arrays.

        Sequential semantics, layers ascending and each layer's entries
        in batch order: an entry sees the slots and replicas of the
        entries before it, each layer stamps its entries in batch order,
        and the entry table appends them in that order.  The whole batch
        is validated before anything changes, so a batch that raises
        leaves the stack as it was, with the message of its first invalid
        entry in that order.
        """
        layers, experts, devices = _index_arrays(layer_idx, expert_idx, device_idx)
        if layers.size == 0:
            return
        layers, experts, devices = _layer_major(layers, experts, devices)
        if not (
            self._in_range(layers, devices, experts)
            and not self._hosted(layers, devices, experts).any()
            and not self._repeats(layers, experts, devices).any()
            and self._slots_free(layers, devices)
        ):
            self._raise_first_invalid_add(layers, experts, devices)
        self._apply_adds(layers, experts, devices)

    def add_new_replicas(
        self,
        layer_idx: np.ndarray,
        expert_idx: np.ndarray,
        device_idx: np.ndarray,
    ) -> None:
        """:meth:`add_replicas` of the entries that add a replica.

        An entry whose replica the stack already hosts, or that repeats
        an earlier entry, adds nothing, as when copies commit one at a
        time.  Ids are checked first, in batch order and as :meth:`hosts`
        checks them; the entries left then add with :meth:`add_replicas`'
        semantics.  A batch that raises leaves the stack as it was.
        """
        layers, experts, devices = _index_arrays(layer_idx, expert_idx, device_idx)
        if layers.size == 0:
            return
        if not self._in_range(layers, devices, experts):
            for layer, device, expert in zip(layers.tolist(), devices.tolist(), experts.tolist()):
                self.hosts(layer, device, expert)  # raises at the first id out of range
        new = ~(self._hosted(layers, devices, experts) | self._repeats(layers, experts, devices))
        if not new.all():
            layers, experts, devices = layers[new], experts[new], devices[new]
            if layers.size == 0:
                return
        layers, experts, devices = _layer_major(layers, experts, devices)
        if not self._slots_free(layers, devices):
            self._raise_first_invalid_add(layers, experts, devices)
        self._apply_adds(layers, experts, devices)

    def _raise_first_invalid_add(
        self, layers: np.ndarray, experts: np.ndarray, devices: np.ndarray
    ) -> None:
        """Raise the message of a layer-major batch's first invalid add.

        The vectorized checks only say that some entry fails; the
        sequential one names the first.
        """
        for layer, layer_experts, layer_devices in self._layer_batches(layers, experts, devices):
            self._check_adds(layer, layer_experts, layer_devices)
        raise AssertionError("a rejected batch of adds passed the sequential check")

    def _apply_adds(self, layers: np.ndarray, experts: np.ndarray, devices: np.ndarray) -> None:
        """Add a valid layer-major batch: whole-batch count, stamp and
        version updates and one entry-table append."""
        # Entries of one layer are contiguous: each one's rank is its
        # distance from its layer's first.
        rank = np.arange(layers.size) - np.searchsorted(layers, layers)
        stamps = self._next_stamp[layers] + rank
        added = np.bincount(layers, minlength=self.num_layers)
        self._next_stamp += added
        np.add.at(self._counts, (layers, experts), 1)
        np.add.at(self._shadow_counts, (layers, devices), 1)
        self._versions += added
        self._entries_append(layers, experts, devices, stamps)
        self._invalidate_entries()

    def _slots_free(self, layers: np.ndarray, devices: np.ndarray) -> bool:
        """Whether a batch of in-range adds overdraws no device's free
        shadow slots on any layer (a dead device has none)."""
        cells = np.sort(layers * self.num_devices + devices)
        # An entry's place in its cell's run counts the slots the entries
        # before it took.
        taken = np.arange(cells.size) - np.searchsorted(cells, cells)
        free = self.shadow_slots - self._shadow_counts.reshape(-1)[cells]
        if self._dead_devices:
            free[self._dead_mask()[cells % self.num_devices]] = 0
        return bool((taken < free).all())

    def drop_replicas(
        self,
        layer_idx: np.ndarray,
        expert_idx: np.ndarray,
        device_idx: np.ndarray,
    ) -> None:
        """Batched :meth:`drop_replica` over parallel index arrays; no
        layer changes unless every layer's entries are valid."""
        batches = self._layer_batches(layer_idx, expert_idx, device_idx)
        for layer, experts, devices in batches:
            self._check_drops(layer, experts, devices)
        for layer, experts, devices in batches:
            np.subtract.at(self._counts[layer], experts, 1)
            np.subtract.at(self._shadow_counts[layer], devices, 1)
            self._versions[layer] += experts.size
            for expert, device in zip(experts.tolist(), devices.tolist()):
                self._entry_remove(layer, expert, device)
        if batches:
            self._invalidate_entries()

    def _layer_batches(
        self, layer_idx: np.ndarray, expert_idx: np.ndarray, device_idx: np.ndarray
    ) -> list[tuple[int, np.ndarray, np.ndarray]]:
        """``(layer, experts, devices)`` per touched layer, ascending, each
        layer's entries in batch order; raises on a layer out of range."""
        layer_idx = np.asarray(layer_idx, dtype=np.int64)
        expert_idx = np.asarray(expert_idx, dtype=np.int64)
        device_idx = np.asarray(device_idx, dtype=np.int64)
        layers = np.unique(layer_idx).tolist()
        for layer in layers:
            self._check_layer(layer)
        batches = []
        for layer in layers:
            selected = layer_idx == layer
            batches.append((layer, expert_idx[selected], device_idx[selected]))
        return batches

    def _check_adds(self, layer: int, experts: np.ndarray, devices: np.ndarray) -> None:
        """Raise ``ValueError`` unless every add of one layer's batch is
        valid in sequence; changes nothing."""
        pending: set[tuple[int, int]] = set()
        pending_per_device: dict[int, int] = {}
        for expert, device in zip(experts.tolist(), devices.tolist()):
            self._check_expert(expert)
            self._check_device(device)
            if self._hosts(layer, device, expert) or (expert, device) in pending:
                raise ValueError(f"device {device} already hosts expert {expert}")
            taken = pending_per_device.get(device, 0)
            if self._shadow_free(layer, device) - taken <= 0:
                raise ValueError(f"device {device} has no free shadow slot")
            pending.add((expert, device))
            pending_per_device[device] = taken + 1

    def _check_drops(self, layer: int, experts: np.ndarray, devices: np.ndarray) -> None:
        """Raise ``ValueError`` unless every drop of one layer's batch
        names a distinct shadow replica; changes nothing."""
        dropped: set[tuple[int, int, int]] = set()
        for expert, device in zip(experts.tolist(), devices.tolist()):
            self._check_expert(expert)
            self._check_device(device)
            key = (layer, expert, device)
            if key not in self._entry_pos or key in dropped:
                raise ValueError(
                    f"expert {expert} has no shadow replica on device {device}"
                )
            dropped.add(key)

    def fail_device(self, device: int) -> tuple[np.ndarray, np.ndarray]:
        """Fail-stop ``device`` on every layer.

        Drops the device's natives and shadows on every layer and marks
        it dead, so it has no free shadow slot from then on.  Returns the
        ``(layer, expert)`` index arrays of the experts this failure
        orphaned, each layer's in host order (natives, then shadows by
        stamp), for the repair path.
        Idempotent.
        """
        self._check_device(device)
        if device in self._dead_devices:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        self._dead_devices.add(device)
        natives = np.flatnonzero(self.native_devices == device)
        layers, experts, devices, stamps = self._entry_data[:, : self._entry_count]
        gone = np.flatnonzero(devices == device)
        shadow_layers, shadow_experts = layers[gone], experts[gone]
        shadow_stamps = stamps[gone]
        for layer, expert in zip(shadow_layers.tolist(), shadow_experts.tolist()):
            self._entry_remove(layer, expert, device)
        self._counts[:, natives] -= 1
        np.subtract.at(self._counts, (shadow_layers, shadow_experts), 1)
        self._shadow_counts[:, device] = 0
        self._versions += natives.size
        np.add.at(self._versions, shadow_layers, 1)
        self._invalidate_entries()
        # A native stamps its expert, below every shadow stamp.
        lost_layers = np.concatenate(
            [np.repeat(np.arange(self.num_layers), natives.size), shadow_layers]
        )
        lost_experts = np.concatenate([np.tile(natives, self.num_layers), shadow_experts])
        lost_stamps = np.concatenate([np.tile(natives, self.num_layers), shadow_stamps])
        order = np.lexsort((lost_stamps, lost_layers))
        lost_layers, lost_experts = lost_layers[order], lost_experts[order]
        orphan = self._counts[lost_layers, lost_experts] == 0
        return lost_layers[orphan], lost_experts[orphan]

    def reset_shadows(self) -> None:
        """Drop every shadow replica on every layer.

        Each layer's version advances by its dropped replicas.  After
        device failures the native layout excludes dead natives, so an
        expert whose native died comes out orphaned.
        """
        if self._entry_count == 0:
            return
        layers = self._entry_data[0, : self._entry_count]
        self._versions += np.bincount(layers, minlength=self.num_layers)
        live = ~np.isin(self.native_devices, list(self._dead_devices))
        self._counts[:] = live
        self._shadow_counts[:] = 0
        self._entry_count = 0
        self._entry_pos.clear()
        self._invalidate_entries()

    # -- internals ----------------------------------------------------------------

    def _check_layer(self, layer: int) -> None:
        if not (0 <= layer < self.num_layers):
            raise ValueError(f"layer {layer} out of range (0..{self.num_layers - 1})")

    def _check_expert(self, expert: int) -> None:
        if not (0 <= expert < self.num_experts):
            raise ValueError(f"expert {expert} out of range (0..{self.num_experts - 1})")

    def _check_device(self, device: int) -> None:
        if not (0 <= device < self.num_devices):
            raise ValueError(f"device {device} out of range (0..{self.num_devices - 1})")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StackedPlacement({self.num_layers} layers x {self.num_experts} "
            f"experts on {self.num_devices} devices, {self._entry_count} shadow replicas)"
        )

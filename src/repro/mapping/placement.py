"""Expert placement: native experts plus shadow-slot replicas.

Native placement is the uniform EP layout (expert ``e`` lives on device
``e * D // E``).  Balancers replicate hot experts into other devices'
*shadow slots* (Fig. 7a); a replicated expert's tokens split equally across
its replicas, mirroring the ``Load_e / Num_e`` sharing rule of
Algorithm 1.
"""

import copy
from typing import NamedTuple

import numpy as np

from repro import sanitize


class ExpertPlacement:
    """Mutable expert -> device assignment with bounded shadow capacity.

    Alongside the per-expert replica lists, the placement incrementally
    maintains a dense ``(num_experts, num_devices)`` replica matrix, the
    per-expert replica counts, and the destination-share matrix
    (``replica_matrix / counts``), so balancers and the serving engine can
    price heats and device loads with matrix products instead of Python
    loops over experts and replicas.  A monotonic :attr:`version` counter
    bumps on every mutation so derived caches (the all-to-all pricer's
    layer states) invalidate precisely.
    """

    def __init__(
        self,
        num_experts: int,
        num_devices: int,
        shadow_slots: int = 1,
    ) -> None:
        if num_experts <= 0 or num_devices <= 0:
            raise ValueError("num_experts and num_devices must be positive")
        if shadow_slots < 0:
            raise ValueError(f"shadow_slots must be >= 0, got {shadow_slots}")
        self.num_experts = num_experts
        self.num_devices = num_devices
        self.shadow_slots = shadow_slots
        self._native: list[list[int]] = [[] for _ in range(num_devices)]
        self._shadow: list[list[int]] = [[] for _ in range(num_devices)]
        self._replicas: dict[int, list[int]] = {}
        self._matrix = np.zeros((num_experts, num_devices))
        self._counts = np.zeros(num_experts, dtype=np.int64)
        self._shadow_counts = np.zeros(num_devices, dtype=np.int64)
        self._dest_share = np.zeros((num_experts, num_devices))
        self._shadow_mask = np.zeros((num_experts, num_devices), dtype=bool)
        self._dead_devices: set[int] = set()
        self._version = 0
        for expert in range(num_experts):
            device = self.native_device(expert)
            self._native[device].append(expert)
            self._replicas[expert] = [device]
            self._matrix[expert, device] = 1.0
            self._counts[expert] = 1
            self._dest_share[expert, device] = 1.0

    # -- construction ----------------------------------------------------------

    def native_device(self, expert: int) -> int:
        """Uniform EP layout: contiguous expert blocks across devices."""
        self._check_expert(expert)
        return expert * self.num_devices // self.num_experts

    @classmethod
    def uniform(
        cls, num_experts: int, num_devices: int, shadow_slots: int = 1
    ) -> "ExpertPlacement":
        return cls(num_experts, num_devices, shadow_slots)

    def clone(self) -> "ExpertPlacement":
        return copy.deepcopy(self)

    # -- queries ----------------------------------------------------------------

    def replicas(self, expert: int) -> list[int]:
        """Devices hosting ``expert`` (native first, then shadows)."""
        self._check_expert(expert)
        return list(self._replicas[expert])

    def num_replicas(self, expert: int) -> int:
        self._check_expert(expert)
        return len(self._replicas[expert])

    def experts_on(self, device: int) -> list[int]:
        """All experts served by ``device`` (native + shadow replicas)."""
        self._check_device(device)
        return self._native[device] + self._shadow[device]

    def native_experts_on(self, device: int) -> list[int]:
        self._check_device(device)
        return list(self._native[device])

    def shadow_free(self, device: int) -> int:
        self._check_device(device)
        if device in self._dead_devices:
            return 0
        return self.shadow_slots - len(self._shadow[device])

    @property
    def dead_devices(self) -> frozenset[int]:
        """Devices removed by :meth:`fail_device` (empty when healthy)."""
        return frozenset(self._dead_devices)

    def orphaned_experts(self) -> list[int]:
        """Experts with zero live replicas (only possible after a failure)."""
        if not self._dead_devices:
            return []
        return np.nonzero(self._counts == 0)[0].tolist()

    def hosts(self, device: int, expert: int) -> bool:
        return device in self._replicas[expert]

    def destinations(self, expert: int) -> list[tuple[int, float]]:
        """Replica devices with equal token shares (the Load/Num rule).

        An expert orphaned by :meth:`fail_device` has none: its tokens go
        nowhere, as its all-zero share row says.
        """
        devices = self._replicas[expert]
        if not devices:
            return []
        share = 1.0 / len(devices)
        return [(device, share) for device in devices]

    # -- vectorized views --------------------------------------------------------

    @property
    def replica_matrix(self) -> np.ndarray:
        """Read-only ``(num_experts, num_devices)`` 0/1 replica matrix."""
        view = self._matrix.view()
        view.flags.writeable = False
        return view

    @property
    def replica_counts(self) -> np.ndarray:
        """Read-only per-expert replica counts (row sums of the matrix)."""
        view = self._counts.view()
        view.flags.writeable = False
        return view

    @property
    def shadow_counts(self) -> np.ndarray:
        """Read-only per-device count of occupied shadow slots."""
        view = self._shadow_counts.view()
        view.flags.writeable = False
        return view

    @property
    def destination_shares(self) -> np.ndarray:
        """Read-only ``(num_experts, num_devices)`` token-share matrix.

        Row ``e`` holds the Load/Num dispatch share of each replica device
        (``1 / num_replicas`` on hosting devices, 0 elsewhere), maintained
        incrementally on add/drop.
        """
        view = self._dest_share.view()
        view.flags.writeable = False
        return view

    @property
    def version(self) -> int:
        """Monotonic counter bumped on every add/drop (migration commit).

        Derived structures — the all-to-all pricer's layer states — key
        their validity on ``(placement, version)``.
        """
        return self._version

    def shadow_entries(self) -> list[tuple[int, int]]:
        """All ``(device, expert)`` shadow replicas, device-major order.

        Within a device, entries come out expert-ascending.  A device never
        hosts two shadow replicas of the same expert, so any within-device
        order yields identical eviction decisions — the per-expert walk
        order across devices (device-major) is what matters.
        """
        devices, experts = self.shadow_entry_arrays()
        return list(zip(devices.tolist(), experts.tolist()))

    def shadow_entry_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Shadow replicas as parallel ``(devices, experts)`` index arrays,
        device-major — one ``nonzero`` over the maintained shadow mask
        instead of a Python walk over per-device lists."""
        devices, experts = np.nonzero(self._shadow_mask.T)
        return devices, experts

    # -- mutation ----------------------------------------------------------------

    def add_replica(self, expert: int, device: int) -> None:
        """Copy ``expert`` into a shadow slot of ``device``.

        Raises ValueError when the device already hosts the expert or has no
        free shadow slot — callers check capacity first (Algorithm 1 line 6).
        """
        self._check_expert(expert)
        self._check_device(device)
        if self.hosts(device, expert):
            raise ValueError(f"device {device} already hosts expert {expert}")
        if self.shadow_free(device) <= 0:
            raise ValueError(f"device {device} has no free shadow slot")
        self._shadow[device].append(expert)
        self._replicas[expert].append(device)
        self._matrix[expert, device] = 1.0
        self._counts[expert] += 1
        self._shadow_counts[device] += 1
        self._shadow_mask[expert, device] = True
        self._dest_share[expert] = self._matrix[expert] / self._counts[expert]
        self._version += 1

    def drop_replica(self, expert: int, device: int) -> None:
        """Release a shadow replica (never the native copy)."""
        self._check_expert(expert)
        self._check_device(device)
        if expert not in self._shadow[device]:
            raise ValueError(
                f"expert {expert} has no shadow replica on device {device}"
            )
        self._shadow[device].remove(expert)
        self._replicas[expert].remove(device)
        self._matrix[expert, device] = 0.0
        self._counts[expert] -= 1
        self._shadow_counts[device] -= 1
        self._shadow_mask[expert, device] = False
        # Dropping a repaired expert's last replica orphans it: zero shares.
        count = self._counts[expert]
        self._dest_share[expert] = self._matrix[expert] / count if count else 0.0
        self._version += 1

    def add_replicas(self, experts: np.ndarray, devices: np.ndarray) -> None:
        """Batched :meth:`add_replica` over parallel index arrays.

        Validates every entry up front (sequential semantics: an entry
        sees the slots and replicas of the entries before it), then applies
        the list bookkeeping per entry but the dense tensors — replica
        matrix, counts, shadow counts, mask, and the destination-share
        rows — in single vectorized updates.  The final dense state is
        bitwise identical to the sequential path (each touched share row
        ends as ``matrix_row / count``, computed once), and the version
        advances by the batch size.
        """
        experts = np.asarray(experts, dtype=np.int64)
        devices = np.asarray(devices, dtype=np.int64)
        if experts.size == 0:
            return
        self._check_adds(experts, devices)
        self._apply_adds(experts, devices)

    def _check_adds(self, experts: np.ndarray, devices: np.ndarray) -> None:
        """Raise ``ValueError`` unless every add of the batch is valid in
        sequence; changes nothing."""
        pending: set[tuple[int, int]] = set()
        pending_per_device: dict[int, int] = {}
        for expert, device in zip(experts.tolist(), devices.tolist()):
            self._check_expert(expert)
            self._check_device(device)
            if self.hosts(device, expert) or (expert, device) in pending:
                raise ValueError(f"device {device} already hosts expert {expert}")
            if self.shadow_free(device) - pending_per_device.get(device, 0) <= 0:
                raise ValueError(f"device {device} has no free shadow slot")
            pending.add((expert, device))
            pending_per_device[device] = pending_per_device.get(device, 0) + 1

    def _apply_adds(self, experts: np.ndarray, devices: np.ndarray) -> None:
        """Apply a batch of adds that :meth:`_check_adds` accepted."""
        for expert, device in zip(experts.tolist(), devices.tolist()):
            self._shadow[device].append(expert)
            self._replicas[expert].append(device)
        self._matrix[experts, devices] = 1.0
        np.add.at(self._counts, experts, 1)
        np.add.at(self._shadow_counts, devices, 1)
        self._shadow_mask[experts, devices] = True
        rows = np.unique(experts)
        self._dest_share[rows] = self._matrix[rows] / self._counts[rows, None]
        self._version += experts.size

    def drop_replicas(self, experts: np.ndarray, devices: np.ndarray) -> None:
        """Batched :meth:`drop_replica` (vectorized dense updates)."""
        experts = np.asarray(experts, dtype=np.int64)
        devices = np.asarray(devices, dtype=np.int64)
        if experts.size == 0:
            return
        self._check_drops(experts, devices)
        self._apply_drops(experts, devices)

    def _check_drops(self, experts: np.ndarray, devices: np.ndarray) -> None:
        """Raise ``ValueError`` unless every drop of the batch names a
        distinct shadow replica; changes nothing."""
        dropped: set[tuple[int, int]] = set()
        for expert, device in zip(experts.tolist(), devices.tolist()):
            self._check_expert(expert)
            self._check_device(device)
            if expert not in self._shadow[device] or (expert, device) in dropped:
                raise ValueError(
                    f"expert {expert} has no shadow replica on device {device}"
                )
            dropped.add((expert, device))

    def _apply_drops(self, experts: np.ndarray, devices: np.ndarray) -> None:
        """Apply a batch of drops that :meth:`_check_drops` accepted."""
        for expert, device in zip(experts.tolist(), devices.tolist()):
            self._shadow[device].remove(expert)
            self._replicas[expert].remove(device)
        self._matrix[experts, devices] = 0.0
        np.subtract.at(self._counts, experts, 1)
        np.subtract.at(self._shadow_counts, devices, 1)
        self._shadow_mask[experts, devices] = False
        rows = np.unique(experts)
        counts = self._counts[rows, None]
        share_rows = np.zeros_like(self._matrix[rows])
        np.divide(self._matrix[rows], counts, out=share_rows, where=counts > 0)
        self._dest_share[rows] = share_rows
        self._version += experts.size

    def fail_device(self, device: int) -> list[int]:
        """Fail-stop: drop every replica — native and shadow — on ``device``.

        The device is marked dead (``shadow_free`` reports 0, so planners
        never target it again) and the experts left with *zero* replicas
        are returned: those are orphaned until a repair re-replicates them
        onto a survivor.  Idempotent — failing a dead device is a no-op.
        """
        self._check_device(device)
        if device in self._dead_devices:
            return []
        self._dead_devices.add(device)
        lost = self._native[device] + self._shadow[device]
        if not lost:
            return []
        for expert in lost:
            self._replicas[expert].remove(device)
        self._native[device].clear()
        self._shadow[device].clear()
        self._matrix[:, device] = 0.0
        rows = np.array(sorted(lost), dtype=np.int64)
        self._counts[rows] -= 1
        self._shadow_counts[device] = 0
        self._shadow_mask[:, device] = False
        counts = self._counts[rows, None]
        share_rows = np.zeros_like(self._matrix[rows])
        np.divide(self._matrix[rows], counts, out=share_rows, where=counts > 0)
        self._dest_share[rows] = share_rows
        self._version += len(lost)
        return [expert for expert in lost if self._counts[expert] == 0]

    def reset_shadows(self) -> None:
        """Drop every shadow replica, returning to the native layout.

        Rebuilds the dense state wholesale (one masked assignment per
        tensor) instead of paying a per-drop dest-share row update; the
        version still advances once per dropped replica so derived caches
        observe the same counter as the incremental path.  After device
        failures the "native layout" excludes dead natives — an expert
        whose native died and whose only replicas were shadows comes out
        orphaned (a reset explicitly discards repairs).
        """
        dropped = int(self._shadow_mask.sum())
        if dropped == 0:
            return
        self._matrix[self._shadow_mask] = 0.0
        if self._dead_devices:
            self._counts[:] = self._matrix.sum(axis=1)
            counts = self._counts[:, None]
            self._dest_share[:] = 0.0
            np.divide(
                self._matrix, counts, out=self._dest_share, where=counts > 0
            )
            dead = self._dead_devices
            for expert in range(self.num_experts):
                native = expert * self.num_devices // self.num_experts
                self._replicas[expert] = [] if native in dead else [native]
        else:
            self._dest_share[:] = self._matrix
            self._counts[:] = 1
            for expert in range(self.num_experts):
                del self._replicas[expert][1:]
        self._shadow_counts[:] = 0
        self._shadow_mask[:] = False
        for device in range(self.num_devices):
            self._shadow[device].clear()
        self._version += dropped

    # -- internals ----------------------------------------------------------------

    def _check_expert(self, expert: int) -> None:
        if not (0 <= expert < self.num_experts):
            raise ValueError(f"expert {expert} out of range (0..{self.num_experts - 1})")

    def _check_device(self, device: int) -> None:
        if not (0 <= device < self.num_devices):
            raise ValueError(f"device {device} out of range (0..{self.num_devices - 1})")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        shadows = sum(len(entries) for entries in self._shadow)
        return (
            f"ExpertPlacement({self.num_experts} experts on "
            f"{self.num_devices} devices, {shadows} shadow replicas)"
        )


#: Host-order stamp marking "device does not host this expert".
_NO_HOST = np.iinfo(np.int64).max


class ReplicaEntries(NamedTuple):
    """Every live ``(layer, expert, device)`` hosting relation of a stack.

    Entries are grouped by ``(layer, device)`` in ascending order; within
    a group the natives come first, then the shadows, each
    expert-ascending.  ``share`` is the entry's destination share and
    ``bounds[l]:bounds[l + 1]`` is layer ``l``'s slice.
    """

    layer: np.ndarray  # (entries,)
    expert: np.ndarray  # (entries,)
    device: np.ndarray  # (entries,)
    share: np.ndarray  # (entries,) destination share of each entry
    bounds: np.ndarray  # (layers + 1,) per-layer slice bounds


class StackedPlacement:
    """All sparse layers' expert placements as dense layer-stacked tensors.

    One :class:`ExpertPlacement` per layer remains the bookkeeping ground
    truth (replica-order lists and the per-layer version counters the
    all-to-all pricer caches against), while the stack maintains mirrored
    ``(layers, experts, devices)`` tensors so the balancers can compute
    heats and eviction candidates for every layer in single vectorized
    operations.  The serving step's sums over hosting relations — device
    loads, MoE rooflines and all-to-all cells — run over the cached
    :meth:`replica_entries` table instead, since those tensors are almost
    all zeros.

    Mutations must go through this class (:meth:`add_replica`,
    :meth:`drop_replica`, :meth:`drop_replicas`) so the layer objects and
    the stacked mirrors stay coherent; :meth:`check_synced` asserts that
    invariant for tests.

    The ``host_order`` tensor assigns every (layer, expert, device) hosting
    relation a stamp reproducing the per-layer ``experts_on`` enumeration
    order — natives stamp ``expert`` (ascending, matching the init loop),
    shadows stamp ``num_experts + insertion counter`` — so vectorized
    argmax tie-breaks can replicate ``max()`` over those lists exactly.
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
        self.num_layers = num_layers
        self.num_experts = num_experts
        self.num_devices = num_devices
        self.shadow_slots = shadow_slots
        self._layers = [
            ExpertPlacement(num_experts, num_devices, shadow_slots=shadow_slots)
            for _ in range(num_layers)
        ]
        self._tensor = np.stack([layer._matrix for layer in self._layers])
        self._counts = np.stack([layer._counts for layer in self._layers])
        self._shadow_counts = np.stack(
            [layer._shadow_counts for layer in self._layers]
        )
        self._shadow_mask = np.zeros(
            (num_layers, num_experts, num_devices), dtype=bool
        )
        self._versions = np.zeros(num_layers, dtype=np.int64)
        self._order = np.full(
            (num_layers, num_experts, num_devices), _NO_HOST, dtype=np.int64
        )
        natives = self.native_devices
        self._order[:, np.arange(num_experts), natives] = np.arange(num_experts)
        self._order_next = np.full(num_layers, num_experts, dtype=np.int64)
        # Shadow entries as swap-removable parallel arrays: O(1) add/drop,
        # one small lexsort per (mutation epoch, query).
        self._entry_data = np.zeros((3, 64), dtype=np.int64)
        self._entry_count = 0
        self._entry_pos: dict[tuple[int, int, int], int] = {}
        self._shadow_entries_cache: tuple[
            np.ndarray, np.ndarray, np.ndarray
        ] | None = None
        self._replica_entries: ReplicaEntries | None = None
        self._dead_devices: set[int] = set()

    # -- queries ----------------------------------------------------------------

    def layer(self, layer: int) -> ExpertPlacement:
        """The per-layer placement object (zero-copy views, the pricer's
        layer-state key).  Treat it as read-only; mutate via the stack."""
        return self._layers[layer]

    @property
    def layers(self) -> list[ExpertPlacement]:
        return list(self._layers)

    @property
    def native_devices(self) -> np.ndarray:
        """Per-expert native device (identical across layers)."""
        experts = np.arange(self.num_experts, dtype=np.int64)
        return experts * self.num_devices // self.num_experts

    @property
    def replica_tensor(self) -> np.ndarray:
        """Read-only ``(layers, experts, devices)`` 0/1 replica tensor."""
        view = self._tensor.view()
        view.flags.writeable = False
        return view

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
    def destination_shares(self) -> np.ndarray:
        """Read-only ``(layers, experts, devices)`` token-share tensor,
        stacked from the layer objects on each call: the serving step
        sums over :meth:`replica_entries` instead, so the stack keeps no
        share mirror."""
        shares = np.stack([layer._dest_share for layer in self._layers])
        shares.flags.writeable = False
        return shares

    @property
    def shadow_mask(self) -> np.ndarray:
        """Read-only ``(layers, experts, devices)`` shadow-replica mask."""
        view = self._shadow_mask.view()
        view.flags.writeable = False
        return view

    @property
    def host_order(self) -> np.ndarray:
        """Read-only host-order stamps (``_NO_HOST`` where not hosting)."""
        view = self._order.view()
        view.flags.writeable = False
        return view

    @property
    def versions(self) -> np.ndarray:
        """Read-only per-layer version counters (mirror the layer objects)."""
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
            layers, experts, devices = self._entry_data[:, : self._entry_count]
            order = np.lexsort((devices, experts, layers))
            self._shadow_entries_cache = sanitize.freeze(
                (layers[order], experts[order], devices[order])
            )
        return self._shadow_entries_cache

    def replica_entries(self) -> ReplicaEntries:
        """Every live hosting relation, natives and shadows, as one
        entry table (see :class:`ReplicaEntries`).

        Sums over hosting relations — MoE rooflines, device loads, the
        all-to-all pricer's cells — run over these entries instead of the
        mostly-zero ``(layers, experts, devices)`` tensors.  Built after a
        mutation from the native layout and the shadow-entry table, with
        one sort; cached until the next mutation.
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
        shadow_layers, shadow_experts, shadow_devices = self._entry_data[
            :, : self._entry_count
        ]
        layer = np.concatenate(
            [np.repeat(np.arange(num_layers), experts.size), shadow_layers]
        )
        expert = np.concatenate([np.tile(experts, num_layers), shadow_experts])
        device = np.concatenate([np.tile(natives, num_layers), shadow_devices])
        shadow = np.arange(layer.size) >= layer.size - shadow_layers.size
        # Keys are unique: group by (layer, device), natives before
        # shadows, experts ascending within each.
        order = np.argsort(
            ((layer * num_devices + device) * 2 + shadow) * num_experts + expert
        )
        layer, expert, device = layer[order], expert[order], device[order]
        return ReplicaEntries(
            layer=layer,
            expert=expert,
            device=device,
            # Every share is 1 / replicas, as the layer objects compute it.
            share=1.0 / self._counts[layer, expert],
            bounds=np.searchsorted(layer, np.arange(num_layers + 1)),
        )

    def _invalidate_entries(self) -> None:
        """Drop the cached entry tables; every mutation calls this."""
        self._shadow_entries_cache = None
        self._replica_entries = None

    def _entry_add(self, layer: int, expert: int, device: int) -> None:
        if self._entry_count == self._entry_data.shape[1]:
            self._entry_data = np.concatenate(
                [self._entry_data, np.zeros_like(self._entry_data)], axis=1
            )
        slot = self._entry_count
        self._entry_data[:, slot] = (layer, expert, device)
        self._entry_pos[(layer, expert, device)] = slot
        self._entry_count += 1

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
        """Copy ``expert`` into a shadow slot of ``device`` on ``layer``."""
        target = self._layers[layer]
        target.add_replica(expert, device)
        self._tensor[layer, expert, device] = 1.0
        self._counts[layer, expert] += 1
        self._shadow_counts[layer, device] += 1
        self._shadow_mask[layer, expert, device] = True
        self._order[layer, expert, device] = self._order_next[layer]
        self._order_next[layer] += 1
        self._versions[layer] = target.version
        self._entry_add(layer, expert, device)
        self._invalidate_entries()

    def drop_replica(self, layer: int, expert: int, device: int) -> None:
        """Release a shadow replica on ``layer`` (never the native copy)."""
        target = self._layers[layer]
        target.drop_replica(expert, device)
        self._tensor[layer, expert, device] = 0.0
        self._counts[layer, expert] -= 1
        self._shadow_counts[layer, device] -= 1
        self._shadow_mask[layer, expert, device] = False
        self._order[layer, expert, device] = _NO_HOST
        self._versions[layer] = target.version
        self._entry_remove(layer, expert, device)
        self._invalidate_entries()

    def add_replicas(
        self,
        layer_idx: np.ndarray,
        expert_idx: np.ndarray,
        device_idx: np.ndarray,
    ) -> None:
        """Batched :meth:`add_replica` over parallel index arrays.

        Entries are grouped per touched layer (boolean masking preserves
        their relative order, so host-order stamps come out exactly as the
        sequential walk would assign them) and each layer's dense mirrors
        update in one vectorized pass — bursty triggers that commit many
        migrations at once no longer pay a per-replica dest-share rebuild.
        Every layer's entries are validated before any layer changes, so a
        batch that raises leaves the stack as it was.
        """
        batches = self._layer_batches(layer_idx, expert_idx, device_idx)
        for layer, experts, devices in batches:
            self._layers[layer]._check_adds(experts, devices)
        self._invalidate_entries()
        for layer, experts, devices in batches:
            target = self._layers[layer]
            target._apply_adds(experts, devices)
            self._tensor[layer, experts, devices] = 1.0
            np.add.at(self._counts[layer], experts, 1)
            np.add.at(self._shadow_counts[layer], devices, 1)
            self._shadow_mask[layer, experts, devices] = True
            self._order[layer, experts, devices] = self._order_next[
                layer
            ] + np.arange(experts.size)
            self._order_next[layer] += experts.size
            self._versions[layer] = target.version
            for expert, device in zip(experts.tolist(), devices.tolist()):
                self._entry_add(layer, expert, device)

    def drop_replicas(
        self,
        layer_idx: np.ndarray,
        expert_idx: np.ndarray,
        device_idx: np.ndarray,
    ) -> None:
        """Batched :meth:`drop_replica` over parallel index arrays.

        Mirrors :meth:`add_replicas`: per-layer vectorized dense updates
        (one dest-share row rebuild per touched expert) instead of
        one-replica-at-a-time bookkeeping — the stale-eviction sweep can
        drop dozens of replicas per trigger — and no layer changes unless
        every layer's entries are valid.
        """
        batches = self._layer_batches(layer_idx, expert_idx, device_idx)
        for layer, experts, devices in batches:
            self._layers[layer]._check_drops(experts, devices)
        self._invalidate_entries()
        for layer, experts, devices in batches:
            target = self._layers[layer]
            target._apply_drops(experts, devices)
            self._tensor[layer, experts, devices] = 0.0
            np.subtract.at(self._counts[layer], experts, 1)
            np.subtract.at(self._shadow_counts[layer], devices, 1)
            self._shadow_mask[layer, experts, devices] = False
            self._order[layer, experts, devices] = _NO_HOST
            self._versions[layer] = target.version
            for expert, device in zip(experts.tolist(), devices.tolist()):
                self._entry_remove(layer, expert, device)

    @staticmethod
    def _layer_batches(
        layer_idx: np.ndarray, expert_idx: np.ndarray, device_idx: np.ndarray
    ) -> list[tuple[int, np.ndarray, np.ndarray]]:
        """``(layer, experts, devices)`` per touched layer, ascending, each
        layer's entries in batch order."""
        layer_idx = np.asarray(layer_idx, dtype=np.int64)
        expert_idx = np.asarray(expert_idx, dtype=np.int64)
        device_idx = np.asarray(device_idx, dtype=np.int64)
        batches = []
        for layer in np.unique(layer_idx).tolist():
            selected = layer_idx == layer
            batches.append((layer, expert_idx[selected], device_idx[selected]))
        return batches

    def fail_device(self, device: int) -> tuple[np.ndarray, np.ndarray]:
        """Fail-stop ``device`` on every layer.

        Batched :meth:`ExpertPlacement.fail_device`: the dense mirrors
        update column-wise, the swap-removable shadow-entry table drops
        the device's entries, and the ``(layer, expert)`` index arrays of
        the experts orphaned by this failure are returned for the repair
        path.  Idempotent.
        """
        if device in self._dead_devices:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        self._dead_devices.add(device)
        orphan_layers: list[int] = []
        orphan_experts: list[int] = []
        for index, layer in enumerate(self._layers):
            shadows = list(layer._shadow[device])
            orphans = layer.fail_device(device)
            for expert in shadows:
                self._entry_remove(index, expert, device)
            self._versions[index] = layer.version
            orphan_layers.extend([index] * len(orphans))
            orphan_experts.extend(orphans)
        self._tensor[:, :, device] = 0.0
        self._counts[:] = np.stack([layer._counts for layer in self._layers])
        self._shadow_counts[:, device] = 0
        self._shadow_mask[:, :, device] = False
        self._order[:, :, device] = _NO_HOST
        self._invalidate_entries()
        return (
            np.array(orphan_layers, dtype=np.int64),
            np.array(orphan_experts, dtype=np.int64),
        )

    def reset_shadows(self) -> None:
        """Drop every shadow replica on every layer."""
        for layer in self._layers:
            layer.reset_shadows()
        self._tensor[self._shadow_mask] = 0.0
        if self._dead_devices:
            self._counts[:] = self._tensor.sum(axis=2)
        else:
            self._counts[:] = 1
        self._shadow_counts[:] = 0
        self._order[self._shadow_mask] = _NO_HOST
        self._shadow_mask[:] = False
        self._versions[:] = [layer.version for layer in self._layers]
        self._entry_count = 0
        self._entry_pos.clear()
        self._invalidate_entries()

    # -- invariants ---------------------------------------------------------------

    def check_synced(self) -> None:
        """Assert the stacked mirrors agree with every layer object."""
        for index, layer in enumerate(self._layers):
            if self._versions[index] != layer.version:
                raise AssertionError(
                    f"layer {index} mutated outside the stack "
                    f"(version {layer.version} != mirror {self._versions[index]})"
                )
            np.testing.assert_array_equal(self._tensor[index], layer._matrix)
            np.testing.assert_array_equal(self._counts[index], layer._counts)
            np.testing.assert_array_equal(
                self._shadow_counts[index], layer._shadow_counts
            )
            np.testing.assert_array_equal(
                self._shadow_mask[index], layer._shadow_mask
            )
        entries = self.replica_entries()
        np.testing.assert_array_equal(
            entries.share,
            self.destination_shares[entries.layer, entries.expert, entries.device],
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        shadows = int(self._shadow_mask.sum())
        return (
            f"StackedPlacement({self.num_layers} layers x {self.num_experts} "
            f"experts on {self.num_devices} devices, {shadows} shadow replicas)"
        )

"""The dense per-layer placement: the test-only reference for the stack.

:class:`~repro.mapping.placement.StackedPlacement` is the one placement
type of the simulator: a sparse entry table over every layer, with the
natives implicit.  This module keeps the dense single-layer class it
replaced, unchanged.  :class:`ExpertPlacement` holds one layer's replica
lists and keeps ``(experts, devices)`` replica, share and shadow-mask
matrices in step with them, so tests can hold the stack's entry sums to
plain matrix products.  ``tests/placement_replay.py`` mutates one of
these per layer beside a stack, ``tests/balancer_reference.py`` balances
them, and ``tests/alltoall_reference.py`` prices them.

:func:`dense_device_token_loads` and :func:`dense_moe_peak_time` are the
dense single-layer forms of ``repro.analysis.load.device_token_loads``
and ``ComputeModel.moe_peak_arrays``: products with
:attr:`ExpertPlacement.replica_matrix`, where the production functions
sum the stack's replica entries.
"""

import copy

import numpy as np

from repro.engine.compute import RooflineTimes


class ExpertPlacement:
    """Mutable expert -> device assignment with bounded shadow capacity.

    Alongside the per-expert replica lists, the placement incrementally
    maintains a dense ``(num_experts, num_devices)`` replica matrix, the
    per-expert replica counts, and the destination-share matrix
    (``replica_matrix / counts``), so balancers and the serving engine can
    price heats and device loads with matrix products instead of Python
    loops over experts and replicas.  A monotonic :attr:`version` counter
    bumps on every mutation so derived caches invalidate precisely.
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
        self._check_device(device)
        self._check_expert(expert)
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
        """Monotonic counter bumped on every add/drop (migration commit),
        by the replicas each mutation touches."""
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


def dense_device_token_loads(
    expert_loads: np.ndarray, placement: ExpertPlacement
) -> np.ndarray:
    """Tokens each device processes, splitting replicated experts equally."""
    loads = np.asarray(expert_loads, dtype=float)
    if loads.shape != (placement.num_experts,):
        raise ValueError(
            f"expected {placement.num_experts} expert loads, got {loads.shape}"
        )
    counts = placement.replica_counts
    shares = np.divide(
        np.where(loads > 0, loads, 0.0),
        counts,
        out=np.zeros_like(loads),
        where=counts > 0,
    )
    return shares @ placement.replica_matrix


def dense_moe_peak_time(
    compute_model,
    expert_loads: np.ndarray,
    placement: ExpertPlacement,
    device_scale: np.ndarray | None = None,
) -> RooflineTimes:
    """The slowest device's MoE roofline — the layer's critical path —
    from per-device (compute, memory) arrays via the replica matrix.

    ``device_scale`` (per-device slowdown multipliers, straggler
    injection) scales both components; an orphaned expert (zero
    replicas after a fail-stop, before repair) contributes nothing.
    """
    loads = np.asarray(expert_loads, dtype=float)
    if loads.shape != (placement.num_experts,):
        raise ValueError(
            f"expected {placement.num_experts} expert loads, got {loads.shape}"
        )
    model, device = compute_model.model, compute_model.device
    active = (loads > 0).astype(float)
    counts = placement.replica_counts
    shares = np.divide(
        active * loads, counts, out=np.zeros_like(loads), where=counts > 0
    )
    matrix = placement.replica_matrix
    device_tokens = shares @ matrix
    device_active = active @ matrix
    compute = device_tokens * model.expert_flops_per_token / device.int8_ops
    memory = device_active * model.expert_bytes / device.hbm_bandwidth
    if device_scale is not None:
        compute = compute * device_scale
        memory = memory * device_scale
    slowest = int(np.argmax(compute + memory))
    return RooflineTimes(
        compute=float(compute[slowest]), memory=float(memory[slowest])
    )

"""Balancer interface: load prediction, device heat, migration planning.

A balancer manages every sparse layer's placement at once, as one
:class:`~repro.mapping.placement.StackedPlacement`: it predicts expert
loads by EWMA over iteration history (the temporal locality of Sec. V-B
makes history predictive), derives device *heat* (``sum of Load_e /
Num_e`` over hosted experts, Algorithm 1), evicts stale shadows and plans
shadow-slot migrations, each as vectorized operations over the layer axis
(the batched-rebalancing framing of the parallel-FEM load-balancing
literature), so model depth costs no Python dispatch.  The Eq. 2 trigger
(cumulative imbalance vs alpha, interval vs beta) lives in the serving
engine.

Bit-compatibility contract: a :class:`Balancer` drives the *same*
decision sequence as a list of per-layer balancers, one per layer (the
reference kept in ``tests/balancer_reference.py``), producing identical
migrations, placements and serving traces.  The load-bearing facts:

* heats sum each device's per-replica loads over the placement's replica
  entries; with at most two entries per device (one native plus one
  shadow slot) the sum is bitwise identical to the reference's ``vector @
  matrix`` product, whatever order either adds its terms in;
* ``np.add.at``/``np.subtract.at`` accumulate in flat index order, so
  pending contributions are applied per layer in the same set-iteration
  order as the reference's per-layer arrays;
* argmax/argmin return the first extremum, matching the reference's
  ``min(candidates)``/``max(experts)`` first-wins tie-breaks — with the
  placement's host-order stamps reproducing the ``experts_on`` and
  ``replicas`` list orders where the reference iterates them;
* planning runs as masked rounds over all layers at once; layers are
  independent in the reference (each balancer owns its state), so
  round-major execution with layer-major emission is decision-equivalent.
"""

import math
import numbers
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.mapping.placement import StackedPlacement
from repro.topology.base import Topology


@dataclass(frozen=True)
class Migration:
    """A planned expert weight copy into a shadow slot."""

    expert: int
    src: int
    dst: int
    volume: float

    def __post_init__(self) -> None:
        if not 0 < self.volume < math.inf:
            raise ValueError(f"migration volume must be positive and finite, got {self.volume}")
        if self.src == self.dst:
            raise ValueError(f"migration src == dst == {self.src}")


@dataclass(frozen=True)
class BalancerConfig:
    """Strategy knobs shared by all balancers.

    Attributes:
        ewma: weight of the newest observation in load prediction.
        max_migrations_per_trigger: plan size cap per trigger.
        drop_fraction: shadow replicas whose per-replica load falls below
            this fraction of mean device heat are evicted (free: routing
            simply stops using them; the native copy persists).
    """

    ewma: float = 0.5
    max_migrations_per_trigger: int = 8
    drop_fraction: float = 0.05

    def __post_init__(self) -> None:
        if not (0.0 < self.ewma <= 1.0):
            raise ValueError(f"ewma must be in (0, 1], got {self.ewma}")
        cap = self.max_migrations_per_trigger
        if not isinstance(cap, numbers.Integral) or cap <= 0:
            raise ValueError(
                f"max_migrations_per_trigger must be a positive integer, got {cap!r}"
            )
        if not (0.0 <= self.drop_fraction < 1.0):
            raise ValueError(f"drop_fraction must be in [0, 1), got {self.drop_fraction}")


class Balancer(ABC):
    """Balancing strategy over all layers' placements at once.

    ``observe`` takes ``(layers, experts)`` loads, ``heats`` returns
    ``(layers, devices)``, ``plan`` returns one migration list per layer,
    and ``commit_many``/``abandon`` take ``(layer, migration)`` pairs.
    """

    #: Invasive balancers put migration latency on the critical path.
    invasive: bool = True

    def __init__(
        self,
        placement: StackedPlacement,
        topology: Topology,
        expert_bytes: float,
        config: BalancerConfig | None = None,
    ) -> None:
        if not 0 < expert_bytes < math.inf:
            raise ValueError(f"expert_bytes must be positive and finite, got {expert_bytes}")
        if placement.num_devices != topology.num_devices:
            raise ValueError(
                f"placement spans {placement.num_devices} devices but the "
                f"topology has {topology.num_devices}"
            )
        self.placement = placement
        self.topology = topology
        self.expert_bytes = expert_bytes
        self.config = config or BalancerConfig()
        self.num_layers = placement.num_layers
        self.predicted_loads = np.zeros((placement.num_layers, placement.num_experts))
        #: Per-layer (expert, dst) in-flight sets.  Kept as Python sets with
        #: the same insertion/discard history as the reference's so the flat
        #: pending arrays enumerate each layer's entries in the identical
        #: set-iteration order (float accumulation order in ``heats``).
        self.pending: list[set[tuple[int, int]]] = [set() for _ in range(placement.num_layers)]
        self._pending_flat_cache: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._layer_range = np.arange(placement.num_layers)
        #: Device liveness under fault injection.  While every device is
        #: live (``_all_live``) each masked computation below keeps its
        #: original unmasked form — the fault machinery is bitwise free.
        self._live = np.ones(placement.num_devices, dtype=bool)
        self._all_live = True

    # -- faults ------------------------------------------------------------------

    @property
    def live_devices(self) -> np.ndarray:
        """Read-only per-device liveness mask (all True fault-free)."""
        view = self._live.view()
        view.flags.writeable = False
        return view

    def mark_device_failed(self, device: int) -> None:
        """Exclude a fail-stopped device from heat statistics and planning.

        The placement drop itself happens via
        :meth:`StackedPlacement.fail_device`; this records liveness so
        imbalance means/maxes ignore the dead column and planners never
        choose it as a destination.
        """
        if self._live[device]:
            self._live[device] = False
            self._all_live = False

    def plan_repairs(self) -> list[tuple[int, Migration]]:
        """Emergency re-replication of orphaned experts onto survivors.

        Bypasses the Eq. 2 trigger and ``beta_iters`` cooldown entirely:
        an orphaned expert serves *no* tokens, which is qualitatively
        worse than any imbalance, so repairs commit the same iteration the
        failure lands.  Each orphan goes to the coldest live device with a
        free shadow slot (net of in-flight migrations); when no slot is
        free anywhere, the coldest *droppable* shadow replica (one whose
        expert keeps >= 2 replicas) is force-evicted to make room.  The
        returned ``(layer, Migration)`` pairs feed :meth:`commit_many`;
        ``Migration.src`` records the dead native for provenance — the
        weights actually stream from the host side channel.
        """
        orphan_layers, orphan_experts = self.placement.orphaned()
        if orphan_layers.size == 0:
            return []
        heats = self.heats(include_pending=False)
        free = self._free_slots()
        natives = self.placement.native_devices
        repairs: list[tuple[int, Migration]] = []
        for layer, expert in zip(orphan_layers.tolist(), orphan_experts.tolist()):
            candidates = self._live & (free[layer] > 0)
            if candidates.any():
                dst = int(np.argmin(np.where(candidates, heats[layer], np.inf)))
            else:
                dst = self._force_evict(layer, heats[layer])
                if dst < 0:
                    continue
            repairs.append(
                (
                    layer,
                    Migration(
                        expert=expert,
                        src=int(natives[expert]),
                        dst=dst,
                        volume=self.expert_bytes,
                    ),
                )
            )
            free[layer, dst] -= 1
            heats[layer, dst] += self.predicted_loads[layer, expert]
        return repairs

    def _force_evict(self, layer_index: int, layer_heats: np.ndarray) -> int:
        """Drop the coldest droppable shadow on ``layer``; return its device.

        Walks live devices coldest-first and evicts the first shadow
        replica, in stamp order, whose expert keeps another copy (so
        eviction never creates a new orphan).  Returns -1 when nothing is
        droppable.
        """
        counts = self.placement.replica_counts[layer_index]
        for device in np.argsort(layer_heats, kind="stable").tolist():
            if not self._live[device]:
                continue
            for expert in self.placement.device_shadows(layer_index, device).tolist():
                if counts[expert] >= 2:
                    self.placement.drop_replica(layer_index, expert, device)
                    return device
        return -1

    # -- observation ------------------------------------------------------------

    def observe(self, layer_loads: np.ndarray) -> None:
        """Fold one iteration's ``(layers, experts)`` token counts in."""
        loads = np.asarray(layer_loads, dtype=float)
        expected = (self.placement.num_layers, self.placement.num_experts)
        if loads.shape != expected:
            raise ValueError(f"expected {expected} layer loads, got {loads.shape}")
        weight = self.config.ewma
        fresh = ~self.predicted_loads.any(axis=1)
        if fresh.any():
            self.predicted_loads[fresh] = loads[fresh]
        seen = ~fresh
        if seen.any():
            self.predicted_loads[seen] = (1 - weight) * self.predicted_loads[
                seen
            ] + weight * loads[seen]

    # -- pending bookkeeping -----------------------------------------------------

    def _pending_flat(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """In-flight migrations as flat (layers, experts, dsts) arrays,
        layer-major with each layer in its set-iteration order."""
        if self._pending_flat_cache is None:
            layer_idx: list[int] = []
            expert_idx: list[int] = []
            dst_idx: list[int] = []
            for layer, pend in enumerate(self.pending):
                if not pend:
                    continue
                experts, dsts = zip(*pend)
                layer_idx.extend([layer] * len(experts))
                expert_idx.extend(experts)
                dst_idx.extend(dsts)
            self._pending_flat_cache = (
                np.asarray(layer_idx, dtype=np.int64),
                np.asarray(expert_idx, dtype=np.int64),
                np.asarray(dst_idx, dtype=np.int64),
            )
        return self._pending_flat_cache

    def _pending_add(self, layer: int, expert: int, dst: int) -> None:
        self.pending[layer].add((expert, dst))
        self._pending_flat_cache = None

    def _pending_discard(self, layer: int, expert: int, dst: int) -> None:
        self.pending[layer].discard((expert, dst))
        self._pending_flat_cache = None

    def _replica_counts(self, include_pending: bool) -> np.ndarray:
        counts = self.placement.replica_counts.astype(float)
        if include_pending:
            layers, experts, _dsts = self._pending_flat()
            if layers.size:
                np.add.at(counts, (layers, experts), 1.0)
        return counts

    # -- heat -------------------------------------------------------------------

    def heats(self, include_pending: bool = True) -> np.ndarray:
        """Device heats for every layer: ``(layers, devices)``."""
        num_replicas = self._replica_counts(include_pending)
        per_replica = np.divide(
            self.predicted_loads,
            num_replicas,
            out=np.zeros_like(self.predicted_loads),
            where=num_replicas > 0,
        )
        heats = self.placement.device_sums(per_replica)
        if include_pending:
            layers, experts, dsts = self._pending_flat()
            if layers.size:
                np.add.at(heats, (layers, dsts), per_replica[layers, experts])
        return heats

    def imbalances(self, heats: np.ndarray | None = None) -> np.ndarray:
        """Per-layer imbalance degree (Eq. 2): (max heat - mean) / mean.

        ``heats`` may carry a precomputed pending-free heat matrix (callers
        that need it for eviction too avoid the second matmul).
        """
        if heats is None:
            heats = self.heats(include_pending=False)
        if self._all_live:
            mean = heats.mean(axis=1)
            peak = heats.max(axis=1)
        else:
            live = heats[:, self._live]
            mean = live.mean(axis=1)
            peak = live.max(axis=1)
        return np.divide(peak - mean, mean, out=np.zeros_like(mean), where=mean > 0)

    def imbalance_sum(self, heats: np.ndarray | None = None) -> float:
        """Cumulative imbalance over layers, summed in layer order (the
        reference's ``sum()`` over per-layer floats)."""
        return float(sum(self.imbalances(heats).tolist()))

    # -- eviction ---------------------------------------------------------------

    def evict_stale(self, heats: np.ndarray | None = None) -> int:
        """Drop shadow replicas below the heat threshold on every layer.

        The reference walks each layer's shadow entries device-major with a
        live per-expert replica counter.  Because a kept entry freezes the
        counter for its expert, the dropped entries of each (layer, expert)
        form a prefix of its device-major sequence: entry ``r`` drops iff
        ``predicted / (count - j) < threshold`` holds for every ``j <= r``.
        That prefix-AND is one vectorized pass over the shadow entries.

        ``heats`` may carry the pending-free heat matrix computed for the
        Eq. 2 trigger this iteration (nothing mutates between the two).
        """
        if heats is None:
            heats = self.heats(include_pending=False)
        if self._all_live:
            mean_heat = heats.mean(axis=1)
        else:
            mean_heat = heats[:, self._live].mean(axis=1)
        threshold = self.config.drop_fraction * mean_heat
        layer_idx, expert_idx, device_idx = self.placement.shadow_entry_arrays()
        if layer_idx.size == 0:
            return 0
        # Entries arrive grouped by (layer, expert) with devices ascending
        # — each group's device-major walk order.
        group_start = np.empty(layer_idx.size, dtype=bool)
        group_start[0] = True
        group_start[1:] = (layer_idx[1:] != layer_idx[:-1]) | (
            expert_idx[1:] != expert_idx[:-1]
        )
        position = np.arange(layer_idx.size)
        start_positions = position[group_start]
        group_sizes = np.diff(np.append(start_positions, layer_idx.size))
        rank = position - np.repeat(start_positions, group_sizes)

        counts = self.placement.replica_counts[layer_idx, expert_idx].astype(float)
        predicted = self.predicted_loads[layer_idx, expert_idx]
        below = (predicted / (counts - rank)) < threshold[layer_idx]
        below &= mean_heat[layer_idx] > 0
        # Never evict an expert's last replica.  Fault-free this is a
        # no-op (the native makes counts - rank >= 2 for every shadow
        # entry), but after a native's fail-stop a repaired shadow can be
        # the only copy — stale eviction must not re-orphan it.
        below &= (counts - rank) > 1.0
        fails = np.cumsum(~below)
        fails_before_group = np.repeat(
            fails[start_positions] - (~below[start_positions]), group_sizes
        )
        dropped = (fails - fails_before_group) == 0
        if not dropped.any():
            return 0
        self.placement.drop_replicas(
            layer_idx[dropped], expert_idx[dropped], device_idx[dropped]
        )
        return int(dropped.sum())

    # -- planning ---------------------------------------------------------------

    def _free_slots(self) -> np.ndarray:
        """Free shadow slots per (layer, device), net of in-flight."""
        free = self.placement.shadow_slots - self.placement.shadow_counts
        layers, _experts, dsts = self._pending_flat()
        if layers.size:
            np.subtract.at(free, (layers, dsts), 1)
        if not self._all_live:
            free[:, ~self._live] = 0
        return free

    def _hosts_mask(self, chosen_expert: np.ndarray) -> np.ndarray:
        """(layers, devices) mask of the devices that host, or have a
        pending migration of, each layer's chosen expert."""
        mask = np.zeros(
            (self.placement.num_layers, self.placement.num_devices), dtype=bool
        )
        entries = self.placement.replica_entries()
        hit = entries.expert == chosen_expert[entries.layer]
        mask[entries.layer[hit], entries.device[hit]] = True
        layers, experts, dsts = self._pending_flat()
        if layers.size:
            match = experts == chosen_expert[layers]
            mask[layers[match], dsts[match]] = True
        return mask

    @abstractmethod
    def plan(self, iteration: int) -> list[list[Migration]]:
        """Propose migrations for every layer; returns one list per layer."""

    def commit_many(self, items: list[tuple[int, Migration]]) -> None:
        """Activate completed migrations: the replicas start taking tokens.

        Decision-equivalent to committing one migration at a time: an
        item whose replica is already hosted, or repeats an earlier item,
        adds nothing.  The placement mutations land through one
        :meth:`StackedPlacement.add_new_replicas` call, and the pending
        sets drop the items in item order (their set order feeds the
        float sums of :meth:`heats`).  A batch that raises changes
        nothing.
        """
        if not items:
            return
        self.placement.add_new_replicas(
            np.array([layer for layer, _ in items], dtype=np.int64),
            np.array([migration.expert for _, migration in items], dtype=np.int64),
            np.array([migration.dst for _, migration in items], dtype=np.int64),
        )
        pending = self.pending
        for layer, migration in items:
            pending[layer].discard((migration.expert, migration.dst))
        self._pending_flat_cache = None

    def abandon(self, layer: int, migration: Migration) -> None:
        """Drop an in-flight migration on ``layer``."""
        self._pending_discard(layer, migration.expert, migration.dst)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.placement!r})"

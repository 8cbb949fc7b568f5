"""Per-layer balancers: the test-only reference for the stacked strategies.

:class:`repro.balancer.base.Balancer` and its strategies run every MoE
layer's balancing as layer-stacked array operations over one
:class:`~repro.mapping.placement.StackedPlacement`.  This module keeps the
implementations they replaced: one balancer instance manages one layer's
:class:`~repro.mapping.placement.ExpertPlacement`, predicts expert loads
from historical iteration statistics (EWMA — the temporal locality of
Sec. V-B makes history predictive), derives device *heat* (``sum of
Load_e / Num_e`` over hosted experts, Algorithm 1), and plans shadow-slot
migrations with plain Python loops.

``tests/balancer/test_stacked_oracle.py`` drives one instance per layer
beside a production engine through the same load stream and holds the
engine's plans, pending sets and placements to them, decision for
decision.  None of these classes subclasses the production ``Balancer``,
so ``ServingSimulator`` rejects them.
"""

from abc import ABC, abstractmethod

import numpy as np

from repro.balancer.base import BalancerConfig, Migration
from repro.mapping.placement import ExpertPlacement
from repro.topology.base import Topology

#: Default per-trigger plan cap for non-invasive balancing: continuous
#: fine-tuning plans at most a couple of migrations per trigger but
#: triggers freely (beta = 0 in the engine).
NONINVASIVE_PLAN_CAP = 2


class Balancer(ABC):
    """Per-layer balancing strategy over a mutable expert placement."""

    #: Invasive balancers put migration latency on the critical path.
    invasive: bool = True

    def __init__(
        self,
        placement: ExpertPlacement,
        topology: Topology,
        expert_bytes: float,
        config: BalancerConfig | None = None,
    ) -> None:
        if expert_bytes <= 0:
            raise ValueError(f"expert_bytes must be positive, got {expert_bytes}")
        self.placement = placement
        self.topology = topology
        self.expert_bytes = expert_bytes
        self.config = config or BalancerConfig()
        self.predicted_loads = np.zeros(placement.num_experts)
        #: (expert, dst) pairs with an in-flight migration.
        self.pending: set[tuple[int, int]] = set()

    # -- observation ------------------------------------------------------------

    def observe(self, expert_loads: np.ndarray) -> None:
        """Fold one iteration's per-expert token counts into the prediction."""
        loads = np.asarray(expert_loads, dtype=float)
        if loads.shape != (self.placement.num_experts,):
            raise ValueError(
                f"expected {self.placement.num_experts} expert loads, got {loads.shape}"
            )
        weight = self.config.ewma
        if not self.predicted_loads.any():
            self.predicted_loads = loads.copy()
        else:
            self.predicted_loads = (1 - weight) * self.predicted_loads + weight * loads

    # -- heat -------------------------------------------------------------------

    def _pending_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """In-flight migrations as parallel (experts, dsts) index arrays."""
        if not self.pending:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        experts, dsts = zip(*self.pending)
        return np.asarray(experts, dtype=np.int64), np.asarray(dsts, dtype=np.int64)

    def _replica_counts(self, include_pending: bool) -> np.ndarray:
        counts = self.placement.replica_counts.astype(float)
        if include_pending and self.pending:
            experts, _dsts = self._pending_arrays()
            np.add.at(counts, experts, 1.0)
        return counts

    def heats(self, include_pending: bool = True) -> np.ndarray:
        """Device heat: sum of per-replica predicted loads (Algorithm 1)."""
        num_replicas = self._replica_counts(include_pending)
        per_replica = np.divide(
            self.predicted_loads,
            num_replicas,
            out=np.zeros_like(self.predicted_loads),
            where=num_replicas > 0,
        )
        heats = per_replica @ self.placement.replica_matrix
        if include_pending and self.pending:
            experts, dsts = self._pending_arrays()
            np.add.at(heats, dsts, per_replica[experts])
        return heats

    def imbalance(self) -> float:
        """Layer imbalance degree: (max device heat - mean) / mean (Eq. 2)."""
        heats = self.heats(include_pending=False)
        mean = heats.mean()
        if mean <= 0:
            return 0.0
        return float((heats.max() - mean) / mean)

    # -- planning ---------------------------------------------------------------

    def _free_slots(self) -> np.ndarray:
        """Shadow slots free per device, net of in-flight migrations."""
        free = self.placement.shadow_slots - self.placement.shadow_counts
        if self.pending:
            _experts, dsts = self._pending_arrays()
            np.subtract.at(free, dsts, 1)
        return free

    @abstractmethod
    def plan(self, iteration: int) -> list[Migration]:
        """Propose migrations given current predictions and placement."""

    def commit(self, migration: Migration) -> None:
        """Activate a completed migration: the replica starts taking tokens."""
        self.pending.discard((migration.expert, migration.dst))
        if not self.placement.hosts(migration.dst, migration.expert):
            self.placement.add_replica(migration.expert, migration.dst)

    def abandon(self, migration: Migration) -> None:
        """Drop an in-flight migration (e.g. the target became hot)."""
        self.pending.discard((migration.expert, migration.dst))

    def evict_stale(self) -> int:
        """Drop shadow replicas that no longer pay their way; returns count."""
        heats = self.heats(include_pending=False)
        mean_heat = heats.mean()
        if mean_heat <= 0:
            return 0
        threshold = self.config.drop_fraction * mean_heat
        counts = self.placement.replica_counts.astype(float)
        dropped = 0
        # Only shadow replicas are candidates (at most shadow_slots per
        # device); counts track drops so later replicas of the same expert
        # see their share grow as siblings disappear.
        for device, expert in self.placement.shadow_entries():
            if self.predicted_loads[expert] / counts[expert] < threshold:
                self.placement.drop_replica(expert, device)
                counts[expert] -= 1
                dropped += 1
        return dropped

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.placement!r})"


class NoBalancer(Balancer):
    """Leaves the native expert placement untouched."""

    invasive = False

    def plan(self, iteration: int) -> list[Migration]:
        return []


class GreedyBalancer(Balancer):
    """Replicate the globally hottest expert onto the coldest device."""

    invasive = True

    def plan(self, iteration: int) -> list[Migration]:
        migrations: list[Migration] = []
        num_replicas = self._replica_counts(include_pending=True)
        heats = self.heats(include_pending=True)
        free_slots = self._free_slots()

        for _ in range(self.config.max_migrations_per_trigger):
            per_replica = self.predicted_loads / num_replicas
            hottest_expert = int(np.argmax(per_replica))
            share = per_replica[hottest_expert]
            if share <= 0:
                break

            hosts = set(self.placement.replicas(hottest_expert)) | {
                dst for exp, dst in self.pending if exp == hottest_expert
            }
            planned = {m.dst for m in migrations if m.expert == hottest_expert}
            candidates = [
                device
                for device in range(self.placement.num_devices)
                if device not in hosts
                and device not in planned
                and free_slots[device] > 0
            ]
            if not candidates:
                break
            coldest = min(candidates, key=lambda device: heats[device])

            # Sharing with one more replica lowers the per-replica share;
            # only migrate when that actually reduces the peak heat.
            new_share = self.predicted_loads[hottest_expert] / (
                num_replicas[hottest_expert] + 1
            )
            if heats[coldest] + new_share >= heats.max():
                break

            src = self.placement.replicas(hottest_expert)[0]
            migrations.append(
                Migration(
                    expert=hottest_expert,
                    src=src,
                    dst=coldest,
                    volume=self.expert_bytes,
                )
            )
            self.pending.add((hottest_expert, coldest))
            free_slots[coldest] -= 1
            # Update the working copies for the next round.
            delta = share - new_share
            for host in hosts:
                heats[host] -= delta
            heats[coldest] += new_share
            num_replicas[hottest_expert] += 1
        return migrations


class TopologyAwareBalancer(Balancer):
    """Algorithm 1: peak-reduction with nearest-destination selection."""

    invasive = True

    def plan(self, iteration: int) -> list[Migration]:
        migrations: list[Migration] = []
        num_replicas = self._replica_counts(include_pending=True)
        heats = self.heats(include_pending=True)
        free_slots = self._free_slots()

        for _ in range(self.config.max_migrations_per_trigger):
            hottest_device = int(np.argmax(heats))
            if heats[hottest_device] <= 0:
                break

            source_expert = self._hottest_expert_on(hottest_device, num_replicas)
            if source_expert is None:
                break
            share = self.predicted_loads[source_expert] / num_replicas[source_expert]
            new_share = self.predicted_loads[source_expert] / (
                num_replicas[source_expert] + 1
            )

            hosts = set(self.placement.replicas(source_expert)) | {
                dst for exp, dst in self.pending if exp == source_expert
            }
            planned = {m.dst for m in migrations if m.expert == source_expert}
            cold = [
                device
                for device in range(self.placement.num_devices)
                if device not in hosts
                and device not in planned
                and free_slots[device] > 0
                and heats[device] + new_share < heats[hottest_device]
            ]
            if not cold:
                break

            destination = min(
                cold, key=lambda device: self.topology.hops(hottest_device, device)
            )
            migrations.append(
                Migration(
                    expert=source_expert,
                    src=hottest_device,
                    dst=destination,
                    volume=self.expert_bytes,
                )
            )
            self.pending.add((source_expert, destination))
            free_slots[destination] -= 1
            delta = share - new_share
            for host in hosts:
                heats[host] -= delta
            heats[destination] += new_share
            num_replicas[source_expert] += 1
        return migrations

    def _hottest_expert_on(
        self, device: int, num_replicas: np.ndarray
    ) -> int | None:
        experts = self.placement.experts_on(device)
        if not experts:
            return None
        best = max(
            experts,
            key=lambda expert: self.predicted_loads[expert] / num_replicas[expert],
        )
        if self.predicted_loads[best] <= 0:
            return None
        return best


class NonInvasiveBalancer(TopologyAwareBalancer):
    """Topology-aware planning with hidden, multi-step migrations.

    Without a config it plans at most :data:`NONINVASIVE_PLAN_CAP`
    migrations per trigger; an explicit config is used as given.
    """

    invasive = False

    def __init__(
        self,
        placement: ExpertPlacement,
        topology: Topology,
        expert_bytes: float,
        config: BalancerConfig | None = None,
    ) -> None:
        if config is None:
            config = BalancerConfig(max_migrations_per_trigger=NONINVASIVE_PLAN_CAP)
        super().__init__(placement, topology, expert_bytes, config)

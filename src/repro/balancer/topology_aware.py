"""Topology-aware balancing — Algorithm 1 of the paper.

Differences from the greedy baseline, line by line with the paper:

* the migration *source* is the most popular expert on the highest-heat
  device (line 4) — inference only needs the peak reduced, not uniformity;
* the candidate set ``cold_d`` is every device that would stay below the
  current peak after hosting the expert (line 5);
* among candidates the **topologically nearest** one wins (line 7),
  minimising migration distance and hence latency.

Each planning round runs Algorithm 1's loop body for every layer at once.
"""

import numpy as np

from repro.balancer.base import Balancer, BalancerConfig, Migration
from repro.mapping.placement import ReplicaEntries, StackedPlacement
from repro.topology.base import Topology


class TopologyAwareBalancer(Balancer):
    """Algorithm 1: peak-reduction with nearest-destination selection."""

    invasive = True

    def __init__(
        self,
        placement: StackedPlacement,
        topology: Topology,
        expert_bytes: float,
        config: BalancerConfig | None = None,
    ) -> None:
        super().__init__(placement, topology, expert_bytes, config)
        self._hops_rows: dict[int, np.ndarray] = {}

    def _hops_row(self, src: int) -> np.ndarray:
        """Route hop counts from ``src`` to every device, cached."""
        row = self._hops_rows.get(src)
        if row is None:
            row = self.topology.hop_counts(
                src, np.arange(self.placement.num_devices)
            ).astype(float)
            self._hops_rows[src] = row
        return row

    def _hottest_hosted(
        self,
        entries: ReplicaEntries,
        entry_keys: np.ndarray,
        device: np.ndarray,
        per_replica: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per layer, the hottest expert hosted on ``device[layer]``, ties
        broken by the lowest host-order stamp (the ``experts_on`` order),
        and whether the device hosts any expert (0 stands in where not).

        ``entry_keys`` is ``layer * num_devices + device`` of every entry:
        ascending, so each device's entry run is one ``searchsorted``.
        """
        targets = self._layer_range * self.placement.num_devices + device
        starts = np.searchsorted(entry_keys, targets, side="left")
        sizes = np.searchsorted(entry_keys, targets, side="right") - starts
        firsts = np.cumsum(sizes) - sizes
        run = np.repeat(starts - firsts, sizes) + np.arange(sizes.sum())
        run_layer = np.repeat(self._layer_range, sizes)
        experts = entries.expert[run]
        loads = per_replica[run_layer, experts]
        order = np.lexsort((entries.stamp[run], -loads, run_layer))
        hosted = sizes > 0
        source = np.zeros(self.num_layers, dtype=np.int64)
        source[hosted] = experts[order[firsts[hosted]]]
        return source, hosted

    def plan(self, iteration: int) -> list[list[Migration]]:
        plans: list[list[Migration]] = [[] for _ in range(self.num_layers)]
        layer = self._layer_range
        num_replicas = self._replica_counts(include_pending=True)
        heats = self.heats(include_pending=True)
        free = self._free_slots()
        active = np.ones(self.num_layers, dtype=bool)
        entries = self.placement.replica_entries()
        entry_keys = entries.layer * self.placement.num_devices + entries.device

        for _ in range(self.config.max_migrations_per_trigger):
            hottest_device = np.argmax(heats, axis=1)
            active &= heats[layer, hottest_device] > 0
            if not active.any():
                break

            per_replica = np.divide(
                self.predicted_loads,
                num_replicas,
                out=np.zeros_like(self.predicted_loads),
                where=num_replicas > 0,
            )
            source, hosted = self._hottest_hosted(
                entries, entry_keys, hottest_device, per_replica
            )
            active &= hosted
            if not active.any():
                break
            active &= self.predicted_loads[layer, source] > 0
            if not active.any():
                break

            share = per_replica[layer, source]
            new_share = self.predicted_loads[layer, source] / (
                num_replicas[layer, source] + 1
            )
            hosts = self._hosts_mask(source)
            cold = (
                ~hosts
                & (free > 0)
                & (heats + new_share[:, None] < heats[layer, hottest_device][:, None])
                & active[:, None]
            )
            active &= cold.any(axis=1)
            if not active.any():
                break

            chosen = np.nonzero(active)[0]
            hops = np.stack(
                [self._hops_row(int(hottest_device[l])) for l in chosen.tolist()]
            )
            destination = np.full(self.num_layers, -1, dtype=np.int64)
            destination[chosen] = np.argmin(
                np.where(cold[chosen], hops, np.inf), axis=1
            )

            for index in chosen.tolist():
                expert = int(source[index])
                dst = int(destination[index])
                plans[index].append(
                    Migration(
                        expert=expert,
                        src=int(hottest_device[index]),
                        dst=dst,
                        volume=self.expert_bytes,
                    )
                )
                self._pending_add(index, expert, dst)
            delta = np.where(active, share - new_share, 0.0)
            heats -= np.where(hosts & active[:, None], delta[:, None], 0.0)
            heats[chosen, destination[chosen]] += new_share[chosen]
            free[chosen, destination[chosen]] -= 1
            num_replicas[chosen, source[chosen]] += 1
        return plans

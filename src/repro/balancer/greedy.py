"""Greedy (EPLB-style) balancing: hottest expert -> coldest device.

The baseline balancer from the paper's evaluation (Sec. VI-C, reference
[6]).  It is topology-blind: the destination is the globally coldest device
with a free shadow slot, however far the expert weights must travel — which
is what makes its invasive migrations expensive on a mesh.
"""

import numpy as np

from repro.balancer.base import Balancer, Migration


class GreedyBalancer(Balancer):
    """Replicate each layer's hottest expert onto its coldest device, in
    rounds over all layers at once."""

    invasive = True

    def plan(self, iteration: int) -> list[list[Migration]]:
        plans: list[list[Migration]] = [[] for _ in range(self.num_layers)]
        layer = self._layer_range
        num_replicas = self._replica_counts(include_pending=True)
        heats = self.heats(include_pending=True)
        free = self._free_slots()
        active = np.ones(self.num_layers, dtype=bool)
        natives = self.placement.native_devices

        for _ in range(self.config.max_migrations_per_trigger):
            # Guarded: an orphaned expert (zero replicas, repair pending)
            # contributes no per-replica load — identical to the plain
            # divide everywhere counts are positive.
            per_replica = np.divide(
                self.predicted_loads,
                num_replicas,
                out=np.zeros_like(self.predicted_loads),
                where=num_replicas > 0,
            )
            hottest = np.argmax(per_replica, axis=1)
            share = per_replica[layer, hottest]
            active &= share > 0
            if not active.any():
                break

            hosts = self._hosts_mask(hottest)
            candidates = ~hosts & (free > 0) & active[:, None]
            active &= candidates.any(axis=1)
            if not active.any():
                break
            coldest = np.argmin(np.where(candidates, heats, np.inf), axis=1)

            # Sharing with one more replica lowers the per-replica share;
            # only migrate when that actually reduces the peak heat.
            new_share = self.predicted_loads[layer, hottest] / (
                num_replicas[layer, hottest] + 1
            )
            active &= heats[layer, coldest] + new_share < heats.max(axis=1)
            if not active.any():
                break

            chosen = np.nonzero(active)[0]
            for index in chosen.tolist():
                expert = int(hottest[index])
                dst = int(coldest[index])
                src = int(natives[expert])
                if not self._all_live and not self._live[src]:
                    # Dead native: source the copy from the expert's first
                    # live replica by stamp instead.
                    src = self.placement.first_replica(index, expert)
                plans[index].append(
                    Migration(
                        expert=expert,
                        src=src,
                        dst=dst,
                        volume=self.expert_bytes,
                    )
                )
                self._pending_add(index, expert, dst)
            # Update the working copies for the next round.
            delta = np.where(active, share - new_share, 0.0)
            heats -= np.where(hosts & active[:, None], delta[:, None], 0.0)
            heats[chosen, coldest[chosen]] += new_share[chosen]
            free[chosen, coldest[chosen]] -= 1
            num_replicas[chosen, hottest[chosen]] += 1
        return plans

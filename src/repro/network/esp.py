"""Expert Sharding Parallelism (ESP) communication model (Sec. VI-B5).

Models with few, large experts (DBRX, Mixtral) can split each expert
across the devices of an ESP group.  Communication then has two parts:

1. **token gather** — a token must reach *every* member of its expert's ESP
   group (each member holds a weight slice), fetched from the holders in the
   mapping's ``token_holder_table()``.  On GPU clusters this is an
   all-to-all across groups; under ER-Mapping the ESP group is the FTD, and
   since every FTD already holds all tokens the gather collapses to
   intra-tile hops — "the all-to-all communication is eliminated".
2. **partial-sum all-reduce** — members of the group reduce their partial
   expert outputs, which dominates ESP latency.
"""

from dataclasses import dataclass

from repro.mapping.base import Mapping, MeshMapping
from repro.models.configs import MoEModelConfig
from repro.network.allreduce import CollectiveResult, ring_allreduce
from repro.network.phase import PhaseResult, simulate_phase
from repro.network.traffic import TrafficMatrix


@dataclass
class EspResult:
    """Token gather plus partial-sum all-reduce of one ESP MoE layer."""

    gather: PhaseResult
    allreduce: CollectiveResult

    @property
    def duration(self) -> float:
        return self.gather.duration + self.allreduce.duration


def _esp_groups(mapping: Mapping) -> list[list[int]]:
    """ESP groups sharing the FTD tile geometry.

    On meshes every mapping shards experts over the same contiguous
    ``(H/tpx) x (W/tpy)`` tiles — the tiles that ER-Mapping's FTDs occupy —
    so the baseline-vs-ER comparison isolates *token locality*: under ER
    each tile already holds every token, under the baseline mapping the
    gather must cross the mesh.  Switched fabrics use consecutive TP-sized
    runs.
    """
    if isinstance(mapping, MeshMapping):
        from repro.mapping.base import snake_order
        from repro.topology.mesh import Coord

        mesh = mapping.mesh
        tpx, tpy = mapping.tp_shape
        a = mesh.height // tpx
        b = mesh.width // tpy
        groups = []
        for p in range(tpx):
            for q in range(tpy):
                cells = [
                    (p * a + dx, q * b + dy) for dx in range(a) for dy in range(b)
                ]
                groups.append(
                    [mesh.device_at(Coord(x, y)) for x, y in snake_order(cells)]
                )
        return groups
    size = mapping.tp
    devices = list(mapping.topology.devices)
    return [devices[start : start + size] for start in range(0, len(devices), size)]


def simulate_esp(
    mapping: Mapping,
    model: MoEModelConfig,
    tokens_per_group: int,
) -> EspResult:
    """Price one ESP MoE layer under a mapping.

    Experts distribute round-robin across ESP groups; every token's
    activation must reach all members of the activated experts' groups,
    then each group all-reduces its partial sums.
    """
    if tokens_per_group <= 0:
        raise ValueError("tokens_per_group must be positive")
    topology = mapping.topology
    groups = _esp_groups(mapping)
    num_esp_groups = len(groups)

    # Expected share of a TP group's routed tokens landing on each ESP group.
    routed_volume = (
        tokens_per_group * model.experts_per_token * model.token_bytes
    )
    per_esp_volume = routed_volume / num_esp_groups

    table = mapping.token_holder_table()
    gather_traffic = TrafficMatrix()
    for tp_group in range(mapping.dp):
        for members in groups:
            for member in members:
                for holder, fraction in table.entries(tp_group, member):
                    gather_traffic.add(holder, member, per_esp_volume * fraction)
    gather = simulate_phase(topology, gather_traffic)

    # Partial sums: each ESP group reduces its assigned tokens' activations
    # across members.  Total routed tokens across all TP groups split evenly.
    # ESP rings snake inside pairwise link-disjoint tiles, so no staggering
    # is needed — the same ring schedule serves every mapping.
    reduce_volume = mapping.dp * per_esp_volume
    allreduce = ring_allreduce(topology, groups, reduce_volume, staggered=False)
    return EspResult(gather=gather, allreduce=allreduce)

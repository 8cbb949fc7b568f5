"""Walked ring collectives: the test-only reference for the plan pricing.

``repro.network.allreduce`` prices every ring collective from a cached
array plan.  This module keeps the per-flow walk the plans replaced:

* :func:`_run_ring_steps` walks each staggered flow's route link by link
  (``topology.route`` and :func:`degraded_bandwidth` per hop) and prices an
  unstaggered step as one merged :class:`TrafficMatrix` through
  ``simulate_phase``;
* :func:`degraded_bandwidth` is one link's effective bandwidth, the scalar
  form of the route cache's ``effective_bandwidth()``, and
  :func:`link_factor` the one-link form of ``TopologyHealth.link_factors``;
* :func:`line_allgather_across_wafers` is HER's inter-wafer line
  all-gather, built as a ``TrafficMatrix`` one transfer at a time;
* :func:`ring_allreduce`, :func:`ring_reduce_scatter`,
  :func:`ring_allgather`, :func:`hierarchical_allreduce` and
  :func:`simulate_allreduce` (a mapping's attention all-reduce, HER's
  two stages included) compose them as the production entry points do.

Nothing is cached and nothing checks the volume, so every call walks the
fabric as it stands.  The tests hold the plans to these bit for bit.
"""

from repro.faults.health import topology_health
from repro.mapping.base import Mapping
from repro.mapping.her import HierarchicalERMapping
from repro.network.allreduce import CollectiveResult
from repro.network.phase import simulate_phase
from repro.network.traffic import TrafficMatrix
from repro.topology.base import Topology
from repro.topology.mesh import Coord


def link_factor(health, key: tuple[int, int]) -> float:
    """One link's bandwidth factor under ``health``, 1.0 where undegraded."""
    return health.degraded_links.get(key, 1.0)


def degraded_bandwidth(topology, key: tuple[int, int]) -> float:
    """Effective bandwidth of one link: the scalar form of the route cache's
    ``effective_bandwidth()``, which forms the same product per link."""
    bandwidth = topology.links[key].bandwidth
    health = topology_health(topology)
    if health is None:
        return bandwidth
    return bandwidth * link_factor(health, key)


def _ring_step_traffic(groups: list[list[int]], chunk: float) -> list[TrafficMatrix]:
    """Per-group traffic of one bidirectional ring step.

    Every member sends half a chunk to its successor and half to its
    predecessor; the two directions ride opposite directed links.
    """
    per_group = []
    for group in groups:
        traffic = TrafficMatrix()
        n = len(group)
        for i, member in enumerate(group):
            traffic.add(member, group[(i + 1) % n], chunk / 2)
            traffic.add(member, group[(i - 1) % n], chunk / 2)
        per_group.append(traffic)
    return per_group


def _run_ring_steps(
    topology: Topology,
    groups: list[list[int]],
    volume_per_group: float,
    num_steps: int,
    staggered: bool,
) -> CollectiveResult:
    sizes = {len(group) for group in groups}
    if len(sizes) != 1:
        raise ValueError(f"ring groups must share a size, got sizes {sorted(sizes)}")
    n = sizes.pop()
    if n == 1 or num_steps == 0:
        return CollectiveResult(duration=0.0, num_steps=0)

    chunk = volume_per_group / n
    per_group_traffic = _ring_step_traffic(groups, chunk)

    if staggered:
        # Entwined-ring schedule (Sec. IV-B2): intersecting rings are
        # time-staggered so pairwise conflicts vanish, and each multi-hop
        # neighbour transfer is store-and-forward per Eq. 1 — a two-hop
        # ring doubles the per-step cost.  Staggering cannot create
        # bandwidth, though: when many rings pile onto the same link (e.g.
        # wafer borders under a flat multi-wafer mapping) the step cannot
        # finish before the busiest link drains, hence the max() below.
        eq1_time = 0.0
        link_bytes = {}
        total_volume = 0.0
        half = chunk / 2
        for group in groups:
            for i, member in enumerate(group):
                for neighbour in (group[(i + 1) % n], group[(i - 1) % n]):
                    path = topology.route(member, neighbour)
                    flow_time = sum(
                        half / degraded_bandwidth(topology, link.key) + link.latency
                        for link in path
                    )
                    eq1_time = max(eq1_time, flow_time)
                    total_volume += half
                    for link in path:
                        link_bytes[link.key] = link_bytes.get(link.key, 0.0) + half
        saturation = max(
            volume / degraded_bandwidth(topology, key)
            for key, volume in link_bytes.items()
        )
        step_duration = max(eq1_time, saturation)
    else:
        combined = TrafficMatrix()
        for traffic in per_group_traffic:
            combined.merge(traffic)
        result = simulate_phase(topology, combined)
        step_duration = result.duration
        link_bytes = dict(result.link_bytes)
        total_volume = result.total_volume

    # Every step moves the same traffic pattern; scale the per-step footprint.
    link_bytes = {key: volume * num_steps for key, volume in link_bytes.items()}
    return CollectiveResult(
        duration=step_duration * num_steps,
        num_steps=num_steps,
        link_bytes=link_bytes,
        total_volume=total_volume * num_steps,
    )


def ring_allreduce(
    topology: Topology,
    groups: list[list[int]],
    volume_per_group: float,
    staggered: bool = False,
) -> CollectiveResult:
    n = len(groups[0])
    return _run_ring_steps(topology, groups, volume_per_group, 2 * (n - 1), staggered)


def ring_reduce_scatter(
    topology: Topology,
    groups: list[list[int]],
    volume_per_group: float,
    staggered: bool = False,
) -> CollectiveResult:
    n = len(groups[0])
    return _run_ring_steps(topology, groups, volume_per_group, n - 1, staggered)


def ring_allgather(
    topology: Topology,
    groups: list[list[int]],
    volume_per_group: float,
    staggered: bool = False,
) -> CollectiveResult:
    n = len(groups[0])
    return _run_ring_steps(topology, groups, volume_per_group, n - 1, staggered)


def hierarchical_allreduce(
    topology: Topology,
    groups: list[list[int]],
    volume_per_group: float,
    partition_of,
    staggered: bool = False,
) -> CollectiveResult:
    """Three-stage hierarchical all-reduce (DeepSpeed-style, the paper's [46]).

    Stage 1: intra-partition reduce-scatter; stage 2: inter-partition
    all-reduce among one representative per partition; stage 3:
    intra-partition all-gather.  ``partition_of(device)`` labels partitions
    (e.g. DGX node id or wafer id).
    """
    local_rings: list[list[int]] = []
    bridge_rings: list[list[int]] = []
    for group in groups:
        by_partition: dict[int, list[int]] = {}
        for member in group:
            by_partition.setdefault(partition_of(member), []).append(member)
        locals_ = list(by_partition.values())
        local_rings.extend(ring for ring in locals_ if len(ring) > 1)
        representatives = [ring[0] for ring in locals_]
        if len(representatives) > 1:
            bridge_rings.append(representatives)

    result = CollectiveResult(duration=0.0, num_steps=0)
    local_n = len(local_rings[0]) if local_rings else 1
    if local_rings:
        stage1 = _run_ring_steps(
            topology, local_rings, volume_per_group, local_n - 1, staggered
        )
        result = result.merged_with(stage1)
    if bridge_rings:
        # After the intra-partition reduce-scatter each representative owns a
        # 1/local_n slice, so the bridge ring all-reduces volume / local_n.
        bridge_n = len(bridge_rings[0])
        stage2 = _run_ring_steps(
            topology,
            bridge_rings,
            volume_per_group / local_n,
            2 * (bridge_n - 1),
            staggered,
        )
        result = result.merged_with(stage2)
    if local_rings:
        stage3 = _run_ring_steps(
            topology, local_rings, volume_per_group, local_n - 1, staggered
        )
        result = result.merged_with(stage3)
    return result


def line_allgather_across_wafers(mapping, shard: float) -> CollectiveResult:
    mesh = mapping.wafer_topology
    step_traffic = TrafficMatrix()
    for x in range(mesh.wafer_height):
        for y in range(mesh.wafer_width):
            for wafer in range(mesh.num_wafers - 1):
                east_src = mesh.device_at(Coord(x, wafer * mesh.wafer_width + y))
                east_dst = mesh.device_at(
                    Coord(x, (wafer + 1) * mesh.wafer_width + y)
                )
                step_traffic.add(east_src, east_dst, shard)
                step_traffic.add(east_dst, east_src, shard)
    step = simulate_phase(mapping.topology, step_traffic)
    num_steps = mesh.num_wafers - 1
    return CollectiveResult(
        duration=step.duration * num_steps,
        num_steps=num_steps,
        link_bytes={
            key: volume * num_steps for key, volume in step.link_bytes.items()
        },
        total_volume=step.total_volume * num_steps,
    )


def simulate_allreduce(mapping: Mapping, volume_per_group: float) -> CollectiveResult:
    """``mapping.simulate_allreduce(volume_per_group)`` over the walk."""
    if isinstance(mapping, HierarchicalERMapping):
        mesh = mapping.wafer_topology
        reduce_scatter = _run_ring_steps(
            mapping.topology,
            mapping.tp_groups,
            volume_per_group,
            num_steps=mapping.tp - 1,
            staggered=True,
        )
        if mesh.num_wafers == 1:
            return reduce_scatter
        shard = volume_per_group / mapping.tp
        return reduce_scatter.merged_with(line_allgather_across_wafers(mapping, shard))
    collective = ring_allreduce if mapping.retain_allgather else ring_reduce_scatter
    return collective(
        mapping.topology,
        mapping.tp_groups,
        volume_per_group,
        staggered=mapping.staggered_rings,
    )

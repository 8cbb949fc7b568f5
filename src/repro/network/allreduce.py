"""Ring-based collectives: all-reduce, reduce-scatter, all-gather.

A ring collective over a group of ``n`` devices moves ``volume / n`` chunks
around the ring: ``n - 1`` steps for reduce-scatter or all-gather, and
``2 (n - 1)`` steps for a full all-reduce.  Packages travel bi-directionally
(Sec. IV-B2) — each step moves half a chunk clockwise and half
counter-clockwise on the full-duplex links, halving the per-step time.

Two congestion regimes are supported:

* ``staggered=False`` — all groups' transfers of a step contend on shared
  links (the honest worst case for arbitrary mappings).
* ``staggered=True`` — the paper's entwined-ring schedule (Sec. IV-B2):
  intersecting rings are time-staggered so they never conflict, hence each
  ring is costed in isolation and concurrent rings take the max.

Every step of a collective moves the same flows, so each collective prices
from an array plan of one step, built once per (topology, ring groups,
staggered flag) and kept on the topology's route cache.  A plan holds
route shape only: evaluating it at a volume reads the route cache's
``effective_bandwidth()``, so link degradations need no new plan.  The
evaluation folds in the order of the per-flow walk the plans replaced
(kept in ``tests/allreduce_reference.py``), so results are bit-identical
to it.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from repro import sanitize
from repro.network.phase import _route_cache, _simulate_cut_through, _walk_sums
from repro.topology.base import Topology


@dataclass
class CollectiveResult:
    """Aggregate outcome of a multi-phase collective."""

    duration: float
    num_steps: int
    link_bytes: dict[tuple[int, int], float] = field(default_factory=dict)
    total_volume: float = 0.0

    def merged_with(self, other: "CollectiveResult") -> "CollectiveResult":
        link_bytes = dict(self.link_bytes)
        for key, volume in other.link_bytes.items():
            link_bytes[key] = link_bytes.get(key, 0.0) + volume
        return CollectiveResult(
            duration=self.duration + other.duration,
            num_steps=self.num_steps + other.num_steps,
            link_bytes=link_bytes,
            total_volume=self.total_volume + other.total_volume,
        )


def _first_touch(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct entries (rows, for 2-D ``values``) in order of first
    occurrence, with their occurrence counts."""
    unique, first, counts = np.unique(
        values, axis=0, return_index=True, return_counts=True
    )
    order = np.argsort(first)
    return unique[order], counts[order]


def _repeated_sums(term: float, count: int) -> np.ndarray:
    """``[term, term + term, ...]``: ``count`` running sums, each added on
    to the last one as a ``+=`` loop adds."""
    return np.cumsum(np.full(count, term))


class _StaggeredPlan:
    """One time-staggered ring step's flows over their primary routes.

    Holds each flow's hop links in walk order (a ``(max_hops, flows)`` grid
    padded past each route's end) and their latencies, plus every crossed
    link in order of first touch with its crossing count.  Each flow is a
    store-and-forward transfer per Eq. 1, so a multi-hop neighbour transfer
    costs its hops' sum and a two-hop ring doubles the step.  Staggering
    cannot create bandwidth, though: when many rings pile onto one link
    (e.g. wafer borders under a flat multi-wafer mapping) the step cannot
    finish before the busiest link drains, hence the max of the two.
    """

    def __init__(self, topology: Topology, src: np.ndarray, dst: np.ndarray) -> None:
        cache = _route_cache(topology)
        links = cache.primary_links(src, dst)
        self._walked = links >= 0
        self._hops = np.where(self._walked, links, 0)
        self._hop_latency = np.where(self._walked, cache.latency[self._hops], 0.0)
        self._links, self._crossings = _first_touch(links.T[self._walked.T])
        self._keys = [cache.keys[position] for position in self._links.tolist()]
        self._num_flows = src.size
        sanitize.freeze(
            (self._walked, self._hops, self._hop_latency, self._links, self._crossings)
        )

    def evaluate(self, topology: Topology, half: float, num_steps: int) -> CollectiveResult:
        """``num_steps`` steps that each send ``half`` bytes per flow."""
        bandwidth = _route_cache(topology).effective_bandwidth()
        # The walk's builtin sum of ``half / bw + latency`` per hop; the
        # padding adds exact zeros.
        flow_time = _walk_sums(
            np.where(self._walked, half / bandwidth[self._hops] + self._hop_latency, 0.0)
        )
        eq1_time = float(flow_time.max(initial=0.0))
        sums = _repeated_sums(half, max(self._num_flows, int(self._crossings.max(initial=0))))
        link_volume = sums[self._crossings - 1]
        saturation = float((link_volume / bandwidth[self._links]).max())
        return CollectiveResult(
            duration=max(eq1_time, saturation) * num_steps,
            num_steps=num_steps,
            link_bytes=dict(zip(self._keys, (link_volume * num_steps).tolist())),
            total_volume=float(sums[self._num_flows - 1]) * num_steps,
        )


class _PairPlan:
    """One congested step's distinct ``(src, dst)`` pairs, as a
    :class:`~repro.network.traffic.TrafficMatrix` merges its flows: in
    order of first insertion, self-pairs dropped, each with the number of
    flows it carries.  The step prices through the phase model's
    cut-through pricing, O1TURN split included.

    A pair's volume sums its flows one after another, so a pair repeated
    across rings (which disjoint rings never do) can differ in the last bit
    from a matrix merged ring by ring.
    """

    def __init__(self, src: np.ndarray, dst: np.ndarray) -> None:
        keep = src != dst
        pairs, self._multiplicity = _first_touch(np.stack([src[keep], dst[keep]], axis=1))
        self._src, self._dst = pairs.T
        sanitize.freeze((self._src, self._dst, self._multiplicity))

    def evaluate(
        self, topology: Topology, flow_volume: float, num_steps: int
    ) -> CollectiveResult:
        """``num_steps`` steps that each send ``flow_volume`` bytes per flow."""
        if flow_volume == 0 or not self._src.size:
            return CollectiveResult(duration=0.0, num_steps=num_steps)
        volume = _repeated_sums(flow_volume, int(self._multiplicity.max()))[
            self._multiplicity - 1
        ]
        step = _simulate_cut_through(
            topology, self._src, self._dst, volume, float(np.cumsum(volume)[-1])
        )
        return CollectiveResult(
            duration=step.duration * num_steps,
            num_steps=num_steps,
            link_bytes={key: carried * num_steps for key, carried in step.link_bytes.items()},
            total_volume=step.total_volume * num_steps,
        )


def _cached_plan(topology: Topology, key, build):
    plans = _route_cache(topology).plans
    plan = plans.get(key)
    if plan is None:
        plan = plans[key] = build()
    return plan


def _ring_plan(
    topology: Topology, groups: list[list[int]], staggered: bool
) -> _StaggeredPlan | _PairPlan:
    """The cached plan of one bidirectional ring step: every member sends
    half a chunk to its successor, then half to its predecessor.  A ring of
    two sends both halves to its one neighbour."""

    def build():
        members = np.array(groups, dtype=np.intp)
        src = np.repeat(members.ravel(), 2)
        dst = np.stack(
            [np.roll(members, -1, axis=1), np.roll(members, 1, axis=1)], axis=-1
        ).ravel()
        return _StaggeredPlan(topology, src, dst) if staggered else _PairPlan(src, dst)

    return _cached_plan(topology, (staggered, tuple(map(tuple, groups))), build)


def _check_volume(volume_per_group: float) -> None:
    if not (math.isfinite(volume_per_group) and volume_per_group >= 0):
        raise ValueError(
            f"volume_per_group must be finite and >= 0, got {volume_per_group!r}"
        )


def _price_rings(
    topology: Topology,
    groups: list[list[int]],
    volume_per_group: float,
    num_steps: int,
    staggered: bool,
) -> CollectiveResult:
    _check_volume(volume_per_group)
    sizes = {len(group) for group in groups}
    if len(sizes) != 1:
        raise ValueError(f"ring groups must share a size, got sizes {sorted(sizes)}")
    n = sizes.pop()
    if n == 1 or num_steps == 0:
        return CollectiveResult(duration=0.0, num_steps=0)
    half = volume_per_group / n / 2
    return _ring_plan(topology, groups, staggered).evaluate(topology, half, num_steps)


def pair_steps(
    topology: Topology, name: str, pairs, flow_volume: float, num_steps: int
) -> CollectiveResult:
    """``num_steps`` congested steps that each send ``flow_volume`` bytes
    from every ``src`` to its ``dst``.

    ``pairs()`` returns the step's ``(src, dst)`` device arrays; it runs
    once per topology, and the plan is cached under ``name``.
    """
    plan = _cached_plan(topology, name, lambda: _PairPlan(*pairs()))
    return plan.evaluate(topology, flow_volume, num_steps)


def ring_allreduce(
    topology: Topology,
    groups: list[list[int]],
    volume_per_group: float,
    staggered: bool = False,
) -> CollectiveResult:
    """All-reduce ``volume_per_group`` bytes inside each group concurrently.

    ``groups`` lists each ring in traversal order; consecutive members are
    ring neighbours (1 hop in the baseline mapping, 2 hops entwined).
    ``volume_per_group`` must be finite and >= 0.
    """
    n = len(groups[0])
    return _price_rings(topology, groups, volume_per_group, 2 * (n - 1), staggered)


def ring_reduce_scatter(
    topology: Topology,
    groups: list[list[int]],
    volume_per_group: float,
    staggered: bool = False,
) -> CollectiveResult:
    n = len(groups[0])
    return _price_rings(topology, groups, volume_per_group, n - 1, staggered)


def ring_allgather(
    topology: Topology,
    groups: list[list[int]],
    volume_per_group: float,
    staggered: bool = False,
) -> CollectiveResult:
    n = len(groups[0])
    return _price_rings(topology, groups, volume_per_group, n - 1, staggered)


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
    _check_volume(volume_per_group)
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
        stage1 = _price_rings(
            topology, local_rings, volume_per_group, local_n - 1, staggered
        )
        result = result.merged_with(stage1)
    if bridge_rings:
        # After the intra-partition reduce-scatter each representative owns a
        # 1/local_n slice, so the bridge ring all-reduces volume / local_n.
        bridge_n = len(bridge_rings[0])
        stage2 = _price_rings(
            topology,
            bridge_rings,
            volume_per_group / local_n,
            2 * (bridge_n - 1),
            staggered,
        )
        result = result.merged_with(stage2)
    if local_rings:
        stage3 = _price_rings(
            topology, local_rings, volume_per_group, local_n - 1, staggered
        )
        result = result.merged_with(stage3)
    return result

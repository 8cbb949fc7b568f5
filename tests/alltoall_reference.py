"""Pair-list all-to-all pricing: the test-only reference for the CSR pricer.

``simulate_alltoall`` prices through the mapping's CSR pricer.  This module
keeps the pricing it replaced, which builds the dispatch traffic as a list
of (holder, destination) device pairs and charges each phase's pairs
through the phase model's cut-through pricing:

* :func:`loop_dispatch_traffic` is the seed per-entry builder, a dict walk
  over every nonzero demand cell;
* :class:`DispatchPlan` expands (demand cell, destination, holder) terms
  into parallel arrays and aggregates them with one ``bincount``, bit for
  bit equal to the loop, pair order included;
* :func:`simulate_alltoall` prices the plan's pairs, dispatch and then the
  transposed combine pairs.

The tests hold the pricer to :func:`simulate_alltoall` here, through
:func:`assert_close_to_reference`.  Nothing is cached, so every call prices
the placement as it stands.

:func:`two_phase_price` is the bitwise reference for the pricer's mirrored
combine phase: it routes each phase on its own, combine over the ``dest ->
holder`` route rows, and sums every link's terms in the pricer's order.

:func:`argsort_operator` is the reference for a hosted set's CSR
assembly: it orders every destination row's entries by a stable argsort
of their ``(group, dest)`` cells, where the pricer gathers the cells
straight from the rows' group offsets.

:func:`layer_state` builds one layer's gather rows from its own slice of
the replica entries, the per-layer pipeline the pricer's one-pass state
rebuild replaced.
"""

from dataclasses import dataclass

import numpy as np
import pytest
from scipy import sparse

from repro.network.alltoall import AllToAllResult, _validate_demand
from repro.network.phase import PhaseResult, _simulate_cut_through, route_rows
from repro.network.traffic import TrafficMatrix


def _first_touch_bins(keys, num_devices):
    """Factorize pair keys by first occurrence.

    Returns (bin id per entry, bin src, bin dst) with bins numbered in the
    order their pair first appears in ``keys``: the insertion order of the
    dict-backed loop.
    """
    unique, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    ordered_keys = unique[order]
    return rank[inverse], ordered_keys // num_devices, ordered_keys % num_devices


@dataclass(frozen=True)
class PairTraffic:
    """Parallel src/dst/volume arrays over distinct device pairs."""

    src: np.ndarray
    dst: np.ndarray
    volume: np.ndarray

    def items(self):
        """(``(src, dst)``, volume) pairs, as ``TrafficMatrix.items``."""
        return (
            ((int(s), int(d)), float(v))
            for s, d, v in zip(self.src, self.dst, self.volume)
        )

    def transposed(self):
        """The combine pattern: every dispatch pair with endpoints swapped."""
        return PairTraffic(self.dst, self.src, self.volume)

    @property
    def total_volume(self):
        return float(self.volume.sum())


class DispatchPlan:
    """Flattened (demand cell, destination, holder) expansion of one
    placement under one mapping.

    Entry ``k`` contributes ``demand[cell_k] * share_k * frac_k`` bytes to
    its (holder, destination) device pair; self-fetches are excluded.  Pairs
    are numbered by first touch among the active (nonzero-demand) entries,
    which is the dict insertion order of :func:`loop_dispatch_traffic`, so
    the per-pair volumes and the pair order match the loop bit for bit.
    """

    def __init__(self, mapping, placement):
        num_devices = placement.num_devices
        if mapping.topology.num_devices != num_devices:
            raise ValueError(
                f"placement covers {num_devices} devices but the mapping's "
                f"topology has {mapping.topology.num_devices}"
            )
        self.num_groups = mapping.dp
        self.num_experts = placement.num_experts
        self.num_devices = num_devices
        table = mapping.token_holder_table()
        replica_lists = [
            placement.replicas(expert) for expert in range(self.num_experts)
        ]
        cells, share_terms, frac_terms, keys = [], [], [], []
        for group in range(self.num_groups):
            for expert in range(self.num_experts):
                cell = group * self.num_experts + expert
                for dest in replica_lists[expert]:
                    share = 1.0 / len(replica_lists[expert])
                    for holder, fraction in table.entries(group, dest):
                        if holder == dest:
                            continue
                        cells.append(cell)
                        share_terms.append(share)
                        frac_terms.append(fraction)
                        keys.append(holder * num_devices + dest)
        self.entry_cell = np.array(cells, dtype=np.intp)
        self.entry_share = np.array(share_terms)
        self.entry_frac = np.array(frac_terms)
        self.entry_key = np.array(keys, dtype=np.intp)

    def traffic(self, demand_bytes):
        """Aggregate one layer's dispatch traffic from a demand matrix."""
        values = demand_bytes.ravel()[self.entry_cell]
        active = values != 0
        terms = values[active] * self.entry_share[active]
        terms *= self.entry_frac[active]
        bins, src, dst = _first_touch_bins(self.entry_key[active], self.num_devices)
        volumes = np.bincount(bins, weights=terms, minlength=src.size)
        positive = volumes > 0
        return PairTraffic(src[positive], dst[positive], volumes[positive])


def build_dispatch_traffic(demand_bytes, placement, mapping):
    """The token-fetch pairs of a ``(groups, experts)`` byte-demand matrix."""
    _validate_demand(demand_bytes)
    plan = DispatchPlan(mapping, placement)
    if demand_bytes.shape != (plan.num_groups, plan.num_experts):
        raise ValueError(
            f"demand shape {demand_bytes.shape} != "
            f"({plan.num_groups}, {plan.num_experts})"
        )
    return plan.traffic(demand_bytes)


def loop_dispatch_traffic(demand_bytes, destinations, holders):
    """The seed per-entry dispatch builder.

    Walks every nonzero (group, expert) demand cell, querying the
    ``destinations(expert)`` and ``holders(group, dest)`` callbacks per
    entry and accumulating into a dict-backed :class:`TrafficMatrix`.
    """
    _validate_demand(demand_bytes)
    traffic = TrafficMatrix()
    groups, experts = np.nonzero(demand_bytes)
    for group, expert in zip(groups.tolist(), experts.tolist()):
        volume = float(demand_bytes[group, expert])
        for dest, dest_share in destinations(expert):
            routed = volume * dest_share
            if routed <= 0:
                continue
            for source, fraction in holders(group, dest):
                traffic.add(source, dest, routed * fraction)
    return traffic


def price_pairs(topology, traffic):
    """One phase's cut-through price of a pair list."""
    if not traffic.src.size:
        return PhaseResult(duration=0.0)
    return _simulate_cut_through(
        topology, traffic.src, traffic.dst, traffic.volume, traffic.total_volume
    )


def simulate_alltoall(topology, demand_bytes, placement, mapping):
    """Dispatch and combine of one MoE layer, priced pair by pair."""
    dispatch = build_dispatch_traffic(demand_bytes, placement, mapping)
    return AllToAllResult(
        dispatch=price_pairs(topology, dispatch),
        combine=price_pairs(topology, dispatch.transposed()),
    )


def assert_close_to_reference(result, reference, rel=1e-12):
    """Every float field of both phases within ``rel`` of the reference,
    worst path latencies exact and the same links loaded."""
    for ours, expected in (
        (result.dispatch, reference.dispatch),
        (result.combine, reference.combine),
    ):
        for name in ("duration", "serialization_time", "total_volume"):
            assert getattr(ours, name) == pytest.approx(
                getattr(expected, name), rel=rel, abs=0.0
            ), name
        assert ours.latency_time == expected.latency_time
        assert ours.link_bytes.keys() == expected.link_bytes.keys()
        for key, volume in expected.link_bytes.items():
            assert ours.link_bytes[key] == pytest.approx(volume, rel=rel, abs=0.0), key


def two_phase_price(mapping, dests, cells):
    """A hosted set's per-link volumes and per-cell latencies with both
    phases routed on their own: dispatch over the ``holder -> dest`` route
    rows, combine over the ``dest -> holder`` ones.

    ``cells`` is ``(groups * len(dests), layers)``, one row per ``(group,
    dest)`` cell in ascending order.  A cell's operator weight on a link
    sums its remote holders in holder-table order, and a link's volume sums
    its cells' terms in ascending cell order, as the pricer's sparse
    product does.  Returns the ``(layers, 2, links)`` volumes and the
    ``(2, cells)`` worst path latency of each cell per phase.
    """
    topology = mapping.topology
    num_links = len(topology.links)
    table = mapping.token_holder_table()
    pairs = [
        (group * len(dests) + position, holder, dest, fraction)
        for group in range(mapping.dp)
        for position, dest in enumerate(dests)
        for holder, fraction in table.entries(group, dest)
        if holder != dest
    ]
    cell, holder, dest = (np.array([p[i] for p in pairs], dtype=np.intp) for i in range(3))
    fraction = np.array([p[3] for p in pairs])
    latency = np.zeros((2, mapping.dp * len(dests)))
    keys, values = [], []
    for phase, (src, dst) in enumerate(((holder, dest), (dest, holder))):
        counts, links, weights, path_latency, _ = route_rows(topology, src, dst)
        keys.append(np.repeat((2 * cell + phase) * num_links, counts) + links)
        values.append(np.repeat(fraction, counts) * weights)
        np.maximum.at(latency[phase], cell, path_latency)
    # Sorted by cell, then phase and link; each weight sums in pair order.
    touched, inverse = np.unique(np.concatenate(keys), return_inverse=True)
    weight = np.bincount(inverse, weights=np.concatenate(values), minlength=touched.size)
    entry_cell, slot = np.divmod(touched, 2 * num_links)
    volumes = np.stack(
        [
            np.bincount(slot, weights=weight * column[entry_cell], minlength=2 * num_links)
            for column in cells.T
        ]
    )
    return volumes.reshape(-1, 2, num_links), latency


def argsort_operator(rows, num_groups, num_links):
    """A hosted set's ``(group, dest) -> link`` CSR operator from its
    destinations' ``_DestRows`` (ascending destinations), assembled by a
    stable argsort of each entry's cell.  Each entry's group is read off
    its row's group offsets."""
    n = len(rows)
    num_cells = num_groups * n
    # A layer whose experts fail-stops all orphaned hosts nothing; the
    # empty leading parts keep its empty set well formed.
    empty = np.empty(0, dtype=np.intp)
    groups = [np.repeat(np.arange(num_groups), np.diff(r.offsets)) for r in rows]
    # A stable sort by cell keeps each cell's entries in link order.
    cell = np.concatenate([empty] + [group * n + pos for pos, group in enumerate(groups)])
    order = np.argsort(cell, kind="stable")
    indptr = np.zeros(num_cells + 1, dtype=np.intp)
    np.cumsum(np.bincount(cell, minlength=num_cells), out=indptr[1:])
    return sparse.csr_array(
        (
            np.concatenate([np.empty(0)] + [r.weight for r in rows])[order],
            np.concatenate([empty] + [r.link_idx for r in rows])[order],
            indptr,
        ),
        shape=(num_cells, num_links),
    )


def layer_state(placement, layer):
    """One layer's gather rows built from its own slice of the replica
    entries: ``(dests, experts, shares)``, where each run of entries on
    one device is a hosted destination and an entry's place in its run
    its rank.  The pricer builds every stale layer's rows in one pass."""
    entries = placement.replica_entries()
    part = slice(entries.bounds[layer], entries.bounds[layer + 1])
    device = entries.device[part]
    starts_run = np.ones(device.size, dtype=bool)
    starts_run[1:] = device[1:] != device[:-1]
    starts = np.flatnonzero(starts_run)
    position = np.cumsum(starts_run) - 1
    rank = np.arange(device.size) - starts[position]
    shape = (int(rank.max(initial=0)) + 1, starts.size)
    experts = np.zeros(shape, dtype=np.intp)
    shares = np.zeros(shape)
    experts[rank, position] = entries.expert[part]
    shares[rank, position] = entries.share[part]
    return tuple(device[starts].tolist()), experts, shares

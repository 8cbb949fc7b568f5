"""MoE all-to-all (dispatch + combine) simulation.

The dispatch traffic follows the paper's token-fetch model: a device hosting
an expert pulls each token from the nearest holder of that token (Sec. IV-A).
Which devices hold a token is the mapping's business — with all-gather
retained every member of the token's TP group is a holder, without it only
the shard owner is — so the mapping supplies its precomputed
:class:`~repro.mapping.base.HolderTable` and this module stays
mapping-agnostic.  Combine mirrors dispatch with reversed flow directions.

The hot path is array-native: a :class:`DispatchPlan` flattens the
iteration-invariant structure — (group, expert) demand cell × placement
destination shares × holder fractions — into parallel arrays once per
``(mapping, placement version)``, after which each iteration's traffic is a
gather, two multiplies, and one ``bincount``.  The plan enumerates terms in
exactly the order the original per-entry loop visited them (kept below as
:func:`loop_dispatch_traffic`, the reference oracle in the regression
tests), so the aggregated volumes are bit-identical to the seed semantics.

For the serving loop's layer stacks a second, layer-batched tier exists:
:class:`LayeredAllToAllPricer` and :class:`LayeredDispatchPlan` price every
layer's all-to-all against its own demand rows and its own (possibly
migration-diverged) placement through dense ``(group, dest) -> link``
operators, cached per ``(mapping, per-layer version vector)`` — see the
layer-batched pricing section below.

A third tier, :class:`SparseAllToAllPricer`, stores the same
``(group, dest) -> link`` map in CSR form over only the *hosted*
destination columns and their nonzero holder-route cells, pricing link
volumes by gather + segmented ``bincount`` reduction instead of one dense
matmul.  Its per-layer states are keyed on ``ExpertPlacement.version`` so
migrations rebuild only the touched layers' rows; memory is bounded by
replica count and route length, not ``O(G * D * links)``, which is what
makes 1024+-device multi-wafer systems simulable.  See
``docs/pricing-operators.md`` for the model.
"""

import os
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable

import numpy as np

try:  # pragma: no cover - exercised via the CSR fast path when present
    from scipy import sparse as _scipy_sparse
except ImportError:  # pragma: no cover - CI legs without scipy
    _scipy_sparse = None

from repro import sanitize
from repro.network.phase import (
    PhaseResult,
    phase_durations_from_link_volumes,
    route_pair_arrays,
    simulate_phase,
)
from repro.network.traffic import ArrayTrafficMatrix, TrafficMatrix
from repro.topology.base import Topology

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.mapping.base import Mapping
    from repro.mapping.placement import ExpertPlacement, StackedPlacement

#: destinations(expert) -> [(device, share)], shares summing to 1.
DestinationFn = Callable[[int], Iterable[tuple[int, float]]]
#: holders(group, destination_device) -> [(device, fraction)], fractions summing to 1.
HolderFn = Callable[[int, int], Iterable[tuple[int, float]]]


@dataclass
class AllToAllResult:
    """Dispatch and combine phases of one MoE all-to-all."""

    dispatch: PhaseResult
    combine: PhaseResult

    @property
    def duration(self) -> float:
        return self.dispatch.duration + self.combine.duration

    @property
    def link_bytes(self) -> dict[tuple[int, int], float]:
        merged: dict[tuple[int, int], float] = {}
        self.dispatch.merge_link_bytes(merged)
        self.combine.merge_link_bytes(merged)
        return merged

    @property
    def total_volume(self) -> float:
        return self.dispatch.total_volume + self.combine.total_volume


def _first_touch_bins(
    keys: np.ndarray, num_devices: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Factorize pair keys by first occurrence.

    Returns (bin id per entry, bin src, bin dst) with bins numbered in the
    order their pair first appears in ``keys`` — the insertion order of the
    dict-backed loop, which downstream per-link float accumulation in
    ``simulate_phase`` depends on for bit-compatibility.
    """
    unique, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    ordered_keys = unique[order]
    return rank[inverse], ordered_keys // num_devices, ordered_keys % num_devices


class DispatchPlan:
    """Flattened (demand cell, destination, holder) expansion for one
    placement snapshot under one mapping.

    Entry ``k`` contributes ``demand[cell_k] * share_k * frac_k`` bytes to
    its (holder, destination) device pair; self-fetches are excluded at
    build time.  Aggregation walks the entries in the order the per-entry
    loop visited them and numbers pairs by first touch among the *active*
    (nonzero-demand) entries — exactly the dict insertion order of
    :func:`loop_dispatch_traffic` — so both the per-pair volumes and the
    pair ordering (hence downstream link accumulation) match the loop
    bitwise, for dense and sparse demand alike.  The dense-demand
    factorization is precomputed; demand with zero cells pays one
    ``np.unique`` per call.
    """

    def __init__(self, mapping: "Mapping", placement: "ExpertPlacement") -> None:
        num_groups = mapping.dp
        num_experts = placement.num_experts
        num_devices = placement.num_devices
        if mapping.topology.num_devices != num_devices:
            raise ValueError(
                f"placement covers {num_devices} devices but the mapping's "
                f"topology has {mapping.topology.num_devices}"
            )
        self.num_groups = num_groups
        self.num_experts = num_experts
        self.num_devices = num_devices

        table = mapping.token_holder_table()
        shares = placement.destination_shares
        replica_lists = [placement.replicas(expert) for expert in range(num_experts)]

        cells: list[int] = []
        share_terms: list[float] = []
        frac_terms: list[float] = []
        keys: list[int] = []
        for group in range(num_groups):
            for expert in range(num_experts):
                cell = group * num_experts + expert
                for dest in replica_lists[expert]:
                    share = shares[expert, dest]
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
        if self.entry_key.size:
            self.dense_bin, self.dense_src, self.dense_dst = _first_touch_bins(
                self.entry_key, num_devices
            )
        else:
            self.dense_bin = np.empty(0, dtype=np.intp)
            self.dense_src = np.empty(0, dtype=np.intp)
            self.dense_dst = np.empty(0, dtype=np.intp)
        # Plans are cached and served to every later iteration; under the
        # sanitizer their arrays are frozen so an aliasing caller raises
        # instead of corrupting subsequent traffic aggregation.
        sanitize.freeze(
            (
                self.entry_cell,
                self.entry_share,
                self.entry_frac,
                self.entry_key,
                self.dense_bin,
                self.dense_src,
                self.dense_dst,
            )
        )

    def traffic(self, demand_bytes: np.ndarray) -> ArrayTrafficMatrix:
        """Aggregate one iteration's dispatch traffic from a demand matrix."""
        values = demand_bytes.ravel()[self.entry_cell]
        active = values != 0
        if active.all():
            # Dense demand: the precomputed factorization already reflects
            # first-touch order over every entry.
            terms = values * self.entry_share
            terms *= self.entry_frac
            bins, src, dst = self.dense_bin, self.dense_src, self.dense_dst
        else:
            # Zero cells never enter the loop oracle's walk, so both the
            # term sequence and the pair numbering must come from the
            # active entries alone.
            terms = values[active] * self.entry_share[active]
            terms *= self.entry_frac[active]
            bins, src, dst = _first_touch_bins(
                self.entry_key[active], self.num_devices
            )
        volumes = np.bincount(bins, weights=terms, minlength=src.size)
        positive = volumes > 0
        return ArrayTrafficMatrix(src[positive], dst[positive], volumes[positive])


#: placement -> {id(mapping): (mapping weakref, placement version, plan)}.
#: Keyed weakly so retired placements release their plans; the version
#: check invalidates plans after migrations mutate the placement.
_PLAN_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _sweep_dead_mappings(per_mapping: dict) -> None:
    """Drop cache entries whose mapping weakref has expired.

    Entries are keyed by ``id(mapping)``; once the mapping dies its id may
    be recycled and, worse, the dead entry (holding a full plan) lives as
    long as the placement does.  Sweeping on insert bounds the dict by the
    number of *live* mappings.
    """
    dead = [key for key, entry in per_mapping.items() if entry[0]() is None]
    for key in dead:
        del per_mapping[key]


def dispatch_plan(
    mapping: "Mapping", placement: "ExpertPlacement"
) -> DispatchPlan:
    """The cached dispatch plan for this (mapping, placement version)."""
    per_mapping = _PLAN_CACHE.setdefault(placement, {})
    entry = per_mapping.get(id(mapping))
    if entry is not None:
        mapping_ref, version, plan = entry
        if mapping_ref() is mapping and version == placement.version:
            return plan
    _sweep_dead_mappings(per_mapping)
    plan = DispatchPlan(mapping, placement)
    per_mapping[id(mapping)] = (weakref.ref(mapping), placement.version, plan)
    return plan


def _validate_demand(demand_bytes: np.ndarray) -> None:
    if demand_bytes.ndim != 2:
        raise ValueError(
            f"demand must be 2-D (groups x experts), got {demand_bytes.ndim}-D"
        )
    if (demand_bytes < 0).any():
        raise ValueError("demand volumes must be >= 0")


def build_dispatch_traffic(
    demand_bytes: np.ndarray,
    placement: "ExpertPlacement",
    mapping: "Mapping",
) -> ArrayTrafficMatrix:
    """Aggregate token-fetch flows for a demand matrix, array-natively.

    Args:
        demand_bytes: ``(num_groups, num_experts)`` array; entry ``[g, e]``
            is the byte volume of group ``g`` tokens routed to expert ``e``.
        placement: expert placement supplying replica destination shares.
        mapping: mapping supplying the token-holder table.
    """
    _validate_demand(demand_bytes)
    plan = dispatch_plan(mapping, placement)
    if demand_bytes.shape != (plan.num_groups, plan.num_experts):
        raise ValueError(
            f"demand shape {demand_bytes.shape} != "
            f"({plan.num_groups}, {plan.num_experts})"
        )
    return plan.traffic(demand_bytes)


def loop_dispatch_traffic(
    demand_bytes: np.ndarray,
    destinations: DestinationFn,
    holders: HolderFn,
) -> TrafficMatrix:
    """The seed per-entry dispatch builder, kept as the reference oracle.

    Walks every nonzero (group, expert) demand cell, querying the
    ``destinations``/``holders`` callbacks per entry and accumulating into
    a dict-backed :class:`TrafficMatrix`.  :class:`DispatchPlan` reproduces
    this bit-for-bit; the regression tests hold the two paths together.
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


def reverse_traffic(traffic: TrafficMatrix) -> TrafficMatrix:
    out = TrafficMatrix()
    for (src, dst), volume in traffic.items():
        out.add(dst, src, volume)
    return out


def simulate_alltoall(
    topology: Topology,
    demand_bytes: np.ndarray,
    placement: "ExpertPlacement",
    mapping: "Mapping",
) -> AllToAllResult:
    """Simulate dispatch and combine for one MoE layer invocation.

    Dispatch traffic comes off the cached :class:`DispatchPlan`; combine is
    its transpose — no per-flow objects are materialized anywhere on the
    path into :func:`~repro.network.phase.simulate_phase`.
    """
    dispatch_traffic = build_dispatch_traffic(demand_bytes, placement, mapping)
    combine_traffic = dispatch_traffic.transposed()
    return AllToAllResult(
        dispatch=simulate_phase(topology, dispatch_traffic),
        combine=simulate_phase(topology, combine_traffic),
    )


def uniform_demand(
    num_groups: int,
    num_experts: int,
    tokens_per_group: float,
    experts_per_token: int,
    token_bytes: float,
) -> np.ndarray:
    """Expected demand under the balanced gating of Sec. VI-B.

    Each token activates ``experts_per_token`` experts chosen uniformly, so
    every (group, expert) pair expects the same volume.
    """
    if num_groups <= 0 or num_experts <= 0:
        raise ValueError("num_groups and num_experts must be positive")
    per_pair = tokens_per_group * experts_per_token / num_experts * token_bytes
    return np.full((num_groups, num_experts), per_pair)


def demand_from_counts(counts: np.ndarray, token_bytes: float) -> np.ndarray:
    """Convert a (groups x experts) token-count matrix to byte volumes."""
    counts = np.asarray(counts, dtype=float)
    if (counts < 0).any():
        raise ValueError("token counts must be >= 0")
    return counts * token_bytes

# -- layer-batched pricing ---------------------------------------------------
#
# Every layer of a serving stack carries its own demand rows and, once
# migrations land, its own placement, so layer 0's all-to-all price is not
# representative of the others.  The machinery below prices every layer
# without simulating L independent collectives: a per-mapping
# :class:`LayeredAllToAllPricer` folds holder fractions and CSR route
# weights into dense ``(group, dest) -> link`` operators once, after which
# a whole stack is priced with two matmuls per iteration.  The per-link
# volumes equal the per-layer :func:`simulate_alltoall` sums mathematically
# (same terms, associative reordering), not bitwise; layer 0 keeps its
# exact :func:`simulate_alltoall` price.


#: Nonzero fraction below which the dense pricer's operator is re-stored
#: as scipy CSR for the per-iteration volume product.  Mesh/torus route
#: walks touch a handful of links per holder pair, so real operators sit
#: around 2-5% density and the CSR product wins ~4x; near-dense operators
#: (tiny test topologies) stay on the matmul.
CSR_OPERATOR_MAX_DENSITY = 0.25


def _csr_operator(operator: np.ndarray) -> "object | None":
    """CSR form of a dense link operator when scipy + sparsity warrant it.

    Returns ``None`` when scipy is unavailable, the operator is too dense
    to profit, or ``REPRO_ALLTOALL_CSR=0`` forces the pure-numpy product
    (the fallback CI legs and the equivalence tests use the same switch).
    """
    if _scipy_sparse is None or os.environ.get("REPRO_ALLTOALL_CSR") == "0":
        return None
    nnz = np.count_nonzero(operator)
    if nnz > CSR_OPERATOR_MAX_DENSITY * operator.size:
        return None
    return _scipy_sparse.csr_array(operator)


class LayeredAllToAllPricer:
    """Dense link operators pricing many placements' all-to-alls at once.

    For one (immutable) mapping the dispatch traffic of any placement
    factorizes as ``T[src, dst] = sum_g frac(g, dst, src) * M[g, dst]``
    where ``M = demand @ destination_shares`` is the only
    placement-dependent tensor.  Contracting the holder fractions with the
    cached CSR route weights yields ``operator[(g, d), link]`` such that
    the per-link volumes of a whole ``(layers, experts, devices)`` share
    stack are one ``(layers, G*D) @ (G*D, 2K)`` product — dispatch and
    combine link blocks side by side (combine routes ``dest -> holder``).
    Worst path latencies reduce the same way from per-cell maxima.  Memory
    is ``O(G * D * links)``; construction walks every holder pair's route
    once, so the pricer is built once per mapping and cached by
    :func:`alltoall_pricer`.
    """

    def __init__(self, mapping: "Mapping") -> None:
        topology = mapping.topology
        self.topology = topology
        self.num_groups = mapping.dp
        self.num_devices = topology.num_devices
        num_links = len(topology.links)
        self.num_links = num_links
        self._table = mapping.token_holder_table()

        groups, devices = self.num_groups, self.num_devices
        operator = np.zeros((groups, devices, 2 * num_links))
        cell_latency = np.zeros((2, groups, devices))
        for group in range(groups):
            for dest in range(devices):
                for holder, fraction in self._table.entries(group, dest):
                    if holder == dest:
                        continue
                    idx, weights, latency = route_pair_arrays(
                        topology, holder, dest
                    )
                    operator[group, dest, idx] += fraction * weights
                    if latency > cell_latency[0, group, dest]:
                        cell_latency[0, group, dest] = latency
                    idx, weights, latency = route_pair_arrays(
                        topology, dest, holder
                    )
                    operator[group, dest, num_links + idx] += fraction * weights
                    if latency > cell_latency[1, group, dest]:
                        cell_latency[1, group, dest] = latency
        self.operator = operator.reshape(groups * devices, 2 * num_links)
        #: CSR twin of ``operator`` for the volume product (None -> dense
        #: matmul).  Same terms, CSR summation order (~1e-15); prices are
        #: pure outputs — no balancer decision reads them — so the
        #: reassociation cannot flip a trace.
        self.operator_csr = _csr_operator(self.operator)
        #: (2, groups, devices) worst path latency over a cell's holder
        #: pairs — dispatch row 0, combine row 1.
        self.cell_latency = cell_latency
        #: (2, devices) worst latency per destination column, for the
        #: dense-demand fast path (active cells = hosted columns).
        self.column_latency = cell_latency.max(axis=1)
        #: Cells in descending latency order per phase (flat (g, d)
        #: indices) and the matching sorted latencies: the worst *active*
        #: cell latency is the first active cell in this order, found by
        #: one boolean gather + argmax per phase instead of
        #: materializing a (layers, groups, devices) float where-mask.
        flat_latency = cell_latency.reshape(2, -1)
        self._latency_order = np.argsort(-flat_latency, axis=1)
        self._latency_sorted = np.take_along_axis(
            flat_latency, self._latency_order, axis=1
        )
        self._holder_tensor: np.ndarray | None = None

    def link_volumes(
        self, demand_bytes: np.ndarray, shares: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Destination cells and per-link volumes for a share stack.

        Args:
            demand_bytes: byte demand — either one ``(groups, experts)``
                matrix shared by every layer or a ``(layers, groups,
                experts)`` stack carrying each layer's own demand rows;
                matmul broadcasting prices both through the same operator
                product.
            shares: ``(layers, experts, devices)`` destination-share stack.

        Returns:
            ``(cells, volumes)`` with cells ``(layers, groups, devices)``
            and volumes ``(layers, 2, num_links)`` in route-cache link
            order (dispatch phase first).
        """
        cells = np.matmul(demand_bytes, shares)
        flat = cells.reshape(shares.shape[0], -1)
        matrix = self.operator if self.operator_csr is None else self.operator_csr
        volumes = (flat @ matrix).reshape(shares.shape[0], 2, self.num_links)
        return cells, volumes

    def dense_demand_latencies(self, shares: np.ndarray) -> np.ndarray:
        """Worst path latencies per (layer, phase) under dense demand.

        Dense demand activates exactly the hosted destination columns, so
        the latency reduction collapses to per-column maxima — and depends
        only on the share stack, letting plans precompute it once per
        placement epoch instead of per iteration.
        """
        hosted = shares.any(axis=1)
        return np.where(
            hosted[:, None, :], self.column_latency[None], 0.0
        ).max(axis=2)

    def durations(
        self,
        demand_bytes: np.ndarray,
        shares: np.ndarray,
        dense_latencies: np.ndarray | None = None,
    ) -> np.ndarray:
        """Dispatch+combine durations per layer: ``(layers,)`` seconds.

        Each layer's phases follow :func:`simulate_phase`'s cut-through
        semantics (busiest-link drain plus worst active path latency),
        with the per-link sums evaluated in batched operator order.
        ``demand_bytes`` is a shared ``(groups, experts)`` matrix or a
        per-layer ``(layers, groups, experts)`` stack (see
        :meth:`link_volumes`).  ``dense_latencies`` may carry
        :meth:`dense_demand_latencies` of the same share stack; it is only
        consulted when the demand is actually dense (zero cells deactivate
        pairs, shrinking the latency max).
        """
        cells, volumes = self.link_volumes(demand_bytes, shares)
        if (demand_bytes > 0).all():
            if dense_latencies is None:
                dense_latencies = self.dense_demand_latencies(shares)
            latencies = dense_latencies
        else:
            # Zero demand cells deactivate their holder pairs.  The worst
            # active latency per layer is the first active cell in the
            # precomputed descending-latency order — a boolean gather +
            # argmax per phase, same exact float as the where/max
            # reduction it replaces (no arithmetic, only selection).  The
            # big-expert figure models (mean tokens/expert ~4) draw zero
            # cells nearly every iteration, making this the common path.
            active = cells.reshape(cells.shape[0], -1) > 0
            rows = np.arange(active.shape[0])
            latencies = np.empty((active.shape[0], 2))
            for phase in range(2):
                ordered = active[:, self._latency_order[phase]]
                first = ordered.argmax(axis=1)
                latencies[:, phase] = np.where(
                    ordered[rows, first], self._latency_sorted[phase, first], 0.0
                )
        durations = phase_durations_from_link_volumes(
            self.topology, volumes, latencies
        )
        return durations.sum(axis=1)

    def traffic_tensor(
        self, demand_bytes: np.ndarray, shares: np.ndarray
    ) -> np.ndarray:
        """Dense ``(layers, devices, devices)`` dispatch traffic tensor.

        Entry ``[l, src, dst]`` is the byte volume device ``src`` sends to
        ``dst`` in layer ``l``'s dispatch; combine is its transpose.  The
        hot path never materializes this (links aggregate straight off the
        operator); it backs the regression tests against the per-layer
        :class:`DispatchPlan` oracle.
        """
        holders = self._holder_fraction_tensor()
        cells = np.matmul(demand_bytes, shares)
        return np.einsum("gdh,lgd->lhd", holders, cells)

    def _holder_fraction_tensor(self) -> np.ndarray:
        """(groups, dest, holder) fraction tensor, self-fetches zeroed."""
        if self._holder_tensor is None:
            tensor = np.zeros(
                (self.num_groups, self.num_devices, self.num_devices)
            )
            for group in range(self.num_groups):
                for dest in range(self.num_devices):
                    for holder, fraction in self._table.entries(group, dest):
                        if holder != dest:
                            tensor[group, dest, holder] = fraction
            self._holder_tensor = sanitize.freeze(tensor)
        return self._holder_tensor


#: mapping -> LayeredAllToAllPricer, weakly keyed (pricers die with their
#: mapping; the route cache they fold lives on the topology regardless).
_PRICER_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def alltoall_pricer(mapping: "Mapping") -> LayeredAllToAllPricer:
    """The cached layer-batched pricer for this mapping."""
    pricer = _PRICER_CACHE.get(mapping)
    if pricer is None:
        pricer = LayeredAllToAllPricer(mapping)
        _PRICER_CACHE[mapping] = pricer
    return pricer


def dense_operator_nbytes(mapping: "Mapping") -> int:
    """Bytes the dense :class:`LayeredAllToAllPricer` operator would take.

    ``G * D * 2K`` float64 cells — computed analytically so scale studies
    can report (and CI can gate on) the dense footprint without ever
    materializing it.
    """
    topology = mapping.topology
    return mapping.dp * topology.num_devices * 2 * len(topology.links) * 8


#: Dense-operator footprint above which auto pricing-mode selection picks
#: the sparse tier.  Below it the dense operator fits comfortably and its
#: batched matmul wins; above it (256+-device systems — fig17's 16x16 mesh
#: prices a ~250 MB operator, a 4-wafer 1024-device system ~4 GB) sparse
#: is both smaller and faster to build.
SPARSE_AUTO_THRESHOLD_BYTES = 64 * 2**20


def prefer_sparse_pricing(mapping: "Mapping") -> bool:
    """The auto rule behind ``PricingConfig(sparse_pricing=None)``."""
    return dense_operator_nbytes(mapping) > SPARSE_AUTO_THRESHOLD_BYTES


# -- sparse incremental pricing ----------------------------------------------
#
# The dense operator's O(G * D * links) rows are mostly zeros twice over:
# only the *hosted* destination columns (bounded by total replica count,
# not D) can receive traffic, and a (group, dest) cell's routes touch only
# the few links on its holders' paths, not all 2K link slots.  The sparse
# tier below stores exactly the nonzero cells in CSR-style flat arrays and
# prices a placement stack by gathering each layer's (demand @ shares)
# cells into the entry list and reducing with one segmented bincount —
# identical terms to the dense matmul, reassociated (~1e-12), at
# O(nonzero entries) memory and work.


@dataclass
class _SparseDestRows:
    """CSR rows of one destination column: every (group, dest) entry.

    Entries are grouped by ``group`` (ascending) and ordered by link index
    within a group — the accumulation per cell is bit-identical to the
    dense operator's (same holder walk, same fancy-index adds).  Depends
    only on the mapping, so rows are built once per destination and shared
    by every placement epoch and layer that hosts the destination.
    """

    link_idx: np.ndarray  # (nnz,) into [0, 2 * num_links)
    weight: np.ndarray  # (nnz,) holder-fraction-weighted link bytes/byte
    group: np.ndarray  # (nnz,) demand group of each entry
    latency: np.ndarray  # (2, num_groups) worst path latency per phase

    @property
    def nbytes(self) -> int:
        return (
            self.link_idx.nbytes
            + self.weight.nbytes
            + self.group.nbytes
            + self.latency.nbytes
        )


@dataclass
class _SparseGather:
    """Flattened pricing structure for one hosted-destination set.

    Shared by every layer state whose placement hosts exactly these
    destinations (before any migration that is *all* layers), and cached
    across placement epochs — a migration that returns to a previously
    seen hosted set pays nothing.

    Entries are sorted by link slot (stable over the destination-major
    build order), so per-link volumes reduce with ``np.add.reduceat``
    over the run boundaries in ``row_starts`` — a segmented sum the
    pricer batches across every layer sharing the gather.
    """

    dests: np.ndarray  # (n,) hosted destination devices, ascending
    cell: np.ndarray  # (nnz,) into raveled (num_groups, n) cell matrix
    weight: np.ndarray  # (nnz,)
    row_starts: np.ndarray  # (rows,) first entry of each link run
    row_links: np.ndarray  # (rows,) link slot of each run, in [0, 2K)
    latency: np.ndarray  # (2, num_groups, n) per-cell worst path latency
    dense_latency: np.ndarray  # (2,) latency maxima under dense demand

    @property
    def nbytes(self) -> int:
        return (
            self.dests.nbytes
            + self.cell.nbytes
            + self.weight.nbytes
            + self.row_starts.nbytes
            + self.row_links.nbytes
            + self.latency.nbytes
            + self.dense_latency.nbytes
        )


@dataclass
class _SparseLayerState:
    """One layer placement's pricing state at a specific version."""

    version: int
    gather: _SparseGather
    shares_small: np.ndarray  # (experts, n) shares over hosted dests only


class SparseAllToAllPricer:
    """CSR-form all-to-all pricer with per-layer incremental states.

    The pricing identity is the dense pricer's: per-link volumes are
    ``sum_cells cells[g, d] * operator[(g, d), link]``.  Here the operator
    exists only as flat nonzero entries per hosted destination
    (:class:`_SparseDestRows`), a placement prices through a
    :class:`_SparseLayerState` holding its hosted-column share matrix and
    the shared :class:`_SparseGather`, and a stack of layers reduces with
    blocked segmented sums (``np.add.reduceat`` over the gather's
    link-sorted runs, batched across layers that share a gather).

    Incrementality is version-keyed at every level: states are cached per
    :class:`~repro.mapping.placement.ExpertPlacement` and revalidated
    against ``placement.version``, so migration-free iterations rebuild
    nothing (``state_rebuilds`` stays flat — the regression tests assert
    on it) and a migration burst rebuilds only the mutated layers' states,
    each of which is a share-column copy plus cache lookups (new
    destinations pay their route walks once, in ``dest_row_builds``).
    """

    #: Gather structures retained across placement epochs.  Serving runs
    #: revisit a handful of hosted sets; the cap only bounds pathological
    #: churn (every eviction is rebuildable from the dest rows).
    GATHER_CACHE_CAP = 64

    def __init__(self, mapping: "Mapping") -> None:
        topology = mapping.topology
        self.topology = topology
        self.num_groups = mapping.dp
        self.num_devices = topology.num_devices
        self.num_links = len(topology.links)
        self._table = mapping.token_holder_table()
        self._dest_rows: dict[int, _SparseDestRows] = {}
        self._gathers: "OrderedDict[tuple, _SparseGather]" = OrderedDict()
        self._states: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        #: Layer states (re)built — flat across migration-free iterations.
        self.state_rebuilds = 0
        #: Destination columns whose CSR rows were materialized.
        self.dest_row_builds = 0
        #: High-water mark of :meth:`operator_nbytes`.
        self.peak_operator_nbytes = 0

    # -- construction ---------------------------------------------------

    def _rows_for(self, dest: int) -> _SparseDestRows:
        """CSR rows of one destination column, built on first use."""
        rows = self._dest_rows.get(dest)
        if rows is not None:
            return rows
        num_links = self.num_links
        scratch = np.zeros(2 * num_links)
        idx_parts: list[np.ndarray] = []
        weight_parts: list[np.ndarray] = []
        group_parts: list[np.ndarray] = []
        latency = np.zeros((2, self.num_groups))
        for group in range(self.num_groups):
            touched: list[np.ndarray] = []
            for holder, fraction in self._table.entries(group, dest):
                if holder == dest:
                    continue
                idx, weights, path_latency = route_pair_arrays(
                    self.topology, holder, dest
                )
                scratch[idx] += fraction * weights
                touched.append(idx)
                if path_latency > latency[0, group]:
                    latency[0, group] = path_latency
                idx, weights, path_latency = route_pair_arrays(
                    self.topology, dest, holder
                )
                scratch[num_links + idx] += fraction * weights
                touched.append(num_links + idx)
                if path_latency > latency[1, group]:
                    latency[1, group] = path_latency
            if touched:
                cols = np.unique(np.concatenate(touched))
                values = scratch[cols].copy()
                scratch[cols] = 0.0
                idx_parts.append(cols)
                weight_parts.append(values)
                group_parts.append(np.full(cols.size, group, dtype=np.intp))
        if idx_parts:
            rows = _SparseDestRows(
                link_idx=np.concatenate(idx_parts),
                weight=np.concatenate(weight_parts),
                group=np.concatenate(group_parts),
                latency=latency,
            )
        else:
            rows = _SparseDestRows(
                link_idx=np.empty(0, dtype=np.intp),
                weight=np.empty(0),
                group=np.empty(0, dtype=np.intp),
                latency=latency,
            )
        sanitize.freeze((rows.link_idx, rows.weight, rows.group, rows.latency))
        self._dest_rows[dest] = rows
        self.dest_row_builds += 1
        self._note_memory()
        return rows

    def _gather_for(self, dests: tuple[int, ...]) -> _SparseGather:
        """The pricing structure for a hosted-destination set, cached."""
        gather = self._gathers.get(dests)
        if gather is not None:
            self._gathers.move_to_end(dests)
            return gather
        n = len(dests)
        idx_parts: list[np.ndarray] = []
        weight_parts: list[np.ndarray] = []
        cell_parts: list[np.ndarray] = []
        latency = np.zeros((2, self.num_groups, n))
        for pos, dest in enumerate(dests):
            rows = self._rows_for(dest)
            idx_parts.append(rows.link_idx)
            weight_parts.append(rows.weight)
            cell_parts.append(rows.group * n + pos)
            latency[:, :, pos] = rows.latency
        if idx_parts:
            link_idx = np.concatenate(idx_parts)
            weight = np.concatenate(weight_parts)
            cell = np.concatenate(cell_parts)
            # Sort by link slot (stable over the destination-major build
            # order, so the per-link summation order is deterministic) and
            # record the run boundaries for segmented reduction.
            order = np.argsort(link_idx, kind="stable")
            link_idx = link_idx[order]
            weight = weight[order]
            cell = cell[order]
            row_starts = np.flatnonzero(
                np.r_[True, np.diff(link_idx) > 0]
            )
            row_links = link_idx[row_starts]
        else:
            cell = np.empty(0, dtype=np.intp)
            weight = np.empty(0)
            row_starts = np.empty(0, dtype=np.intp)
            row_links = np.empty(0, dtype=np.intp)
        gather = _SparseGather(
            dests=np.asarray(dests, dtype=np.intp),
            cell=cell,
            weight=weight,
            row_starts=row_starts,
            row_links=row_links,
            latency=latency,
            dense_latency=(
                latency.max(axis=(1, 2)) if n else np.zeros(2)
            ),
        )
        sanitize.freeze(
            (
                gather.dests,
                gather.cell,
                gather.weight,
                gather.row_starts,
                gather.row_links,
                gather.latency,
                gather.dense_latency,
            )
        )
        self._gathers[dests] = gather
        if len(self._gathers) > self.GATHER_CACHE_CAP:
            self._gathers.popitem(last=False)
        self._note_memory()
        return gather

    def state_for(self, placement: "ExpertPlacement") -> _SparseLayerState:
        """This placement's pricing state, rebuilt only when its version
        moved since the cached state was taken."""
        state = self._states.get(placement)
        if state is not None and state.version == placement.version:
            return state
        shares = placement.destination_shares
        dests = np.flatnonzero(shares.any(axis=0))
        gather = self._gather_for(tuple(dests.tolist()))
        state = _SparseLayerState(
            version=placement.version,
            gather=gather,
            shares_small=sanitize.freeze(shares[:, dests].copy()),
        )
        self._states[placement] = state
        self.state_rebuilds += 1
        return state

    # -- pricing --------------------------------------------------------

    def link_volumes(
        self, demand_bytes: np.ndarray, states: list
    ) -> np.ndarray:
        """Per-link volumes for a stack of layer states.

        ``demand_bytes`` is one shared ``(groups, experts)`` matrix or a
        ``(layers, groups, experts)`` stack; returns ``(layers, 2,
        num_links)`` in the dense pricer's link order.
        """
        volumes, _ = self._reduce(demand_bytes, states, with_latencies=False)
        return volumes

    def durations(
        self, demand_bytes: np.ndarray, states: list
    ) -> np.ndarray:
        """Dispatch+combine durations per layer state: ``(layers,)``.

        Matches :meth:`LayeredAllToAllPricer.durations` on the same
        placements to summation-order rounding (~1e-12 relative): the
        active-cell masks agree exactly (nonnegative products cannot round
        to a spurious zero), the latency maxima are exact, and only the
        per-link sums reassociate.
        """
        volumes, latencies = self._reduce(
            demand_bytes, states, with_latencies=True
        )
        durations = phase_durations_from_link_volumes(
            self.topology, volumes, latencies
        )
        return durations.sum(axis=1)

    #: Layers reduced per segmented-sum batch.  Bounds the transient
    #: ``(nnz, block)`` gather buffer (~200 MiB at 1024 devices) while
    #: amortizing each link-run walk across the block's layers.
    _LAYER_BLOCK = 8

    def _reduce(
        self, demand_bytes: np.ndarray, states: list, with_latencies: bool
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Segmented reduction over every state's gathered entries.

        Layers sharing one gather (all of them, until a migration splits
        the hosted sets) reduce together: their cell matrices become the
        columns of one ``(cells, layers)`` block, a single fancy-index
        pulls every entry's value for the whole block, and one
        ``np.add.reduceat`` over the gather's link runs yields per-link
        volumes for every layer at once.
        """
        num_layers = len(states)
        two_k = 2 * self.num_links
        stacked = demand_bytes.ndim == 3
        dense_demand = bool((demand_bytes > 0).all())
        volumes = np.zeros((num_layers, two_k))
        latencies = np.zeros((num_layers, 2)) if with_latencies else None
        cells_by_layer: list[np.ndarray] = []
        layers_by_gather: dict[int, list[int]] = {}
        gather_by_id: dict[int, _SparseGather] = {}
        for layer, state in enumerate(states):
            demand = demand_bytes[layer] if stacked else demand_bytes
            cells = demand @ state.shares_small
            cells_by_layer.append(cells)
            gather = state.gather
            layers_by_gather.setdefault(id(gather), []).append(layer)
            gather_by_id[id(gather)] = gather
            if not with_latencies:
                continue
            if dense_demand:
                latencies[layer] = gather.dense_latency
            elif gather.cell.size:
                active = cells > 0
                for phase in (0, 1):
                    latencies[layer, phase] = np.where(
                        active, gather.latency[phase], 0.0
                    ).max()
        for key, layers in layers_by_gather.items():
            gather = gather_by_id[key]
            if not gather.cell.size:
                continue
            for start in range(0, len(layers), self._LAYER_BLOCK):
                block = layers[start : start + self._LAYER_BLOCK]
                cell_cols = np.empty(
                    (cells_by_layer[block[0]].size, len(block))
                )
                for col, layer in enumerate(block):
                    cell_cols[:, col] = cells_by_layer[layer].ravel()
                values = cell_cols[gather.cell]
                values *= gather.weight[:, None]
                reduced = np.add.reduceat(values, gather.row_starts, axis=0)
                volumes[np.ix_(block, gather.row_links)] = reduced.T
        return volumes.reshape(num_layers, 2, self.num_links), latencies

    # -- memory accounting ----------------------------------------------

    def operator_nbytes(self) -> int:
        """Bytes held by the operator structures (CSR rows + gathers).

        Per-state share columns are excluded — they are the placement
        representation (the dense tier's share stacks are likewise not
        operator memory), not the ``(group, dest) -> link`` map.
        """
        return sum(rows.nbytes for rows in self._dest_rows.values()) + sum(
            gather.nbytes for gather in self._gathers.values()
        )

    def _note_memory(self) -> None:
        current = self.operator_nbytes()
        if current > self.peak_operator_nbytes:
            self.peak_operator_nbytes = current


#: mapping -> SparseAllToAllPricer, weakly keyed like _PRICER_CACHE.
_SPARSE_PRICER_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def sparse_alltoall_pricer(mapping: "Mapping") -> SparseAllToAllPricer:
    """The cached sparse incremental pricer for this mapping."""
    pricer = _SPARSE_PRICER_CACHE.get(mapping)
    if pricer is None:
        pricer = SparseAllToAllPricer(mapping)
        _SPARSE_PRICER_CACHE[mapping] = pricer
    return pricer


class LayeredDispatchPlan:
    """Per-layer all-to-all pricing for one placement epoch of a stack.

    Layer 0's price is the serving loop's exact :func:`simulate_alltoall`
    result, passed through verbatim; every later layer is priced against
    its own demand rows and its own destination shares in one batched
    operator product.  What the plan holds stays valid until the next
    migration: the dense tier's zero-copy view of the
    :class:`~repro.mapping.placement.StackedPlacement` share tensor (safe
    because any mutation bumps a layer version and retires the plan) with
    its dense-demand latency maxima, or — with ``sparse=True`` — the
    :class:`SparseAllToAllPricer`'s per-layer states (version-validated
    against each layer, so unmutated layers reuse their states across
    plans; the dense operator is never materialized).
    :func:`layered_dispatch_plan` caches one plan per
    ``(mapping, pricing operator, per-layer version vector)``.
    """

    def __init__(
        self,
        mapping: "Mapping",
        placement: "StackedPlacement",
        sparse: bool = False,
    ) -> None:
        self.sparse = sparse
        self.num_layers = placement.num_layers
        self.pricer = None if sparse else alltoall_pricer(mapping)
        self.sparse_pricer = sparse_alltoall_pricer(mapping) if sparse else None
        if sparse:
            self._states = [
                self.sparse_pricer.state_for(layer)
                for layer in placement.layers[1:]
            ]
        else:
            self._shares = placement.destination_shares[1:]
            self._dense_latencies = sanitize.freeze(
                self.pricer.dense_demand_latencies(self._shares)
            )

    def alltoall_durations_resolved(
        self, demand_stack: np.ndarray, layer0_duration: float
    ) -> np.ndarray:
        """Per-layer dispatch+combine durations, ``(num_layers,)``.

        ``demand_stack`` is the ``(layers, groups, experts)`` byte-demand
        tensor.  Layer 0 keeps ``layer0_duration`` — the exact
        :func:`simulate_alltoall` price of its own demand — and every other
        layer is priced against its own placement and its own demand rows.
        """
        durations = np.empty(self.num_layers)
        durations[0] = layer0_duration
        if self.num_layers > 1:
            if self.sparse:
                durations[1:] = self.sparse_pricer.durations(
                    demand_stack[1:], self._states
                )
            else:
                durations[1:] = self.pricer.durations(
                    demand_stack[1:], self._shares, self._dense_latencies
                )
        return durations


#: stacked placement -> {(id(mapping), sparse):
#:     (mapping weakref, version vector, plan)}.
#: The per-layer version vector invalidates the plan exactly when a
#: migration or eviction mutates any layer.  The pricing operator is part
#: of the key: a plan is built for one operator, and toggling
#: ``sparse_pricing`` mid-session must never resolve to a plan priced the
#: other way.
_LAYERED_PLAN_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def layered_dispatch_plan(
    mapping: "Mapping", placement: "StackedPlacement", sparse: bool = False
) -> LayeredDispatchPlan:
    """The cached layered plan for this (mapping, operator, version vector)."""
    per_mapping = _LAYERED_PLAN_CACHE.setdefault(placement, {})
    versions = placement.versions.tobytes()
    key = (id(mapping), sparse)
    entry = per_mapping.get(key)
    if entry is not None:
        mapping_ref, cached_versions, plan = entry
        if mapping_ref() is mapping and cached_versions == versions:
            return plan
    _sweep_dead_mappings(per_mapping)
    plan = LayeredDispatchPlan(mapping, placement, sparse=sparse)
    per_mapping[key] = (weakref.ref(mapping), versions, plan)
    return plan


def clear_plan_caches() -> None:
    """Drop every module-level pricing cache.

    The caches are weakly keyed on placements/mappings and version-checked,
    so stale *results* can't normally be served — but cache *state* (LRU
    contents, per-layer sparse states, plan objects) can still leak across
    tests or outlive a fault-injected topology change.  Tests clear them
    between cases via an autouse fixture (``tests/conftest.py``); fault
    tooling may call this after mutating a topology's health out-of-band.
    """
    _PLAN_CACHE.clear()
    _PRICER_CACHE.clear()
    _SPARSE_PRICER_CACHE.clear()
    _LAYERED_PLAN_CACHE.clear()

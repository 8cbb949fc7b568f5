"""MoE all-to-all (dispatch + combine) simulation.

The dispatch traffic follows the paper's token-fetch model: a device hosting
an expert pulls each token from the nearest holder of that token (Sec. IV-A).
Which devices hold a token is the mapping's business — with all-gather
retained every member of the token's TP group is a holder, without it only
the shard owner is — so the mapping supplies its precomputed
:class:`~repro.mapping.base.HolderTable` and this module stays
mapping-agnostic.  Combine mirrors dispatch with reversed flow directions,
so the pricer routes dispatch only and reads combine off the reversed links.

Every all-to-all is priced one way, by the mapping's
:class:`SparseAllToAllPricer`.  The serving loop prices its layer stacks
through :class:`LayeredDispatchPlan`, every layer against its own demand
rows and its own (possibly migration-diverged) placement; the single-layer
figures call :func:`simulate_alltoall`, which prices a one-layer stack
on the same pricer.  The
``(group, dest) -> link`` map is stored as one scipy CSR matrix per
hosted-destination set, built lazily from per-destination rows, and a
stack prices with one gather of its hosted cells from the demand stack
plus one sparse product per hosted set — see the layer-batched pricing
section below.  Per-layer states, gather rows included, are keyed on
the stack and layer and checked against the layer's version, so
migrations rebuild only the touched layers' states, and memory is
bounded by replica count and route length,
not ``O(G * D * links)``, which is what makes 1024+-device multi-wafer
systems simulable.  See ``docs/pricing-operators.md`` for the model.
"""

import numbers
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np
from scipy import sparse

from repro import sanitize
from repro.network.phase import (
    PhaseResult,
    link_reversal,
    phase_durations_from_link_volumes,
    phase_result_from_link_volumes,
    route_rows,
)
from repro.topology.base import Topology

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.mapping.base import Mapping
    from repro.mapping.placement import StackedPlacement


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


def _validate_demand(demand_bytes: np.ndarray) -> None:
    if demand_bytes.ndim != 2:
        raise ValueError(
            f"demand must be 2-D (groups x experts), got {demand_bytes.ndim}-D"
        )
    if not np.isfinite(demand_bytes).all():
        raise ValueError("demand volumes must be finite")
    if (demand_bytes < 0).any():
        raise ValueError("demand volumes must be >= 0")


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
    if not np.isfinite(counts).all():
        raise ValueError("token counts must be finite")
    if (counts < 0).any():
        raise ValueError("token counts must be >= 0")
    return counts * token_bytes


# -- layer-batched pricing ---------------------------------------------------
#
# Every layer of a serving stack carries its own demand rows and, once
# migrations land, its own placement, so no one layer's all-to-all price
# is representative of the others.  For one (immutable) mapping the dispatch
# traffic of any placement factorizes as
# ``T[src, dst] = sum_g frac(g, dst, src) * M[g, dst]``, where the cells
# ``M = demand @ destination_shares`` are the only placement-dependent
# tensor.  Contracting the holder fractions with the cached route weights
# gives a ``(group, dest) -> link`` operator.  Only hosted destinations
# (devices holding a replica) receive traffic and a cell's routes touch
# only a few links, so each operator is a scipy CSR matrix over the hosted
# cells alone.  The share matrix is almost all zeros and the stack keeps
# only its nonzeros, the replica entries, so the cells come from those
# entries instead of a matmul: a hosted cell is
# its destination's first entry's demand times its share, plus each
# further entry's product in entry order (natives before shadows) — a
# fixed-order sum that no BLAS kernel choice can move.  A whole stack then
# prices with one gather plus one sparse product per hosted-destination
# set, and combine with one gather through the link reversal.  The
# per-link volumes equal the per-pair sums of the pair-list pricing in
# ``tests/alltoall_reference.py`` mathematically (same terms, reassociated),
# not bitwise (a few ulps apart); the tests hold the pricer to that
# reference.


@dataclass
class _DestRows:
    """Operator entries of one destination column, for every group.

    Entries are the dispatch phase's (combine mirrors them), grouped by
    demand group (ascending) and ordered by link slot within a group:
    group ``g``'s entries are ``offsets[g]:offsets[g + 1]``.  The
    latencies cover both phases: combine's come from the ``dest ->
    holder`` walks.  Depends only on the mapping, so rows are built once
    per destination and shared by every hosted set that contains it.
    """

    link_idx: np.ndarray  # (nnz,) dispatch link slots, in [0, num_links)
    weight: np.ndarray  # (nnz,) holder-fraction-weighted link bytes/byte
    offsets: np.ndarray  # (num_groups + 1,) each group's first entry, then nnz
    latency: np.ndarray  # (2, num_groups) worst path latency per phase

    @property
    def nbytes(self) -> int:
        return (
            self.link_idx.nbytes
            + self.weight.nbytes
            + self.offsets.nbytes
            + self.latency.nbytes
        )


@dataclass
class _HostedSet:
    """The link operator of one hosted-destination set.

    ``operator`` has one row per ``(group, dest)`` cell over the hosted
    destinations, in ascending ``(group, dest)`` order, and one column per
    dispatch link: the rows of the full ``(G * D, K)`` dispatch operator
    with the unhosted columns' rows dropped.
    Those cells only ever carry exact zeros, so a product over the hosted
    rows sums the same nonzero terms in the same order.  ``transposed`` is
    its CSC view, built once: scipy computes ``cells @ operator`` as
    ``(operator.T @ cells.T).T``, so pricing calls ``transposed @ cells``
    on cells gathered as ``(cells, layers)`` — the same sums, without a
    transpose and a copy per call.  Shared by every layer whose placement
    hosts exactly these destinations, and cached across placement epochs.
    """

    dests: np.ndarray  # (n,) hosted destination devices, ascending
    operator: "sparse.csr_array"  # (num_groups * n, num_links)
    transposed: "sparse.csc_array"  # operator.T, sharing its arrays
    latency_order: np.ndarray  # (2, num_groups * n) cells, latency descending
    latency_sorted: np.ndarray  # (2, num_groups * n) the matching latencies
    dense_latency: np.ndarray  # (2,) latency maxima under dense demand

    @property
    def nbytes(self) -> int:
        return (
            self.dests.nbytes
            + self.operator.data.nbytes
            + self.operator.indices.nbytes
            + self.operator.indptr.nbytes
            + self.latency_order.nbytes
            + self.latency_sorted.nbytes
            + self.dense_latency.nbytes
        )


@dataclass
class _LayerState:
    """One layer placement's hosted set and gather rows at a version.

    The gather rows come from the layer's replica entries, one plane per
    entry rank: ``experts[r, pos]`` is the ``r``-th entry on hosted
    destination ``pos`` (natives first) and ``shares[r, pos]`` its
    destination share, 0 where the destination has fewer entries.
    """

    version: int
    hosted: _HostedSet
    experts: np.ndarray  # (ranks, n) expert of each entry, 0 where padded
    shares: np.ndarray  # (ranks, n) its destination share, 0.0 where padded


@dataclass
class _StackStates:
    """One stack's cached layer states, with the version each was taken
    at (-1 where a layer has none yet)."""

    versions: np.ndarray  # (layers,)
    states: list  # (layers,) _LayerState or None


class _Scratch:
    """Grow-only work arrays for one pricer's cell gathers.

    Every gather writes into views of the same flat arrays, so a pricing
    step allocates nothing that scales with the cells.  Fresh
    group-sized arrays every step are handed out and trimmed back by the
    allocator each time, and the page faults of touching them again cost
    the 64-device serving step about a fifth of its time.
    """

    def __init__(self) -> None:
        self._flat: dict[str, np.ndarray] = {}

    def view(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """A ``shape`` view of the array ``name``, grown when too small;
        the next request for ``name`` overwrites it."""
        size = int(np.prod(shape))
        flat = self._flat.get(name)
        if flat is None or flat.size < size:
            flat = self._flat[name] = np.empty(size, dtype=dtype)
        return flat[:size].reshape(shape)


@dataclass
class _GatherBatch:
    """The layers sharing one hosted set, with their stacked gather rows.

    ``layers`` is a full slice when one set serves every layer.
    ``sources[r, pos, row]`` is the flat demand-stack index, at group 0,
    of the ``r``-th entry on destination ``pos`` for the batch's
    ``row``-th layer, and ``shares`` its share: entry-sized planes,
    expanded over the groups per step, in the pricer's ``scratch``.
    """

    hosted: _HostedSet
    layers: "slice | np.ndarray"
    sources: np.ndarray  # (ranks, n, l)
    shares: np.ndarray  # (ranks, n, l)
    scratch: _Scratch = field(repr=False)

    def cells(self, demand_bytes: np.ndarray) -> np.ndarray:
        """The batch's hosted cells of a ``(layers, groups, experts)``
        demand stack: ``(groups * n, l)``, one row per ``(group, dest)``
        cell in ascending order and one column per layer.

        A cell is its destination's first entry's demand times share,
        plus each further entry's product, added rank by rank in entry
        order; a padded rank adds an exact zero.  The result is a view of
        the pricer's scratch: the next gather overwrites it.
        """
        num_groups, num_experts = demand_bytes.shape[1:]
        flat = demand_bytes.reshape(-1)
        shape = (num_groups,) + self.sources.shape[1:]
        index = self.scratch.view("index", shape, np.intp)
        cells = self.scratch.view("cells", shape)
        offsets = (np.arange(num_groups) * num_experts)[:, None, None]
        # The indices are in range by construction; "clip" lets take
        # write into ``out`` without an intermediate copy.
        np.add(self.sources[0], offsets, out=index)
        np.take(flat, index, out=cells, mode="clip")
        cells *= self.shares[0]
        for sources, shares in zip(self.sources[1:], self.shares[1:]):
            products = self.scratch.view("products", shape)
            np.add(sources, offsets, out=index)
            np.take(flat, index, out=products, mode="clip")
            products *= shares
            cells += products
        return cells.reshape(-1, shape[2])


#: A stack's layers grouped by hosted set.
HostedBatches = list[_GatherBatch]


def _deepened(plane: np.ndarray, ranks: int) -> np.ndarray:
    """``plane`` with zero rows appended up to ``ranks`` rows."""
    if len(plane) == ranks:
        return plane
    return np.concatenate([plane, np.zeros((ranks - len(plane), plane.shape[1]), plane.dtype)])


def _gather_batch(
    layers: list[int],
    states: list[_LayerState],
    num_layers: int,
    stride: int,
    scratch: _Scratch,
) -> _GatherBatch:
    """Stack the gather rows of the layers that share one hosted set;
    ``stride`` is one layer's size in the flat demand stack.

    A layer with fewer entry ranks than the deepest is padded with zero
    shares, which gather exact zeros from its own layer.
    """
    ranks = max(len(state.experts) for state in states)
    sources = np.concatenate(
        [_deepened(state.experts, ranks)[..., None] for state in states], axis=-1
    )
    sources += np.asarray(layers, dtype=np.intp) * stride
    shares = np.concatenate(
        [_deepened(state.shares, ranks)[..., None] for state in states], axis=-1
    )
    batch = _GatherBatch(
        hosted=states[0].hosted,
        layers=slice(None) if len(layers) == num_layers else np.array(layers),
        sources=sources,
        shares=shares,
        scratch=scratch,
    )
    # Plans serve their batches for a whole placement epoch.
    sanitize.freeze((batch.layers, batch.sources, batch.shares))
    return batch


class SparseAllToAllPricer:
    """All-to-all pricer over CSR ``(group, dest) -> link`` operators.

    The dispatch volumes of one layer are
    ``sum_{g, d} cells[g, d] * operator[(g, d), link]`` over the ``K``
    links, with ``cells = demand @ destination_shares``.  Combine routes
    ``dest -> holder`` over the reversed links, so its volume on a link is
    the dispatch volume on the link's reverse, bit for bit, and the
    operator has dispatch columns only; every link must have a reverse.
    The cells are not a matmul: each hosted cell sums the demand-times-
    share products of its destination's replica entries
    (:meth:`~repro.mapping.placement.StackedPlacement.replica_entries`)
    in entry order, gathered per step through the layer states' gather
    rows.  The operator is built lazily: per-destination rows
    (:class:`_DestRows`) from batched route rows, concatenated into one
    CSR matrix per hosted-destination set (:class:`_HostedSet`).

    Incrementality is version-keyed: layer states are cached per
    ``(stack, layer)`` and revalidated against the stack's
    :attr:`~repro.mapping.placement.StackedPlacement.versions`, so
    migration-free iterations rebuild nothing
    (``state_rebuilds`` stays flat — the regression tests assert on it)
    and a migration burst rebuilds only the mutated layers' states: their
    gather rows and a hosted-set cache lookup (new destinations pay their
    row build once, in ``dest_row_builds``).
    """

    #: Hosted sets retained across placement epochs.  Serving runs revisit
    #: a handful of sets; the cap only bounds pathological churn (every
    #: eviction is rebuildable from the dest rows).
    HOSTED_CACHE_CAP = 64

    #: Holder pairs per destination-row batch.  One batch over all 256
    #: destinations of a 1024-device hosted set more than doubled the
    #: build's peak RSS; batches of this size build as fast as larger ones.
    ROW_BATCH_PAIRS = 4096

    def __init__(self, mapping: "Mapping") -> None:
        topology = mapping.topology
        self.topology = topology
        self.num_groups = mapping.dp
        self.num_devices = topology.num_devices
        self.num_links = len(topology.links)
        self._reverse = link_reversal(topology)
        one_way = np.flatnonzero(self._reverse < 0)
        if one_way.size:
            link = list(topology.links)[one_way[0]]
            raise ValueError(
                f"link {link} has no reverse link; the combine phase retraces "
                "dispatch routes backwards"
            )
        self._table = mapping.token_holder_table()
        self._dest_rows: dict[int, _DestRows] = {}
        self._hosted: "OrderedDict[tuple, _HostedSet]" = OrderedDict()
        #: stack -> _StackStates, weakly keyed: states die with their stack.
        self._states: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._scratch = _Scratch()
        #: Layer states (re)built — flat across migration-free iterations.
        self.state_rebuilds = 0
        #: Destination columns whose rows were materialized.
        self.dest_row_builds = 0
        #: High-water mark of :meth:`operator_nbytes`.
        self.peak_operator_nbytes = 0

    # -- construction ---------------------------------------------------

    def _build_rows(self, dests: np.ndarray) -> None:
        """Operator rows of a batch of destination columns.

        One route-row gather covers the batch's remote ``holder -> dest``
        pairs in holder-table order, and one ``bincount`` sums each
        (destination, group, link slot) over them in that order — the
        per-holder accumulation order, so rows do not depend on the
        batching.  The same rows carry each pair's reversed latency, the
        combine phase's.
        """
        table = self._table
        num_groups = self.num_groups
        # Batch cell (destination position * groups + group) of each pair.
        cells = (dests[:, None] + np.arange(num_groups) * self.num_devices).ravel()
        starts = table.offsets[cells]
        sizes = table.offsets[cells + 1] - starts
        entries = np.repeat(starts - np.cumsum(sizes) + sizes, sizes)
        entries += np.arange(entries.size)
        cell = np.repeat(np.arange(cells.size), sizes)
        holders = table.holders[entries]
        dest = dests[cell // num_groups]
        remote = holders != dest
        holders, dest, cell = holders[remote], dest[remote], cell[remote]
        fractions = table.fractions[entries[remote]]
        counts, links, weights, dispatch_latency, combine_latency = route_rows(
            self.topology, holders, dest
        )
        latency = np.zeros((2, cells.size))
        np.maximum.at(latency[0], cell, dispatch_latency)
        np.maximum.at(latency[1], cell, combine_latency)
        touched, inverse = np.unique(
            np.repeat(cell * self.num_links, counts) + links, return_inverse=True
        )
        weight = np.bincount(
            inverse, weights=np.repeat(fractions, counts) * weights, minlength=touched.size
        )
        cell_of, link_idx = np.divmod(touched, self.num_links)
        # Entries are in ascending cell order, so a search finds each
        # cell's first; a destination's group offsets count from its own.
        bounds = np.searchsorted(cell_of, np.arange(cells.size + 1))
        windows = np.lib.stride_tricks.sliding_window_view(bounds, num_groups + 1)
        windows = windows[::num_groups]
        offsets = windows - windows[:, :1]
        latency = latency.reshape(2, dests.size, num_groups).transpose(1, 0, 2).copy()
        # Each destination's rows are views of the batch arrays.
        sanitize.freeze((link_idx, weight, offsets, latency))
        for pos, dest in enumerate(dests.tolist()):
            part = slice(windows[pos, 0], windows[pos, -1])
            self._dest_rows[dest] = _DestRows(
                link_idx[part], weight[part], offsets[pos], latency[pos]
            )
        self.dest_row_builds += dests.size
        self._note_memory()

    def _hosted_for(self, dests: tuple[int, ...]) -> _HostedSet:
        """The operator of a hosted-destination set, cached."""
        hosted = self._hosted.get(dests)
        if hosted is not None:
            self._hosted.move_to_end(dests)
            return hosted
        n = len(dests)
        num_cells = self.num_groups * n
        missing = [dest for dest in dests if dest not in self._dest_rows]
        pairs_per_dest = self._table.holders.size // self.num_devices
        batch = max(1, self.ROW_BATCH_PAIRS // pairs_per_dest)
        for start in range(0, len(missing), batch):
            self._build_rows(np.array(missing[start : start + batch], dtype=np.intp))
        rows = [self._dest_rows[dest] for dest in dests]
        # Cell (g, pos)'s entries are destination pos's group-g slice, at
        # ``starts[g, pos]`` in the rows laid end to end: one gather reads
        # the cells in ascending (group, dest) order, each cell's entries
        # in link order.  A layer whose experts fail-stop all orphaned
        # hosts nothing; the empty leading parts keep its empty set well
        # formed.
        offsets = np.array([r.offsets for r in rows], dtype=np.intp)
        offsets = offsets.reshape(n, self.num_groups + 1)
        starts = np.zeros(n, dtype=np.intp)
        np.cumsum(offsets[:-1, -1], out=starts[1:])
        starts = (starts[:, None] + offsets[:, :-1]).T.ravel()
        sizes = np.diff(offsets, axis=1).T.ravel()
        indptr = np.zeros(num_cells + 1, dtype=np.intp)
        np.cumsum(sizes, out=indptr[1:])
        gather = np.repeat(starts - indptr[:-1], sizes)
        gather += np.arange(gather.size)
        weight = np.concatenate([np.empty(0)] + [r.weight for r in rows])
        link_idx = np.concatenate([np.empty(0, dtype=np.intp)] + [r.link_idx for r in rows])
        operator = sparse.csr_array(
            (weight[gather], link_idx[gather], indptr), shape=(num_cells, self.num_links)
        )
        latency = (
            np.reshape([r.latency for r in rows], (n, 2, self.num_groups))
            .transpose(1, 2, 0)
            .reshape(2, num_cells)
        )
        latency_order = np.argsort(-latency, axis=1)
        hosted = _HostedSet(
            dests=np.asarray(dests, dtype=np.intp),
            operator=operator,
            transposed=operator.T,
            latency_order=latency_order,
            latency_sorted=np.take_along_axis(latency, latency_order, axis=1),
            dense_latency=latency.max(axis=1, initial=0.0),
        )
        sanitize.freeze(
            (
                hosted.dests,
                operator.data,
                operator.indices,
                operator.indptr,
                hosted.transposed.data,
                hosted.transposed.indices,
                hosted.transposed.indptr,
                hosted.latency_order,
                hosted.latency_sorted,
                hosted.dense_latency,
            )
        )
        self._hosted[dests] = hosted
        if len(self._hosted) > self.HOSTED_CACHE_CAP:
            self._hosted.popitem(last=False)
        self._note_memory()
        return hosted

    def state_for(self, placement: "StackedPlacement", layers):
        """The pricing states of ``layers``, a sequence of layer indices
        (or one layer's state, for an index), rebuilding those whose
        layer version moved since their cached state was taken.

        The stale layers rebuild together, in one pass over their slices
        of the stack's replica entries: each run of entries on one device
        is a hosted destination, and an entry's place in its run is its
        rank.  Layers with equal destination sets share one hosted-set
        lookup.
        """
        if isinstance(layers, numbers.Integral):
            return self.state_for(placement, [layers])[0]
        cached = self._states.get(placement)
        if cached is None:
            cached = _StackStates(
                np.full(placement.num_layers, -1, dtype=np.int64),
                [None] * placement.num_layers,
            )
            self._states[placement] = cached
        layers = np.asarray(layers, dtype=np.intp)
        versions = placement.versions
        stale = cached.versions != versions
        if stale[layers].any():
            asked = np.zeros(placement.num_layers, dtype=bool)
            asked[layers] = True
            self._rebuild_states(placement, np.flatnonzero(stale & asked), versions, cached)
        states = cached.states
        return [states[layer] for layer in layers.tolist()]

    def _rebuild_states(
        self,
        placement: "StackedPlacement",
        stale: np.ndarray,
        versions: np.ndarray,
        cached: _StackStates,
    ) -> None:
        """Rebuild the states of the ascending, distinct ``stale`` layers
        in one pass over their replica entries."""
        entries = placement.replica_entries()
        layer, device, expert, share = entries.layer, entries.device, entries.expert, entries.share
        num_layers = placement.num_layers
        if stale.size < num_layers:
            is_stale = np.zeros(num_layers, dtype=bool)
            is_stale[stale] = True
            pick = np.flatnonzero(is_stale[layer])
            layer, device, expert, share = layer[pick], device[pick], expert[pick], share[pick]
        # Entries come grouped by (layer, device): each group is a hosted
        # destination, and an entry's place in its group is its rank.
        group = layer * placement.num_devices + device
        starts_group = np.ones(group.size, dtype=bool)
        starts_group[1:] = group[1:] != group[:-1]
        starts = np.flatnonzero(starts_group)
        run = np.cumsum(starts_group) - 1
        rank = np.arange(group.size) - starts[run]
        # Per layer: its hosted destinations (runs), the first of them,
        # its entry depth and its gather planes' block in the flat arrays.
        runs = np.bincount(layer[starts], minlength=num_layers)
        first_run = np.cumsum(runs) - runs
        depth = np.ones(num_layers, dtype=np.intp)
        np.maximum.at(depth, layer, rank + 1)
        block = depth * runs
        block_end = np.cumsum(block)
        flat = (block_end - block)[layer] + rank * runs[layer] + run - first_run[layer]
        experts = np.zeros(block_end[-1], dtype=np.intp)
        shares = np.zeros(block_end[-1])
        experts[flat] = expert
        shares[flat] = share
        sanitize.freeze((experts, shares))
        dests = device[starts]
        versions = versions[stale]
        hosted_sets: dict[bytes, _HostedSet] = {}
        for index, version, first, count, end, rows in zip(
            stale.tolist(),
            versions.tolist(),
            first_run[stale].tolist(),
            runs[stale].tolist(),
            block_end[stale].tolist(),
            depth[stale].tolist(),
        ):
            layer_dests = dests[first : first + count]
            key = layer_dests.tobytes()
            hosted = hosted_sets.get(key)
            if hosted is None:
                hosted = hosted_sets[key] = self._hosted_for(tuple(layer_dests.tolist()))
            part = slice(end - rows * count, end)
            cached.states[index] = _LayerState(
                version=version,
                hosted=hosted,
                experts=experts[part].reshape(rows, count),
                shares=shares[part].reshape(rows, count),
            )
        cached.versions[stale] = versions
        self.state_rebuilds += stale.size

    def hosted_batches(self, placement: "StackedPlacement") -> HostedBatches:
        """A placement stack's layers grouped by hosted set, with their
        stacked gather rows."""
        states = self.state_for(placement, np.arange(placement.num_layers))
        by_set: dict[int, tuple[list[int], list[_LayerState]]] = {}
        for layer, state in enumerate(states):
            layers, members = by_set.setdefault(id(state.hosted), ([], []))
            layers.append(layer)
            members.append(state)
        stride = self.num_groups * placement.num_experts
        return [
            _gather_batch(layers, members, placement.num_layers, stride, self._scratch)
            for layers, members in by_set.values()
        ]

    # -- pricing --------------------------------------------------------

    def link_volumes(
        self, demand_bytes: np.ndarray, batches: HostedBatches
    ) -> np.ndarray:
        """Per-link volumes ``(layers, 2, num_links)`` of a stack, in
        route-cache link order (dispatch phase first).

        ``demand_bytes`` is the ``(layers, groups, experts)`` demand stack
        and ``batches`` the placement stack's :meth:`hosted_batches`.
        """
        volumes, _ = self._price(demand_bytes, batches, with_latencies=False)
        return volumes

    def durations(
        self, demand_bytes: np.ndarray, batches: HostedBatches
    ) -> np.ndarray:
        """Dispatch and combine durations per layer: ``(layers, 2)`` seconds.

        Arguments as in :meth:`link_volumes`.  Each layer's phases follow
        :func:`simulate_phase`'s cut-through semantics (busiest-link drain
        plus worst active path latency).
        """
        volumes, latencies = self._price(demand_bytes, batches, with_latencies=True)
        return phase_durations_from_link_volumes(self.topology, volumes, latencies)

    def _price(
        self,
        demand_bytes: np.ndarray,
        batches: HostedBatches,
        with_latencies: bool,
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Per-link volumes and worst active path latencies of a stack.

        Each hosted set gathers its layers' cells from the demand stack and
        prices their dispatch with one CSR product.  A layer's cells and its
        per-link sums over them, in ascending ``(group, dest)`` order,
        involve no other layer, so its price does not depend on which
        layers share its batch.  Combine is one gather of the dispatch
        volumes through the link reversal.
        """
        num_layers = demand_bytes.shape[0]
        volumes = np.empty((num_layers, 2, self.num_links))
        latencies = np.empty((num_layers, 2)) if with_latencies else None
        dense_demand = with_latencies and bool((demand_bytes > 0).all())
        for batch in batches:
            hosted, layers = batch.hosted, batch.layers
            cells = batch.cells(demand_bytes)
            volumes[layers, 0] = (hosted.transposed @ cells).T
            if not with_latencies:
                continue
            if dense_demand or not hosted.dests.size:
                # Dense demand activates every hosted cell; an empty set
                # has none, and a zero maximum.
                latencies[layers] = hosted.dense_latency
                continue
            # Zero demand cells deactivate their holder pairs.  The worst
            # active latency is the first active cell in descending-latency
            # order: selection only, so the maximum is exact.
            active = cells > 0
            columns = np.arange(active.shape[1])
            for phase in (0, 1):
                ordered = active[hosted.latency_order[phase]]
                first = ordered.argmax(axis=0)
                latencies[layers, phase] = np.where(
                    ordered[first, columns], hosted.latency_sorted[phase, first], 0.0
                )
        volumes[:, 1] = volumes[:, 0, self._reverse]
        return volumes, latencies

    # -- memory accounting ----------------------------------------------

    def operator_nbytes(self) -> int:
        """Bytes held by the operator structures (dest rows + hosted sets).

        Gather rows are excluded: they are the placement representation,
        not the ``(group, dest) -> link`` map.
        """
        return sum(rows.nbytes for rows in self._dest_rows.values()) + sum(
            hosted.nbytes for hosted in self._hosted.values()
        )

    def _note_memory(self) -> None:
        current = self.operator_nbytes()
        if current > self.peak_operator_nbytes:
            self.peak_operator_nbytes = current


#: mapping -> SparseAllToAllPricer, weakly keyed (pricers die with their
#: mapping; the route cache they fold lives on the topology regardless).
_PRICER_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def alltoall_pricer(mapping: "Mapping") -> SparseAllToAllPricer:
    """The cached all-to-all pricer for this mapping."""
    pricer = _PRICER_CACHE.get(mapping)
    if pricer is None:
        pricer = SparseAllToAllPricer(mapping)
        _PRICER_CACHE[mapping] = pricer
    return pricer


def _remote_fractions(mapping: "Mapping", dests: np.ndarray) -> np.ndarray:
    """Per hosted ``(group, dest)`` cell, in ascending order, the share of
    its bytes that ``dest`` fetches from other devices."""
    table = mapping.token_holder_table()
    num_cells = table.offsets.size - 1
    cell = np.repeat(np.arange(num_cells), np.diff(table.offsets))
    remote = table.holders != cell % table.num_devices
    fractions = np.bincount(
        cell[remote], weights=table.fractions[remote], minlength=num_cells
    )
    return fractions.reshape(table.num_groups, table.num_devices)[:, dests].ravel()


def simulate_alltoall(
    topology: Topology,
    demand_bytes: np.ndarray,
    placement: "StackedPlacement",
    mapping: "Mapping",
) -> AllToAllResult:
    """Simulate dispatch and combine for one MoE layer invocation.

    ``demand_bytes[g, e]`` is the byte volume of group ``g``'s tokens
    routed to expert ``e``, and ``placement`` a one-layer stack (see
    ``System.fresh_placement``); any other layer count raises.  The layer
    is priced by the mapping's :func:`alltoall_pricer`, the one the
    serving loop uses, so calls on the same stack reuse its
    version-checked layer state.  Each phase's ``total_volume`` counts
    the bytes that leave their holder.
    """
    if topology is not mapping.topology:
        raise ValueError("the all-to-all is priced over mapping.topology; pass that object")
    if placement.num_layers != 1:
        raise ValueError(
            f"simulate_alltoall prices one layer; the placement has "
            f"{placement.num_layers} layers"
        )
    demand_bytes = np.asarray(demand_bytes, dtype=np.float64)
    _validate_demand(demand_bytes)
    if placement.num_devices != topology.num_devices:
        raise ValueError(
            f"placement covers {placement.num_devices} devices but the mapping's "
            f"topology has {topology.num_devices}"
        )
    if demand_bytes.shape != (mapping.dp, placement.num_experts):
        raise ValueError(
            f"demand shape {demand_bytes.shape} != ({mapping.dp}, {placement.num_experts})"
        )
    pricer = alltoall_pricer(mapping)
    batches = pricer.hosted_batches(placement)
    demand = demand_bytes[None]
    volumes, latencies = pricer._price(demand, batches, with_latencies=True)
    (batch,) = batches
    remote = _remote_fractions(mapping, batch.hosted.dests)
    total_volume = float((batch.cells(demand)[:, 0] * remote).sum())
    dispatch, combine = (
        phase_result_from_link_volumes(
            topology, volumes[0, phase], float(latencies[0, phase]), total_volume
        )
        for phase in (0, 1)
    )
    return AllToAllResult(dispatch=dispatch, combine=combine)


class LayeredDispatchPlan:
    """Per-layer all-to-all pricing for one placement epoch of a stack.

    Every layer, layer 0 included, is priced against its own demand rows
    and its own replica entries by the mapping's
    :class:`SparseAllToAllPricer`.  What the plan holds stays valid until
    the next migration: the layers grouped by hosted set, with gather rows
    stacked from the version-validated layer states that unmutated layers
    reuse across plans.  :func:`layered_dispatch_plan` caches one plan per
    ``(mapping, per-layer version vector)``.
    """

    def __init__(self, mapping: "Mapping", placement: "StackedPlacement") -> None:
        self.pricer = alltoall_pricer(mapping)
        self._batches = self.pricer.hosted_batches(placement)

    def alltoall_durations_resolved(self, demand_stack: np.ndarray) -> np.ndarray:
        """Per-layer (dispatch, combine) durations, ``(num_layers, 2)``.

        ``demand_stack`` is the ``(layers, groups, experts)`` byte-demand
        tensor; each layer is priced against its own placement and its own
        demand rows.
        """
        return self.pricer.durations(demand_stack, self._batches)


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


#: stacked placement -> {id(mapping): (mapping weakref, version vector, plan)}.
#: The per-layer version vector invalidates the plan exactly when a
#: migration or eviction mutates any layer.
_LAYERED_PLAN_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def layered_dispatch_plan(
    mapping: "Mapping", placement: "StackedPlacement"
) -> LayeredDispatchPlan:
    """The cached layered plan for this (mapping, version vector)."""
    per_mapping = _LAYERED_PLAN_CACHE.setdefault(placement, {})
    versions = placement.versions.tobytes()
    entry = per_mapping.get(id(mapping))
    if entry is not None:
        mapping_ref, cached_versions, plan = entry
        if mapping_ref() is mapping and cached_versions == versions:
            return plan
    _sweep_dead_mappings(per_mapping)
    plan = LayeredDispatchPlan(mapping, placement)
    per_mapping[id(mapping)] = (weakref.ref(mapping), versions, plan)
    return plan


def clear_plan_caches() -> None:
    """Drop every module-level pricing cache.

    The caches are weakly keyed on placements/mappings and version-checked,
    so stale *results* can't normally be served — but cache *state* (LRU
    contents, per-layer states, plan objects) can still leak across tests
    or outlive a fault-injected topology change.  Tests clear them between
    cases via an autouse fixture (``tests/conftest.py``); fault tooling may
    call this after mutating a topology's health out-of-band.
    """
    _PRICER_CACHE.clear()
    _LAYERED_PLAN_CACHE.clear()

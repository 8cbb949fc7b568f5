"""Mapping interface and shared token-holder logic."""

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.network.allreduce import (
    CollectiveResult,
    ring_allreduce,
    ring_reduce_scatter,
)
from repro.network.phase import _walk_sums
from repro.topology.base import Topology
from repro.topology.mesh import MeshTopology


class HolderTable:
    """Frozen ``(num_groups, num_devices) -> (holder ids, fractions)`` table.

    Mappings are immutable after construction, so every ``(group, dest)``
    token-holder list is fixed; this holds them once as CSR arrays
    (``offsets``/``holders``/``fractions``), which the all-to-all pricer
    gathers in bulk and :meth:`entries` reads one cell at a time.  Each
    row preserves its family's holder ordering exactly: the pricer sums a
    cell's holders in that order, so its operator rows are reproducible.

    Built from padded ``(num_groups, num_devices, width)`` rows: entry
    ``[g, d, k]`` is a holder of cell ``(g, d)`` where ``valid`` is set,
    and each row keeps its valid entries in ``k`` order.
    """

    def __init__(
        self, holders: np.ndarray, fractions: np.ndarray, valid: np.ndarray
    ) -> None:
        self.num_groups, self.num_devices, _ = valid.shape
        self.offsets = np.concatenate(([0], np.cumsum(valid.sum(axis=2).ravel())))
        self.holders = holders[valid]
        self.fractions = fractions[valid]

    def entries(self, group: int, dest: int) -> tuple[tuple[int, float], ...]:
        """The ordered ``(holder, fraction)`` tuples for one (group, dest)."""
        start = self.offsets[group * self.num_devices + dest]
        stop = self.offsets[group * self.num_devices + dest + 1]
        return tuple(
            zip(
                self.holders[start:stop].tolist(),
                self.fractions[start:stop].tolist(),
            )
        )


@dataclass(frozen=True)
class ParallelismConfig:
    """Attention-layer parallelism for one cluster.

    ``tp_shape`` factorises TP over the mesh dimensions, e.g. TP=4 as (2, 2)
    or (4, 1); it is ignored by switched topologies.  EP always equals the
    device count in this study (Sec. III-A), so it is derived, not stored.
    """

    tp: int
    dp: int
    tp_shape: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if self.tp <= 0 or self.dp <= 0:
            raise ValueError(f"tp and dp must be positive, got tp={self.tp} dp={self.dp}")
        if self.tp_shape is not None:
            tpx, tpy = self.tp_shape
            if tpx * tpy != self.tp:
                raise ValueError(
                    f"tp_shape {self.tp_shape} does not factorise tp={self.tp}"
                )

    @property
    def num_devices(self) -> int:
        return self.tp * self.dp


class Mapping(ABC):
    """Assignment of TP groups to devices plus collective schedules."""

    #: Entwined rings are time-staggered, so intersecting rings never
    #: contend (Sec. IV-B2).  Baseline rings are link-disjoint anyway.
    staggered_rings: bool = False

    def __init__(
        self,
        topology: Topology,
        parallelism: ParallelismConfig,
        retain_allgather: bool = True,
    ) -> None:
        if parallelism.num_devices != topology.num_devices:
            raise ValueError(
                f"parallelism covers {parallelism.num_devices} devices but the "
                f"topology has {topology.num_devices}"
            )
        self.topology = topology
        self.parallelism = parallelism
        self.retain_allgather = retain_allgather
        self._tp_groups = self._build_tp_groups()
        self._validate_groups()
        self._group_of: dict[int, int] = {}
        for gid, group in enumerate(self._tp_groups):
            for member in group:
                self._group_of[member] = gid

    @property
    def tp(self) -> int:
        return self.parallelism.tp

    @property
    def dp(self) -> int:
        return self.parallelism.dp

    @property
    def tp_groups(self) -> list[list[int]]:
        """TP groups in ring-traversal order (consecutive = ring neighbours)."""
        return self._tp_groups

    def tp_group_of(self, device: int) -> int:
        return self._group_of[device]

    @abstractmethod
    def _build_tp_groups(self) -> list[list[int]]:
        """Return the DP groups, each a ring-ordered list of TP devices."""

    def _validate_groups(self) -> None:
        seen: set[int] = set()
        if len(self._tp_groups) != self.dp:
            raise AssertionError(
                f"built {len(self._tp_groups)} groups, expected dp={self.dp}"
            )
        for group in self._tp_groups:
            if len(group) != self.tp:
                raise AssertionError(f"group size {len(group)} != tp={self.tp}")
            seen.update(group)
        if seen != set(self.topology.devices):
            raise AssertionError("TP groups do not partition the device set")

    # -- token holders (all-to-all sources) ---------------------------------

    #: Exponent of the inverse-distance weighting used with all-gather;
    #: higher concentrates fetches on the nearest replica.
    locality_power: float = 2.0

    def token_holder_table(self) -> HolderTable:
        """The token-holder relation: which devices each fetcher pulls each
        group's tokens from, and in what shares.

        Built lazily, in arrays, from the family's :meth:`_holder_rows`
        (FTD-confined for ER, mirror devices for HER, inverse-distance
        weighted for baseline and GPU mappings), then cached for the
        mapping's lifetime.  The all-to-all pricer, ESP's token gather and
        the FTD analysis all read this one table.
        """
        table = self.__dict__.get("_holder_table")
        if table is None:
            table = HolderTable(*self._holder_rows())
            self._holder_table = table
        return table

    def _holder_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every ``(group, dest)`` cell's holders as padded ``(dp, devices,
        tp)`` ``(holders, fractions, valid)`` arrays: the group's members
        in ring order.

        With all-gather retained every group member replicates the group's
        tokens, so the fetcher splits its pull across the members with
        inverse-distance weights: both the "shorter distance" and "more
        source options" benefits of Fig. 9.  Without all-gather the tokens
        stay sharded 1/TP per member, and every shard must come from its
        owner, however far.
        """
        members = np.array(self._tp_groups, dtype=np.intp)
        dests = np.arange(self.topology.num_devices)
        holders = np.broadcast_to(members[:, None, :], (self.dp, dests.size, self.tp))
        valid = np.ones(holders.shape, dtype=bool)
        if not self.retain_allgather:
            return holders, np.full(holders.shape, 1.0 / self.tp), valid
        hops = self.topology.hop_counts(holders, dests[:, None])
        # One Python power per distance, as the per-pair rule in
        # ``tests/holder_reference.py`` takes it.
        levels = np.array(
            [(1.0 / (1 + hop)) ** self.locality_power for hop in range(hops.max() + 1)]
        )
        weights = levels[hops]
        # The builtin ``sum`` over each cell's members, in member order.
        totals = _walk_sums(weights.reshape(-1, self.tp).T)
        return holders, weights / totals.reshape(self.dp, -1, 1), valid

    # -- attention all-reduce -------------------------------------------------

    def simulate_allreduce(self, volume_per_group: float) -> CollectiveResult:
        """Cost the attention-layer all-reduce under this mapping.

        With all-gather dropped (the Fig. 14b ablation) only the
        reduce-scatter half runs.
        """
        if self.retain_allgather:
            return ring_allreduce(
                self.topology,
                self._tp_groups,
                volume_per_group,
                staggered=self.staggered_rings,
            )
        return ring_reduce_scatter(
            self.topology,
            self._tp_groups,
            volume_per_group,
            staggered=self.staggered_rings,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(tp={self.tp}, dp={self.dp}, "
            f"topology={self.topology!r})"
        )


class MeshMapping(Mapping):
    """Mapping over a 2-D mesh with an explicit TP factorisation.

    Provides the FTD bookkeeping shared by the baseline and ER mappings.
    Subclasses must populate ``self._ftds`` (list of device lists) during
    ``_build_tp_groups`` or leave it ``None`` when FTDs are not defined.
    """

    def __init__(
        self,
        topology: MeshTopology,
        parallelism: ParallelismConfig,
        retain_allgather: bool = True,
    ) -> None:
        if not isinstance(topology, MeshTopology):
            raise TypeError(f"MeshMapping needs a MeshTopology, got {type(topology).__name__}")
        if parallelism.tp_shape is None:
            raise ValueError("mesh mappings require an explicit tp_shape")
        tpx, tpy = parallelism.tp_shape
        if topology.height % tpx or topology.width % tpy:
            raise ValueError(
                f"tp_shape {parallelism.tp_shape} does not tile a "
                f"{topology.height}x{topology.width} mesh"
            )
        self._ftds: list[list[int]] | None = None
        super().__init__(topology, parallelism, retain_allgather)
        self._ftd_index: dict[int, int] | None = None
        if self._ftds is not None:
            self._ftd_index = {}
            for fid, members in enumerate(self._ftds):
                for member in members:
                    self._ftd_index[member] = fid

    @property
    def mesh(self) -> MeshTopology:
        assert isinstance(self.topology, MeshTopology)
        return self.topology

    @property
    def tp_shape(self) -> tuple[int, int]:
        assert self.parallelism.tp_shape is not None
        return self.parallelism.tp_shape

    @property
    def ftds(self) -> list[list[int]] | None:
        """Full Token Domains when the mapping defines them (ER and HER)."""
        return self._ftds

    def ftd_of(self, device: int) -> int | None:
        if self._ftd_index is None:
            return None
        return self._ftd_index[device]


def snake_order(cells: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Boustrophedon order over grid cells so consecutive cells are adjacent.

    ``cells`` must form a full rectangle; the result snakes row by row,
    reversing every other row, which makes it a Hamiltonian path whose
    consecutive elements differ by one grid step — the property ring
    collectives need.
    """
    if not cells:
        return []
    rows: dict[int, list[tuple[int, int]]] = {}
    for cell in cells:
        rows.setdefault(cell[0], []).append(cell)
    ordered: list[tuple[int, int]] = []
    for index, row in enumerate(sorted(rows)):
        row_cells = sorted(rows[row], key=lambda cell: cell[1])
        if index % 2 == 1:
            row_cells.reverse()
        ordered.extend(row_cells)
    return ordered

"""Hierarchical ER-Mapping for multi-WSC systems (paper Fig. 10c).

Each wafer runs its own ER-Mapping (TP groups never cross a wafer border).
The attention all-reduce splits into two hierarchical phases:

1. intra-wafer reduce-scatter over the entwined rings — afterwards every
   device owns a distinct 1/TP shard of its group's tokens, so the whole
   wafer collectively holds every local token exactly once ("the entire
   wafer functions as a unified FTD");
2. inter-wafer all-gather along mirror-device rings — afterwards every
   wafer holds the corresponding shards of *all* wafers' tokens.

The MoE all-to-all then fetches each token shard from its unique on-wafer
holder, never crossing a wafer border.
"""

import numpy as np

from repro.mapping.base import MeshMapping, ParallelismConfig, snake_order
from repro.network.allreduce import CollectiveResult, pair_steps, ring_reduce_scatter
from repro.topology.mesh import Coord, MultiWaferTopology


class HierarchicalERMapping(MeshMapping):
    """Per-wafer ER-Mapping with hierarchical reduce-scatter/all-gather."""

    staggered_rings = True

    def __init__(
        self,
        topology: MultiWaferTopology,
        parallelism: ParallelismConfig,
        retain_allgather: bool = True,
    ) -> None:
        if not isinstance(topology, MultiWaferTopology):
            raise TypeError(
                f"HierarchicalERMapping needs a MultiWaferTopology, "
                f"got {type(topology).__name__}"
            )
        if not retain_allgather:
            raise ValueError(
                "HierarchicalERMapping requires retain_allgather=True: its "
                "token holders are the mirror shards that the inter-wafer "
                "all-gather places on every wafer"
            )
        super().__init__(topology, parallelism, retain_allgather)

    @property
    def wafer_topology(self) -> MultiWaferTopology:
        assert isinstance(self.topology, MultiWaferTopology)
        return self.topology

    def _build_tp_groups(self) -> list[list[int]]:
        tpx, tpy = self.parallelism.tp_shape
        mesh: MultiWaferTopology = self.topology
        if mesh.wafer_height % tpx or mesh.wafer_width % tpy:
            raise ValueError(
                f"tp_shape {self.parallelism.tp_shape} does not tile a "
                f"{mesh.wafer_height}x{mesh.wafer_width} wafer"
            )
        a = mesh.wafer_height // tpx
        b = mesh.wafer_width // tpy
        self._ftd_shape = (a, b)

        groups: list[list[int]] = []
        self._ftds = []
        for wafer in range(mesh.num_wafers):
            col0 = wafer * mesh.wafer_width
            for i in range(a):
                for j in range(b):
                    ordered = snake_order(
                        [(p, q) for p in range(tpx) for q in range(tpy)]
                    )
                    groups.append(
                        [
                            mesh.device_at(Coord(i + p * a, col0 + j + q * b))
                            for p, q in ordered
                        ]
                    )
            for p in range(tpx):
                for q in range(tpy):
                    self._ftds.append(
                        [
                            mesh.device_at(Coord(p * a + dx, col0 + q * b + dy))
                            for dx in range(a)
                            for dy in range(b)
                        ]
                    )
        return groups

    def wafer_of_group(self, group: int) -> int:
        return self.wafer_topology.wafer_of(self.tp_groups[group][0])

    # -- token holders --------------------------------------------------------

    def _holder_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pull each 1/TP shard from its mirror device on the fetcher's wafer.

        After the inter-wafer all-gather, the shard that a group's member
        holds at local coordinate ``c`` is replicated at local coordinate
        ``c`` of every wafer; the fetcher uses its own wafer's copy, keeping
        all dispatch traffic on-wafer.  Each row lists the mirrors of the
        group's members, in ring order, on the destination's wafer.
        """
        mesh = self.wafer_topology
        row, column = np.divmod(np.array(self.tp_groups, dtype=np.intp), mesh.width)
        dest_wafer = np.arange(mesh.num_devices) % mesh.width // mesh.wafer_width
        holders = (
            (row * mesh.width + column % mesh.wafer_width)[:, None, :]
            + (dest_wafer * mesh.wafer_width)[None, :, None]
        )
        valid = np.ones(holders.shape, dtype=bool)
        return holders, np.full(holders.shape, 1.0 / self.tp), valid

    # -- hierarchical all-reduce ----------------------------------------------

    def simulate_allreduce(self, volume_per_group: float) -> CollectiveResult:
        """Intra-wafer entwined reduce-scatter + inter-wafer all-gather."""
        mesh = self.wafer_topology
        reduce_scatter = ring_reduce_scatter(
            self.topology, self.tp_groups, volume_per_group, staggered=True
        )
        if mesh.num_wafers == 1:
            return reduce_scatter

        # Inter-wafer all-gather along the wafer row: every device exchanges
        # shards with its mirror on the adjacent wafers, bidirectionally, in
        # (num_wafers - 1) pipelined steps — a line all-gather, with no
        # wrap-around flow crossing the whole row.
        all_gather = pair_steps(
            self.topology,
            "wafer_line_allgather",
            self._line_allgather_pairs,
            volume_per_group / self.tp,
            mesh.num_wafers - 1,
        )
        return reduce_scatter.merged_with(all_gather)

    def _line_allgather_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """One line all-gather step's (src, dst) pairs: for each local
        coordinate, row-major, and each border from the west, the eastward
        transfer, then the westward one."""
        mesh = self.wafer_topology
        x, y, wafer = np.meshgrid(
            np.arange(mesh.wafer_height),
            np.arange(mesh.wafer_width),
            np.arange(mesh.num_wafers - 1),
            indexing="ij",
        )
        west = (x * mesh.width + wafer * mesh.wafer_width + y).ravel()
        east = west + mesh.wafer_width
        return np.stack([west, east], axis=1).ravel(), np.stack([east, west], axis=1).ravel()

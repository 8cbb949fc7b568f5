"""Baseline mesh mapping: TP groups as contiguous tiles (Fig. 8b).

Each TP group occupies a ``tpx x tpy`` rectangle; the DP groups tile the
mesh.  Ring neighbours are mesh neighbours ("zero-hop rings"), so the
all-reduce is cheap — but the nearest member of *another* group can be far
away, producing the large, centre-overlapping FTDs the paper analyses.
"""

from repro.mapping.base import MeshMapping, snake_order
from repro.topology.mesh import Coord


class BaselineMapping(MeshMapping):
    """Contiguous-tile TP groups on a mesh.

    Token holders follow the generic inverse-distance weighting of
    :class:`~repro.mapping.base.Mapping` (no FTD confinement), so this
    family's precomputed holder table has dense ``tp``-entry rows whose
    fractions vary with mesh distance — the worst case for operator size,
    and exactly the long-haul traffic the paper's Fig. 8b analyses.
    """

    staggered_rings = False

    def _build_tp_groups(self) -> list[list[int]]:
        tpx, tpy = self.parallelism.tp_shape
        mesh = self.topology  # MeshMapping guarantees a MeshTopology
        tiles_x = mesh.height // tpx
        tiles_y = mesh.width // tpy
        groups: list[list[int]] = []
        for tile_x in range(tiles_x):
            for tile_y in range(tiles_y):
                cells = [
                    (tile_x * tpx + dx, tile_y * tpy + dy)
                    for dx in range(tpx)
                    for dy in range(tpy)
                ]
                groups.append(
                    [mesh.device_at(Coord(x, y)) for x, y in snake_order(cells)]
                )
        return groups

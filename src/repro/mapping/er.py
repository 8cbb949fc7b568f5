"""Entwined Ring Mapping (paper Fig. 10a).

Given an ``N x M`` mesh and TP factorised as ``(tpx, tpy)``:

* FTD tiles have shape ``(a, b) = (N / tpx, M / tpy)`` and there are
  ``tpx * tpy`` of them;
* TP group ``(i, j)`` is the residue class ``{D[x, y] | x % a == i,
  y % b == j}`` — one member inside every FTD tile.

Every FTD therefore contains exactly one member of each TP group, so the
MoE all-to-all resolves entirely inside compact, pairwise-disjoint tiles.
The trade-off is that ring neighbours inside a TP group are ``a`` (or
``b``) hops apart: the entwined two-hop rings of Fig. 8d, which the
time-staggered schedule keeps conflict-free.
"""

import numpy as np

from repro.mapping.base import MeshMapping, snake_order
from repro.topology.mesh import Coord


class ERMapping(MeshMapping):
    """Entwined-ring (residue-class) TP groups on a mesh."""

    staggered_rings = True

    def _holder_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """FTD-confined fetch: a cell whose fetcher's tile holds exactly one
        member of the group gets that member alone, with fraction 1.

        Every FTD tile contains exactly one member of each TP group, and
        the paper confines dispatch/combine to the fetcher's own tile
        ("dispatch and combine happen within FTD") — even when a member of
        a neighbouring tile is equidistant, crossing the tile boundary
        would reintroduce the congestion ER-Mapping eliminates.  The table
        thus has single-entry rows, so each (group, destination) cell
        fetches along at most one route.  Without all-gather the tokens
        stay sharded and the generic 1/TP rows apply.
        """
        holders, fractions, valid = super()._holder_rows()
        if not (self.retain_allgather and self._ftd_index is not None):
            return holders, fractions, valid
        ftd = np.array([self._ftd_index[device] for device in self.topology.devices])
        in_tile = ftd[holders] == ftd[:, None]
        confined = (in_tile.sum(axis=2) == 1)[..., None]
        member = np.take_along_axis(holders, in_tile.argmax(axis=2)[..., None], axis=2)
        first = np.arange(self.tp) == 0
        return (
            np.where(confined, member, holders),
            np.where(confined, 1.0, fractions),
            np.where(confined, first, valid),
        )

    def _build_tp_groups(self) -> list[list[int]]:
        tpx, tpy = self.parallelism.tp_shape
        mesh = self.topology
        a = mesh.height // tpx
        b = mesh.width // tpy
        self._ftd_shape = (a, b)

        groups: list[list[int]] = []
        for i in range(a):
            for j in range(b):
                # Member (p, q) sits at (i + p*a, j + q*b): snake over the
                # (p, q) grid so ring neighbours are one stride apart.
                cells = [(p, q) for p in range(tpx) for q in range(tpy)]
                ordered = snake_order(cells)
                groups.append(
                    [
                        mesh.device_at(Coord(i + p * a, j + q * b))
                        for p, q in ordered
                    ]
                )

        self._ftds = []
        for p in range(tpx):
            for q in range(tpy):
                members = [
                    mesh.device_at(Coord(p * a + dx, q * b + dy))
                    for dx in range(a)
                    for dy in range(b)
                ]
                self._ftds.append(members)
        return groups

    @property
    def ftd_shape(self) -> tuple[int, int]:
        """The ``(a, b)`` tile shape of every FTD."""
        return self._ftd_shape

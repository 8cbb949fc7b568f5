"""2-D mesh topologies: single wafer and multi-wafer rows.

Coordinates follow the paper's ``D[x, y]`` convention with ``x`` the row and
``y`` the column, except 0-based.  Routing is dimension-ordered (XY): first
along the row dimension, then along the column dimension — the standard
deadlock-free choice for wafer meshes.
"""

from dataclasses import dataclass

import numpy as np

from repro.hardware.interconnect import WSC_CROSS_WAFER, WSC_LINK, InterconnectSpec
from repro.topology.base import CachedRoutingMixin, Link, Topology


@dataclass(frozen=True, order=True)
class Coord:
    """Mesh coordinate: ``x`` is the row index, ``y`` the column index."""

    x: int
    y: int

    def manhattan(self, other: "Coord") -> int:
        return abs(self.x - other.x) + abs(self.y - other.y)


class MeshTopology(CachedRoutingMixin, Topology):
    """A ``height x width`` mesh of devices with nearest-neighbour links.

    Args:
        height: number of rows.
        width: number of columns.
        link: link class for every mesh edge (defaults to the paper's
            on-wafer die-to-die spec).
    """

    def __init__(
        self,
        height: int,
        width: int,
        link: InterconnectSpec = WSC_LINK,
    ) -> None:
        if height <= 0 or width <= 0:
            raise ValueError(f"mesh dimensions must be positive, got {height}x{width}")
        super().__init__(num_devices=height * width)
        self.height = height
        self.width = width
        self.link_spec = link
        self._build_links()
        self._link_slots = self._link_slot_table()

    def _build_links(self) -> None:
        for x in range(self.height):
            for y in range(self.width):
                node = self.device_at(Coord(x, y))
                if x + 1 < self.height:
                    below = self.device_at(Coord(x + 1, y))
                    self._add_bidirectional(
                        node, below, self._edge_bandwidth(Coord(x, y), Coord(x + 1, y)),
                        self._edge_latency(Coord(x, y), Coord(x + 1, y)),
                    )
                if y + 1 < self.width:
                    right = self.device_at(Coord(x, y + 1))
                    self._add_bidirectional(
                        node, right, self._edge_bandwidth(Coord(x, y), Coord(x, y + 1)),
                        self._edge_latency(Coord(x, y), Coord(x, y + 1)),
                    )

    def _edge_bandwidth(self, a: Coord, b: Coord) -> float:
        """Per-direction bandwidth of the mesh edge a—b (hook for subclasses)."""
        return self.link_spec.bandwidth

    def _edge_latency(self, a: Coord, b: Coord) -> float:
        return self.link_spec.link_latency

    def _link_slot_table(self) -> np.ndarray:
        """``(device, direction) -> position in links`` of each outgoing link.

        Directions are row +1, row -1, column +1 and column -1; a direction
        that leaves the mesh holds -1.
        """
        keys = np.array(list(self.links), dtype=np.intp).reshape(-1, 2)
        src_row, src_col = np.divmod(keys[:, 0], self.width)
        dst_row, dst_col = np.divmod(keys[:, 1], self.width)
        direction = np.select(
            [dst_row > src_row, dst_row < src_row, dst_col > src_col], [0, 1, 2], 3
        )
        table = np.full((self.num_devices, 4), -1, dtype=np.intp)
        table[keys[:, 0], direction] = np.arange(len(keys))
        return table

    # -- coordinate helpers -------------------------------------------------

    def coord_of(self, device: int) -> Coord:
        if not self.is_device(device):
            raise ValueError(f"device {device} out of range (0..{self.num_devices - 1})")
        return Coord(device // self.width, device % self.width)

    def device_at(self, coord: Coord) -> int:
        if not (0 <= coord.x < self.height and 0 <= coord.y < self.width):
            raise ValueError(f"coordinate {coord} outside {self.height}x{self.width} mesh")
        return coord.x * self.width + coord.y

    def manhattan(self, src: int, dst: int) -> int:
        return self.coord_of(src).manhattan(self.coord_of(dst))

    def neighbors(self, device: int) -> list[int]:
        coord = self.coord_of(device)
        out = []
        for dx, dy in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            x, y = coord.x + dx, coord.y + dy
            if 0 <= x < self.height and 0 <= y < self.width:
                out.append(self.device_at(Coord(x, y)))
        return out

    # -- routing ------------------------------------------------------------

    def _route_impl(self, src: int, dst: int) -> list[Link]:
        """Dimension-ordered XY routing: rows first, then columns."""
        path: list[Link] = []
        here = self.coord_of(src)
        target = self.coord_of(dst)
        while here.x != target.x:
            step = 1 if target.x > here.x else -1
            nxt = Coord(here.x + step, here.y)
            path.append(self.link(self.device_at(here), self.device_at(nxt)))
            here = nxt
        while here.y != target.y:
            step = 1 if target.y > here.y else -1
            nxt = Coord(here.x, here.y + step)
            path.append(self.link(self.device_at(here), self.device_at(nxt)))
            here = nxt
        return path

    def dimension_order_links(
        self, src: np.ndarray, dst: np.ndarray, rows_first: bool
    ) -> np.ndarray:
        """Link positions of a batch of XY (or YX) routes, in closed form.

        Returns a ``(max_hops, pairs)`` array: column ``p`` lists the
        positions in :attr:`links` of the links the ``rows_first`` walk from
        ``src[p]`` to ``dst[p]`` crosses, in walk order, padded with -1.
        Every id must be a device; the batch walks no :class:`Link` objects.
        """
        src_row, src_col = np.divmod(src, self.width)
        dst_row, dst_col = np.divmod(dst, self.width)
        # Per leg: hop count, device-id stride per hop, direction slot.
        rows = (
            np.abs(dst_row - src_row),
            np.sign(dst_row - src_row) * self.width,
            (dst_row < src_row).astype(np.intp),
        )
        cols = (np.abs(dst_col - src_col), np.sign(dst_col - src_col), 2 + (dst_col < src_col))
        first, second = (rows, cols) if rows_first else (cols, rows)
        (first_hops, first_stride, first_slot), (_, second_stride, second_slot) = first, second
        hops = rows[0] + cols[0]
        step = np.minimum(np.arange(int(hops.max(initial=0)))[:, None], hops)
        # The device each hop leaves, clamped to dst past the route's end.
        here = (
            src
            + np.minimum(step, first_hops) * first_stride
            + np.maximum(step - first_hops, 0) * second_stride
        )
        slot = np.where(step < first_hops, first_slot, second_slot)
        return np.where(step < hops, self._link_slots[here, slot], -1)

    def hops(self, src: int, dst: int) -> int:
        """XY routes are shortest paths, so hop count is Manhattan distance."""
        return self.manhattan(src, dst)

    def hop_counts(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Manhattan distances of every broadcast pair, in closed form."""
        src_row, src_col = np.divmod(src, self.width)
        dst_row, dst_col = np.divmod(dst, self.width)
        return np.abs(dst_row - src_row) + np.abs(dst_col - src_col)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.height}x{self.width})"


class MultiWaferTopology(MeshTopology):
    """A row of ``num_wafers`` meshes joined along vertical borders.

    The combined system is a ``wafer_height x (num_wafers * wafer_width)``
    mesh in which the links crossing a wafer border use the (slower per-link)
    cross-wafer spec: the paper gives an aggregate border bandwidth shared by
    the ``wafer_height`` edge-die link pairs on that border.
    """

    def __init__(
        self,
        num_wafers: int,
        wafer_height: int,
        wafer_width: int,
        intra_link: InterconnectSpec = WSC_LINK,
        cross_border: InterconnectSpec = WSC_CROSS_WAFER,
    ) -> None:
        if num_wafers <= 0:
            raise ValueError(f"num_wafers must be positive, got {num_wafers}")
        if wafer_height <= 0 or wafer_width <= 0:
            raise ValueError(
                f"wafer dimensions must be positive, got {wafer_height}x{wafer_width}"
            )
        self.num_wafers = num_wafers
        self.wafer_height = wafer_height
        self.wafer_width = wafer_width
        self.cross_border = cross_border
        # Per-link bandwidth: the aggregate border bandwidth divided across
        # the wafer_height edge dies on that border, capped at the on-wafer
        # link rate (a border die cannot out-run its die-to-die SerDes).
        self._cross_link_bandwidth = min(
            cross_border.bandwidth / wafer_height, intra_link.bandwidth
        )
        super().__init__(
            height=wafer_height, width=num_wafers * wafer_width, link=intra_link
        )

    def _is_cross_wafer_edge(self, a: Coord, b: Coord) -> bool:
        return a.y // self.wafer_width != b.y // self.wafer_width

    def _edge_bandwidth(self, a: Coord, b: Coord) -> float:
        if self._is_cross_wafer_edge(a, b):
            return self._cross_link_bandwidth
        return self.link_spec.bandwidth

    def _edge_latency(self, a: Coord, b: Coord) -> float:
        if self._is_cross_wafer_edge(a, b):
            return self.cross_border.link_latency
        return self.link_spec.link_latency

    # -- wafer helpers ------------------------------------------------------

    def wafer_of(self, device: int) -> int:
        return self.coord_of(device).y // self.wafer_width

    def wafer_devices(self, wafer: int) -> list[int]:
        if not (0 <= wafer < self.num_wafers):
            raise ValueError(f"wafer {wafer} out of range (0..{self.num_wafers - 1})")
        return [
            device
            for device in self.devices
            if self.wafer_of(device) == wafer
        ]

    def local_coord(self, device: int) -> Coord:
        """Coordinate of a device within its own wafer."""
        coord = self.coord_of(device)
        return Coord(coord.x, coord.y % self.wafer_width)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MultiWaferTopology({self.num_wafers}x"
            f"({self.wafer_height}x{self.wafer_width}))"
        )

"""Migration decomposition into Local / Global segments (paper Fig. 11d).

A migration from ``src`` to ``dst`` crosses intra-FTD links (Local) and
FTD-connection links (Global).  NI-Balancer drains Local segments during
the attention all-reduce (whose intra-FTD links are cold) and the Global
segment during the MoE all-to-all (whose inter-FTD links are cold),
alternating phase by phase — STEP 1/2/3 in the paper's illustration.

A trigger's copies split in one :func:`split_migration` call and drain
as one :class:`PendingMigration` table, so a migration burst costs a few
array passes however many copies it starts.  The per-migration objects
this replaced are kept in ``tests/migration_reference.py``, which the
tests hold the table to.
"""

from collections.abc import Callable, Iterable

import numpy as np

from repro.balancer.base import Migration
from repro.network.phase import primary_route_links
from repro.topology.base import Topology


#: Segment kind codes: a segment's link class, and the padding past a
#: copy's last segment.
GLOBAL = 0
LOCAL = 1
_PAST_END = -1
_CODES = np.array([[GLOBAL], [LOCAL]], dtype=np.int8)


def _padded(array: np.ndarray, width: int, fill) -> np.ndarray:
    """``array`` with columns of ``fill`` appended up to ``width``."""
    if array.shape[1] == width:
        return array
    out = np.full((array.shape[0], width), fill, dtype=array.dtype)
    out[:, : array.shape[1]] = array
    return out


class MigrationLinks:
    """Every link's Local/Global class and pristine bandwidth.

    A link is Local when both its ends are devices of one FTD; switch
    hops and links between FTDs are Global, and a mapping without FTDs
    (``ftd_of`` returning ``None``) has Global links only.  Both arrays
    follow ``list(topology.links)``, the route cache's link order, and
    are fixed by the topology and the FTD labelling.
    """

    def __init__(self, topology: Topology, ftd_of: Callable[[int], int | None]) -> None:
        self.topology = topology
        labels = np.array(
            [-1 if label is None else label for label in map(ftd_of, topology.devices)]
            + [-1],
            dtype=np.int64,
        )
        ends = np.array(list(topology.links), dtype=np.intp).reshape(-1, 2)
        # Switch nodes (ids past the devices) read the trailing -1 label.
        ends = np.minimum(ends, topology.num_devices)
        src, dst = labels[ends[:, 0]], labels[ends[:, 1]]
        kind = np.where((src >= 0) & (src == dst), LOCAL, GLOBAL)
        bandwidth = [link.bandwidth for link in topology.links.values()]
        # A trailing padding entry, which the -1 padding of route links reads.
        self.kind = np.append(kind, _PAST_END).astype(np.int8)
        self.bandwidth = np.array(bandwidth + [np.inf])

    def segments(self, src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(kinds, bandwidths)`` of each pair's primary-route segments.

        A segment is a maximal run of same-class links, with the minimum
        bandwidth of its links.  Both arrays are ``(pairs, width)``, one
        row per pair padded past its last segment (at least one pad per
        row) with :data:`_PAST_END` kinds and ``inf`` bandwidths.
        """
        links = primary_route_links(self.topology, src, dst)  # (hops, pairs), -1 padded
        kind = self.kind[links]
        # A run starts at the first hop and wherever the class flips; the
        # route's padding is one more run, of padding.
        starts = np.empty(kind.shape, dtype=bool)
        starts[0] = True
        starts[1:] = kind[1:] != kind[:-1]
        segment = np.cumsum(starts, axis=0) - 1
        cell = (np.arange(src.size)[None, :], segment)
        width = int(segment[-1].max(initial=0)) + 2
        kinds = np.full((src.size, width), _PAST_END, dtype=np.int8)
        kinds[cell] = kind
        bandwidths = np.full((src.size, width), np.inf)
        np.minimum.at(bandwidths, cell, self.bandwidth[links])
        return kinds, bandwidths


class PendingMigration:
    """In-flight expert weight copies, drained as one table.

    Row ``i`` is the copy ``items[i]``, a ``(layer, Migration)`` pair, in
    start order.  ``kind[i, s]``, ``bandwidth[i, s]`` and
    ``remaining[i, s]`` describe its segment ``s``: its kind
    (:data:`LOCAL` or :data:`GLOBAL`), its minimum link bandwidth and
    its bytes still to send.  Every segment starts with the copy's full
    volume, and segments drain in order: ``cursor[i]`` is the copy's
    first segment with bytes left, and the copy is done when its cursor
    reaches the padding past its last segment, whose kind is
    :data:`_PAST_END` and whose bandwidth and remaining bytes are
    ``inf``.
    """

    def __init__(
        self,
        items: list[tuple[int, Migration]],
        kind: np.ndarray,
        bandwidth: np.ndarray,
        remaining: np.ndarray,
    ) -> None:
        self.items = items
        self.kind = kind
        self.bandwidth = bandwidth
        self.remaining = remaining
        self.cursor = np.zeros(len(items), dtype=np.intp)

    @classmethod
    def empty(cls) -> "PendingMigration":
        return cls(
            [],
            np.full((0, 1), _PAST_END, dtype=np.int8),
            np.full((0, 1), np.inf),
            np.full((0, 1), np.inf),
        )

    def __len__(self) -> int:
        return len(self.items)

    def extend(self, other: "PendingMigration") -> None:
        """Append ``other``'s copies after this table's, keeping both
        tables' progress."""
        if not self.items:
            self.items, self.cursor = list(other.items), other.cursor.copy()
            self.kind, self.bandwidth = other.kind, other.bandwidth
            self.remaining = other.remaining.copy()
            return
        width = max(self.kind.shape[1], other.kind.shape[1])
        self.kind = np.concatenate(
            [_padded(self.kind, width, _PAST_END), _padded(other.kind, width, _PAST_END)]
        )
        self.bandwidth = np.concatenate(
            [_padded(self.bandwidth, width, np.inf), _padded(other.bandwidth, width, np.inf)]
        )
        self.remaining = np.concatenate(
            [_padded(self.remaining, width, np.inf), _padded(other.remaining, width, np.inf)]
        )
        self.cursor = np.concatenate([self.cursor, other.cursor])
        self.items = self.items + other.items

    def advance(
        self, windows: Iterable[tuple[int, float]]
    ) -> list[tuple[int, Migration]]:
        """Drain one iteration's cold windows; return the copies that
        finished, in start order, and drop them from the table.

        Each ``(kind, seconds)`` window, ``kind`` :data:`LOCAL` or
        :data:`GLOBAL`, drains the current segment of every copy whose
        current segment is of that kind, by at most ``seconds`` times the
        segment's bandwidth; budget left over in a window does not carry
        to the next segment.  Window lengths must be finite and
        non-negative.
        """
        windows = tuple(windows)
        for _, seconds in windows:
            if not 0 <= seconds < np.inf:
                raise ValueError(f"window length must be finite and >= 0, got {seconds}")
        width = self.kind.shape[1]
        # The table's arrays are contiguous, so these are views.
        kind = self.kind.reshape(-1)
        remaining = self.remaining.reshape(-1)
        # Row ``code`` holds each segment's bandwidth in ``code`` windows:
        # a segment of the other kind (or the padding) drains by exactly
        # 0.0, which leaves its bytes as they are.
        drains = np.where(kind == _CODES, self.bandwidth.reshape(-1), 0.0)
        rows = np.arange(0, len(self.items) * width, width)
        current = rows + self.cursor
        for window, seconds in windows:
            left = remaining[current]
            left -= np.minimum(left, seconds * drains[window][current])
            remaining[current] = left
            current += left <= 0.0
        self.cursor = current - rows
        done = kind[current] == _PAST_END
        finished = np.flatnonzero(done)
        if finished.size == 0:
            return []
        if finished.size == len(self.items):
            items = self.items
            self._keep(slice(0, 0), [])
            return items
        items = self.items
        self._keep(~done, [items[i] for i in np.flatnonzero(~done).tolist()])
        return [items[i] for i in finished.tolist()]

    def abandon(self, device: int) -> list[tuple[int, Migration]]:
        """Drop the copies sourcing from or landing on ``device``; return
        them in start order."""
        lost = np.array(
            [migration.src == device or migration.dst == device for _, migration in self.items],
            dtype=bool,
        )
        if not lost.any():
            return []
        items = self.items
        self._keep(~lost, [items[i] for i in np.flatnonzero(~lost).tolist()])
        return [items[i] for i in np.flatnonzero(lost).tolist()]

    def _keep(self, rows, items: list[tuple[int, Migration]]) -> None:
        """Keep the ``rows`` (a mask or slice) whose copies are ``items``."""
        self.items = items
        self.kind = self.kind[rows]
        self.bandwidth = self.bandwidth[rows]
        self.remaining = self.remaining[rows]
        self.cursor = self.cursor[rows]


def split_migration(
    links: MigrationLinks, items: list[tuple[int, Migration]]
) -> PendingMigration:
    """Decompose a trigger's copies into Local/Global segments, as one
    :class:`PendingMigration` table in ``items`` order."""
    src = np.array([migration.src for _, migration in items], dtype=np.intp)
    dst = np.array([migration.dst for _, migration in items], dtype=np.intp)
    volume = np.array([migration.volume for _, migration in items])
    kind, bandwidth = links.segments(src, dst)
    remaining = np.where(kind != _PAST_END, volume[:, None], np.inf)
    return PendingMigration(list(items), kind, bandwidth, remaining)

"""Per-migration Local/Global segments: the test-only reference for
:mod:`repro.balancer.migration`.

The serving engine splits a trigger's copies in one
:func:`repro.balancer.migration.split_migration` call and drains them as
one :class:`repro.balancer.migration.PendingMigration` table.  This
module keeps what that replaced: :func:`split_migration` walks one
copy's ``topology.route`` link by link, a :class:`PendingMigration`
drains its own :class:`MigrationSegment` list, and :func:`drain` is the
engine's per-copy loop over an iteration's windows.
``tests/balancer/test_migration.py`` holds the table to these objects,
segment by segment and window by window.
"""

from dataclasses import dataclass, field
from enum import Enum

from repro.topology.base import Topology


class SegmentKind(Enum):
    LOCAL = "local"
    GLOBAL = "global"


@dataclass
class MigrationSegment:
    """One contiguous run of same-kind links along a migration path."""

    kind: SegmentKind
    hops: int
    min_bandwidth: float
    remaining: float

    @property
    def done(self) -> bool:
        return self.remaining <= 0.0


@dataclass
class PendingMigration:
    """An in-flight expert weight copy progressing through its segments."""

    expert: int
    src: int
    dst: int
    volume: float
    segments: list[MigrationSegment] = field(default_factory=list)
    started_iteration: int = 0
    completed_iteration: int | None = None

    @property
    def done(self) -> bool:
        return all(segment.done for segment in self.segments)

    @property
    def current_segment(self) -> MigrationSegment | None:
        for segment in self.segments:
            if not segment.done:
                return segment
        return None

    def advance(self, kind: SegmentKind, budget_bytes: float) -> float:
        """Drain up to ``budget_bytes`` from the current segment if it
        matches ``kind``; returns the bytes consumed."""
        if budget_bytes < 0:
            raise ValueError(f"budget must be >= 0, got {budget_bytes}")
        segment = self.current_segment
        if segment is None or segment.kind is not kind:
            return 0.0
        consumed = min(segment.remaining, budget_bytes)
        segment.remaining -= consumed
        return consumed


def split_migration(
    topology: Topology,
    ftd_of,
    expert: int,
    src: int,
    dst: int,
    volume: float,
    iteration: int = 0,
) -> PendingMigration:
    """Decompose a migration path into Local/Global segments.

    ``ftd_of(device)`` labels FTD membership; links whose endpoints share an
    FTD are Local, the rest Global.  Mappings without FTDs (``ftd_of``
    returning ``None``) degrade to a single Global segment — there are no
    phase-cold intra-tile links to exploit.
    """
    if volume <= 0:
        raise ValueError(f"volume must be positive, got {volume}")
    path = topology.route(src, dst)
    segments: list[MigrationSegment] = []
    for link in path:
        src_ftd = ftd_of(link.src) if topology.is_device(link.src) else None
        dst_ftd = ftd_of(link.dst) if topology.is_device(link.dst) else None
        if src_ftd is not None and src_ftd == dst_ftd:
            kind = SegmentKind.LOCAL
        else:
            kind = SegmentKind.GLOBAL
        if segments and segments[-1].kind is kind:
            segments[-1].hops += 1
            segments[-1].min_bandwidth = min(
                segments[-1].min_bandwidth, link.bandwidth
            )
        else:
            segments.append(
                MigrationSegment(
                    kind=kind,
                    hops=1,
                    min_bandwidth=link.bandwidth,
                    remaining=volume,
                )
            )
    return PendingMigration(
        expert=expert,
        src=src,
        dst=dst,
        volume=volume,
        segments=segments,
        started_iteration=iteration,
    )


def drain(flight, ar_duration: float, a2a_duration: float):
    """One iteration of the serving engine's per-migration drain.

    ``flight`` lists ``(layer, migration, pending)`` in start order.
    Returns the ``(layer, migration)`` pairs that finished, in start
    order, and the entries still in flight.
    """
    finished = []
    remaining = []
    for layer, migration, pending in flight:
        # Local segments ride the attention all-reduce windows, the
        # Global segment the all-to-all windows; the layer-by-layer
        # alternation means all three segments can progress within one
        # iteration when budgets allow.
        for kind, duration in (
            (SegmentKind.LOCAL, ar_duration),
            (SegmentKind.GLOBAL, a2a_duration),
            (SegmentKind.LOCAL, ar_duration),
        ):
            segment = pending.current_segment
            if segment is None:
                break
            if segment.kind is not kind:
                continue
            # Cold links retain >= 50% spare capacity (they work at
            # most every other cycle), so migration may borrow half
            # the link bandwidth over the phase window.
            budget = 0.5 * duration * segment.min_bandwidth
            pending.advance(kind, budget)
        if pending.done:
            finished.append((layer, migration))
        else:
            remaining.append((layer, migration, pending))
    return finished, remaining

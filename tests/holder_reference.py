"""Per-pair token holders: the test-only reference for the holder tables.

Every mapping family states its holder rule once, in arrays, in its
``_holder_rows``: ``Mapping.token_holder_table()`` materializes it, and the
all-to-all pricer, ESP's token gather and the FTD analysis read that table.
For mappings that define no FTDs, the FTD analysis reads the nearest-member
table of ``repro.mapping.ftd`` instead.  This module keeps the per-pair
rules those tables replaced, unchanged apart from taking the mapping as
their first argument:

* :func:`token_holders` is a mapping's per-pair holder list as its family
  defined it: inverse-distance weighted members under all-gather and equal
  1/TP shards without it (every family), the single in-tile member (ER),
  the mirror shards on the fetcher's wafer (HER);
* :func:`analysis_holders` is the FTD analysis's per-pair rule: the
  holders above where the mapping defines FTDs, the group's nearest
  members otherwise.

The per-pair lists are memoized on the mapping, as they were when they
were methods.  The tests hold the production tables to these bit for bit.
"""

from repro.mapping.base import Mapping, MeshMapping
from repro.mapping.er import ERMapping
from repro.mapping.her import HierarchicalERMapping
from repro.memo import instance_memo
from repro.topology.mesh import Coord


def token_holders(mapping: Mapping, group: int, dest: int) -> list[tuple[int, float]]:
    """Devices to pull group ``group``'s tokens from, for fetcher ``dest``,
    by the rule of ``mapping``'s family."""
    if isinstance(mapping, HierarchicalERMapping):
        return _her_token_holders(mapping, group, dest)
    if isinstance(mapping, ERMapping):
        return _er_token_holders(mapping, group, dest)
    return _base_token_holders(mapping, group, dest)


def analysis_holders(mapping: Mapping, group: int, dest: int) -> list[tuple[int, float]]:
    """Holders for FTD geometry analysis, by the rule of ``mapping``'s class."""
    if isinstance(mapping, MeshMapping):
        return _mesh_analysis_holders(mapping, group, dest)
    return _base_analysis_holders(mapping, group, dest)


# -- Mapping ------------------------------------------------------------------


def _base_token_holders(mapping: Mapping, group: int, dest: int) -> list[tuple[int, float]]:
    """Every group member, inverse-distance weighted, with all-gather
    retained; equal 1/TP shards from their owners without it."""
    if mapping.retain_allgather:
        return _weighted_members(mapping, group, dest)
    members = mapping._tp_groups[group]
    fraction = 1.0 / len(members)
    return [(member, fraction) for member in members]


@instance_memo("_weighted_members_memo")
def _weighted_members_cached(
    mapping: Mapping, group: int, dest: int
) -> tuple[tuple[int, float], ...]:
    members = mapping._tp_groups[group]
    weights = [
        (1.0 / (1 + mapping.topology.hops(member, dest))) ** mapping.locality_power
        for member in members
    ]
    total = sum(weights)
    return tuple(
        (member, weight / total) for member, weight in zip(members, weights)
    )


def _weighted_members(mapping: Mapping, group: int, dest: int) -> list[tuple[int, float]]:
    return list(_weighted_members_cached(mapping, group, dest))


@instance_memo("_nearest_members_memo")
def _nearest_members_cached(
    mapping: Mapping, group: int, dest: int
) -> tuple[tuple[int, float], ...]:
    members = mapping._tp_groups[group]
    distances = [mapping.topology.hops(member, dest) for member in members]
    best = min(distances)
    nearest = [m for m, d in zip(members, distances) if d == best]
    fraction = 1.0 / len(nearest)
    return tuple((member, fraction) for member in nearest)


def _nearest_members(mapping: Mapping, group: int, dest: int) -> list[tuple[int, float]]:
    """Nearest-member holders — the paper's conceptual FTD assumption."""
    return list(_nearest_members_cached(mapping, group, dest))


def _base_analysis_holders(
    mapping: Mapping, group: int, dest: int
) -> list[tuple[int, float]]:
    """Holders for FTD geometry analysis (Sec. IV-A assumes nearest)."""
    return _nearest_members(mapping, group, dest)


# -- MeshMapping --------------------------------------------------------------


def _mesh_analysis_holders(
    mapping: MeshMapping, group: int, dest: int
) -> list[tuple[int, float]]:
    """FTD analysis follows the routing rule when tiles are defined."""
    if mapping._ftd_index is not None:
        return token_holders(mapping, group, dest)
    return _nearest_members(mapping, group, dest)


@instance_memo("_member_in_ftd_memo")
def _member_in_ftd(mapping: MeshMapping, group: int, ftd: int) -> int | None:
    assert mapping._ftds is not None
    tile = set(mapping._ftds[ftd])
    in_tile = [m for m in mapping.tp_groups[group] if m in tile]
    if len(in_tile) == 1:
        return in_tile[0]
    return None


# -- ERMapping ----------------------------------------------------------------


def _er_token_holders(mapping: ERMapping, group: int, dest: int) -> list[tuple[int, float]]:
    """FTD-confined fetch: the single in-tile member holds everything.

    Without all-gather the tokens stay sharded and the generic 1/TP
    fallback applies.
    """
    if mapping.retain_allgather and mapping._ftd_index is not None:
        member = _member_in_ftd(mapping, group, mapping._ftd_index[dest])
        if member is not None:
            return [(member, 1.0)]
    return _base_token_holders(mapping, group, dest)


# -- HierarchicalERMapping ----------------------------------------------------


def _her_token_holders(
    mapping: HierarchicalERMapping, group: int, dest: int
) -> list[tuple[int, float]]:
    """Pull each 1/TP shard from its mirror device on the fetcher's wafer.

    The mirror set only depends on the fetcher's wafer, so the computation
    is cached per (group, wafer).
    """
    return list(
        _mirror_holders_cached(mapping, group, mapping.wafer_topology.wafer_of(dest))
    )


@instance_memo("_mirror_holders_memo")
def _mirror_holders_cached(
    mapping: HierarchicalERMapping, group: int, dest_wafer: int
) -> tuple[tuple[int, float], ...]:
    mesh = mapping.wafer_topology
    col0 = dest_wafer * mesh.wafer_width
    fraction = 1.0 / mapping.tp
    holders = []
    for member in mapping.tp_groups[group]:
        local = mesh.local_coord(member)
        mirror = mesh.device_at(Coord(local.x, col0 + local.y))
        holders.append((mirror, fraction))
    return tuple(holders)

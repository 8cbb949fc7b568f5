"""Full Token Domain geometry analysis (paper Sec. IV-A).

An FTD is the minimal device set collectively holding every TP group's
tokens.  From a fetching device's perspective it is the set of each group's
token holders; the union's bounding box is the region whose links the
device's all-to-all traffic occupies.  :func:`ftd_holder_table` gives the
holders: where the mapping defines FTDs (ER, HER) its routing rule, the
mapping's ``token_holder_table()``; elsewhere each group's nearest members,
the paper's conceptual assumption.  This module quantifies the three
pressures the paper analyses:

* **hops** — the expected distance to another group's token holders;
* **area** — the FTD bounding-box size;
* **intersection** — how many distinct FTD regions cover each device, the
  proxy for congestion where regions overlap (the mesh centre under the
  baseline mapping).
"""

from dataclasses import dataclass

import numpy as np

from repro.mapping.base import HolderTable, MeshMapping
from repro.topology.mesh import Coord


@dataclass(frozen=True)
class FTDAnalysis:
    """Geometry metrics of the mapping's Full Token Domains.

    Attributes:
        mean_area: average bounding-box device count of the per-device FTDs.
        expected_hops: mean over (device, other TP group) of the
            holder-weighted hop count to the group's tokens — the paper's
            "average hops" (2.7 baseline vs 1.3 ER on a 4x4 mesh with TP=4).
        overlap_degree: mean over devices of (covering FTD regions - 1);
            zero means the regions tile the mesh without intersecting.
        num_regions: count of distinct FTD regions.
        intersecting_pairs: number of region pairs sharing a device.
    """

    mean_area: float
    expected_hops: float
    overlap_degree: float
    num_regions: int
    intersecting_pairs: int


def _bounding_box(mesh, devices: frozenset[int]) -> frozenset[int]:
    coords = [mesh.coord_of(device) for device in devices]
    min_x = min(coord.x for coord in coords)
    max_x = max(coord.x for coord in coords)
    min_y = min(coord.y for coord in coords)
    max_y = max(coord.y for coord in coords)
    return frozenset(
        mesh.device_at(Coord(x, y))
        for x in range(min_x, max_x + 1)
        for y in range(min_y, max_y + 1)
    )


def ftd_holder_table(mapping: MeshMapping) -> HolderTable:
    """The holders the FTD analysis reads for each (group, fetcher) cell.

    A mapping that defines FTDs fetches by its routing rule, so its own
    ``token_holder_table()`` serves.  Otherwise each row lists the group's
    nearest members to the fetcher, in ring order, with ties splitting the
    fetch equally (``1.0 / count`` each).
    """
    if mapping.ftds is not None:
        return mapping.token_holder_table()
    members = np.array(mapping.tp_groups, dtype=np.intp)
    dests = np.arange(mapping.mesh.num_devices)
    holders = np.broadcast_to(members[:, None, :], (mapping.dp, dests.size, mapping.tp))
    hops = mapping.mesh.hop_counts(holders, dests[:, None])
    nearest = hops == hops.min(axis=2, keepdims=True)
    fractions = np.broadcast_to(1.0 / nearest.sum(axis=2, keepdims=True), holders.shape)
    return HolderTable(holders, fractions, nearest)


def analyze_ftds(mapping: MeshMapping) -> FTDAnalysis:
    """Compute FTD geometry metrics for a mesh mapping."""
    mesh = mapping.mesh
    own_group = {device: mapping.tp_group_of(device) for device in mesh.devices}
    table = ftd_holder_table(mapping)

    regions: set[frozenset[int]] = set()
    hop_sum = 0.0
    hop_count = 0
    area_sum = 0
    for device in mesh.devices:
        holder_set = {device}
        for group in range(mapping.dp):
            holders = table.entries(group, device)
            holder_set.update(member for member, _ in holders)
            if group != own_group[device]:
                hop_sum += sum(
                    fraction * mesh.hops(member, device)
                    for member, fraction in holders
                )
                hop_count += 1
        region = _bounding_box(mesh, frozenset(holder_set))
        regions.add(region)
        area_sum += len(region)

    region_list = sorted(regions, key=sorted)
    coverage = {device: 0 for device in mesh.devices}
    for region in region_list:
        for device in region:
            coverage[device] += 1
    overlap = sum(max(0, count - 1) for count in coverage.values()) / mesh.num_devices

    intersecting = 0
    for i, first in enumerate(region_list):
        for second in region_list[i + 1 :]:
            if first & second:
                intersecting += 1

    return FTDAnalysis(
        mean_area=area_sum / mesh.num_devices,
        expected_hops=hop_sum / hop_count if hop_count else 0.0,
        overlap_degree=overlap,
        num_regions=len(region_list),
        intersecting_pairs=intersecting,
    )

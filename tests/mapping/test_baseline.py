"""Tests for the baseline (contiguous-tile) mapping."""

import pytest

from repro.mapping.base import ParallelismConfig
from repro.mapping.baseline import BaselineMapping
from repro.mapping.ftd import ftd_holder_table
from repro.topology.mesh import Coord, MeshTopology


@pytest.fixture
def mesh():
    return MeshTopology(4, 4)


@pytest.fixture
def mapping(mesh):
    return BaselineMapping(mesh, ParallelismConfig(tp=4, dp=4, tp_shape=(2, 2)))


class TestStructure:
    def test_groups_partition_devices(self, mapping, mesh):
        seen = set()
        for group in mapping.tp_groups:
            assert len(group) == 4
            seen.update(group)
        assert seen == set(mesh.devices)

    def test_groups_are_contiguous_tiles(self, mapping, mesh):
        for group in mapping.tp_groups:
            coords = [mesh.coord_of(d) for d in group]
            xs = {c.x for c in coords}
            ys = {c.y for c in coords}
            assert max(xs) - min(xs) == 1
            assert max(ys) - min(ys) == 1

    def test_ring_neighbours_adjacent(self, mapping, mesh):
        """Zero-hop rings: consecutive members are mesh neighbours."""
        for group in mapping.tp_groups:
            for i, member in enumerate(group):
                nxt = group[(i + 1) % len(group)]
                assert mesh.manhattan(member, nxt) <= 2  # closing edge may be 2

    def test_consecutive_snake_neighbours_one_hop(self, mapping, mesh):
        for group in mapping.tp_groups:
            for member, nxt in zip(group, group[1:]):
                assert mesh.manhattan(member, nxt) == 1

    def test_tp_group_of_inverse(self, mapping):
        for gid, group in enumerate(mapping.tp_groups):
            for member in group:
                assert mapping.tp_group_of(member) == gid

    def test_not_staggered(self, mapping):
        assert mapping.staggered_rings is False

    def test_no_ftds(self, mapping):
        assert mapping.ftds is None
        assert mapping.ftd_of(0) is None


class TestValidation:
    def test_requires_mesh_topology(self):
        from repro.topology.switched import NVL72Topology

        with pytest.raises(TypeError, match="MeshTopology"):
            BaselineMapping(
                NVL72Topology(num_devices=16),
                ParallelismConfig(tp=4, dp=4, tp_shape=(2, 2)),
            )

    def test_requires_tp_shape(self, mesh):
        with pytest.raises(ValueError, match="tp_shape"):
            BaselineMapping(mesh, ParallelismConfig(tp=4, dp=4))

    def test_tp_shape_must_tile(self, mesh):
        with pytest.raises(ValueError, match="tile"):
            BaselineMapping(mesh, ParallelismConfig(tp=3, dp=8, tp_shape=(3, 1)))
        # 3*1 also fails the device-count check, so use a clean mismatch:
        with pytest.raises(ValueError):
            BaselineMapping(mesh, ParallelismConfig(tp=8, dp=2, tp_shape=(8, 1)))

    def test_device_count_must_match(self, mesh):
        with pytest.raises(ValueError, match="devices"):
            BaselineMapping(mesh, ParallelismConfig(tp=2, dp=4, tp_shape=(2, 1)))


class TestTokenHolders:
    def test_with_allgather_nearest_member_dominates(self, mapping, mesh):
        # Fetcher at (0,0); group 3 occupies the bottom-right tile.  With
        # all-gather the pull splits across all members, inverse-distance
        # weighted, so the nearest member (2,2) carries the largest share.
        dest = mesh.device_at(Coord(0, 0))
        group = mapping.tp_group_of(mesh.device_at(Coord(2, 2)))
        holders = dict(mapping.token_holder_table().entries(group, dest))
        assert len(holders) == 4
        nearest = mesh.device_at(Coord(2, 2))
        assert holders[nearest] == max(holders.values())

    def test_self_fetch_dominates_own_group(self, mapping, mesh):
        dest = mesh.device_at(Coord(0, 0))
        own_group = mapping.tp_group_of(dest)
        holders = dict(mapping.token_holder_table().entries(own_group, dest))
        assert holders[dest] == max(holders.values())
        assert holders[dest] > 0.5

    def test_analysis_holders_are_nearest_only(self, mapping, mesh):
        dest = mesh.device_at(Coord(0, 0))
        group = mapping.tp_group_of(mesh.device_at(Coord(2, 2)))
        assert ftd_holder_table(mapping).entries(group, dest) == (
            (mesh.device_at(Coord(2, 2)), 1.0),
        )

    def test_without_allgather_all_members(self, mesh):
        mapping = BaselineMapping(
            mesh,
            ParallelismConfig(tp=4, dp=4, tp_shape=(2, 2)),
            retain_allgather=False,
        )
        holders = mapping.token_holder_table().entries(0, 15)
        assert len(holders) == 4
        assert sum(fraction for _, fraction in holders) == pytest.approx(1.0)

    def test_holder_fractions_sum_to_one(self, mapping):
        table = mapping.token_holder_table()
        for group in range(mapping.dp):
            for dest in mapping.topology.devices:
                fractions = sum(fraction for _, fraction in table.entries(group, dest))
                assert fractions == pytest.approx(1.0)

"""Tests for ER-Mapping (paper Fig. 10a algorithm)."""

import pytest

from repro.mapping.base import ParallelismConfig
from repro.mapping.er import ERMapping
from repro.topology.mesh import Coord, MeshTopology


@pytest.fixture
def mesh():
    return MeshTopology(4, 4)


@pytest.fixture
def mapping(mesh):
    return ERMapping(mesh, ParallelismConfig(tp=4, dp=4, tp_shape=(2, 2)))


class TestAlgorithm:
    """Direct checks against the Fig. 10a pseudo-code."""

    def test_groups_are_residue_classes(self, mapping, mesh):
        # TPGroup[i,j] = {D[x,y] | x % a == i, y % b == j} with a = b = 2.
        for group in mapping.tp_groups:
            coords = [mesh.coord_of(d) for d in group]
            assert len({(c.x % 2, c.y % 2) for c in coords}) == 1

    def test_ftd_shape(self, mapping):
        assert mapping.ftd_shape == (2, 2)

    def test_ftds_are_contiguous_tiles(self, mapping, mesh):
        for ftd in mapping.ftds:
            coords = [mesh.coord_of(d) for d in ftd]
            assert max(c.x for c in coords) - min(c.x for c in coords) == 1
            assert max(c.y for c in coords) - min(c.y for c in coords) == 1

    def test_each_ftd_holds_one_member_of_every_group(self, mapping):
        for ftd in mapping.ftds:
            groups_present = sorted(mapping.tp_group_of(d) for d in ftd)
            assert groups_present == list(range(mapping.dp))

    def test_ftds_partition_devices(self, mapping, mesh):
        seen = set()
        for ftd in mapping.ftds:
            seen.update(ftd)
        assert seen == set(mesh.devices)

    def test_paper_worked_example(self, mesh):
        """The paper's 4x4 example: TPGroup[1,2] = {D[x,y] | x%2=0, y%2=1}."""
        mapping = ERMapping(mesh, ParallelismConfig(tp=4, dp=4, tp_shape=(2, 2)))
        group_of_01 = mapping.tp_group_of(mesh.device_at(Coord(0, 1)))
        members = mapping.tp_groups[group_of_01]
        expected = {
            mesh.device_at(Coord(0, 1)),
            mesh.device_at(Coord(0, 3)),
            mesh.device_at(Coord(2, 1)),
            mesh.device_at(Coord(2, 3)),
        }
        assert set(members) == expected


class TestEntwinedRings:
    def test_ring_neighbours_are_stride_hops(self, mapping, mesh):
        """Two-hop entwined rings on the 4x4 / TP=4 configuration."""
        for group in mapping.tp_groups:
            for member, nxt in zip(group, group[1:]):
                assert mesh.manhattan(member, nxt) == 2

    def test_staggered(self, mapping):
        assert mapping.staggered_rings is True

    def test_allreduce_double_of_baseline(self, mesh):
        from repro.mapping.baseline import BaselineMapping

        parallelism = ParallelismConfig(tp=4, dp=4, tp_shape=(2, 2))
        er = ERMapping(mesh, parallelism)
        baseline = BaselineMapping(mesh, parallelism)
        volume = 1e6
        assert er.simulate_allreduce(volume).duration == pytest.approx(
            2 * baseline.simulate_allreduce(volume).duration
        )


class TestTokenHolders:
    def test_holder_is_in_fetchers_ftd(self, mapping):
        table = mapping.token_holder_table()
        for dest in mapping.topology.devices:
            ftd = mapping.ftd_of(dest)
            for group in range(mapping.dp):
                holders = table.entries(group, dest)
                assert len(holders) == 1
                holder, fraction = holders[0]
                assert fraction == 1.0
                assert mapping.ftd_of(holder) == ftd

    def test_without_allgather_shards_across_members(self, mesh):
        mapping = ERMapping(
            mesh,
            ParallelismConfig(tp=4, dp=4, tp_shape=(2, 2)),
            retain_allgather=False,
        )
        holders = mapping.token_holder_table().entries(0, 15)
        assert [holder for holder, _ in holders] == mapping.tp_groups[0]
        assert [fraction for _, fraction in holders] == [0.25] * 4


class TestOtherScales:
    @pytest.mark.parametrize(
        "side, tp, tp_shape",
        [(4, 2, (2, 1)), (4, 8, (2, 4)), (6, 4, (2, 2)), (6, 36, (6, 6)), (8, 16, (4, 4))],
    )
    def test_valid_configurations(self, side, tp, tp_shape):
        mesh = MeshTopology(side, side)
        mapping = ERMapping(
            mesh,
            ParallelismConfig(tp=tp, dp=side * side // tp, tp_shape=tp_shape),
        )
        for ftd in mapping.ftds:
            groups_present = sorted(mapping.tp_group_of(d) for d in ftd)
            assert groups_present == list(range(mapping.dp))

    def test_rectangular_mesh(self):
        mesh = MeshTopology(2, 8)
        mapping = ERMapping(
            mesh, ParallelismConfig(tp=4, dp=4, tp_shape=(2, 2))
        )
        assert mapping.ftd_shape == (1, 4)

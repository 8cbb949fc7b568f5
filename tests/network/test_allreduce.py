"""Tests for ring collectives."""

import pytest

from repro.network.allreduce import (
    hierarchical_allreduce,
    ring_allgather,
    ring_allreduce,
    ring_reduce_scatter,
)
from repro.topology.mesh import MeshTopology
from repro.topology.switched import DGXClusterTopology


@pytest.fixture
def mesh():
    return MeshTopology(4, 4)


VOLUME = 1e6


class TestStepCounts:
    def test_allreduce_steps(self, mesh):
        result = ring_allreduce(mesh, [[0, 1, 2, 3]], VOLUME)
        assert result.num_steps == 2 * 3

    def test_reduce_scatter_steps(self, mesh):
        assert ring_reduce_scatter(mesh, [[0, 1, 2, 3]], VOLUME).num_steps == 3

    def test_allgather_steps(self, mesh):
        assert ring_allgather(mesh, [[0, 1, 2, 3]], VOLUME).num_steps == 3

    def test_allreduce_is_rs_plus_ag(self, mesh):
        group = [[0, 1, 2, 3]]
        ar = ring_allreduce(mesh, group, VOLUME).duration
        rs = ring_reduce_scatter(mesh, group, VOLUME).duration
        ag = ring_allgather(mesh, group, VOLUME).duration
        assert ar == pytest.approx(rs + ag)

    def test_singleton_group_is_free(self, mesh):
        result = ring_allreduce(mesh, [[0]], VOLUME)
        assert result.duration == 0.0
        assert result.num_steps == 0

    def test_mixed_group_sizes_rejected(self, mesh):
        with pytest.raises(ValueError, match="share a size"):
            ring_allreduce(mesh, [[0, 1], [2, 3, 4]], VOLUME)


class TestVolumeValidation:
    """Every ring collective rejects a volume that is not finite and >= 0,
    naming it, before any early return."""

    def test_nan_rejected_staggered(self, mesh):
        with pytest.raises(ValueError, match="nan"):
            ring_allreduce(mesh, [[0, 1, 5, 4]], float("nan"), staggered=True)

    def test_nan_rejected_unstaggered(self, mesh):
        with pytest.raises(ValueError, match="nan"):
            ring_allreduce(mesh, [[0, 1, 5, 4]], float("nan"))

    def test_inf_rejected(self, mesh):
        with pytest.raises(ValueError, match="inf"):
            ring_allreduce(mesh, [[0, 1, 5, 4]], float("inf"))

    def test_negative_volume_named(self, mesh):
        with pytest.raises(ValueError, match=r"volume_per_group .* got -1000000\.0"):
            ring_reduce_scatter(mesh, [[0, 1, 5, 4]], -1e6, staggered=True)

    def test_checked_before_singleton_return(self, mesh):
        with pytest.raises(ValueError, match="nan"):
            ring_allreduce(mesh, [[0]], float("nan"))

    def test_hierarchical_checks_without_stages(self, mesh):
        with pytest.raises(ValueError, match="inf"):
            hierarchical_allreduce(mesh, [[0]], float("inf"), partition_of=lambda d: 0)

    def test_zero_volume_stays_legal(self, mesh):
        staggered = ring_allreduce(mesh, [[0, 2, 10, 8]], 0.0, staggered=True)
        assert staggered.duration == 6 * 2 * mesh.link(0, 1).latency
        assert set(staggered.link_bytes.values()) == {0.0}
        unstaggered = ring_allgather(mesh, [[0, 1, 5, 4]], 0.0)
        assert (unstaggered.duration, unstaggered.num_steps) == (0.0, 3)
        assert unstaggered.link_bytes == {} and unstaggered.total_volume == 0.0


class TestAdjacentRings:
    def test_one_hop_ring_cost(self, mesh):
        # Snake ring over a 2x2 tile: 0 -> 1 -> 5 -> 4 -> 0.  Bidirectional
        # transfer moves half a chunk per direction per step.
        group = [[0, 1, 5, 4]]
        result = ring_allreduce(mesh, group, VOLUME)
        link = mesh.link(0, 1)
        chunk = VOLUME / 4
        expected_step = (chunk / 2) / link.bandwidth + link.latency
        assert result.duration == pytest.approx(6 * expected_step)

    def test_volume_conservation(self, mesh):
        group = [[0, 1, 5, 4]]
        result = ring_allreduce(mesh, group, VOLUME)
        # 6 steps x 4 members x chunk.
        assert result.total_volume == pytest.approx(6 * 4 * VOLUME / 4)

    def test_concurrent_disjoint_rings_cost_same_as_one(self, mesh):
        one = ring_allreduce(mesh, [[0, 1, 5, 4]], VOLUME)
        two = ring_allreduce(mesh, [[0, 1, 5, 4], [2, 3, 7, 6]], VOLUME)
        assert two.duration == pytest.approx(one.duration)


class TestEntwinedRings:
    """The staggered two-hop schedule (paper Sec. IV-B2)."""

    def test_two_hop_ring_doubles_cost(self, mesh):
        near = ring_allreduce(mesh, [[0, 1, 5, 4]], VOLUME, staggered=True)
        # Stride-2 ring: 0 -> 2 -> 10 -> 8 -> 0, every hop distance 2.
        far = ring_allreduce(mesh, [[0, 2, 10, 8]], VOLUME, staggered=True)
        assert far.duration == pytest.approx(2 * near.duration)

    def test_staggered_intersecting_rings_do_not_contend(self, mesh):
        ring_a = [0, 2, 10, 8]
        ring_b = [1, 3, 11, 9]
        single = ring_allreduce(mesh, [ring_a], VOLUME, staggered=True)
        both = ring_allreduce(mesh, [ring_a, ring_b], VOLUME, staggered=True)
        assert both.duration == pytest.approx(single.duration)

    def test_link_bytes_recorded(self, mesh):
        result = ring_allreduce(mesh, [[0, 2, 10, 8]], VOLUME, staggered=True)
        assert result.link_bytes
        assert all(volume > 0 for volume in result.link_bytes.values())


class TestHierarchical:
    def test_beats_flat_ring_on_dgx(self):
        dgx = DGXClusterTopology(num_nodes=2)
        group = [list(range(16))]
        flat = ring_allreduce(dgx, group, VOLUME)
        hier = hierarchical_allreduce(
            dgx, group, VOLUME, partition_of=dgx.node_of
        )
        assert hier.duration < flat.duration

    def test_single_partition_degenerates_to_local_rings(self, mesh):
        group = [[0, 1, 5, 4]]
        result = hierarchical_allreduce(mesh, group, VOLUME, partition_of=lambda d: 0)
        # RS + AG without any bridge stage: same steps as full allreduce.
        assert result.num_steps == 2 * 3

    def test_nonzero_duration(self, mesh):
        result = hierarchical_allreduce(
            mesh, [[0, 1, 4, 5]], VOLUME, partition_of=lambda d: d % 2
        )
        assert result.duration > 0

"""Tests for link heat classification — including the paper's key
complementarity observation (Fig. 11)."""

import pytest

from repro.balancer.heat import classify_links, cold_capacity, complementarity
from repro.mapping.base import ParallelismConfig
from repro.mapping.er import ERMapping
from repro.mapping.placement import StackedPlacement
from repro.network.alltoall import simulate_alltoall, uniform_demand
from repro.topology.mesh import MeshTopology


@pytest.fixture
def mesh():
    return MeshTopology(4, 4)


@pytest.fixture
def er(mesh):
    return ERMapping(mesh, ParallelismConfig(tp=4, dp=4, tp_shape=(2, 2)))


class TestClassify:
    def test_unused_links_are_cold(self, mesh):
        heat = classify_links(mesh, {(0, 1): 100.0})
        assert (4, 5) in heat.cold
        assert (0, 1) in heat.hot

    def test_partition_covers_all_links(self, mesh):
        heat = classify_links(mesh, {(0, 1): 100.0})
        assert heat.hot | heat.cold == set(mesh.links)
        assert not (heat.hot & heat.cold)

    def test_threshold(self, mesh):
        link_bytes = {(0, 1): 100.0, (1, 2): 1.0}
        heat = classify_links(mesh, link_bytes, threshold=0.05)
        assert (1, 2) in heat.cold

    def test_threshold_bounds(self, mesh):
        with pytest.raises(ValueError):
            classify_links(mesh, {}, threshold=1.5)

    def test_empty_phase_all_cold(self, mesh):
        heat = classify_links(mesh, {})
        assert len(heat.cold) == len(mesh.links)


class TestComplementarity:
    def test_er_allreduce_and_alltoall_are_complementary(self, mesh, er):
        """Paper Fig. 11: every link is cold in at least one phase."""
        ar = er.simulate_allreduce(256 * 8192)
        placement = StackedPlacement(1, 16, 16)
        demand = uniform_demand(4, 16, 256, 8, 8192)
        a2a = simulate_alltoall(mesh, demand, placement, er)

        ar_heat = classify_links(mesh, ar.link_bytes)
        a2a_heat = classify_links(mesh, a2a.link_bytes)
        assert complementarity(ar_heat, a2a_heat) == pytest.approx(1.0)

    def test_intra_ftd_links_cold_during_allreduce(self, mesh, er):
        ar = er.simulate_allreduce(256 * 8192)
        heat = classify_links(mesh, ar.link_bytes)
        for ftd in er.ftds:
            tile = set(ftd)
            for key in mesh.links:
                src, dst = key
                if src in tile and dst in tile:
                    assert heat.is_cold(key)

    def test_inter_ftd_links_cold_during_alltoall(self, mesh, er):
        placement = StackedPlacement(1, 16, 16)
        demand = uniform_demand(4, 16, 256, 8, 8192)
        a2a = simulate_alltoall(mesh, demand, placement, er)
        heat = classify_links(mesh, a2a.link_bytes)
        for key in mesh.links:
            src, dst = key
            if er.ftd_of(src) != er.ftd_of(dst):
                assert heat.is_cold(key)

    def test_complementarity_larger_mesh(self):
        """With 3x3 FTD tiles a stride-3 ring edge must cross two intra-tile
        links, so complementarity is high but no longer perfect; the
        inter-FTD links stay strictly idle during the all-to-all."""
        mesh = MeshTopology(6, 6)
        er = ERMapping(mesh, ParallelismConfig(tp=4, dp=9, tp_shape=(2, 2)))
        ar = er.simulate_allreduce(256 * 8192)
        placement = StackedPlacement(1, 36, 36)
        demand = uniform_demand(9, 36, 256, 8, 8192)
        a2a = simulate_alltoall(mesh, demand, placement, er)
        score = complementarity(
            classify_links(mesh, ar.link_bytes), classify_links(mesh, a2a.link_bytes)
        )
        assert score > 0.55
        a2a_heat = classify_links(mesh, a2a.link_bytes)
        for key in mesh.links:
            if er.ftd_of(key[0]) != er.ftd_of(key[1]):
                assert a2a.link_bytes.get(key, 0.0) == 0.0
                assert a2a_heat.is_cold(key)

    def test_perfect_complementarity_on_stride_two_tiles(self):
        """The paper's 4x4 heat maps: 2x2 FTD tiles are perfectly
        complementary across the two phases."""
        mesh = MeshTopology(4, 4)
        er = ERMapping(mesh, ParallelismConfig(tp=4, dp=4, tp_shape=(2, 2)))
        ar = er.simulate_allreduce(256 * 8192)
        placement = StackedPlacement(1, 16, 16)
        demand = uniform_demand(4, 16, 256, 8, 8192)
        a2a = simulate_alltoall(mesh, demand, placement, er)
        score = complementarity(
            classify_links(mesh, ar.link_bytes), classify_links(mesh, a2a.link_bytes)
        )
        assert score == pytest.approx(1.0)


class TestColdCapacity:
    def test_capacity_scales_with_duration(self, mesh):
        heat = classify_links(mesh, {})
        short = cold_capacity(mesh, heat, 1e-6)
        long = cold_capacity(mesh, heat, 2e-6)
        key = next(iter(short))
        assert long[key] == pytest.approx(2 * short[key])

    def test_existing_traffic_subtracted(self, mesh):
        heat = classify_links(mesh, {})
        capacity = cold_capacity(mesh, heat, 1e-6, link_bytes={(0, 1): 1e5})
        bandwidth = mesh.link(0, 1).bandwidth
        assert capacity[(0, 1)] == pytest.approx(bandwidth * 1e-6 - 1e5)

    def test_never_negative(self, mesh):
        heat = classify_links(mesh, {})
        capacity = cold_capacity(mesh, heat, 1e-9, link_bytes={(0, 1): 1e12})
        assert capacity[(0, 1)] == 0.0

    def test_rejects_negative_duration(self, mesh):
        heat = classify_links(mesh, {})
        with pytest.raises(ValueError):
            cold_capacity(mesh, heat, -1.0)

"""Tests for the MoE all-to-all simulation."""

import numpy as np
import pytest

from alltoall_reference import build_dispatch_traffic
from repro.mapping.base import ParallelismConfig
from repro.mapping.baseline import BaselineMapping
from repro.mapping.er import ERMapping
from repro.mapping.placement import ExpertPlacement
from repro.models import QWEN3_235B
from repro.network.alltoall import (
    demand_from_counts,
    simulate_alltoall,
    uniform_demand,
)
from repro.systems import build_wsc
from repro.topology.mesh import MeshTopology


@pytest.fixture
def mesh():
    return MeshTopology(4, 4)


@pytest.fixture
def er(mesh):
    return ERMapping(mesh, ParallelismConfig(tp=4, dp=4, tp_shape=(2, 2)))


@pytest.fixture
def baseline(mesh):
    return BaselineMapping(mesh, ParallelismConfig(tp=4, dp=4, tp_shape=(2, 2)))


@pytest.fixture
def placement():
    return ExpertPlacement(16, 16)


class TestDemandHelpers:
    def test_uniform_demand_shape_and_mass(self):
        demand = uniform_demand(4, 16, tokens_per_group=256, experts_per_token=8, token_bytes=100)
        assert demand.shape == (4, 16)
        assert demand.sum() == pytest.approx(4 * 256 * 8 * 100)

    def test_uniform_demand_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            uniform_demand(0, 16, 1, 1, 1)

    def test_demand_from_counts(self):
        counts = np.array([[1, 2], [0, 3]])
        demand = demand_from_counts(counts, token_bytes=10)
        assert demand.tolist() == [[10.0, 20.0], [0.0, 30.0]]

    def test_demand_from_counts_rejects_negative(self):
        with pytest.raises(ValueError):
            demand_from_counts(np.array([[-1.0]]), 10)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_demand_from_counts_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            demand_from_counts(np.array([[1.0, bad]]), 10)


class TestDispatchTraffic:
    """Token-fetch pairs of the pair-list reference."""

    def test_volume_conserved(self, er, placement):
        demand = uniform_demand(4, 16, 256, 8, 100)
        traffic = build_dispatch_traffic(demand, placement, er)
        # Self flows (holder == destination) are legitimately dropped.
        assert traffic.total_volume <= demand.sum() + 1e-6
        assert traffic.total_volume > 0.5 * demand.sum()

    def test_er_dispatch_stays_within_ftds(self, er, placement):
        demand = uniform_demand(4, 16, 256, 8, 100)
        traffic = build_dispatch_traffic(demand, placement, er)
        for (src, dst), _volume in traffic.items():
            assert er.ftd_of(src) == er.ftd_of(dst)

    def test_baseline_dispatch_crosses_regions(self, baseline, placement):
        demand = uniform_demand(4, 16, 256, 8, 100)
        traffic = build_dispatch_traffic(demand, placement, baseline)
        distances = [
            baseline.topology.hops(src, dst) for (src, dst), _ in traffic.items()
        ]
        assert max(distances) >= 3


class TestDemandChecks:
    def test_rejects_non_2d_demand(self, er, placement):
        with pytest.raises(ValueError, match="2-D"):
            simulate_alltoall(er.topology, np.zeros(4), placement, er)

    def test_rejects_negative_demand(self, er, placement):
        with pytest.raises(ValueError, match=">= 0"):
            simulate_alltoall(er.topology, np.full((4, 16), -1.0), placement, er)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_demand(self, bad):
        """Unchecked, a NaN cell drops out of the traffic silently: the
        layer prices like the clean run and moves fewer bytes."""
        system = build_wsc(QWEN3_235B, 4, tp=4, mapping="er")
        mapping = system.mapping
        demand = uniform_demand(
            mapping.dp, QWEN3_235B.num_experts, 256, 8, QWEN3_235B.token_bytes
        )
        demand[:, 5] = bad
        with pytest.raises(ValueError, match="finite"):
            simulate_alltoall(system.topology, demand, system.fresh_placement(), mapping)

    def test_rejects_wrong_demand_shape(self, er, placement):
        with pytest.raises(ValueError, match="shape"):
            simulate_alltoall(er.topology, np.ones((4, 8)), placement, er)

    def test_rejects_placement_of_another_size(self, er):
        with pytest.raises(ValueError, match="devices"):
            simulate_alltoall(er.topology, np.ones((4, 16)), ExpertPlacement(16, 8), er)

    def test_rejects_another_topology(self, er, placement):
        """The pricer routes over the mapping's fabric, so pricing over an
        equal but distinct topology object is refused."""
        with pytest.raises(ValueError, match="mapping.topology"):
            simulate_alltoall(MeshTopology(4, 4), np.ones((4, 16)), placement, er)

    def test_integer_demand_prices_like_float(self, er, placement):
        counts = np.arange(64).reshape(4, 16) % 7
        as_int = simulate_alltoall(er.topology, counts, placement, er)
        as_float = simulate_alltoall(er.topology, counts.astype(float), placement, er)
        assert as_int == as_float
        assert as_int.duration > 0


class TestSimulateAllToAll:
    def test_dispatch_and_combine_symmetric_on_mesh(self, er, placement):
        demand = uniform_demand(4, 16, 256, 8, 100)
        result = simulate_alltoall(
            er.topology, demand, placement, er
        )
        assert result.dispatch.duration == pytest.approx(result.combine.duration)
        assert result.duration == pytest.approx(
            result.dispatch.duration + result.combine.duration
        )

    def test_er_beats_baseline(self, er, baseline, placement):
        demand = uniform_demand(4, 16, 256, 8, 4096)
        er_time = simulate_alltoall(
            er.topology, demand, placement, er
        ).duration
        base_time = simulate_alltoall(
            baseline.topology, demand, placement, baseline
        ).duration
        assert er_time < base_time

    def test_allgather_retention_helps_er(self, mesh, placement):
        """Fig. 14b: without all-gather the in-FTD fetch is impossible, so
        ER's all-to-all falls back to sharded fetches across the mesh; the
        doubled all-reduce is more than repaid."""
        parallelism = ParallelismConfig(tp=4, dp=4, tp_shape=(2, 2))
        with_ag = ERMapping(mesh, parallelism, retain_allgather=True)
        without_ag = ERMapping(mesh, parallelism, retain_allgather=False)
        demand = uniform_demand(4, 16, 256, 8, 8192)

        def total(mapping):
            a2a = simulate_alltoall(
                mesh, demand, placement, mapping
            ).duration
            return a2a + mapping.simulate_allreduce(256 * 8192).duration

        ag_a2a = simulate_alltoall(
            mesh, demand, placement, with_ag
        ).duration
        no_ag_a2a = simulate_alltoall(
            mesh, demand, placement, without_ag
        ).duration
        assert ag_a2a < 0.7 * no_ag_a2a
        assert total(with_ag) < total(without_ag)

    def test_replicated_expert_splits_traffic(self, er, placement):
        placement.add_replica(0, 15)
        demand = np.zeros((4, 16))
        demand[0, 0] = 1000.0
        volumes = dict(build_dispatch_traffic(demand, placement, er).items())
        # Half the demand goes to the replica on device 15, fetched from
        # group 0's member inside device 15's FTD; the native half is a
        # self-fetch on device 0 and generates no traffic.
        assert sum(volumes.values()) == pytest.approx(500.0)
        assert {dst for (_, dst) in volumes} == {15}
        result = simulate_alltoall(er.topology, demand, placement, er)
        assert result.dispatch.total_volume == pytest.approx(500.0)

    def test_link_bytes_merged(self, er, placement):
        demand = uniform_demand(4, 16, 256, 8, 100)
        result = simulate_alltoall(
            er.topology, demand, placement, er
        )
        assert result.link_bytes
        assert result.total_volume > 0

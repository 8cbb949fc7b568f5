"""Tests for the single-phase congestion model."""

import numpy as np
import pytest

from repro.network import phase
from repro.network.phase import route_rows, simulate_phase
from repro.network.traffic import Flow, TrafficMatrix
from repro.topology.base import Topology
from repro.topology.mesh import MeshTopology, MultiWaferTopology


@pytest.fixture
def mesh():
    return MeshTopology(4, 4)


class TestEmptyAndTrivial:
    def test_no_flows_zero_duration(self, mesh):
        result = simulate_phase(mesh, [])
        assert result.duration == 0.0
        assert result.bottleneck_link is None

    def test_self_flows_filtered(self, mesh):
        result = simulate_phase(mesh, [Flow(0, 0, 100.0)])
        assert result.duration == 0.0


class TestSingleFlow:
    def test_one_hop_flow(self, mesh):
        link = mesh.link(0, 1)
        volume = 1e6
        result = simulate_phase(mesh, [Flow(0, 1, volume)])
        assert result.duration == pytest.approx(
            volume / link.bandwidth + link.latency
        )
        assert result.link_bytes == {(0, 1): volume}

    def test_multi_hop_latency_accumulates(self, mesh):
        result = simulate_phase(mesh, [Flow(0, 15, 1e6)])
        assert result.latency_time == pytest.approx(mesh.path_latency(0, 15))
        # O1TURN multipath: half the flow on the XY path, half on YX.
        assert len(result.link_bytes) == 12
        assert sum(result.link_bytes.values()) == pytest.approx(6 * 1e6)

    def test_total_volume(self, mesh):
        result = simulate_phase(mesh, [Flow(0, 1, 5.0), Flow(1, 2, 7.0)])
        assert result.total_volume == 12.0


class TestCongestion:
    def test_shared_link_serialises(self, mesh):
        # Flows (0,0)->(0,2) and (0,1)->(0,3) share link (0,1)->(0,2):
        # cut-through default — the phase drains the busiest link.
        volume = 1e6
        flows = [Flow(0, 2, volume), Flow(1, 3, volume)]
        result = simulate_phase(mesh, flows)
        bandwidth = mesh.link(1, 2).bandwidth
        assert result.link_bytes[(1, 2)] == pytest.approx(2 * volume)
        assert result.serialization_time == pytest.approx(2 * volume / bandwidth)

    def test_disjoint_flows_do_not_serialise(self, mesh):
        volume = 1e6
        flows = [Flow(0, 1, volume), Flow(4, 5, volume)]
        result = simulate_phase(mesh, flows)
        link = mesh.link(0, 1)
        assert result.serialization_time == pytest.approx(volume / link.bandwidth)

    def test_bottleneck_link_identified(self, mesh):
        flows = [Flow(0, 2, 1e6), Flow(1, 3, 1e6), Flow(4, 5, 1e3)]
        result = simulate_phase(mesh, flows)
        assert result.bottleneck_link == (1, 2)

    def test_accepts_traffic_matrix(self, mesh):
        matrix = TrafficMatrix()
        matrix.add(0, 1, 1e6)
        assert simulate_phase(mesh, matrix).duration > 0

    def test_duration_monotone_in_volume(self, mesh):
        small = simulate_phase(mesh, [Flow(0, 15, 1e5)]).duration
        large = simulate_phase(mesh, [Flow(0, 15, 1e6)]).duration
        assert large > small

    def test_merge_link_bytes(self, mesh):
        result = simulate_phase(mesh, [Flow(0, 1, 1e3)])
        acc = {(0, 1): 1.0}
        result.merge_link_bytes(acc)
        assert acc[(0, 1)] == pytest.approx(1e3 + 1.0)


class TestRouteRows:
    def test_out_of_range_device_does_not_reuse_a_cached_row(self, mesh):
        # On a 4x4 mesh (0, 19) has the pair key of (1, 3).
        route_rows(mesh, [1], [3])
        with pytest.raises(ValueError, match="devices"):
            route_rows(mesh, [0], [19])

    def test_negative_device_does_not_reuse_a_cached_row(self, mesh):
        # On a 4x4 mesh (-1, 31) has the pair key of (0, 15).
        route_rows(mesh, [0], [15])
        with pytest.raises(ValueError, match="devices"):
            route_rows(mesh, [-1], [31])

    def test_mesh_rows_walk_no_route(self, monkeypatch):
        """Mesh rows come from the closed form: no route and no hop of
        either dimension order is walked through ``link``."""
        topology = MultiWaferTopology(2, 3, 3)
        calls = []

        def counted(name, method):
            def wrapper(self, *args):
                calls.append((name, args))
                return method(self, *args)

            return wrapper

        for cls, name in ((MeshTopology, "route"), (Topology, "link")):
            monkeypatch.setattr(cls, name, counted(name, getattr(cls, name)))
        src, dst = np.divmod(np.arange(topology.num_devices**2), topology.num_devices)
        counts, *_ = route_rows(topology, src, dst)
        assert counts.sum() > 0
        assert calls == []
        topology.route(0, 1)
        assert calls == [("route", (0, 1)), ("link", (0, 1))]


def plain_sum(terms):
    """Python 3.11's float ``sum``: a plain fold in input order."""
    total = 0.0
    for term in terms:
        total += term
    return total


def neumaier_sum(terms):
    """Python 3.12's float ``sum``: Neumaier-compensated, in input order."""
    total = compensation = 0.0
    for term in terms:
        folded = total + term
        if abs(total) >= abs(term):
            compensation += (total - folded) + term
        else:
            compensation += (term - folded) + total
        total = folded
    return total + compensation if compensation else total


class TestWalkSums:
    @pytest.fixture
    def columns(self):
        rng = np.random.default_rng(3)
        lengths = rng.integers(0, 40, size=300)
        terms = np.zeros((40, lengths.size))
        for column, length in enumerate(lengths):
            terms[:length, column] = rng.choice([5e-8, 1.5e-7, 3e-9], size=length)
        return terms, [terms[:length, column].tolist() for column, length in enumerate(lengths)]

    def test_equal_builtin_sum(self, columns):
        terms, lists = columns
        np.testing.assert_array_equal(phase._walk_sums(terms), [sum(c) for c in lists])

    @pytest.mark.parametrize(
        "compensated, reference", [(False, plain_sum), (True, neumaier_sum)]
    )
    def test_fold_of_each_python(self, monkeypatch, columns, compensated, reference):
        terms, lists = columns
        assert [plain_sum(c) for c in lists] != [neumaier_sum(c) for c in lists]
        monkeypatch.setattr(phase, "_COMPENSATED_SUM", compensated)
        np.testing.assert_array_equal(
            phase._walk_sums(terms), [reference(c) for c in lists]
        )

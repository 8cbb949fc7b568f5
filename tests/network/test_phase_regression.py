"""Regression test: vectorized cut-through phase pricing matches the seed loop."""

import numpy as np
import pytest

from repro.network.phase import simulate_phase
from repro.network.traffic import Flow, TrafficMatrix
from repro.topology.mesh import MeshTopology
from repro.topology.switched import DGXClusterTopology
from route_reference import route_alternate

#: Relative 1e-12 with no absolute floor: pytest.approx's default 1e-12
#: absolute tolerance would pass any phase time, which is ~1e-7 s here.
TIGHT = dict(rel=1e-12, abs=0.0)


def loop_simulate_phase(topology, flow_list):
    """The seed cut-through implementation.  On a mesh each flow also takes
    the walked YX route wherever it differs from the XY one."""
    link_bytes = {}
    worst_latency = 0.0
    total_volume = 0.0
    for flow in flow_list:
        total_volume += flow.volume
        primary = topology.route(flow.src, flow.dst)
        routes = [primary]
        if isinstance(topology, MeshTopology):
            alternate = route_alternate(topology, flow.src, flow.dst)
            if [link.key for link in alternate] != [link.key for link in primary]:
                routes.append(alternate)
        share = flow.volume / len(routes)
        for path in routes:
            path_latency = 0.0
            for link in path:
                key = link.key
                link_bytes[key] = link_bytes.get(key, 0.0) + share
                path_latency += link.latency
            worst_latency = max(worst_latency, path_latency)
    busy = {
        key: volume / topology.links[key].bandwidth
        for key, volume in link_bytes.items()
    }
    return link_bytes, max(busy.values()), worst_latency, total_volume


def random_traffic(topology, rng, num_flows=60):
    traffic = TrafficMatrix()
    for _ in range(num_flows):
        src = int(rng.integers(topology.num_devices))
        dst = int(rng.integers(topology.num_devices))
        if src != dst:
            traffic.add(src, dst, float(rng.uniform(1.0, 1e6)))
    return traffic


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize(
    "topology_factory",
    [lambda: MeshTopology(4, 4), lambda: DGXClusterTopology(num_nodes=2)],
    ids=["mesh", "dgx"],
)
class TestCutThroughEquivalence:
    def test_matches_seed_loop(self, seed, topology_factory):
        topology = topology_factory()
        rng = np.random.default_rng(seed)
        traffic = random_traffic(topology, rng)
        result = simulate_phase(topology, traffic)
        link_bytes, serialization, latency, volume = loop_simulate_phase(
            topology, traffic.flows()
        )
        assert set(result.link_bytes) == set(link_bytes)
        for key, expected in link_bytes.items():
            assert result.link_bytes[key] == pytest.approx(expected, **TIGHT)
        assert result.serialization_time == pytest.approx(serialization, **TIGHT)
        assert result.latency_time == pytest.approx(latency, **TIGHT)
        assert result.total_volume == pytest.approx(volume, **TIGHT)
        assert result.duration == pytest.approx(serialization + latency, **TIGHT)

    def test_flow_list_and_matrix_agree(self, seed, topology_factory):
        topology = topology_factory()
        rng = np.random.default_rng(seed + 100)
        traffic = random_traffic(topology, rng)
        from_matrix = simulate_phase(topology, traffic)
        from_list = simulate_phase(
            topology,
            [Flow(src, dst, volume) for (src, dst), volume in traffic.items()],
        )
        assert from_matrix.duration == pytest.approx(from_list.duration, **TIGHT)
        assert from_matrix.link_bytes == from_list.link_bytes

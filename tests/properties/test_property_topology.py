"""Property-based tests for topologies."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.phase import route_rows
from repro.topology.mesh import MeshTopology, MultiWaferTopology
from repro.topology.switched import DGXClusterTopology
from route_reference import route_alternate, walk

mesh_dims = st.integers(min_value=1, max_value=7)


@st.composite
def mesh_and_pair(draw):
    height = draw(mesh_dims)
    width = draw(mesh_dims)
    mesh = MeshTopology(height, width)
    src = draw(st.integers(0, mesh.num_devices - 1))
    dst = draw(st.integers(0, mesh.num_devices - 1))
    return mesh, src, dst


class TestMeshRouting:
    @given(mesh_and_pair())
    @settings(max_examples=150, deadline=None)
    def test_route_is_shortest_path(self, case):
        mesh, src, dst = case
        assert len(mesh.route(src, dst)) == mesh.manhattan(src, dst)

    @given(mesh_and_pair())
    @settings(max_examples=150, deadline=None)
    def test_route_is_the_rows_first_walk(self, case):
        mesh, src, dst = case
        assert mesh.route(src, dst) == walk(mesh, src, dst, rows_first=True)

    @given(mesh_and_pair())
    @settings(max_examples=150, deadline=None)
    def test_route_continuous_and_terminates(self, case):
        mesh, src, dst = case
        path = mesh.route(src, dst)
        here = src
        for link in path:
            assert link.src == here
            here = link.dst
        assert here == dst

    @given(mesh_and_pair())
    @settings(max_examples=100, deadline=None)
    def test_hops_symmetric(self, case):
        mesh, src, dst = case
        assert mesh.hops(src, dst) == mesh.hops(dst, src)

    @given(mesh_and_pair())
    @settings(max_examples=100, deadline=None)
    def test_coord_roundtrip(self, case):
        mesh, src, _ = case
        assert mesh.device_at(mesh.coord_of(src)) == src


class TestMultiWafer:
    @given(
        num_wafers=st.integers(1, 4),
        side=st.integers(2, 5),
        x=st.integers(0, 100),
        y=st.integers(0, 100),
    )
    @settings(max_examples=100, deadline=None)
    def test_wafer_partition(self, num_wafers, side, x, y):
        system = MultiWaferTopology(num_wafers, side, side)
        device = (x % side) * system.width + (y % system.width)
        wafer = system.wafer_of(device)
        assert 0 <= wafer < num_wafers
        assert device in system.wafer_devices(wafer)

    @given(num_wafers=st.integers(1, 4), side=st.integers(2, 5))
    @settings(max_examples=30, deadline=None)
    def test_local_coord_within_wafer(self, num_wafers, side):
        system = MultiWaferTopology(num_wafers, side, side)
        for device in system.devices:
            local = system.local_coord(device)
            assert 0 <= local.x < side
            assert 0 <= local.y < side


class TestSwitched:
    @given(num_nodes=st.integers(1, 6), src=st.integers(0, 100), dst=st.integers(0, 100))
    @settings(max_examples=100, deadline=None)
    def test_dgx_route_lengths(self, num_nodes, src, dst):
        dgx = DGXClusterTopology(num_nodes)
        src %= dgx.num_devices
        dst %= dgx.num_devices
        path = dgx.route(src, dst)
        if src == dst:
            assert path == []
        elif dgx.node_of(src) == dgx.node_of(dst):
            assert len(path) == 2
        else:
            assert len(path) == 4


def walked_row(topology, src, dst):
    """A pair's route row walked link by link: the reference the batched
    closed form must equal bit for bit."""
    index = {key: position for position, key in enumerate(topology.links)}
    primary = topology.route(src, dst)
    # O1TURN-style multipath: meshes split each flow evenly across the
    # XY and YX dimension orders when they differ.
    routes = [primary]
    alternate = route_alternate(topology, src, dst)
    if [link.key for link in alternate] != [link.key for link in primary]:
        routes.append(alternate)
    share = 1.0 / len(routes)
    flat = np.array(
        [index[link.key] for path in routes for link in path], dtype=np.intp
    )
    indices, counts = np.unique(flat, return_counts=True)
    latency = max(sum(link.latency for link in path) for path in routes)
    return indices, share * counts, latency


@st.composite
def mesh_pair_batches(draw):
    """A mesh or multi-wafer row and two pair batches.  Both batches repeat
    pairs, and the second also asks again for pairs of the first."""
    if draw(st.booleans()):
        topology = MeshTopology(draw(st.integers(1, 8)), draw(st.integers(1, 8)))
    else:
        topology = MultiWaferTopology(
            draw(st.integers(1, 4)), draw(st.integers(1, 5)), draw(st.integers(1, 5))
        )
    device = st.integers(0, topology.num_devices - 1)
    pairs = st.lists(st.tuples(device, device), min_size=1, max_size=40)
    first = draw(pairs)
    fresh = draw(pairs)
    batches = [first + first[:3], first[:3] + fresh + fresh[-2:]]
    return topology, [draw(st.permutations(batch)) for batch in batches]


class TestRouteRows:
    @given(mesh_pair_batches())
    @settings(max_examples=150, deadline=None)
    def test_batched_rows_equal_the_walk(self, case):
        topology, batches = case
        for batch in batches:
            src, dst = np.array(batch, dtype=np.intp).T
            counts, links, weights, latency, reverse_latency = route_rows(topology, src, dst)
            ends = np.cumsum(counts)
            for position, (s, d) in enumerate(batch):
                indices, expected_weights, expected_latency = walked_row(topology, s, d)
                row = slice(ends[position] - counts[position], ends[position])
                assert links[row].tobytes() == indices.tobytes()
                assert weights[row].tobytes() == expected_weights.tobytes()
                assert latency[position] == expected_latency
                # The reversed pair's latency, folded from this pair's hops,
                # equals the walk back's own sum.
                assert reverse_latency[position] == walked_row(topology, d, s)[2]

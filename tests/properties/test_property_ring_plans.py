"""Ring collectives priced from plans equal the per-flow walk bit for bit.

Systems are generated small: meshes (1xN rows included), multi-wafer rows
and DGX fabrics.  Each case prices on the pristine fabric, then degrades
some links and prices again, so the plans built on the first pass must
read the degraded bandwidth on the second.
"""

import allreduce_reference as reference
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.faults.health import topology_health
from repro.mapping.base import ParallelismConfig
from repro.mapping.baseline import BaselineMapping
from repro.mapping.er import ERMapping
from repro.mapping.gpu import GPUMapping
from repro.mapping.her import HierarchicalERMapping
from repro.network.allreduce import (
    hierarchical_allreduce,
    ring_allgather,
    ring_allreduce,
    ring_reduce_scatter,
)
from repro.topology.mesh import MeshTopology, MultiWaferTopology
from repro.topology.switched import DGXClusterTopology

COLLECTIVES = (
    (ring_allreduce, reference.ring_allreduce),
    (ring_reduce_scatter, reference.ring_reduce_scatter),
    (ring_allgather, reference.ring_allgather),
)

volumes = st.floats(0.0, 1e12)

degradations = st.lists(
    st.tuples(st.integers(0, 10**6), st.floats(0.05, 1.0)), min_size=1, max_size=3
)


def _outcome(collective, *args, **kwargs):
    """Every field of the result as exact bits, ``link_bytes`` as an
    ordered item list; or the error raised."""
    try:
        result = collective(*args, **kwargs)
    except ValueError as error:
        return "ValueError", str(error)
    return (
        float(result.duration).hex(),
        result.num_steps,
        float(result.total_volume).hex(),
        [(key, float(volume).hex()) for key, volume in result.link_bytes.items()],
    )


def _degrade(topology, picks) -> None:
    health = topology_health(topology, create=True)
    keys = list(topology.links)
    for index, factor in picks:
        health.degrade_link(*keys[index % len(keys)], factor)


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _mesh_tp_shape(draw, height: int, width: int) -> tuple[int, int]:
    return draw(st.sampled_from(_divisors(height))), draw(st.sampled_from(_divisors(width)))


@st.composite
def fabrics(draw):
    kind = draw(st.sampled_from(["mesh", "multiwafer", "dgx"]))
    if kind == "mesh":
        return MeshTopology(draw(st.integers(1, 4)), draw(st.integers(2, 8)))
    if kind == "multiwafer":
        return MultiWaferTopology(
            draw(st.integers(2, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
        )
    return DGXClusterTopology(num_nodes=draw(st.integers(1, 3)))


@st.composite
def ring_cases(draw):
    """A fabric, equal-size disjoint ring groups of 2-16 members (entwined
    ER groups on meshes, or arbitrary ones), a volume and degradations."""
    topology = draw(fabrics())
    devices = topology.num_devices
    if isinstance(topology, MeshTopology) and draw(st.booleans()):
        tpx, tpy = _mesh_tp_shape(draw, topology.height, topology.width)
        tp = tpx * tpy
        assume(2 <= tp <= 16)
        parallelism = ParallelismConfig(tp=tp, dp=devices // tp, tp_shape=(tpx, tpy))
        groups = ERMapping(topology, parallelism).tp_groups
    else:
        size = draw(st.integers(2, min(16, devices)))
        count = draw(st.integers(1, devices // size))
        order = draw(st.permutations(range(devices)))
        groups = [order[start : start + size] for start in range(0, count * size, size)]
    if isinstance(topology, DGXClusterTopology):
        partition_of = topology.node_of
    elif isinstance(topology, MultiWaferTopology):
        partition_of = topology.wafer_of
    else:
        width = topology.width
        partition_of = draw(st.sampled_from([lambda device: 0, lambda device: device // width]))
    return topology, groups, draw(st.booleans()), draw(volumes), draw(degradations), partition_of


@st.composite
def mappings(draw):
    """An ER, HER, baseline or GPU mapping with all-gather on or off (HER
    always keeps it: its token holders need the inter-wafer all-gather)."""
    family = draw(st.sampled_from(["er", "baseline", "her", "gpu"]))
    retain_allgather = draw(st.just(True) if family == "her" else st.booleans())
    if family == "gpu":
        topology = DGXClusterTopology(num_nodes=draw(st.integers(1, 3)))
        tp = draw(st.sampled_from([2, 4, 8]))
        parallelism = ParallelismConfig(tp=tp, dp=topology.num_devices // tp)
        return GPUMapping(topology, parallelism, retain_allgather)
    if family == "her" or draw(st.booleans()):
        topology = MultiWaferTopology(
            draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
        )
        height, width = topology.wafer_height, topology.wafer_width
    else:
        topology = MeshTopology(draw(st.integers(1, 4)), draw(st.integers(2, 8)))
        height, width = topology.height, topology.width
    tpx, tpy = _mesh_tp_shape(draw, height, width)
    tp = tpx * tpy
    assume(2 <= tp <= 16)
    parallelism = ParallelismConfig(tp=tp, dp=topology.num_devices // tp, tp_shape=(tpx, tpy))
    family_class = {"er": ERMapping, "baseline": BaselineMapping, "her": HierarchicalERMapping}
    return family_class[family](topology, parallelism, retain_allgather)


class TestPlansMatchTheWalk:
    @given(ring_cases())
    @settings(max_examples=120, deadline=None)
    def test_ring_collectives(self, case):
        topology, groups, staggered, volume, picks, partition_of = case
        for _ in range(2):
            for collective, walked in COLLECTIVES:
                assert _outcome(
                    collective, topology, groups, volume, staggered=staggered
                ) == _outcome(walked, topology, groups, volume, staggered=staggered)
            assert _outcome(
                hierarchical_allreduce, topology, groups, volume, partition_of, staggered
            ) == _outcome(
                reference.hierarchical_allreduce,
                topology,
                groups,
                volume,
                partition_of,
                staggered,
            )
            _degrade(topology, picks)

    @given(mappings(), volumes, degradations)
    @settings(max_examples=120, deadline=None)
    def test_mapping_allreduce(self, mapping, volume, picks):
        for _ in range(2):
            assert _outcome(mapping.simulate_allreduce, volume) == _outcome(
                reference.simulate_allreduce, mapping, volume
            )
            _degrade(mapping.topology, picks)

"""A hosted set's CSR operator, gathered from group offsets, equals the
stable-argsort assembly of ``tests/alltoall_reference.py`` array for array.

Mappings are generated small: ER, baseline and HER on meshes (1xN rows
included) and multi-wafer rows, GPU on DGX clusters and NVL72 fabrics.
Each case prices a random hosted set, the empty set and a one-destination
set, over destination rows built in several batches.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from alltoall_reference import argsort_operator
from repro.mapping.base import ParallelismConfig
from repro.mapping.baseline import BaselineMapping
from repro.mapping.er import ERMapping
from repro.mapping.gpu import GPUMapping
from repro.mapping.her import HierarchicalERMapping
from repro.network.alltoall import SparseAllToAllPricer
from repro.topology.mesh import MeshTopology, MultiWaferTopology
from repro.topology.switched import DGXClusterTopology, NVL72Topology


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


@st.composite
def mappings(draw):
    """An ER, baseline, HER or GPU mapping on a generated fabric (HER
    keeps its all-gather: its token holders need it)."""
    family = draw(st.sampled_from(["er", "baseline", "her", "gpu"]))
    retain_allgather = draw(st.just(True) if family == "her" else st.booleans())
    if family == "gpu":
        if draw(st.booleans()):
            topology = DGXClusterTopology(num_nodes=draw(st.integers(1, 3)))
        else:
            topology = NVL72Topology(num_devices=draw(st.sampled_from([8, 24, 72])))
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
    tpx = draw(st.sampled_from(_divisors(height)))
    tpy = draw(st.sampled_from(_divisors(width)))
    tp = tpx * tpy
    assume(2 <= tp <= 16)
    parallelism = ParallelismConfig(tp=tp, dp=topology.num_devices // tp, tp_shape=(tpx, tpy))
    family_class = {"er": ERMapping, "baseline": BaselineMapping, "her": HierarchicalERMapping}
    return family_class[family](topology, parallelism, retain_allgather)


def assert_operator_is_the_argsort_assembly(pricer, dests):
    operator = pricer._hosted_for(dests).operator
    reference = argsort_operator(
        [pricer._dest_rows[dest] for dest in dests], pricer.num_groups, pricer.num_links
    )
    assert operator.shape == reference.shape
    for got, want in (
        (operator.data, reference.data),
        (operator.indices, reference.indices),
        (operator.indptr, reference.indptr),
    ):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


@given(mappings(), st.data())
@settings(max_examples=80, deadline=None)
def test_gathered_operator_equals_the_argsort_assembly(mapping, data):
    pricer = SparseAllToAllPricer(mapping)
    # Small row batches build each set's rows across several batches.
    pricer.ROW_BATCH_PAIRS = data.draw(st.sampled_from([1, 24, 4096]))
    devices = st.integers(0, mapping.topology.num_devices - 1)
    hosted = data.draw(st.lists(devices, unique=True))
    single = data.draw(devices)
    for dests in (tuple(sorted(hosted)), (), (single,)):
        assert_operator_is_the_argsort_assembly(pricer, dests)

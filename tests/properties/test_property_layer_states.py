"""The pricer's one-pass layer states against per-layer builds.

After every random burst of adds, drops and fail-stops, each layer's
pricing state equals the per-layer build of ``tests/alltoall_reference.py``
array for array (shapes and dtypes included), and ``state_rebuilds``
counts only the layers whose version moved.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from alltoall_reference import layer_state
from repro.mapping.base import ParallelismConfig
from repro.mapping.er import ERMapping
from repro.mapping.placement import StackedPlacement
from repro.network.alltoall import SparseAllToAllPricer
from repro.topology.mesh import MeshTopology

MAPPING = ERMapping(MeshTopology(4, 4), ParallelismConfig(tp=4, dp=4, tp_shape=(2, 2)))


def mutate(stack, op, layer, expert, device):
    try:
        if op == "add":
            stack.add_replica(layer, expert, device)
        elif op == "drop":
            stack.drop_replica(layer, expert, device)
        else:
            stack.fail_device(device)
    except ValueError:
        pass  # an invalid mutation changes nothing


@given(
    st.integers(1, 6),
    st.sampled_from([4, 16, 24]),
    st.integers(0, 3),
    st.lists(
        st.lists(
            st.tuples(
                st.sampled_from(["add", "add", "add", "drop", "fail"]),
                st.integers(0, 5),
                st.integers(0, 23),
                st.integers(0, 15),
            ),
            max_size=8,
        ),
        min_size=1,
        max_size=5,
    ),
)
@settings(max_examples=80, deadline=None)
def test_one_pass_states_equal_per_layer_builds(num_layers, num_experts, slots, bursts):
    stack = StackedPlacement(num_layers, num_experts, 16, shadow_slots=slots)
    pricer = SparseAllToAllPricer(MAPPING)
    versions = None
    for burst in bursts:
        for op, layer, expert, device in burst:
            mutate(stack, op, layer % num_layers, expert % num_experts, device)
        built = pricer.state_rebuilds
        batches = pricer.hosted_batches(stack)
        moved = num_layers if versions is None else int((stack.versions != versions).sum())
        assert pricer.state_rebuilds == built + moved
        versions = stack.versions.copy()
        states = pricer.state_for(stack, range(num_layers))
        for layer, state in enumerate(states):
            dests, experts, shares = layer_state(stack, layer)
            assert state.version == stack.versions[layer]
            assert tuple(state.hosted.dests.tolist()) == dests
            for got, want in ((state.experts, experts), (state.shares, shares)):
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)
        batched = np.concatenate([np.arange(num_layers)[batch.layers] for batch in batches])
        assert sorted(batched.tolist()) == list(range(num_layers))
        # Nothing moved: nothing rebuilds.
        pricer.hosted_batches(stack)
        assert pricer.state_rebuilds == built + moved

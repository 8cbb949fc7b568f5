"""Cache-aliasing sanitizer: frozen hand-outs, zero-cost off switch."""

import numpy as np
import pytest

from repro import sanitize
from repro.mapping.base import ParallelismConfig
from repro.mapping.er import ERMapping
from repro.mapping.placement import StackedPlacement
from repro.network.alltoall import layered_dispatch_plan
from repro.topology.mesh import MeshTopology
from repro.workload.scenarios import MATH


@pytest.fixture
def restore_sanitize_state():
    """Tests that toggle the global gate must put it back (the suite
    conftest enables it for everything else)."""
    was_enabled = sanitize.enabled()
    yield
    if was_enabled:
        sanitize.enable()
    else:
        sanitize.disable()


class TestFreeze:
    def test_freeze_marks_arrays_read_only(self):
        assert sanitize.enabled()  # suite conftest turns it on
        array = np.zeros(4)
        returned = sanitize.freeze(array)
        assert returned is array
        assert not array.flags.writeable

    def test_freeze_recurses_into_tuples_and_lists(self):
        a, b = np.zeros(2), np.ones(3)
        sanitize.freeze((a, [b, None], "text", 7))
        assert not a.flags.writeable
        assert not b.flags.writeable

    def test_disabled_freeze_is_identity(self, restore_sanitize_state):
        sanitize.disable()
        array = np.zeros(4)
        assert sanitize.freeze(array) is array
        assert array.flags.writeable
        array[0] = 1.0  # still writable: zero behavioural cost when off

    def test_enable_disable_roundtrip(self, restore_sanitize_state):
        sanitize.disable()
        assert not sanitize.enabled()
        sanitize.enable()
        assert sanitize.enabled()


class TestCachedHandoutsAreFrozen:
    def test_scenario_popularity_is_read_only(self):
        popularity = MATH.popularity(64, layer=2)
        with pytest.raises(ValueError):
            popularity[0] = 0.5
        # The memo still serves the uncorrupted entry.
        assert MATH.popularity(64, layer=2)[0] == popularity[0]

    def test_pricer_operator_arrays_are_read_only(self):
        from repro.network.alltoall import alltoall_pricer

        mesh = MeshTopology(4, 4)
        mapping = ERMapping(mesh, ParallelismConfig(tp=4, dp=4, tp_shape=(2, 2)))
        hosted = alltoall_pricer(mapping).state_for(StackedPlacement(1, 16, 16), 0).hosted
        with pytest.raises(ValueError):
            hosted.operator.data[0] = 99.0
        with pytest.raises(ValueError):
            hosted.latency_sorted[0, 0] = 0.0

    def test_stacked_placement_entry_tables_are_read_only(self):
        stack = StackedPlacement(2, 8, 8, shadow_slots=1)
        stack.add_replica(1, 0, 5)
        devices = stack.shadow_entry_arrays()[2]
        with pytest.raises(ValueError):
            devices[0] = 0
        for column in stack.replica_entries():
            with pytest.raises(ValueError):
                column[0] = 0
        # The caches still serve the uncorrupted tables.
        assert stack.shadow_entry_arrays()[2][0] == 5
        assert stack.replica_entries().device[0] == 0

    def test_pricing_gather_rows_are_read_only(self):
        mesh = MeshTopology(4, 4)
        mapping = ERMapping(mesh, ParallelismConfig(tp=4, dp=4, tp_shape=(2, 2)))
        stack = StackedPlacement(2, 16, 16, shadow_slots=1)
        stack.add_replica(1, 0, 5)  # a second entry on device 5
        plan = layered_dispatch_plan(mapping, stack)
        (batch,) = plan._batches
        with pytest.raises(ValueError):
            batch.sources[0, 0, 0] = 1
        with pytest.raises(ValueError):
            batch.shares[1, 5, 1] = 0.0
        state = plan.pricer.state_for(stack, 1)
        with pytest.raises(ValueError):
            state.experts[0, 0] = 3
        with pytest.raises(ValueError):
            state.shares[1, 5] = 1.0
        with pytest.raises(ValueError):
            state.hosted.transposed.data[0] = 99.0

    def test_route_cache_bandwidth_is_read_only(self):
        from repro.network.phase import _route_cache

        cache = _route_cache(MeshTopology(2, 2))
        with pytest.raises(ValueError):
            cache.bandwidth[0] = 1e9

    def test_mixer_weights_are_read_only(self):
        from repro.workload.mixers import ConstantMixer

        mixer = ConstantMixer([MATH])
        weights = mixer.weights(0)
        with pytest.raises(ValueError):
            weights[0] = 0.0


class TestMutationRegression:
    """The scenario the sanitizer exists for: code that mutates an array
    served from a cache corrupts every later query sharing the entry.
    Under the sanitizer the mutation raises at the write site instead."""

    def test_injected_inplace_mutation_is_caught(self):
        def biased_popularity(profile, num_experts, layer):
            popularity = profile.popularity(num_experts, layer)
            popularity += 1.0 / num_experts  # the bug: in-place on a cached array
            return popularity / popularity.sum()

        baseline = MATH.popularity(32, layer=0).copy()
        with pytest.raises(ValueError):
            biased_popularity(MATH, 32, layer=0)
        np.testing.assert_array_equal(MATH.popularity(32, layer=0), baseline)

    def test_copy_escape_hatch_works(self):
        popularity = MATH.popularity(32, layer=0).copy()
        popularity += 1.0 / 32  # fine: caller owns the copy
        assert popularity.flags.writeable

"""Layer-batched all-to-all pricing against the pair-list reference.

The mapping's :func:`alltoall_pricer` aggregates per-link volumes through
CSR ``(group, dest) -> link`` operators — the same terms the pair-list
reference in ``tests/alltoall_reference.py`` sums pair by pair, in a
different associative order — so link volumes and phase durations are
pinned to the reference with tight relative tolerances.  The
:class:`LayeredDispatchPlan` the serving loop prices through is held to
the same reference layer by layer and phase by phase, layer 0 included.
"""

import gc

import numpy as np
import pytest

from alltoall_reference import simulate_alltoall as reference_alltoall
from placement_replay import snapshot, snapshots
from repro.mapping.base import ParallelismConfig
from repro.mapping.baseline import BaselineMapping
from repro.mapping.er import ERMapping
from repro.mapping.placement import StackedPlacement
from repro.network.alltoall import (
    _LAYERED_PLAN_CACHE,
    LayeredDispatchPlan,
    alltoall_pricer,
    layered_dispatch_plan,
    uniform_demand,
)
from repro.topology.mesh import MeshTopology

#: Relative 1e-12 with no absolute floor: pytest.approx's default 1e-12
#: absolute tolerance would pass any all-to-all duration, which is ~1e-7 s.
TIGHT = dict(rel=1e-12, abs=0.0)


@pytest.fixture
def mapping():
    return ERMapping(
        MeshTopology(4, 4), ParallelismConfig(tp=4, dp=4, tp_shape=(2, 2))
    )


def diverged_stack(num_layers=5, num_experts=16, num_devices=16):
    """A placement stack with layers 2 and 4 mutated away from native."""
    stack = StackedPlacement(num_layers, num_experts, num_devices, shadow_slots=2)
    stack.add_replica(2, 0, 15)
    stack.add_replica(2, 5, 9)
    stack.add_replica(4, 3, 12)
    return stack


def demand_stack(num_layers=5, seed=3, zero_cells=False):
    """Per-layer demand rows around the uniform expectation."""
    rng = np.random.default_rng(seed)
    base = uniform_demand(4, 16, 256, 8, 100)
    stack = base * rng.uniform(0.5, 1.5, size=(num_layers, 4, 16))
    if zero_cells:
        stack[1, 0, 3] = 0.0
        stack[3, 2, :8] = 0.0
    return stack


def exact_phases(mapping, demand, placement):
    """(dispatch, combine) durations of the pair-list reference."""
    result = reference_alltoall(mapping.topology, demand, placement, mapping)
    return np.array([result.dispatch.duration, result.combine.duration])


def layer_alone(stack, layer):
    """A one-layer stack placed like ``layer`` of a fault-free stack."""
    alone = StackedPlacement(1, stack.num_experts, stack.num_devices, stack.shadow_slots)
    layers, experts, devices = stack.shadow_entry_arrays()
    mine = layers == layer
    alone.add_replicas(np.zeros(int(mine.sum()), dtype=np.int64), experts[mine], devices[mine])
    return alone


class TestPricerAgainstPerLayerOracle:
    def test_link_volumes_match_phase_oracle(self, mapping):
        stack = diverged_stack()
        demand = uniform_demand(4, 16, 256, 8, 100)
        pricer = alltoall_pricer(mapping)
        volumes = pricer.link_volumes(
            np.repeat(demand[None], 5, axis=0), pricer.hosted_batches(stack)
        )
        keys = list(mapping.topology.links)
        for layer, placement in enumerate(snapshots(stack)):
            result = reference_alltoall(mapping.topology, demand, placement, mapping)
            for phase, phase_result in enumerate((result.dispatch, result.combine)):
                expected = np.zeros(len(keys))
                for position, key in enumerate(keys):
                    expected[position] = phase_result.link_bytes.get(key, 0.0)
                np.testing.assert_allclose(
                    volumes[layer, phase], expected, rtol=1e-12, atol=1e-9
                )

    @pytest.mark.parametrize("sparse", [False, True])
    def test_durations_match_per_layer_simulation(self, mapping, sparse):
        stack = diverged_stack()
        demand = uniform_demand(4, 16, 256, 8, 100)
        if sparse:
            demand[0, 3] = 0.0
            demand[2, :8] = 0.0
        pricer = alltoall_pricer(mapping)
        durations = pricer.durations(
            np.repeat(demand[None], 5, axis=0), pricer.hosted_batches(stack)
        )
        for layer, placement in enumerate(snapshots(stack)):
            exact = exact_phases(mapping, demand, placement)
            assert durations[layer] == pytest.approx(exact, **TIGHT)

    def test_pricer_link_volumes_accept_demand_stack(self, mapping):
        """Layers with different hosted sets batch together; each layer's
        volumes equal pricing it alone, bit for bit, so a layer's price
        cannot depend on which other layers share its batch."""
        stack = StackedPlacement(5, 8, 16, shadow_slots=2)
        stack.add_replica(1, 0, 1)
        stack.add_replica(2, 3, 5)
        stack.add_replica(2, 6, 9)
        stack.add_replica(4, 0, 1)
        pricer = alltoall_pricer(mapping)
        # Three hosted sets: native (layers 0, 3), +device 1 (layers 1, 4)
        # and +devices 5, 9 (layer 2).
        hosted = {
            id(pricer.state_for(stack, layer).hosted)
            for layer in range(stack.num_layers)
        }
        assert len(hosted) == 3
        demand = uniform_demand(4, 8, 256, 8, 100) * np.random.default_rng(
            3
        ).uniform(0.5, 1.5, size=(5, 4, 8))
        demand[3, 2, :4] = 0.0
        batched = pricer.link_volumes(demand, pricer.hosted_batches(stack))
        for layer in range(stack.num_layers):
            alone = pricer.link_volumes(
                demand[layer : layer + 1],
                pricer.hosted_batches(layer_alone(stack, layer)),
            )
            np.testing.assert_array_equal(batched[layer], alone[0])


class TestLayeredPlan:
    """The serving loop's plan against the exact per-layer simulation."""

    @pytest.mark.parametrize("demand", ["shared", "resolved", "zero_cells"])
    def test_durations_match_per_layer_oracle(self, mapping, demand):
        stack = diverged_stack()
        if demand == "shared":
            rows = np.repeat(uniform_demand(4, 16, 256, 8, 100)[None], 5, axis=0)
        else:
            rows = demand_stack(zero_cells=demand == "zero_cells")
        durations = LayeredDispatchPlan(mapping, stack).alltoall_durations_resolved(
            rows
        )
        assert durations.shape == (stack.num_layers, 2)
        for layer in range(stack.num_layers):
            exact = exact_phases(mapping, rows[layer], snapshot(stack, layer))
            assert durations[layer] == pytest.approx(exact, **TIGHT)

    def test_uniform_stack_prices_each_layers_demand(self, mapping):
        """Identical placements do not collapse layers — each layer's own
        demand rows set its price."""
        stack = StackedPlacement(4, 16, 16)
        demand = demand_stack(num_layers=4)
        durations = LayeredDispatchPlan(mapping, stack).alltoall_durations_resolved(
            demand
        )
        for layer in range(4):
            exact = exact_phases(mapping, demand[layer], snapshot(stack, layer))
            assert durations[layer] == pytest.approx(exact, **TIGHT)
        assert len(set(durations[:, 0].tolist())) > 1

    def test_forced_replica_on_later_layer_moves_only_that_layer(self, mapping):
        """A replica forced onto layer 3 reprices layer 3 — exactly,
        against its own placement — and leaves every other layer's price
        bitwise unchanged."""
        demand = demand_stack()
        native = StackedPlacement(5, 16, 16, shadow_slots=2)
        forced = StackedPlacement(5, 16, 16, shadow_slots=2)
        forced.add_replica(3, 0, 15)
        base = LayeredDispatchPlan(mapping, native).alltoall_durations_resolved(
            demand
        )
        moved = LayeredDispatchPlan(mapping, forced).alltoall_durations_resolved(
            demand
        )
        assert (moved[3] != base[3]).any()
        assert moved[3] == pytest.approx(
            exact_phases(mapping, demand[3], snapshot(forced, 3)), **TIGHT
        )
        mask = np.arange(5) != 3
        np.testing.assert_array_equal(moved[mask], base[mask])

    def test_forced_later_layer_demand_skew_changes_only_that_layer(
        self, mapping
    ):
        """Skewing layer 3's demand strictly moves layer 3's price and no
        other layer's."""
        plan = LayeredDispatchPlan(mapping, diverged_stack())
        demand = demand_stack()
        skewed = demand.copy()
        # Concentrate layer 3's demand onto two experts, holding the
        # total volume fixed.
        skewed[3] = 0.0
        skewed[3, :, 0] = demand[3].sum(axis=1) * 0.75
        skewed[3, :, 9] = demand[3].sum(axis=1) * 0.25
        base = plan.alltoall_durations_resolved(demand)
        moved = plan.alltoall_durations_resolved(skewed)
        assert (moved[3] != base[3]).any()
        mask = np.arange(5) != 3
        np.testing.assert_array_equal(moved[mask], base[mask])

    def test_failed_device_prices_against_repaired_replicas(self, mapping):
        """A fail-stop empties the device on every layer and the repair
        re-replicates its orphans elsewhere; each layer is then priced
        against its own surviving and repaired replicas."""
        stack = diverged_stack()
        orphan_layers, orphan_experts = stack.fail_device(9)
        assert orphan_layers.size == stack.num_layers
        for layer, expert in zip(orphan_layers.tolist(), orphan_experts.tolist()):
            stack.add_replica(layer, expert, 10)
        demand = demand_stack()
        durations = LayeredDispatchPlan(mapping, stack).alltoall_durations_resolved(
            demand
        )
        for layer in range(stack.num_layers):
            exact = exact_phases(mapping, demand[layer], snapshot(stack, layer))
            assert durations[layer] == pytest.approx(exact, **TIGHT)

    def test_layer_with_every_expert_orphaned_prices_zero(self, mapping):
        """Fail-stops that orphan all of a layer's experts leave it hosting
        nothing: it moves no bytes, and the other layers price as usual."""
        stack = StackedPlacement(2, 2, 16, shadow_slots=1)
        stack.add_replica(1, 0, 5)
        stack.fail_device(0)
        stack.fail_device(8)
        dense = np.ascontiguousarray(demand_stack(num_layers=2)[:, :, :2])
        sparse = dense.copy()
        sparse[1, 0, 1] = 0.0
        plan = LayeredDispatchPlan(mapping, stack)
        for demand in (dense, sparse):
            durations = plan.alltoall_durations_resolved(demand)
            np.testing.assert_array_equal(durations[0], 0.0)
            assert durations[1] == pytest.approx(
                exact_phases(mapping, demand[1], snapshot(stack, 1)), **TIGHT
            )

    def test_plan_gathers_every_replica_entry_once(self, mapping):
        """The plan keeps no ``(layers, experts, devices)`` tensor: its
        gather rows hold each replica entry once, in rank planes padded
        with zero shares."""
        stack = StackedPlacement(4, 8, 16, shadow_slots=2)
        stack.add_replica(2, 0, 1)  # an unhosted device gains a first entry
        stack.add_replica(2, 1, 4)  # a native's device gains a second one
        stack.add_replica(3, 5, 4)
        plan = LayeredDispatchPlan(mapping, stack)
        entries = stack.replica_entries()
        assert sum(np.count_nonzero(b.shares) for b in plan._batches) == entries.layer.size
        for batch in plan._batches:
            ranks, hosted, _ = batch.sources.shape
            assert hosted == batch.hosted.dests.size
            if ranks > 1:
                # Only the layers that gained a second entry fill rank 1.
                assert np.count_nonzero(batch.shares[1]) <= 2

    @pytest.mark.parametrize("zero_cells", [False, True])
    def test_single_layer_plan_prices_layer0(self, mapping, zero_cells):
        """A one-layer stack is priced like any other: layer 0 against the
        exact simulation of its own demand."""
        stack = StackedPlacement(1, 16, 16, shadow_slots=2)
        stack.add_replica(0, 4, 11)
        demand = demand_stack(num_layers=1)
        if zero_cells:
            demand[0, 1, :5] = 0.0
        durations = LayeredDispatchPlan(mapping, stack).alltoall_durations_resolved(
            demand
        )
        assert durations.shape == (1, 2)
        assert durations[0] == pytest.approx(
            exact_phases(mapping, demand[0], snapshot(stack, 0)), **TIGHT
        )


class TestLayeredPlanCache:
    def test_hit_until_any_layer_mutates(self, mapping):
        stack = diverged_stack()
        plan = layered_dispatch_plan(mapping, stack)
        assert layered_dispatch_plan(mapping, stack) is plan
        stack.add_replica(1, 2, 14)
        assert layered_dispatch_plan(mapping, stack) is not plan

    def test_keyed_on_versions_not_content(self, mapping):
        """Adding and dropping the same replica restores the content but
        not the version vector: the plan is rebuilt, and prices the
        restored content exactly as before."""
        stack = diverged_stack()
        demand = demand_stack()
        plan = layered_dispatch_plan(mapping, stack)
        before = plan.alltoall_durations_resolved(demand)
        stack.add_replica(1, 2, 14)
        stack.drop_replica(1, 2, 14)
        rebuilt = layered_dispatch_plan(mapping, stack)
        assert rebuilt is not plan
        np.testing.assert_array_equal(
            rebuilt.alltoall_durations_resolved(demand), before
        )

    def test_dead_mapping_entries_swept_on_insert(self):
        topology = MeshTopology(4, 4)
        parallelism = ParallelismConfig(tp=4, dp=4, tp_shape=(2, 2))
        stack = StackedPlacement(2, 16, 16)
        dead = ERMapping(topology, parallelism)
        layered_dispatch_plan(dead, stack)
        assert len(_LAYERED_PLAN_CACHE[stack]) == 1
        del dead
        gc.collect()
        live = ERMapping(topology, parallelism)
        layered_dispatch_plan(live, stack)
        entries = _LAYERED_PLAN_CACHE[stack]
        assert len(entries) == 1
        assert next(iter(entries.values()))[0]() is live

    def test_live_mapping_entries_survive_sweep(self):
        """Two live mappings' plans coexist on one stack, and sweeping a
        dead mapping's entry leaves both cache hits."""
        topology = MeshTopology(4, 4)
        parallelism = ParallelismConfig(tp=4, dp=4, tp_shape=(2, 2))
        stack = StackedPlacement(2, 16, 16)
        er = ERMapping(topology, parallelism)
        baseline = BaselineMapping(topology, parallelism)
        er_plan = layered_dispatch_plan(er, stack)
        baseline_plan = layered_dispatch_plan(baseline, stack)
        assert er_plan is not baseline_plan
        dead = ERMapping(topology, parallelism)
        layered_dispatch_plan(dead, stack)
        del dead
        gc.collect()
        layered_dispatch_plan(ERMapping(topology, parallelism), stack)  # sweeps
        assert len(_LAYERED_PLAN_CACHE[stack]) == 3
        assert layered_dispatch_plan(er, stack) is er_plan
        assert layered_dispatch_plan(baseline, stack) is baseline_plan

"""Sparse incremental all-to-all pricing against the dense oracle.

The :class:`SparseAllToAllPricer` stores only the nonzero holder-route
cells of the ``(group, dest) -> link`` operator and reduces with a
segmented bincount — the same terms as the dense matmul in a different
associative order, so volumes and durations are pinned to the dense
pricer (and the exact per-layer simulation) with tight relative
tolerances.  The incremental contracts are structural: states revalidate
by placement version (migration-free lookups rebuild nothing, asserted
via the rebuild counter), a delta-rebuilt state equals a from-scratch
build bitwise, and the layered-plan cache keys on the pricing mode so a
mode toggle can never resolve to a plan priced the other way.
"""

import numpy as np
import pytest

from repro.mapping.base import ParallelismConfig
from repro.mapping.er import ERMapping
from repro.mapping.placement import ExpertPlacement, StackedPlacement
from repro.network.alltoall import (
    LayeredDispatchPlan,
    SPARSE_AUTO_THRESHOLD_BYTES,
    SparseAllToAllPricer,
    alltoall_pricer,
    dense_operator_nbytes,
    layered_dispatch_plan,
    prefer_sparse_pricing,
    simulate_alltoall,
    sparse_alltoall_pricer,
    uniform_demand,
)
from repro.topology.mesh import MeshTopology

TIGHT = dict(rtol=1e-12, atol=0.0)


@pytest.fixture
def mapping():
    return ERMapping(
        MeshTopology(4, 4), ParallelismConfig(tp=4, dp=4, tp_shape=(2, 2))
    )


def diverged_placements(num_layers=5, num_experts=16, num_devices=16):
    """A placement stack with layers 2 and 4 mutated away from native."""
    placements = [
        ExpertPlacement(num_experts, num_devices, shadow_slots=2)
        for _ in range(num_layers)
    ]
    placements[2].add_replica(0, 15)
    placements[2].add_replica(5, 9)
    placements[4].add_replica(3, 12)
    return placements


def shares_stack(placements):
    return np.stack([p.destination_shares for p in placements])


def random_migrations(placements, rng, count):
    """Apply ``count`` random replica adds/drops across the stack."""
    applied = 0
    while applied < count:
        placement = placements[int(rng.integers(len(placements)))]
        expert = int(rng.integers(placement.num_experts))
        device = int(rng.integers(placement.num_devices))
        try:
            if rng.random() < 0.7 or len(placement.replicas(expert)) <= 1:
                placement.add_replica(expert, device)
            else:
                placement.drop_replica(expert, placement.replicas(expert)[-1])
        except Exception:
            continue
        applied += 1


class TestSparseAgainstDenseOracle:
    @pytest.mark.parametrize("zero_cells", [False, True])
    def test_link_volumes_match_dense_pricer(self, mapping, zero_cells):
        placements = diverged_placements()
        demand = uniform_demand(4, 16, 256, 8, 100)
        if zero_cells:
            demand[0, 3] = 0.0
            demand[2, :8] = 0.0
        dense = alltoall_pricer(mapping)
        sparse = sparse_alltoall_pricer(mapping)
        _cells, expected = dense.link_volumes(demand, shares_stack(placements))
        got = sparse.link_volumes(
            demand, [sparse.state_for(p) for p in placements]
        )
        np.testing.assert_allclose(got, expected, **TIGHT)

    @pytest.mark.parametrize("zero_cells", [False, True])
    def test_durations_match_per_layer_simulation(self, mapping, zero_cells):
        placements = diverged_placements()
        demand = uniform_demand(4, 16, 256, 8, 100)
        if zero_cells:
            demand[0, 3] = 0.0
            demand[2, :8] = 0.0
        sparse = sparse_alltoall_pricer(mapping)
        durations = sparse.durations(
            demand, [sparse.state_for(p) for p in placements]
        )
        for layer, placement in enumerate(placements):
            exact = simulate_alltoall(
                mapping.topology, demand, placement, mapping
            ).duration
            assert durations[layer] == pytest.approx(exact, rel=1e-12)

    def test_demand_stack_matches_dense_pricer(self, mapping):
        placements = diverged_placements()
        rng = np.random.default_rng(3)
        stack = uniform_demand(4, 16, 256, 8, 100) * rng.uniform(
            0.5, 1.5, size=(5, 4, 16)
        )
        stack[1, 0, 3] = 0.0
        stack[3, 2, :8] = 0.0
        dense = alltoall_pricer(mapping)
        sparse = sparse_alltoall_pricer(mapping)
        expected = dense.durations(stack, shares_stack(placements))
        got = sparse.durations(stack, [sparse.state_for(p) for p in placements])
        np.testing.assert_allclose(got, expected, **TIGHT)

    def test_hosted_subset_when_fewer_experts_than_devices(self, mapping):
        """With E < D only the hosting devices appear as destination
        columns — the sparse tier must price the subset exactly."""
        placements = [
            ExpertPlacement(8, 16, shadow_slots=2) for _ in range(3)
        ]
        placements[1].add_replica(2, 13)
        sparse = sparse_alltoall_pricer(mapping)
        states = [sparse.state_for(p) for p in placements]
        assert states[0].gather.dests.size < 16
        demand = uniform_demand(4, 8, 256, 8, 100)
        durations = sparse.durations(demand, states)
        for layer, placement in enumerate(placements):
            exact = simulate_alltoall(
                mapping.topology, demand, placement, mapping
            ).duration
            assert durations[layer] == pytest.approx(exact, rel=1e-12)

    def test_active_masks_agree_with_dense(self, mapping):
        """Zero demand cells must deactivate exactly the same latency
        pairs as the dense pricer: nonnegative dot products cannot round
        to a spurious zero, so the (cells > 0) masks agree bitwise and
        the latency maxima are equal, not just close."""
        placements = diverged_placements()
        demand = uniform_demand(4, 16, 256, 8, 100)
        demand[1, :] = 0.0
        demand[:, 7] = 0.0
        dense = alltoall_pricer(mapping)
        sparse = sparse_alltoall_pricer(mapping)
        shares = shares_stack(placements)
        states = [sparse.state_for(p) for p in placements]
        dense_cells, _ = dense.link_volumes(demand, shares)
        for layer, state in enumerate(states):
            small = demand @ state.shares_small
            np.testing.assert_array_equal(
                small > 0, dense_cells[layer][:, state.gather.dests] > 0
            )


class TestIncremental:
    def test_revalidation_without_mutation_rebuilds_nothing(self, mapping):
        placements = diverged_placements()
        pricer = sparse_alltoall_pricer(mapping)
        states = [pricer.state_for(p) for p in placements]
        built = pricer.state_rebuilds
        for _ in range(5):
            again = [pricer.state_for(p) for p in placements]
            assert all(a is b for a, b in zip(again, states))
        assert pricer.state_rebuilds == built

    def test_migration_rebuilds_only_touched_layers(self, mapping):
        placements = diverged_placements()
        pricer = sparse_alltoall_pricer(mapping)
        states = [pricer.state_for(p) for p in placements]
        built = pricer.state_rebuilds
        placements[2].add_replica(7, 11)
        again = [pricer.state_for(p) for p in placements]
        assert pricer.state_rebuilds == built + 1
        for layer in range(len(placements)):
            if layer == 2:
                assert again[layer] is not states[layer]
            else:
                assert again[layer] is states[layer]

    def test_gather_shared_across_layers_with_same_hosted_set(self, mapping):
        placements = [ExpertPlacement(16, 16) for _ in range(4)]
        pricer = sparse_alltoall_pricer(mapping)
        states = [pricer.state_for(p) for p in placements]
        assert all(s.gather is states[0].gather for s in states)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_delta_rebuild_equals_from_scratch(self, mapping, seed):
        """N random migrations, revalidating incrementally along the way,
        leave exactly the state a cold pricer builds from scratch."""
        rng = np.random.default_rng(seed)
        placements = diverged_placements()
        warm = SparseAllToAllPricer(mapping)
        for p in placements:
            warm.state_for(p)
        for _ in range(4):
            random_migrations(placements, rng, count=3)
            for p in placements:
                warm.state_for(p)
        cold = SparseAllToAllPricer(mapping)
        demand = uniform_demand(4, 16, 256, 8, 100)
        for placement in placements:
            delta = warm.state_for(placement)
            scratch = cold.state_for(placement)
            assert delta.version == placement.version
            np.testing.assert_array_equal(
                delta.gather.row_starts, scratch.gather.row_starts
            )
            np.testing.assert_array_equal(
                delta.gather.row_links, scratch.gather.row_links
            )
            np.testing.assert_array_equal(
                delta.gather.weight, scratch.gather.weight
            )
            np.testing.assert_array_equal(delta.gather.cell, scratch.gather.cell)
            np.testing.assert_array_equal(
                delta.gather.latency, scratch.gather.latency
            )
            np.testing.assert_array_equal(
                delta.shares_small, scratch.shares_small
            )
        states_delta = [warm.state_for(p) for p in placements]
        states_cold = [cold.state_for(p) for p in placements]
        np.testing.assert_array_equal(
            warm.durations(demand, states_delta),
            cold.durations(demand, states_cold),
        )

    def test_dest_rows_built_once_per_destination(self, mapping):
        pricer = SparseAllToAllPricer(mapping)
        placements = diverged_placements()
        for p in placements:
            pricer.state_for(p)
        built = pricer.dest_row_builds
        assert built <= 16
        # Another epoch over already-seen destinations pays no route walks.
        placements[1].add_replica(4, 9)
        pricer.state_for(placements[1])
        assert pricer.dest_row_builds == built


def diverged_stack():
    """:func:`diverged_placements` as the serving loop's stacked placement."""
    stack = StackedPlacement(5, 16, 16, shadow_slots=2)
    stack.add_replica(2, 0, 15)
    stack.add_replica(2, 5, 9)
    stack.add_replica(4, 3, 12)
    return stack


def demand_rows(seed=5):
    rng = np.random.default_rng(seed)
    return uniform_demand(4, 16, 256, 8, 100) * rng.uniform(
        0.5, 1.5, size=(5, 4, 16)
    )


class TestPlanModeCache:
    def test_modes_get_distinct_plans(self, mapping):
        stack = diverged_stack()
        dense_plan = layered_dispatch_plan(mapping, stack)
        sparse_plan = layered_dispatch_plan(mapping, stack, sparse=True)
        assert dense_plan is not sparse_plan
        assert not dense_plan.sparse and dense_plan.pricer is not None
        assert sparse_plan.sparse and sparse_plan.sparse_pricer is not None
        # Each mode keeps hitting its own cached plan.
        assert layered_dispatch_plan(mapping, stack) is dense_plan
        assert layered_dispatch_plan(mapping, stack, sparse=True) is sparse_plan

    def test_mode_toggle_never_serves_a_stale_plan(self, mapping):
        """Toggling the pricing mode mid-session must never resolve to a
        plan built for the other mode."""
        stack = diverged_stack()
        for sparse in (False, True, False, True):
            assert layered_dispatch_plan(mapping, stack, sparse=sparse).sparse == sparse
        dense_plan = layered_dispatch_plan(mapping, stack)
        sparse_plan = layered_dispatch_plan(mapping, stack, sparse=True)
        demand = np.repeat(uniform_demand(4, 16, 256, 8, 100)[None], 5, axis=0)
        np.testing.assert_allclose(
            sparse_plan.alltoall_durations_resolved(demand, 2.0e-6),
            dense_plan.alltoall_durations_resolved(demand, 2.0e-6),
            **TIGHT,
        )

    def test_mutation_invalidates_both_modes(self, mapping):
        stack = diverged_stack()
        dense_plan = layered_dispatch_plan(mapping, stack)
        sparse_plan = layered_dispatch_plan(mapping, stack, sparse=True)
        stack.add_replica(1, 2, 14)
        assert layered_dispatch_plan(mapping, stack) is not dense_plan
        assert layered_dispatch_plan(mapping, stack, sparse=True) is not sparse_plan

    def test_sparse_plan_resolved_matches_dense_plan(self, mapping):
        stack = diverged_stack()
        demand = demand_rows()
        dense_plan = LayeredDispatchPlan(mapping, stack)
        sparse_plan = LayeredDispatchPlan(mapping, stack, sparse=True)
        np.testing.assert_allclose(
            sparse_plan.alltoall_durations_resolved(demand, 1.0e-6),
            dense_plan.alltoall_durations_resolved(demand, 1.0e-6),
            **TIGHT,
        )

    def test_sparse_plan_matches_per_layer_simulation(self, mapping):
        stack = diverged_stack()
        demand = demand_rows()
        durations = LayeredDispatchPlan(
            mapping, stack, sparse=True
        ).alltoall_durations_resolved(demand, 1.0e-6)
        assert durations[0] == 1.0e-6
        for layer in range(1, stack.num_layers):
            exact = simulate_alltoall(
                mapping.topology, demand[layer], stack.layer(layer), mapping
            ).duration
            assert durations[layer] == pytest.approx(exact, rel=1e-12)


class TestMemoryAccounting:
    def test_analytic_dense_footprint_matches_materialized(self, mapping):
        assert dense_operator_nbytes(mapping) == alltoall_pricer(
            mapping
        ).operator.nbytes

    def test_sparse_operator_smaller_than_dense(self, mapping):
        pricer = SparseAllToAllPricer(mapping)
        for p in diverged_placements():
            pricer.state_for(p)
        assert 0 < pricer.operator_nbytes() < dense_operator_nbytes(mapping)
        assert pricer.peak_operator_nbytes >= pricer.operator_nbytes()

    def test_auto_rule_thresholds_on_dense_footprint(self, mapping):
        # 16 devices: a few-hundred-KB dense operator — dense stays.
        assert dense_operator_nbytes(mapping) < SPARSE_AUTO_THRESHOLD_BYTES
        assert not prefer_sparse_pricing(mapping)

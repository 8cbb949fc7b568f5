"""The CSR all-to-all pricer against the exact per-layer simulation.

The :class:`SparseAllToAllPricer` stores the ``(group, dest) -> link``
operator as one CSR matrix per hosted-destination set and prices a layer
stack with one share matmul plus one sparse product per set — the same
terms as the per-layer :func:`simulate_alltoall` path in a different
associative order, so volumes and durations are pinned to that path with
tight relative tolerances and the latency maxima exactly.  The
incremental contracts are structural: states revalidate by placement
version (migration-free lookups rebuild nothing, asserted via the rebuild
counter), and a delta-rebuilt state equals a from-scratch build bitwise.
"""

import numpy as np
import pytest

from repro.mapping.base import ParallelismConfig
from repro.mapping.er import ERMapping
from repro.mapping.placement import ExpertPlacement
from repro.models import QWEN3_235B
from repro.faults import topology_health
from repro.network.alltoall import (
    SparseAllToAllPricer,
    alltoall_pricer,
    clear_plan_caches,
    simulate_alltoall,
    uniform_demand,
)
from repro.network.phase import route_rows
from repro.systems import build_dgx, build_multi_wsc, build_nvl72, build_wsc
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


def stack_args(pricer, placements):
    """``(shares, batches)`` pricing arguments for a placement list."""
    shares = np.stack([p.destination_shares for p in placements])
    return shares, pricer.hosted_batches(placements)


def exact_phases(mapping, demand, placement):
    """(dispatch, combine) durations of the exact per-layer simulation."""
    result = simulate_alltoall(mapping.topology, demand, placement, mapping)
    return np.array([result.dispatch.duration, result.combine.duration])


def per_layer(demand, num_layers):
    return np.repeat(demand[None], num_layers, axis=0)


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


class TestAgainstExactSimulation:
    @pytest.mark.parametrize("zero_cells", [False, True])
    def test_link_volumes_match_phase_link_bytes(self, mapping, zero_cells):
        placements = diverged_placements()
        demand = uniform_demand(4, 16, 256, 8, 100)
        if zero_cells:
            demand[0, 3] = 0.0
            demand[2, :8] = 0.0
        pricer = alltoall_pricer(mapping)
        volumes = pricer.link_volumes(
            per_layer(demand, len(placements)), *stack_args(pricer, placements)
        )
        keys = list(mapping.topology.links)
        for layer, placement in enumerate(placements):
            result = simulate_alltoall(mapping.topology, demand, placement, mapping)
            for phase, phase_result in enumerate((result.dispatch, result.combine)):
                expected = [phase_result.link_bytes.get(key, 0.0) for key in keys]
                np.testing.assert_allclose(
                    volumes[layer, phase], expected, rtol=1e-12, atol=1e-9
                )

    @pytest.mark.parametrize("zero_cells", [False, True])
    def test_durations_match_per_layer_simulation(self, mapping, zero_cells):
        placements = diverged_placements()
        demand = uniform_demand(4, 16, 256, 8, 100)
        if zero_cells:
            demand[0, 3] = 0.0
            demand[2, :8] = 0.0
        pricer = alltoall_pricer(mapping)
        durations = pricer.durations(
            per_layer(demand, len(placements)), *stack_args(pricer, placements)
        )
        for layer, placement in enumerate(placements):
            exact = exact_phases(mapping, demand, placement)
            assert durations[layer] == pytest.approx(exact, rel=1e-12)

    def test_demand_stack_matches_per_layer_simulation(self, mapping):
        placements = diverged_placements()
        rng = np.random.default_rng(3)
        stack = uniform_demand(4, 16, 256, 8, 100) * rng.uniform(
            0.5, 1.5, size=(5, 4, 16)
        )
        stack[1, 0, 3] = 0.0
        stack[3, 2, :8] = 0.0
        pricer = alltoall_pricer(mapping)
        durations = pricer.durations(stack, *stack_args(pricer, placements))
        for layer, placement in enumerate(placements):
            exact = exact_phases(mapping, stack[layer], placement)
            assert durations[layer] == pytest.approx(exact, rel=1e-12)

    def test_hosted_subset_when_fewer_experts_than_devices(self, mapping):
        """With E < D only the hosting devices appear as destination
        columns — the pricer must price the subset exactly."""
        placements = [
            ExpertPlacement(8, 16, shadow_slots=2) for _ in range(3)
        ]
        placements[1].add_replica(2, 13)
        pricer = alltoall_pricer(mapping)
        assert pricer.state_for(placements[0]).hosted.dests.size < 16
        demand = uniform_demand(4, 8, 256, 8, 100)
        durations = pricer.durations(
            per_layer(demand, 3), *stack_args(pricer, placements)
        )
        for layer, placement in enumerate(placements):
            exact = exact_phases(mapping, demand, placement)
            assert durations[layer] == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("active", ["most", "one_cell"])
    def test_latencies_equal_worst_active_path(self, mapping, active):
        """Zero demand cells deactivate their latency pairs.  Nonnegative
        products cannot round to a spurious zero, so the worst active path
        latency of each phase equals the exact simulation's, not just
        approximately."""
        placements = diverged_placements()
        demand = uniform_demand(4, 16, 256, 8, 100)
        if active == "most":
            demand[1, :] = 0.0
            demand[:, 7] = 0.0
        else:
            demand[:] = 0.0
            demand[0, 0] = 100.0
        pricer = alltoall_pricer(mapping)
        _, latencies = pricer._price(
            per_layer(demand, len(placements)),
            *stack_args(pricer, placements),
            with_latencies=True,
        )
        for layer, placement in enumerate(placements):
            result = simulate_alltoall(mapping.topology, demand, placement, mapping)
            assert latencies[layer, 0] == result.dispatch.latency_time
            assert latencies[layer, 1] == result.combine.latency_time
        if active == "one_cell":
            # One active cell sits below the all-cells maximum.
            dense = pricer.state_for(placements[0]).hosted.dense_latency
            assert (latencies[0] < dense).all()


#: name -> mapping on every topology family the pricer serves.
SYSTEMS = {
    "er_wafer": lambda: build_wsc(QWEN3_235B, side=4, tp=4, mapping="er").mapping,
    "baseline_wafer": lambda: build_wsc(
        QWEN3_235B, side=4, tp=4, mapping="baseline"
    ).mapping,
    "er_without_allgather": lambda: build_wsc(
        QWEN3_235B, side=4, tp=4, mapping="er", retain_allgather=False
    ).mapping,
    "her_two_wafers": lambda: build_multi_wsc(QWEN3_235B, 2, 4, tp=4).mapping,
    "dgx_two_nodes": lambda: build_dgx(QWEN3_235B, 2, tp=4).mapping,
    "nvl72": lambda: build_nvl72(QWEN3_235B, tp=4).mapping,
}


class TestSystems:
    """Every topology family, with mixed hosted sets and zero cells."""

    @pytest.fixture(params=list(SYSTEMS))
    def case(self, request):
        mapping = SYSTEMS[request.param]()
        num_devices = mapping.topology.num_devices
        num_experts = num_devices // 2
        placements = [
            ExpertPlacement(num_experts, num_devices, shadow_slots=2)
            for _ in range(4)
        ]
        empty = [d for d in range(num_devices) if not placements[0].experts_on(d)]
        placements[1].add_replica(0, empty[0])
        placements[2].add_replica(1, empty[1])
        placements[2].add_replica(2, empty[-1])
        placements[3].add_replica(0, empty[0])
        demand = uniform_demand(mapping.dp, num_experts, 256, 8, 100)
        demand = demand * np.random.default_rng(7).uniform(
            0.5, 1.5, size=(4, *demand.shape)
        )
        demand[1, 0, :3] = 0.0
        demand[2, :, 1] = 0.0
        return mapping, placements, demand

    def test_durations_match_per_layer_simulation(self, case):
        mapping, placements, demand = case
        pricer = alltoall_pricer(mapping)
        durations = pricer.durations(demand, *stack_args(pricer, placements))
        for layer, placement in enumerate(placements):
            exact = exact_phases(mapping, demand[layer], placement)
            assert durations[layer] == pytest.approx(exact, rel=1e-12)

    def test_latencies_equal_worst_active_path(self, case):
        mapping, placements, demand = case
        pricer = alltoall_pricer(mapping)
        _, latencies = pricer._price(
            demand, *stack_args(pricer, placements), with_latencies=True
        )
        for layer, placement in enumerate(placements):
            result = simulate_alltoall(
                mapping.topology, demand[layer], placement, mapping
            )
            assert latencies[layer, 0] == result.dispatch.latency_time
            assert latencies[layer, 1] == result.combine.latency_time

    def test_dense_demand_matches_per_layer_simulation(self, case):
        """Demand without zero cells takes the dense-latency shortcut:
        every hosted cell is active."""
        mapping, placements, demand = case
        demand = demand + 1.0
        pricer = alltoall_pricer(mapping)
        durations = pricer.durations(demand, *stack_args(pricer, placements))
        for layer, placement in enumerate(placements):
            exact = exact_phases(mapping, demand[layer], placement)
            assert durations[layer] == pytest.approx(exact, rel=1e-12)

    def test_volumes_equal_full_width_operator_product(self, case):
        """The hosted-row product equals the product over every
        ``(group, dest)`` row bit for bit: the dropped rows belong to
        unhosted destinations, whose cells are exact zeros."""
        mapping, placements, demand = case
        pricer = alltoall_pricer(mapping)
        shares, batches = stack_args(pricer, placements)
        assert len(batches) == 3
        full = pricer._hosted_for(tuple(range(pricer.num_devices)))
        cells = np.matmul(demand, shares)
        expected = cells.reshape(len(placements), -1) @ full.operator
        got = pricer.link_volumes(demand, shares, batches)
        np.testing.assert_array_equal(got.reshape(len(placements), -1), expected)


class TestIncremental:
    def test_revalidation_without_mutation_rebuilds_nothing(self, mapping):
        placements = diverged_placements()
        pricer = alltoall_pricer(mapping)
        states = [pricer.state_for(p) for p in placements]
        built = pricer.state_rebuilds
        for _ in range(5):
            again = [pricer.state_for(p) for p in placements]
            assert all(a is b for a, b in zip(again, states))
        assert pricer.state_rebuilds == built

    def test_migration_rebuilds_only_touched_layers(self, mapping):
        placements = diverged_placements()
        pricer = alltoall_pricer(mapping)
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

    def test_hosted_set_shared_across_layers(self, mapping):
        placements = [ExpertPlacement(16, 16) for _ in range(4)]
        pricer = alltoall_pricer(mapping)
        states = [pricer.state_for(p) for p in placements]
        assert all(s.hosted is states[0].hosted for s in states)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_delta_rebuild_equals_from_scratch(self, mapping, seed):
        """N random migrations, revalidating incrementally along the way,
        leave exactly the state a cold pricer builds from scratch."""
        rng = np.random.default_rng(seed)
        placements = [ExpertPlacement(8, 16, shadow_slots=2) for _ in range(5)]
        warm = SparseAllToAllPricer(mapping)
        for p in placements:
            warm.state_for(p)
        for _ in range(4):
            random_migrations(placements, rng, count=3)
            for p in placements:
                warm.state_for(p)
        cold = SparseAllToAllPricer(mapping)
        for placement in placements:
            delta = warm.state_for(placement).hosted
            scratch = cold.state_for(placement).hosted
            assert warm.state_for(placement).version == placement.version
            np.testing.assert_array_equal(delta.dests, scratch.dests)
            for name in ("indptr", "indices", "data"):
                np.testing.assert_array_equal(
                    getattr(delta.operator, name), getattr(scratch.operator, name)
                )
            np.testing.assert_array_equal(delta.latency_sorted, scratch.latency_sorted)
            np.testing.assert_array_equal(delta.dense_latency, scratch.dense_latency)
        demand = per_layer(uniform_demand(4, 8, 256, 8, 100), len(placements))
        np.testing.assert_array_equal(
            warm.durations(demand, *stack_args(warm, placements)),
            cold.durations(demand, *stack_args(cold, placements)),
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


class TestDegradedLinks:
    def test_degraded_link_reprices_through_cached_operators(self, mapping):
        """Link faults change bandwidth, not routes: the cached operators
        keep serving and prices track the exact simulation, then return
        bit for bit once the link is restored."""
        placements = diverged_placements()
        demand = per_layer(uniform_demand(4, 16, 256, 8, 100), len(placements))
        pricer = alltoall_pricer(mapping)
        args = stack_args(pricer, placements)
        pristine = pricer.durations(demand, *args)
        builds = pricer.dest_row_builds
        busiest = list(mapping.topology.links)[
            int(pricer.link_volumes(demand, *args)[0].max(axis=0).argmax())
        ]
        health = topology_health(mapping.topology, create=True)
        health.degrade_link(*busiest, 0.25)
        degraded = pricer.durations(demand, *args)
        assert (degraded >= pristine).all() and (degraded > pristine).any()
        for layer, placement in enumerate(placements):
            exact = exact_phases(mapping, demand[layer], placement)
            assert degraded[layer] == pytest.approx(exact, rel=1e-12)
        assert pricer.dest_row_builds == builds
        health.restore_link(*busiest)
        np.testing.assert_array_equal(pricer.durations(demand, *args), pristine)


def loop_dest_rows(mapping, dest):
    """One destination's operator rows from a per-holder loop over single
    route rows: the construction the batched gather must equal bitwise."""
    topology = mapping.topology
    num_links = len(topology.links)
    table = mapping.token_holder_table()
    scratch = np.zeros(2 * num_links)
    idx_parts, weight_parts, group_parts = [], [], []
    latency = np.zeros((2, mapping.dp))
    for group in range(mapping.dp):
        touched = []
        for holder, fraction in table.entries(group, dest):
            if holder == dest:
                continue
            for phase, (src, dst) in enumerate(((holder, dest), (dest, holder))):
                _, idx, weights, path_latency = route_rows(topology, [src], [dst])
                scratch[phase * num_links + idx] += fraction * weights
                touched.append(phase * num_links + idx)
                if path_latency[0] > latency[phase, group]:
                    latency[phase, group] = path_latency[0]
        if touched:
            cols = np.unique(np.concatenate(touched))
            idx_parts.append(cols)
            weight_parts.append(scratch[cols].copy())
            group_parts.append(np.full(cols.size, group, dtype=np.intp))
            scratch[cols] = 0.0
    empty = [np.empty(0, dtype=np.intp)]
    return (
        np.concatenate(idx_parts or empty),
        np.concatenate(weight_parts or [np.empty(0)]),
        np.concatenate(group_parts or empty),
        latency,
    )


#: The five systems whose destination rows are held to the per-holder loop.
DEST_ROW_SYSTEMS = {
    "er_8x8": lambda: build_wsc(QWEN3_235B, side=8, tp=4, mapping="er"),
    "baseline_8x8": lambda: build_wsc(QWEN3_235B, side=8, tp=4, mapping="baseline"),
    "her_two_wafers": lambda: build_multi_wsc(QWEN3_235B, 2, 4, tp=4),
    "dgx_two_nodes": lambda: build_dgx(QWEN3_235B, 2, tp=4),
    "nvl72": lambda: build_nvl72(QWEN3_235B, tp=4),
}


class TestDestRows:
    """Rows built for a whole hosted set at once, in one batch or many,
    equal a per-holder loop over single route rows bit for bit."""

    def built_rows(self, name, monkeypatch):
        """Every destination's rows from one ``_hosted_for`` over all
        devices, and the size of each batch that built them."""
        mapping = DEST_ROW_SYSTEMS[name]().mapping
        pricer = SparseAllToAllPricer(mapping)
        batches = []
        build_rows = pricer._build_rows

        def recording(dests):
            batches.append(dests.size)
            return build_rows(dests)

        monkeypatch.setattr(pricer, "_build_rows", recording)
        num_devices = mapping.topology.num_devices
        pricer._hosted_for(tuple(range(num_devices)))
        assert sum(batches) == pricer.dest_row_builds == num_devices
        return mapping, pricer, batches

    def assert_rows_equal_the_loop(self, mapping, pricer):
        for dest in range(mapping.topology.num_devices):
            rows = pricer._dest_rows[dest]
            expected = loop_dest_rows(mapping, dest)
            for got, want in zip(
                (rows.link_idx, rows.weight, rows.group, rows.latency), expected
            ):
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", list(DEST_ROW_SYSTEMS))
    def test_gathered_rows_equal_the_per_holder_loop(self, name, monkeypatch):
        mapping, pricer, _ = self.built_rows(name, monkeypatch)
        self.assert_rows_equal_the_loop(mapping, pricer)

    @pytest.mark.parametrize("name", list(DEST_ROW_SYSTEMS))
    def test_rows_do_not_depend_on_the_batching(self, name, monkeypatch):
        monkeypatch.setattr(SparseAllToAllPricer, "ROW_BATCH_PAIRS", 24)
        mapping, pricer, batches = self.built_rows(name, monkeypatch)
        assert len(batches) > 1
        self.assert_rows_equal_the_loop(mapping, pricer)


class TestCaches:
    def test_evicted_hosted_set_rebuilds_identically(self, mapping, monkeypatch):
        monkeypatch.setattr(SparseAllToAllPricer, "HOSTED_CACHE_CAP", 1)
        pricer = SparseAllToAllPricer(mapping)
        native, moved = ExpertPlacement(8, 16), ExpertPlacement(8, 16)
        moved.add_replica(0, 1)
        first = pricer.state_for(native).hosted
        pricer.state_for(moved)
        builds = pricer.dest_row_builds
        rebuilt = pricer.state_for(ExpertPlacement(8, 16)).hosted
        assert rebuilt is not first
        assert pricer.dest_row_builds == builds
        for name in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(
                getattr(rebuilt.operator, name), getattr(first.operator, name)
            )
        np.testing.assert_array_equal(rebuilt.latency_order, first.latency_order)

    def test_clear_plan_caches_drops_pricers(self, mapping):
        pricer = alltoall_pricer(mapping)
        assert alltoall_pricer(mapping) is pricer
        clear_plan_caches()
        assert alltoall_pricer(mapping) is not pricer


class TestMemoryAccounting:
    def test_operator_smaller_than_dense_footprint(self, mapping):
        pricer = SparseAllToAllPricer(mapping)
        for p in diverged_placements():
            pricer.state_for(p)
        dense_nbytes = (
            pricer.num_groups * pricer.num_devices * 2 * pricer.num_links * 8
        )
        assert 0 < pricer.operator_nbytes() < dense_nbytes
        assert pricer.peak_operator_nbytes == pricer.operator_nbytes()

    def test_peak_keeps_high_water_mark_after_eviction(self, mapping, monkeypatch):
        monkeypatch.setattr(SparseAllToAllPricer, "HOSTED_CACHE_CAP", 1)
        pricer = SparseAllToAllPricer(mapping)
        small, large = ExpertPlacement(8, 16), ExpertPlacement(8, 16)
        for device in (1, 3, 5, 7):
            large.add_replica(0, device)
        pricer.state_for(large)
        peak = pricer.peak_operator_nbytes
        pricer.state_for(small)
        assert pricer.operator_nbytes() < peak
        assert pricer.peak_operator_nbytes == peak

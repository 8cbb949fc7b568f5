"""The CSR all-to-all pricer against the pair-list reference.

The :class:`SparseAllToAllPricer` stores the ``(group, dest) -> link``
operator as one CSR matrix per hosted-destination set and prices a layer
stack with one gather of its hosted cells plus one sparse product per set
— the same terms as the pair-list pricing of ``tests/alltoall_reference.py``
in a different associative order, so volumes and durations are pinned to
that reference with tight relative tolerances and the latency maxima
exactly.  :func:`simulate_alltoall` prices a one-layer stack on the same
pricer and is held to the reference field by field.  The operator holds the
dispatch columns only; combine is their gather through the link reversal,
held bit for bit to separately routed combine rows here and in
``tests/properties/test_property_combine_mirror.py``.  The incremental
contracts are structural: states revalidate by placement version
(migration-free lookups rebuild nothing, asserted via the rebuild
counter), and a delta-rebuilt state equals a from-scratch build bitwise.
"""

import numpy as np
import pytest

from alltoall_reference import assert_close_to_reference
from alltoall_reference import simulate_alltoall as reference_alltoall
from placement_replay import LayerReplay, one_layer_stack, snapshot, snapshots
from repro.mapping.base import ParallelismConfig
from repro.mapping.er import ERMapping
from repro.mapping.placement import StackedPlacement
from repro.models import QWEN3_235B
from repro.faults import topology_health
from repro.network.alltoall import (
    SparseAllToAllPricer,
    alltoall_pricer,
    clear_plan_caches,
    simulate_alltoall,
    uniform_demand,
)
from repro.mapping.gpu import GPUMapping
from repro.network.phase import _route_cache, link_reversal, route_rows
from repro.systems import build_dgx, build_multi_wsc, build_nvl72, build_wsc
from repro.topology.mesh import MeshTopology
from repro.topology.switched import NVL72Topology

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


def all_states(pricer, stack):
    return [pricer.state_for(stack, layer) for layer in range(stack.num_layers)]


def exact_phases(mapping, demand, placement):
    """(dispatch, combine) durations of the pair-list reference."""
    result = reference_alltoall(mapping.topology, demand, placement, mapping)
    return np.array([result.dispatch.duration, result.combine.duration])


def per_layer(demand, num_layers):
    return np.repeat(demand[None], num_layers, axis=0)


def random_migrations(stack, rng, count):
    """Apply ``count`` random replica adds/drops across the stack."""
    applied = 0
    while applied < count:
        layer = int(rng.integers(stack.num_layers))
        expert = int(rng.integers(stack.num_experts))
        device = int(rng.integers(stack.num_devices))
        replicas = snapshot(stack, layer).replicas(expert)
        try:
            if rng.random() < 0.7 or len(replicas) <= 1:
                stack.add_replica(layer, expert, device)
            else:
                stack.drop_replica(layer, expert, replicas[-1])
        except Exception:
            continue
        applied += 1


class TestAgainstExactSimulation:
    @pytest.mark.parametrize("zero_cells", [False, True])
    def test_link_volumes_match_phase_link_bytes(self, mapping, zero_cells):
        stack = diverged_stack()
        demand = uniform_demand(4, 16, 256, 8, 100)
        if zero_cells:
            demand[0, 3] = 0.0
            demand[2, :8] = 0.0
        pricer = alltoall_pricer(mapping)
        volumes = pricer.link_volumes(
            per_layer(demand, stack.num_layers), pricer.hosted_batches(stack)
        )
        keys = list(mapping.topology.links)
        for layer, placement in enumerate(snapshots(stack)):
            result = reference_alltoall(mapping.topology, demand, placement, mapping)
            for phase, phase_result in enumerate((result.dispatch, result.combine)):
                expected = [phase_result.link_bytes.get(key, 0.0) for key in keys]
                np.testing.assert_allclose(
                    volumes[layer, phase], expected, rtol=1e-12, atol=1e-9
                )

    @pytest.mark.parametrize("zero_cells", [False, True])
    def test_durations_match_per_layer_simulation(self, mapping, zero_cells):
        stack = diverged_stack()
        demand = uniform_demand(4, 16, 256, 8, 100)
        if zero_cells:
            demand[0, 3] = 0.0
            demand[2, :8] = 0.0
        pricer = alltoall_pricer(mapping)
        durations = pricer.durations(
            per_layer(demand, stack.num_layers), pricer.hosted_batches(stack)
        )
        for layer, placement in enumerate(snapshots(stack)):
            exact = exact_phases(mapping, demand, placement)
            assert durations[layer] == pytest.approx(exact, **TIGHT)

    def test_demand_stack_matches_per_layer_simulation(self, mapping):
        stack = diverged_stack()
        rng = np.random.default_rng(3)
        demand = uniform_demand(4, 16, 256, 8, 100) * rng.uniform(
            0.5, 1.5, size=(5, 4, 16)
        )
        demand[1, 0, 3] = 0.0
        demand[3, 2, :8] = 0.0
        pricer = alltoall_pricer(mapping)
        durations = pricer.durations(demand, pricer.hosted_batches(stack))
        for layer, placement in enumerate(snapshots(stack)):
            exact = exact_phases(mapping, demand[layer], placement)
            assert durations[layer] == pytest.approx(exact, **TIGHT)

    def test_hosted_subset_when_fewer_experts_than_devices(self, mapping):
        """With E < D only the hosting devices appear as destination
        columns — the pricer must price the subset exactly."""
        stack = StackedPlacement(3, 8, 16, shadow_slots=2)
        stack.add_replica(1, 2, 13)
        pricer = alltoall_pricer(mapping)
        assert pricer.state_for(stack, 0).hosted.dests.size < 16
        demand = uniform_demand(4, 8, 256, 8, 100)
        durations = pricer.durations(per_layer(demand, 3), pricer.hosted_batches(stack))
        for layer, placement in enumerate(snapshots(stack)):
            exact = exact_phases(mapping, demand, placement)
            assert durations[layer] == pytest.approx(exact, **TIGHT)

    @pytest.mark.parametrize("active", ["most", "one_cell"])
    def test_latencies_equal_worst_active_path(self, mapping, active):
        """Zero demand cells deactivate their latency pairs.  Nonnegative
        products cannot round to a spurious zero, so the worst active path
        latency of each phase equals the exact simulation's, not just
        approximately."""
        stack = diverged_stack()
        demand = uniform_demand(4, 16, 256, 8, 100)
        if active == "most":
            demand[1, :] = 0.0
            demand[:, 7] = 0.0
        else:
            demand[:] = 0.0
            demand[0, 0] = 100.0
        pricer = alltoall_pricer(mapping)
        _, latencies = pricer._price(
            per_layer(demand, stack.num_layers),
            pricer.hosted_batches(stack),
            with_latencies=True,
        )
        for layer, placement in enumerate(snapshots(stack)):
            result = reference_alltoall(mapping.topology, demand, placement, mapping)
            assert latencies[layer, 0] == result.dispatch.latency_time
            assert latencies[layer, 1] == result.combine.latency_time
        if active == "one_cell":
            # One active cell sits below the all-cells maximum.
            dense = pricer.state_for(stack, 0).hosted.dense_latency
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
        stack = StackedPlacement(4, num_experts, num_devices, shadow_slots=2)
        empty = [d for d in range(num_devices) if not snapshot(stack, 0).experts_on(d)]
        stack.add_replica(1, 0, empty[0])
        stack.add_replica(2, 1, empty[1])
        stack.add_replica(2, 2, empty[-1])
        stack.add_replica(3, 0, empty[0])
        demand = uniform_demand(mapping.dp, num_experts, 256, 8, 100)
        demand = demand * np.random.default_rng(7).uniform(
            0.5, 1.5, size=(4, *demand.shape)
        )
        demand[1, 0, :3] = 0.0
        demand[2, :, 1] = 0.0
        return mapping, stack, demand

    def test_durations_match_per_layer_simulation(self, case):
        mapping, stack, demand = case
        pricer = alltoall_pricer(mapping)
        durations = pricer.durations(demand, pricer.hosted_batches(stack))
        for layer, placement in enumerate(snapshots(stack)):
            exact = exact_phases(mapping, demand[layer], placement)
            assert durations[layer] == pytest.approx(exact, **TIGHT)

    def test_latencies_equal_worst_active_path(self, case):
        mapping, stack, demand = case
        pricer = alltoall_pricer(mapping)
        _, latencies = pricer._price(
            demand, pricer.hosted_batches(stack), with_latencies=True
        )
        for layer, placement in enumerate(snapshots(stack)):
            result = reference_alltoall(
                mapping.topology, demand[layer], placement, mapping
            )
            assert latencies[layer, 0] == result.dispatch.latency_time
            assert latencies[layer, 1] == result.combine.latency_time

    def test_dense_demand_matches_per_layer_simulation(self, case):
        """Demand without zero cells takes the dense-latency shortcut:
        every hosted cell is active."""
        mapping, stack, demand = case
        demand = demand + 1.0
        pricer = alltoall_pricer(mapping)
        durations = pricer.durations(demand, pricer.hosted_batches(stack))
        for layer, placement in enumerate(snapshots(stack)):
            exact = exact_phases(mapping, demand[layer], placement)
            assert durations[layer] == pytest.approx(exact, **TIGHT)

    def test_volumes_equal_full_width_operator_product(self, case):
        """The hosted-row product equals the product over every
        ``(group, dest)`` row bit for bit: the dropped rows belong to
        unhosted destinations, whose cells are exact zeros.  Every hosted
        cell here has one replica entry, so the gathered cells equal the
        share matmul's as well.  Combine is the dispatch product gathered
        through the link reversal."""
        mapping, stack, demand = case
        pricer = alltoall_pricer(mapping)
        batches = pricer.hosted_batches(stack)
        assert len(batches) == 3
        full = pricer._hosted_for(tuple(range(pricer.num_devices)))
        assert full.operator.shape[1] == pricer.num_links
        shares = np.stack([layer.destination_shares for layer in snapshots(stack)])
        cells = np.matmul(demand, shares)
        dispatch = cells.reshape(stack.num_layers, -1) @ full.operator
        combine = dispatch[:, link_reversal(mapping.topology)]
        got = pricer.link_volumes(demand, batches)
        np.testing.assert_array_equal(got, np.stack([dispatch, combine], axis=1))


class TestIncremental:
    def test_revalidation_without_mutation_rebuilds_nothing(self, mapping):
        stack = diverged_stack()
        pricer = alltoall_pricer(mapping)
        states = all_states(pricer, stack)
        built = pricer.state_rebuilds
        for _ in range(5):
            again = all_states(pricer, stack)
            assert all(a is b for a, b in zip(again, states))
        assert pricer.state_rebuilds == built

    def test_migration_rebuilds_only_touched_layers(self, mapping):
        stack = diverged_stack()
        pricer = alltoall_pricer(mapping)
        states = all_states(pricer, stack)
        built = pricer.state_rebuilds
        stack.add_replica(2, 7, 11)
        again = all_states(pricer, stack)
        assert pricer.state_rebuilds == built + 1
        for layer in range(stack.num_layers):
            if layer == 2:
                assert again[layer] is not states[layer]
            else:
                assert again[layer] is states[layer]

    def test_hosted_set_shared_across_layers(self, mapping):
        pricer = alltoall_pricer(mapping)
        states = all_states(pricer, StackedPlacement(4, 16, 16))
        assert all(s.hosted is states[0].hosted for s in states)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_delta_rebuild_equals_from_scratch(self, mapping, seed):
        """N random migrations, revalidating incrementally along the way,
        leave exactly the state a cold pricer builds from scratch."""
        rng = np.random.default_rng(seed)
        stack = StackedPlacement(5, 8, 16, shadow_slots=2)
        warm = SparseAllToAllPricer(mapping)
        all_states(warm, stack)
        for _ in range(4):
            random_migrations(stack, rng, count=3)
            all_states(warm, stack)
        cold = SparseAllToAllPricer(mapping)
        for layer, placement in enumerate(snapshots(stack)):
            warm_state = warm.state_for(stack, layer)
            cold_state = cold.state_for(stack, layer)
            assert warm_state.version == placement.version
            np.testing.assert_array_equal(warm_state.experts, cold_state.experts)
            np.testing.assert_array_equal(warm_state.shares, cold_state.shares)
            delta, scratch = warm_state.hosted, cold_state.hosted
            np.testing.assert_array_equal(delta.dests, scratch.dests)
            for name in ("indptr", "indices", "data"):
                np.testing.assert_array_equal(
                    getattr(delta.operator, name), getattr(scratch.operator, name)
                )
            np.testing.assert_array_equal(delta.latency_sorted, scratch.latency_sorted)
            np.testing.assert_array_equal(delta.dense_latency, scratch.dense_latency)
        demand = per_layer(uniform_demand(4, 8, 256, 8, 100), stack.num_layers)
        np.testing.assert_array_equal(
            warm.durations(demand, warm.hosted_batches(stack)),
            cold.durations(demand, cold.hosted_batches(stack)),
        )

    def test_dest_rows_built_once_per_destination(self, mapping):
        pricer = SparseAllToAllPricer(mapping)
        stack = diverged_stack()
        all_states(pricer, stack)
        built = pricer.dest_row_builds
        assert built <= 16
        # Another epoch over already-seen destinations pays no route walks.
        stack.add_replica(1, 4, 9)
        pricer.state_for(stack, 1)
        assert pricer.dest_row_builds == built


class TestDegradedLinks:
    def test_degraded_link_reprices_through_cached_operators(self, mapping):
        """Link faults change bandwidth, not routes: the cached operators
        keep serving and prices track the exact simulation, then return
        bit for bit once the link is restored."""
        stack = diverged_stack()
        demand = per_layer(uniform_demand(4, 16, 256, 8, 100), stack.num_layers)
        pricer = alltoall_pricer(mapping)
        batches = pricer.hosted_batches(stack)
        pristine = pricer.durations(demand, batches)
        builds = pricer.dest_row_builds
        busiest = list(mapping.topology.links)[
            int(pricer.link_volumes(demand, batches)[0].max(axis=0).argmax())
        ]
        health = topology_health(mapping.topology, create=True)
        health.degrade_link(*busiest, 0.25)
        degraded = pricer.durations(demand, batches)
        assert (degraded >= pristine).all() and (degraded > pristine).any()
        for layer, placement in enumerate(snapshots(stack)):
            exact = exact_phases(mapping, demand[layer], placement)
            assert degraded[layer] == pytest.approx(exact, **TIGHT)
        assert pricer.dest_row_builds == builds
        health.restore_link(*busiest)
        np.testing.assert_array_equal(pricer.durations(demand, batches), pristine)


def loop_dest_rows(mapping, dest):
    """One destination's operator rows from a per-holder loop over single
    route rows: the construction the batched gather must equal bitwise.
    The rows hold the dispatch links; each phase's latency comes from its
    own direction's route rows."""
    topology = mapping.topology
    num_links = len(topology.links)
    table = mapping.token_holder_table()
    scratch = np.zeros(num_links)
    idx_parts, weight_parts, group_parts = [], [], []
    latency = np.zeros((2, mapping.dp))
    for group in range(mapping.dp):
        touched = []
        for holder, fraction in table.entries(group, dest):
            if holder == dest:
                continue
            _, idx, weights, dispatch_latency, _ = route_rows(topology, [holder], [dest])
            scratch[idx] += fraction * weights
            touched.append(idx)
            combine_latency = route_rows(topology, [dest], [holder])[3]
            for phase, path_latency in enumerate((dispatch_latency[0], combine_latency[0])):
                if path_latency > latency[phase, group]:
                    latency[phase, group] = path_latency
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


#: The systems whose destination rows are held to the per-holder loop.  On
#: the baseline two-wafer row, fetches cross the wafer border, where the
#: walks back sum their hop latencies in another order: some combine
#: latencies differ from the dispatch ones in the last bits.
DEST_ROW_SYSTEMS = {
    "er_8x8": lambda: build_wsc(QWEN3_235B, side=8, tp=4, mapping="er"),
    "baseline_8x8": lambda: build_wsc(QWEN3_235B, side=8, tp=4, mapping="baseline"),
    "her_two_wafers": lambda: build_multi_wsc(QWEN3_235B, 2, 4, tp=4),
    "baseline_two_wafers": lambda: build_multi_wsc(
        QWEN3_235B, 2, 4, tp=4, mapping="baseline"
    ),
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

    def test_combine_latencies_differ_on_the_baseline_two_wafer_row(self, monkeypatch):
        """The case that makes the exact combine latencies matter: without
        their own walks the combine latencies would read the dispatch ones."""
        _, pricer, _ = self.built_rows("baseline_two_wafers", monkeypatch)
        latency = np.array([rows.latency for rows in pricer._dest_rows.values()])
        assert (latency[:, 0] != latency[:, 1]).any()


class TestRouteCacheAndReversal:
    def test_cache_holds_only_the_dispatch_pairs(self):
        """Pricing a hosted set routes its remote ``holder -> dest`` pairs
        and nothing else: the combine phase reads no rows of its own."""
        system = build_multi_wsc(QWEN3_235B, 2, 4, tp=4, mapping="baseline")
        mapping = system.mapping
        num_devices = mapping.topology.num_devices
        stack = StackedPlacement(1, num_devices // 2, num_devices)
        pricer = SparseAllToAllPricer(mapping)
        dests = pricer.state_for(stack, 0).hosted.dests
        assert 0 < dests.size < num_devices
        table = mapping.token_holder_table()
        expected = {
            (holder, dest)
            for group in range(mapping.dp)
            for dest in dests.tolist()
            for holder, _ in table.entries(group, dest)
            if holder != dest
        }
        assert any((dest, holder) not in expected for holder, dest in expected)
        cached = np.flatnonzero(_route_cache(mapping.topology)._row_of >= 0)
        assert set(zip(*(np.divmod(cached, num_devices)))) == expected
        assert cached.size == len(expected)

    @pytest.mark.parametrize("name", list(SYSTEMS))
    def test_reversal_maps_each_link_to_its_reverse(self, name):
        topology = SYSTEMS[name]().topology
        keys = list(topology.links)
        reverse = link_reversal(topology).tolist()
        assert [keys[position] for position in reverse] == [key[::-1] for key in keys]

    def test_one_way_link_is_rejected(self):
        """A topology whose link lacks a reverse cannot mirror combine."""
        topology = NVL72Topology(num_devices=4)
        leaf = topology.num_devices
        del topology.links[(0, leaf)]
        mapping = GPUMapping(topology, ParallelismConfig(tp=1, dp=4))
        assert link_reversal(topology)[list(topology.links).index((leaf, 0))] == -1
        with pytest.raises(ValueError, match=r"link \(4, 0\) has no reverse"):
            SparseAllToAllPricer(mapping)


def reference_cases(system):
    """(name, placement, reference, demand) cases on one system: a fresh
    one-layer stack under dense demand, shadows with zero cells, and a
    dead device whose orphans were repaired onto survivors.  Each stack's
    mutations are replayed into a reference :class:`ExpertPlacement`,
    which the pair-list reference prices."""
    mapping, model = system.mapping, system.model
    num_devices = system.topology.num_devices
    rng = np.random.default_rng(11)
    dense = rng.uniform(0.5, 1.5, (mapping.dp, model.num_experts)) * 7168.0
    sparse = dense * (rng.random(dense.shape) >= 0.4)
    cases = []
    for name in ("fresh", "shadows_zero_cells", "dead_device"):
        stack = system.fresh_placement()
        replay = LayerReplay(1, model.num_experts, num_devices)
        reference = replay.layers[0]
        if name != "fresh":
            for expert, device in ((0, num_devices - 1), (5, 3), (9, num_devices // 2)):
                if not reference.hosts(device, expert):
                    for target in (stack, replay):
                        target.add_replica(0, expert, device)
        if name == "dead_device":
            stack.fail_device(1)
            _, orphans = replay.fail_device(1)
            for expert in orphans.tolist():
                device = next(d for d in range(2, num_devices) if reference.shadow_free(d))
                for target in (stack, replay):
                    target.add_replica(0, expert, device)
        cases.append((name, stack, reference, dense if name == "fresh" else sparse))
    return cases


class TestSimulateAllToAll:
    """``simulate_alltoall`` prices a one-layer stack on the mapping's pricer:
    every field within summation-order rounding of the pair-list
    reference, the worst path latencies exact."""

    @pytest.mark.parametrize("name", list(DEST_ROW_SYSTEMS))
    def test_matches_the_reference(self, name):
        system = DEST_ROW_SYSTEMS[name]()
        for case, placement, replayed, demand in reference_cases(system):
            result = simulate_alltoall(system.topology, demand, placement, system.mapping)
            reference = reference_alltoall(system.topology, demand, replayed, system.mapping)
            assert_close_to_reference(result, reference)
            assert result.dispatch.total_volume == result.combine.total_volume, case

    def test_same_stack_reuses_its_layer_state(self):
        """Calls on one stack reuse the pricer's layer state until a
        mutation moves the layer's version; the repriced placement
        matches the reference again."""
        system = build_wsc(QWEN3_235B, side=4, tp=4, mapping="er")
        _, placement, replayed, demand = reference_cases(system)[1]
        pricer = alltoall_pricer(system.mapping)
        first = simulate_alltoall(system.topology, demand, placement, system.mapping)
        built = pricer.state_rebuilds
        again = simulate_alltoall(system.topology, demand, placement, system.mapping)
        assert pricer.state_rebuilds == built
        assert again.dispatch.link_bytes == first.dispatch.link_bytes
        placement.add_replica(0, 7, 2)
        replayed.add_replica(7, 2)
        moved = simulate_alltoall(system.topology, demand, placement, system.mapping)
        assert pricer.state_rebuilds == built + 1
        assert moved.dispatch.link_bytes != first.dispatch.link_bytes
        reference = reference_alltoall(system.topology, demand, replayed, system.mapping)
        assert_close_to_reference(moved, reference)

    def test_shared_pricer_prices_the_same_bits(self):
        """The serving loop shares the mapping's pricer (destination rows
        and hosted-set cache): a price is the same cold, after serving
        steps warmed the pricer, and after newer hosted sets evicted its
        own set."""
        from repro.balancer import GreedyBalancer
        from repro.engine import EngineConfig, ServingConfig, ServingSimulator
        from repro.workload import MATH, ConstantMixer, GatingSimulator

        system = build_wsc(QWEN3_235B, side=4, tp=4, mapping="er")
        mapping = system.mapping
        _, placement, _, demand = reference_cases(system)[1]

        def price():
            # A fresh copy each time: no cached layer state of its own.
            copy = one_layer_stack(placement, 0)
            return simulate_alltoall(system.topology, demand, copy, mapping)

        cold = price()
        workload = GatingSimulator(
            QWEN3_235B,
            num_groups=mapping.dp,
            tokens_per_group=64,
            mixer=ConstantMixer([MATH]),
            num_layers=4,
            seed=5,
        )
        serving = ServingSimulator(
            system.device,
            QWEN3_235B,
            mapping,
            workload,
            GreedyBalancer,
            engine_config=EngineConfig(tokens_per_group=64),
            serving_config=ServingConfig(num_iterations=4),
        )
        for _ in range(4):
            serving.step()
        pricer = alltoall_pricer(mapping)
        assert pricer.state_rebuilds > 1
        assert price() == cold

        everything = tuple(range(16))
        assert everything in pricer._hosted
        # Four experts host natively on devices 0, 4, 8 and 12; each
        # newer set adds two of the other devices.
        others = [d for d in range(16) if d % 4]
        pairs = [(a, b) for a in others for b in others if a < b]
        for a, b in pairs[: SparseAllToAllPricer.HOSTED_CACHE_CAP]:
            stack = StackedPlacement(1, 4, 16)
            stack.add_replica(0, 0, a)
            stack.add_replica(0, 1, b)
            pricer.state_for(stack, 0)
        assert everything not in pricer._hosted
        assert price() == cold


class TestCaches:
    def test_gathers_reuse_the_pricer_scratch(self, mapping):
        """Every gather writes into the pricer's scratch, so pricing a
        step allocates no group-sized arrays; a repeated gather returns
        the same cells."""
        stack = StackedPlacement(3, 8, 16)
        stack.add_replica(1, 0, 1)
        pricer = alltoall_pricer(mapping)
        demand = per_layer(uniform_demand(4, 8, 256, 8, 100), stack.num_layers)
        batches = pricer.hosted_batches(stack)
        assert len(batches) == 2
        first = batches[0].cells(demand).copy()
        other = batches[-1].cells(demand)
        again = batches[0].cells(demand)
        assert np.shares_memory(again, other)
        np.testing.assert_array_equal(again, first)

    def test_evicted_hosted_set_rebuilds_identically(self, mapping, monkeypatch):
        monkeypatch.setattr(SparseAllToAllPricer, "HOSTED_CACHE_CAP", 1)
        pricer = SparseAllToAllPricer(mapping)
        native, moved = StackedPlacement(1, 8, 16), StackedPlacement(1, 8, 16)
        moved.add_replica(0, 0, 1)
        first = pricer.state_for(native, 0).hosted
        pricer.state_for(moved, 0)
        builds = pricer.dest_row_builds
        rebuilt = pricer.state_for(StackedPlacement(1, 8, 16), 0).hosted
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
        all_states(pricer, diverged_stack())
        dense_nbytes = pricer.num_groups * pricer.num_devices * pricer.num_links * 8
        assert 0 < pricer.operator_nbytes() < dense_nbytes
        assert pricer.peak_operator_nbytes == pricer.operator_nbytes()

    def test_peak_keeps_high_water_mark_after_eviction(self, mapping, monkeypatch):
        monkeypatch.setattr(SparseAllToAllPricer, "HOSTED_CACHE_CAP", 1)
        pricer = SparseAllToAllPricer(mapping)
        small, large = StackedPlacement(1, 8, 16), StackedPlacement(1, 8, 16)
        for device in (1, 3, 5, 7):
            large.add_replica(0, 0, device)
        pricer.state_for(large, 0)
        peak = pricer.peak_operator_nbytes
        pricer.state_for(small, 0)
        assert pricer.operator_nbytes() < peak
        assert pricer.peak_operator_nbytes == peak

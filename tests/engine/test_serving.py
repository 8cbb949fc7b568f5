"""Tests for the serving simulator and balancer integration."""

from dataclasses import replace

import numpy as np
import pytest

import balancer_reference as reference

from repro.balancer import (
    GreedyBalancer,
    NoBalancer,
    NonInvasiveBalancer,
    TopologyAwareBalancer,
)
from repro.engine import (
    BalancingConfig,
    EngineConfig,
    ServingConfig,
    ServingSimulator,
)
from repro.models import QWEN3_235B
from repro.systems import build_wsc
from repro.workload import AzureLikeMixer, CHAT, CODING, MATH, PRIVACY, GatingSimulator


#: mean_component name -> the per-record value it averages.
COMPONENT_FIELDS = {
    "alltoall": lambda record: record.alltoall_mean,
    "alltoall_layer0": lambda record: record.breakdown.alltoall,
    "moe": lambda record: record.moe_mean.total,
    "moe_compute": lambda record: record.moe_mean.compute,
    "moe_memory": lambda record: record.moe_mean.memory,
    "moe_layer0": lambda record: record.breakdown.moe.total,
    "allreduce": lambda record: record.breakdown.allreduce,
    "attention": lambda record: record.breakdown.attention.total,
}


def make_simulator(balancer_cls, iterations=30, mixer=None, seed=3, **balancing):
    system = build_wsc(QWEN3_235B, side=4, tp=4, mapping="er")
    if mixer is None:
        mixer = MATH
    workload = GatingSimulator(
        QWEN3_235B,
        num_groups=system.mapping.dp,
        tokens_per_group=64,
        mixer=mixer,
        num_layers=2,
        seed=seed,
    )
    return ServingSimulator(
        system.device,
        QWEN3_235B,
        system.mapping,
        workload,
        balancer_cls,
        engine_config=EngineConfig(tokens_per_group=64),
        serving_config=ServingConfig(
            num_iterations=iterations, balancing=BalancingConfig(**balancing)
        ),
    )


class TestBasicRun:
    def test_trace_length(self):
        trace = make_simulator(NoBalancer, iterations=10).run()
        assert len(trace.records) == 10

    def test_latency_positive(self):
        trace = make_simulator(NoBalancer, iterations=5).run()
        assert all(record.latency > 0 for record in trace.records)

    def test_no_balancer_never_migrates(self):
        trace = make_simulator(NoBalancer, iterations=15).run()
        assert trace.num_migrations() == 0
        assert trace.total_migration_overhead() == 0.0

    def test_breakdown_recorded(self):
        trace = make_simulator(NoBalancer, iterations=5).run()
        record = trace.records[0]
        assert record.breakdown.allreduce > 0
        assert record.breakdown.alltoall > 0


class TestBalancingEffects:
    def test_balancers_cut_load_ratio(self):
        base = make_simulator(NoBalancer).run().mean_load_ratio(skip=15)
        for cls in (GreedyBalancer, TopologyAwareBalancer, NonInvasiveBalancer):
            balanced = make_simulator(cls).run().mean_load_ratio(skip=15)
            assert balanced < base

    def test_invasive_migration_interrupts(self):
        trace = make_simulator(GreedyBalancer).run()
        assert trace.num_migrations() > 0
        assert trace.num_interruptions() > 0
        assert trace.total_migration_overhead() > 0

    def test_non_invasive_never_interrupts(self):
        trace = make_simulator(NonInvasiveBalancer).run()
        assert trace.num_migrations() > 0
        assert trace.num_interruptions() == 0
        assert trace.total_migration_overhead() == 0.0

    def test_topology_aware_cheaper_than_greedy(self):
        greedy = make_simulator(GreedyBalancer).run()
        topo = make_simulator(TopologyAwareBalancer).run()
        assert (
            topo.total_migration_overhead() < greedy.total_migration_overhead()
        )

    def test_side_channel_hides_invasive_migration(self):
        trace = make_simulator(GreedyBalancer, migration_side_channel=True).run()
        assert trace.num_migrations() > 0
        assert trace.total_migration_overhead() == 0.0

    def test_beta_limits_invasive_frequency(self):
        frequent = make_simulator(GreedyBalancer, beta_iters=1, seed=5).run()
        throttled = make_simulator(GreedyBalancer, beta_iters=25, seed=5).run()
        assert throttled.num_interruptions() <= frequent.num_interruptions()

    def test_warmup_defers_balancing(self):
        trace = make_simulator(NonInvasiveBalancer, warmup_iters=12).run()
        early = [r for r in trace.records if r.iteration < 12]
        assert all(record.migrations_started == 0 for record in early)


class TestNonInvasiveDraining:
    def test_migrations_eventually_complete(self):
        trace = make_simulator(NonInvasiveBalancer, iterations=40).run()
        completed = sum(record.migrations_completed for record in trace.records)
        assert completed > 0

    def test_drift_keeps_balancer_active(self):
        mixer = AzureLikeMixer([CHAT, CODING, MATH, PRIVACY], period_iters=40)
        trace = make_simulator(NonInvasiveBalancer, iterations=60, mixer=mixer).run()
        late_migrations = sum(
            record.migrations_started for record in trace.records[30:]
        )
        assert late_migrations > 0


class TestTraceStats:
    def test_mean_component(self):
        trace = make_simulator(NoBalancer, iterations=5).run()
        for component in ("moe", "alltoall", "allreduce", "attention"):
            assert trace.mean_component(component) > 0

    @pytest.mark.parametrize("component", list(COMPONENT_FIELDS))
    def test_component_reads_its_record_field(self, component):
        trace = make_simulator(GreedyBalancer, iterations=12).run()
        steady = [COMPONENT_FIELDS[component](record) for record in trace.records[4:]]
        assert trace.mean_component(component, skip=4) == float(np.mean(steady))

    def test_unknown_component(self):
        trace = make_simulator(NoBalancer, iterations=5).run()
        with pytest.raises(ValueError):
            trace.mean_component("gating")

    def test_load_ratio_bounded_below_by_one(self):
        trace = make_simulator(NoBalancer, iterations=5).run()
        assert all(record.load_ratio >= 1.0 for record in trace.records)

    def test_serving_config_validation(self):
        with pytest.raises(ValueError):
            ServingConfig(num_iterations=0)
        with pytest.raises(ValueError):
            BalancingConfig(alpha=-1.0)
        with pytest.raises(ValueError):
            BalancingConfig(shadow_slots=-1)
        # Validation also reaches through the grouped constructor.
        with pytest.raises(ValueError):
            ServingConfig(balancing=BalancingConfig(beta_iters=-1))

    @pytest.mark.parametrize("field", ["beta_iters", "warmup_iters", "shadow_slots"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 1.5, 2.0, -1])
    def test_counts_are_non_negative_integers(self, field, value):
        """A NaN ``beta_iters`` never blocks the cooldown and a NaN
        ``shadow_slots`` silently disables balancing, so every count
        must be a non-negative integer at construction."""
        with pytest.raises(ValueError, match=field):
            BalancingConfig(**{field: value})

    def test_numpy_integer_counts_are_legal(self):
        config = BalancingConfig(
            beta_iters=np.int64(3), warmup_iters=np.int32(0), shadow_slots=np.int64(2)
        )
        assert (config.beta_iters, config.warmup_iters, config.shadow_slots) == (3, 0, 2)

    def test_alpha_rejects_nan(self):
        # NaN would compare False against every imbalance sum and so
        # trigger on every iteration after warmup.
        with pytest.raises(ValueError, match="alpha"):
            BalancingConfig(alpha=float("nan"))

    def test_infinite_alpha_never_triggers(self):
        trace = make_simulator(
            GreedyBalancer, iterations=12, alpha=float("inf"), warmup_iters=0
        ).run()
        assert not any(record.triggered for record in trace.records)
        assert trace.num_migrations() == 0

    def test_balancer_cls_must_be_a_balancer_subclass(self):
        """``object`` and the per-layer reference are not strategies."""
        for balancer_cls in (object, reference.GreedyBalancer):
            with pytest.raises(ValueError, match=f"Balancer subclass.*{balancer_cls.__name__}"):
                make_simulator(balancer_cls, iterations=2)

    def test_strategy_subclass_accepted(self):
        class CustomBalancer(GreedyBalancer):
            pass

        simulator = make_simulator(CustomBalancer, iterations=12)
        assert type(simulator.engine) is CustomBalancer
        custom = simulator.run()
        plain = make_simulator(GreedyBalancer, iterations=12).run()
        assert custom.num_migrations() > 0
        assert [r.latency for r in custom.records] == [r.latency for r in plain.records]

    def test_workload_groups_must_match_the_mapping(self):
        system = build_wsc(QWEN3_235B, side=4, tp=4, mapping="er")
        workload = GatingSimulator(
            QWEN3_235B,
            num_groups=2 * system.mapping.dp,
            tokens_per_group=64,
            mixer=MATH,
            num_layers=2,
            seed=3,
        )
        with pytest.raises(ValueError, match="8 DP groups but the mapping has 4"):
            ServingSimulator(
                system.device, QWEN3_235B, system.mapping, workload, NoBalancer
            )
        assert workload.iteration == 0

    def test_workload_experts_must_match_the_model(self):
        system = build_wsc(QWEN3_235B, side=4, tp=4, mapping="er")
        smaller = replace(QWEN3_235B, name="qwen3-64e", num_experts=64)
        workload = GatingSimulator(
            smaller,
            num_groups=system.mapping.dp,
            tokens_per_group=64,
            mixer=MATH,
            num_layers=2,
            seed=3,
        )
        with pytest.raises(ValueError, match="64 experts but the model has 128"):
            ServingSimulator(
                system.device, QWEN3_235B, system.mapping, workload, NoBalancer
            )


class TestSteadyTail:
    """Regression: _steady must never hand back warmup iterations."""

    def test_skip_beyond_trace_returns_last_record(self):
        trace = make_simulator(NoBalancer, iterations=5).run()
        # Asking for more warmup than the run has must NOT fall back to
        # the full trace (the old behaviour): only the final record — the
        # closest to steady state — may stand in.
        steady = trace._steady(10)
        assert steady == [trace.records[-1]]
        assert trace.mean_latency(skip=10) == trace.records[-1].latency

    def test_skip_equal_to_length_returns_last_record(self):
        trace = make_simulator(NoBalancer, iterations=5).run()
        assert trace._steady(5) == [trace.records[-1]]

    def test_normal_skip_unchanged(self):
        trace = make_simulator(NoBalancer, iterations=5).run()
        assert trace._steady(2) == trace.records[2:]
        assert trace._steady(0) == trace.records


class TestDynamicBatch:
    """step() — the public, per-iteration entry the serving front end
    drives with a continuous-batching batch size."""

    def test_step_default_is_bit_identical_to_run(self):
        trace = make_simulator(NoBalancer, iterations=6).run()
        stepped = make_simulator(NoBalancer, iterations=6)
        records = [stepped.step() for _ in range(6)]
        for ours, ref in zip(records, trace.records):
            assert ours.latency == ref.latency
            assert ours.alltoall_mean == ref.alltoall_mean
            assert ours.max_device_load == ref.max_device_load

    def test_step_tokens_scale_latency(self):
        small = make_simulator(NoBalancer).step(tokens_per_group=8)
        large = make_simulator(NoBalancer).step(tokens_per_group=1024)
        assert small.latency < large.latency
        # Both sides of the iteration scale: attention/all-reduce via the
        # batch override, MoE/all-to-all via the drawn demand.
        assert small.breakdown.allreduce < large.breakdown.allreduce
        assert small.breakdown.moe.total < large.breakdown.moe.total
        assert small.max_device_load < large.max_device_load

    def test_step_rejects_nonpositive_tokens(self):
        simulator = make_simulator(NoBalancer)
        with pytest.raises(ValueError):
            simulator.step(tokens_per_group=0)

    def test_varying_tokens_keep_demand_conserved(self):
        simulator = make_simulator(NoBalancer)
        for tokens in (8, 64, 8, 256):
            record = simulator.step(tokens_per_group=tokens)
            expected = (
                tokens
                * QWEN3_235B.experts_per_token
                * simulator.workload.num_groups
            )
            assert record.mean_device_load * simulator.mapping.topology.num_devices == pytest.approx(expected)

"""Fault injection through the serving loop: zero-cost when disabled,
deterministic when enabled, and repaired within budget."""

import numpy as np
import pytest

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
from repro.faults import DeviceFailure, FaultSchedule, LinkDegradation, Straggler
from repro.models import QWEN3_235B
from repro.systems import build_wsc
from repro.workload import AzureLikeMixer, CHAT, CODING, MATH, PRIVACY, GatingSimulator

ALL_STRATEGIES = [
    NoBalancer,
    GreedyBalancer,
    TopologyAwareBalancer,
    NonInvasiveBalancer,
]


def make_simulator(
    balancer_cls,
    side=4,
    num_layers=4,
    iterations=30,
    seed=11,
    fault_schedule=None,
    shadow_slots=1,
):
    system = build_wsc(QWEN3_235B, side=side, tp=4, mapping="er")
    workload = GatingSimulator(
        QWEN3_235B,
        num_groups=system.mapping.dp,
        tokens_per_group=64,
        mixer=AzureLikeMixer([CHAT, CODING, MATH, PRIVACY], period_iters=30),
        num_layers=num_layers,
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
            num_iterations=iterations,
            balancing=BalancingConfig(shadow_slots=shadow_slots),
        ),
        fault_schedule=fault_schedule,
    )


def fingerprint(record):
    """Every float and counter in one record, for bitwise comparisons."""
    return (
        record.latency,
        record.alltoall_mean,
        record.breakdown.alltoall,
        record.breakdown.allreduce,
        record.breakdown.attention.total,
        record.breakdown.moe.total,
        record.max_device_load,
        record.mean_device_load,
        record.migration_exposed,
        record.migrations_started,
        record.migrations_completed,
        record.faults_active,
        record.experts_orphaned,
        record.repair_migrations,
        record.repair_exposed,
    )


class TestScheduleValidation:
    def test_device_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            make_simulator(
                GreedyBalancer, fault_schedule=FaultSchedule.single_failure(5, 16)
            )

    def test_link_endpoint_out_of_range(self):
        schedule = FaultSchedule([LinkDegradation(5, 0, 99, 0.5)])
        with pytest.raises(ValueError, match="out of range"):
            make_simulator(GreedyBalancer, fault_schedule=schedule)

    def test_nonexistent_link(self):
        # 0 and 5 are mesh diagonals — no physical link between them.
        schedule = FaultSchedule([LinkDegradation(5, 0, 5, 0.5)])
        with pytest.raises(ValueError, match="no link"):
            make_simulator(GreedyBalancer, fault_schedule=schedule)

    def test_rejects_killing_entire_tp_group(self):
        simulator = make_simulator(GreedyBalancer)
        group = list(simulator.mapping.tp_groups[0])
        schedule = FaultSchedule.correlated_failures(5, group)
        with pytest.raises(ValueError, match="entire TP group"):
            make_simulator(GreedyBalancer, fault_schedule=schedule)

    def test_rejects_killing_every_device(self):
        simulator = make_simulator(GreedyBalancer)
        # Sidestep the TP-group check firing first by checking the message.
        schedule = FaultSchedule.correlated_failures(
            5, list(range(simulator.mapping.topology.num_devices))
        )
        with pytest.raises(ValueError):
            make_simulator(GreedyBalancer, fault_schedule=schedule)


class TestZeroCostWhenDisabled:
    def test_empty_schedule_bitwise_identical_to_none(self):
        clean = make_simulator(GreedyBalancer).run()
        empty = make_simulator(
            GreedyBalancer, fault_schedule=FaultSchedule([])
        ).run()
        assert [fingerprint(r) for r in empty.records] == [
            fingerprint(r) for r in clean.records
        ]

    def test_prefix_bitwise_identical_before_first_fault(self):
        """The fault path consumes no RNG, so the trace up to the first
        event is bit-identical to the fault-free run."""
        fault_at = 20
        clean = make_simulator(GreedyBalancer, iterations=30).run()
        faulted = make_simulator(
            GreedyBalancer,
            iterations=30,
            fault_schedule=FaultSchedule.single_failure(fault_at, 5),
        ).run()
        assert [fingerprint(r) for r in faulted.records[:fault_at]] == [
            fingerprint(r) for r in clean.records[:fault_at]
        ]
        assert faulted.records[fault_at].faults_active == 1
        assert faulted.records[fault_at].repair_migrations > 0
        assert faulted.records[fault_at].repair_exposed > 0.0
        assert clean.first_fault_index() is None
        assert faulted.first_fault_index() == fault_at

    def test_clean_trace_metrics_are_nan(self):
        trace = make_simulator(NoBalancer, iterations=10).run()
        assert np.isnan(trace.time_to_recovery())
        assert np.isnan(trace.degraded_throughput_fraction())
        assert trace.num_repairs() == 0
        assert trace.total_repair_exposed() == 0.0


class TestDeterminism:
    @pytest.mark.parametrize("balancer_cls", ALL_STRATEGIES)
    def test_same_seed_same_trace(self, balancer_cls):
        schedule = FaultSchedule(
            [
                DeviceFailure(iteration=12, device=5),
                LinkDegradation(iteration=15, src=0, dst=1, factor=0.2, duration=5),
                Straggler(iteration=18, device=10, factor=2.5, duration=4),
            ]
        )
        a = make_simulator(balancer_cls, fault_schedule=schedule).run()
        b = make_simulator(balancer_cls, fault_schedule=schedule).run()
        assert [fingerprint(r) for r in a.records] == [
            fingerprint(r) for r in b.records
        ]


class TestFailStopRecovery:
    @pytest.mark.parametrize("balancer_cls", [GreedyBalancer, NonInvasiveBalancer])
    def test_64_device_failstop_fully_repaired(self, balancer_cls):
        """One tile dies at iteration 25 of a 64-device run: every orphan
        is re-replicated the same iteration, the dead device drops out of
        every layer, and the load ratio recovers within the gated budget."""
        fault_at = 25
        simulator = make_simulator(
            balancer_cls,
            side=8,
            iterations=50,
            fault_schedule=FaultSchedule.single_failure(fault_at, 27),
        )
        trace = simulator.run()
        assert all(r.experts_orphaned == 0 for r in trace.records)
        assert trace.records[fault_at].repair_migrations > 0
        layers, experts = simulator.engine.placement.orphaned()
        assert layers.size == 0 and experts.size == 0
        placement = simulator.engine.placement
        assert 27 in placement.dead_devices
        assert 27 not in placement.replica_entries().device
        recovery = trace.time_to_recovery(epsilon=0.1)
        assert np.isfinite(recovery)
        assert recovery <= 15

    def test_dead_device_attention_redistributes(self):
        """Losing one member of a tp=4 group scales attention by 4/3."""
        fault_at = 10
        clean = make_simulator(NoBalancer, iterations=15).run()
        faulted = make_simulator(
            NoBalancer,
            iterations=15,
            fault_schedule=FaultSchedule.single_failure(fault_at, 5),
        ).run()
        before = clean.records[fault_at].breakdown.attention.total
        after = faulted.records[fault_at].breakdown.attention.total
        assert after == pytest.approx(before * 4.0 / 3.0)

    def test_correlated_failures_repaired(self):
        """A whole mesh row dies at once.  Losing 4 of 16 devices orphans
        32 experts per layer, so the default single shadow slot cannot
        absorb them — with 4 slots per survivor the repair completes."""
        schedule = FaultSchedule.correlated_failures(10, [4, 5, 6, 7])
        simulator = make_simulator(
            GreedyBalancer, iterations=25, shadow_slots=4, fault_schedule=schedule
        )
        trace = simulator.run()
        assert trace.records[10].faults_active == 4
        assert trace.num_repairs() > 0
        layers, _ = simulator.engine.placement.orphaned()
        assert layers.size == 0
        assert trace.records[-1].experts_orphaned == 0

    def test_capacity_exhaustion_reports_orphans(self):
        """With a single shadow slot the same rack loss cannot be fully
        repaired; the trace reports the honest orphan count instead of
        silently pretending recovery."""
        schedule = FaultSchedule.correlated_failures(10, [4, 5, 6, 7])
        trace = make_simulator(
            GreedyBalancer, iterations=15, fault_schedule=schedule
        ).run()
        assert trace.records[10].experts_orphaned > 0
        assert trace.time_to_recovery() == float("inf")


class TestTransientFaults:
    def test_straggler_window_raises_then_restores(self):
        """Compute latency rises for the window and returns bitwise to the
        fault-free trace once the window expires."""
        schedule = FaultSchedule([Straggler(10, device=5, factor=4.0, duration=5)])
        clean = make_simulator(NoBalancer, iterations=20).run()
        faulted = make_simulator(
            NoBalancer, iterations=20, fault_schedule=schedule
        ).run()
        for index in range(10, 15):
            assert faulted.records[index].latency > clean.records[index].latency
            assert faulted.records[index].faults_active == 1
        # After expiry the health record is clean and every cached price
        # recomputes to the pristine value.
        assert [fingerprint(r) for r in faulted.records[15:]] == [
            fingerprint(r) for r in clean.records[15:]
        ]

    def test_link_degradation_prices_alltoall_higher(self):
        schedule = FaultSchedule(
            [LinkDegradation(5, src=0, dst=1, factor=0.05, duration=4)]
        )
        clean = make_simulator(NoBalancer, iterations=15).run()
        faulted = make_simulator(
            NoBalancer, iterations=15, fault_schedule=schedule
        ).run()
        for index in range(5, 9):
            assert (
                faulted.records[index].breakdown.alltoall
                > clean.records[index].breakdown.alltoall
            )
        assert [fingerprint(r) for r in faulted.records[9:]] == [
            fingerprint(r) for r in clean.records[9:]
        ]

    def test_permanent_link_loss_never_restores(self):
        schedule = FaultSchedule([LinkDegradation.link_loss(5, src=0, dst=1)])
        faulted = make_simulator(NoBalancer, iterations=10, fault_schedule=schedule)
        trace = faulted.run()
        assert all(r.faults_active == 1 for r in trace.records[5:])

    def test_straggler_on_dead_device_ignored(self):
        schedule = FaultSchedule(
            [
                DeviceFailure(iteration=8, device=5),
                Straggler(iteration=10, device=5, factor=3.0, duration=4),
            ]
        )
        trace = make_simulator(
            GreedyBalancer, iterations=15, fault_schedule=schedule
        ).run()
        # The straggler lands on a corpse: only the failure stays active.
        assert all(r.faults_active == 1 for r in trace.records[10:])


class TestRecoveryMetrics:
    def test_degraded_throughput_fraction_positive_after_failure(self):
        trace = make_simulator(
            GreedyBalancer,
            iterations=30,
            fault_schedule=FaultSchedule.single_failure(20, 5),
        ).run()
        fraction = trace.degraded_throughput_fraction()
        assert 0.0 <= fraction < 1.0
        assert fraction > 0.0

    def test_repair_accounting_sums(self):
        trace = make_simulator(
            GreedyBalancer,
            iterations=30,
            fault_schedule=FaultSchedule.single_failure(20, 5),
        ).run()
        assert trace.num_repairs() == sum(r.repair_migrations for r in trace.records)
        assert trace.total_repair_exposed() == sum(
            r.repair_exposed for r in trace.records
        )
        assert trace.records[20].latency > trace.records[19].latency


class TestHealthIntrospection:
    """Public fault-health accessors the serving dispatcher consumes."""

    def test_clean_run_reports_full_health(self):
        simulator = make_simulator(GreedyBalancer, iterations=5)
        simulator.run()
        assert simulator.dead_devices() == frozenset()
        assert simulator.straggling_devices() == frozenset()
        assert all(simulator.group_health())

    def test_failure_marks_device_and_group(self):
        simulator = make_simulator(
            GreedyBalancer,
            iterations=10,
            fault_schedule=FaultSchedule.single_failure(5, 3),
        )
        simulator.run()
        assert simulator.dead_devices() == frozenset({3})
        health = simulator.group_health()
        groups = simulator.mapping.tp_groups
        for index, group in enumerate(groups):
            assert health[index] == (3 not in group)
        assert sum(health) == len(groups) - 1

    def test_straggler_window_blacklists_then_reinstates(self):
        schedule = FaultSchedule(
            [Straggler(iteration=3, device=2, factor=3.0, duration=4)]
        )
        simulator = make_simulator(
            GreedyBalancer, iterations=30, fault_schedule=schedule
        )
        seen_active = False
        for _ in range(12):
            simulator.step()
            if 2 in simulator.straggling_devices():
                seen_active = True
        assert seen_active
        # Window [3, 7) long expired: the device is reinstated.
        assert simulator.straggling_devices() == frozenset()
        assert simulator.dead_devices() == frozenset()
        assert all(simulator.group_health())

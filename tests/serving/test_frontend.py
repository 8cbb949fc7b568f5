"""End-to-end tests for the open-loop serving front end.

These pin the satellite invariants: fixed seed => identical trace,
request conservation (arrived == completed + rejected + unfinished, with
no request both served and rejected), admission-control shedding, and
fault-driven blacklist/recovery of replica backends.
"""

from dataclasses import replace

import pytest

from repro.balancer import NonInvasiveBalancer
from repro.engine import EngineConfig, ServingConfig, ServingSimulator
from repro.faults import FaultSchedule, Straggler
from repro.models import QWEN3_235B
from repro.serving import FrontendConfig, ReplicaDispatcher, ServingFrontend
from repro.serving import frontend as frontend_module
from repro.systems import build_wsc
from repro.workload import GatingSimulator, MATH
from repro.workload.arrivals import MMPPArrivals, PoissonArrivals

MODEL = replace(QWEN3_235B, name="qwen3-16e", num_experts=16)


def make_frontend(
    rate=300.0,
    num_requests=48,
    fault_schedule=None,
    arrival_seed=7,
    arrivals=None,
    **config_kwargs,
):
    system = build_wsc(MODEL, side=4, tp=4, mapping="er")
    workload = GatingSimulator(
        MODEL,
        num_groups=system.mapping.dp,
        tokens_per_group=32,
        mixer=MATH,
        num_layers=2,
        seed=3,
    )
    simulator = ServingSimulator(
        system.device,
        MODEL,
        system.mapping,
        workload,
        NonInvasiveBalancer,
        engine_config=EngineConfig(tokens_per_group=32),
        serving_config=ServingConfig(num_iterations=30),
        fault_schedule=fault_schedule,
    )
    if arrivals is None:
        arrivals = PoissonArrivals(rate=rate, seed=arrival_seed)
    config = FrontendConfig(num_requests=num_requests, seed=1, **config_kwargs)
    return ServingFrontend(simulator, arrivals, config)


@pytest.fixture
def dispatchers(monkeypatch):
    """Every dispatcher the front end builds, for end-of-run checks."""
    built = []

    class RecordingDispatcher(ReplicaDispatcher):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(frontend_module, "ReplicaDispatcher", RecordingDispatcher)
    return built


def assert_live_backends_empty(dispatcher):
    """Every served request drained exactly its dispatch charge."""
    live = dispatcher.live_backends()
    assert live
    assert [dispatcher.backends[backend].queue_tokens for backend in live] == [
        0.0
    ] * len(live)


def request_fingerprint(trace):
    return [
        (
            r.request_id,
            r.arrival_s,
            r.prefill_tokens,
            r.decode_tokens,
            r.admitted_s,
            r.first_token_s,
            r.completed_s,
            r.backend,
            r.rejected,
            r.redispatches,
        )
        for r in trace.requests
    ]


class TestDeterminism:
    def test_same_seed_same_trace(self):
        first = make_frontend().run()
        second = make_frontend().run()
        # Bitwise-identical request logs and iteration latency streams.
        assert request_fingerprint(first) == request_fingerprint(second)
        assert [r.latency for r in first.iteration_records] == [
            r.latency for r in second.iteration_records
        ]
        assert first.elapsed_s == second.elapsed_s
        assert first.idle_s == second.idle_s

    def test_different_arrival_seed_changes_the_trace(self):
        first = make_frontend(arrival_seed=7).run()
        second = make_frontend(arrival_seed=8).run()
        assert request_fingerprint(first) != request_fingerprint(second)


class TestConservation:
    def test_drained_run_completes_everything(self):
        trace = make_frontend().run()
        summary = trace.summary()
        assert summary.arrived == 48
        assert summary.unfinished == 0
        assert summary.completed + summary.rejected == summary.arrived

    def test_no_request_both_served_and_rejected(self):
        trace = make_frontend(
            rate=5000.0, num_requests=96, max_queue_requests=4
        ).run()
        assert not any(r.completed and r.rejected for r in trace.requests)
        # summarize() enforces the same invariant internally.
        summary = trace.summary()
        assert summary.completed + summary.rejected == summary.arrived

    def test_rejected_requests_are_never_served(self):
        trace = make_frontend(
            rate=5000.0, num_requests=96, max_queue_requests=4
        ).run()
        rejected = [r for r in trace.requests if r.rejected]
        assert rejected  # the overload scenario must actually shed
        for request in rejected:
            assert request.admitted_s is None
            assert request.first_token_s is None
            assert request.completed_s is None
            assert request.backend is None

    def test_clock_is_iteration_latencies_plus_idle(self):
        trace = make_frontend().run()
        simulated = sum(r.latency for r in trace.iteration_records)
        assert trace.elapsed_s == pytest.approx(simulated + trace.idle_s)

    def test_completed_metrics_are_ordered(self):
        trace = make_frontend().run()
        for request in trace.requests:
            if request.completed:
                assert request.arrival_s <= request.first_token_s
                assert request.first_token_s <= request.completed_s
                assert request.ttft_s >= 0.0
                assert request.tpot_s >= 0.0


class TestAdmissionControl:
    def test_queue_depth_shedding_under_overload(self):
        open_door = make_frontend(rate=5000.0, num_requests=96).run().summary()
        shed = (
            make_frontend(rate=5000.0, num_requests=96, max_queue_requests=4)
            .run()
            .summary()
        )
        assert shed.rejected > open_door.rejected
        assert shed.completed < open_door.completed

    def test_deadline_shedding_bounds_the_served_tail(self):
        deadline = 0.01
        unshed = make_frontend(rate=5000.0, num_requests=96).run()
        shed = make_frontend(
            rate=5000.0, num_requests=96, ttft_deadline_s=deadline
        ).run()
        assert shed.summary().rejected > 0
        # Shedding exists to keep the *served* tail inside the SLO.
        assert shed.summary().ttft_p99_s < unshed.summary().ttft_p99_s

    def test_light_load_accumulates_idle_time(self):
        trace = make_frontend(rate=20.0, num_requests=16).run()
        assert trace.idle_s > 0.0
        assert trace.summary().rejected == 0

    @pytest.mark.parametrize("rate", [50.0, 200.0])
    def test_deadline_config_drains_with_requests_conserved(
        self, rate, dispatchers
    ):
        """Deadline shedding reads the dispatcher's expected wait, so
        served requests must leave no work behind on their backend: a
        residue makes idle backends look busy, every later arrival is
        shed, and the run used to end in an IndexError."""
        trace = make_frontend(
            rate=rate, num_requests=96, ttft_deadline_s=0.005
        ).run()
        summary = trace.summary()
        assert summary.arrived == 96
        assert summary.unfinished == 0
        assert summary.completed + summary.rejected == summary.arrived
        assert summary.completed > summary.rejected
        assert_live_backends_empty(dispatchers[0])

    def test_deadline_config_drains_under_bursty_arrivals(self, dispatchers):
        """Flash crowds shed at the deadline, then calm periods must find
        the backends empty again and serve."""
        arrivals = MMPPArrivals(rates=(50.0, 3000.0), mean_sojourn_s=0.02, seed=7)
        trace = make_frontend(
            num_requests=96, arrivals=arrivals, ttft_deadline_s=0.005
        ).run()
        summary = trace.summary()
        assert summary.arrived == 96
        assert summary.unfinished == 0
        assert summary.completed + summary.rejected == summary.arrived
        assert summary.completed > 0
        assert summary.rejected > 0
        assert_live_backends_empty(dispatchers[0])


class TestFaultRecovery:
    def test_straggler_blacklists_then_reinstates(self):
        schedule = FaultSchedule(
            [Straggler(iteration=10, device=2, factor=4.0, duration=20)]
        )
        trace = make_frontend(num_requests=60, fault_schedule=schedule).run()
        assert trace.event_count("blacklist") >= 1
        assert trace.event_count("reinstate") >= 1
        blacklists = [e for e in trace.events if e.kind == "blacklist"]
        reinstates = [e for e in trace.events if e.kind == "reinstate"]
        # The same backend recovers, after it was blacklisted.
        assert blacklists[0].backend == reinstates[0].backend
        assert blacklists[0].time_s < reinstates[0].time_s
        # Degraded operation, not an outage: everything still completes.
        assert trace.summary().unfinished == 0

    def test_device_failure_drops_backend_and_redispatches(self):
        schedule = FaultSchedule.single_failure(15, 5)
        trace = make_frontend(num_requests=60, fault_schedule=schedule).run()
        drops = [e for e in trace.events if e.kind == "drop"]
        assert len(drops) == 1
        dead_backend = drops[0].backend
        redispatched = [r for r in trace.requests if r.redispatches > 0]
        assert redispatched  # the dead group had in-flight work
        for request in redispatched:
            assert request.completed
            assert request.backend != dead_backend
        # Nothing lands on the dead backend after the drop.
        for request in trace.requests:
            if request.completed and request.backend == dead_backend:
                assert request.completed_s <= drops[0].time_s
        assert trace.summary().unfinished == 0

    @pytest.mark.parametrize("fault", ["straggler", "device_failure"])
    def test_live_backends_drain_to_zero(self, fault, dispatchers):
        """Blacklisting, reinstating and re-dispatching keep each charge
        equal to its drain: every surviving backend ends the run empty."""
        if fault == "straggler":
            schedule = FaultSchedule(
                [Straggler(iteration=10, device=2, factor=4.0, duration=20)]
            )
        else:
            schedule = FaultSchedule.single_failure(15, 5)
        trace = make_frontend(num_requests=60, fault_schedule=schedule).run()
        assert trace.summary().unfinished == 0
        if fault == "device_failure":
            assert any(request.redispatches for request in trace.requests)
        assert_live_backends_empty(dispatchers[0])

    def test_total_outage_rejects_the_remainder(self):
        system = build_wsc(MODEL, side=4, tp=4, mapping="er")
        # Kill one device in every DP group: no replica survives.
        victims = [group[0] for group in system.mapping.tp_groups]
        schedule = FaultSchedule.correlated_failures(8, victims)
        trace = make_frontend(num_requests=60, fault_schedule=schedule).run()
        summary = trace.summary()
        assert summary.unfinished == 0
        assert summary.rejected > 0
        assert summary.completed + summary.rejected == summary.arrived


class TestConfigValidation:
    def test_bad_ranges_rejected(self):
        with pytest.raises(ValueError, match="num_requests"):
            FrontendConfig(num_requests=0)
        with pytest.raises(ValueError, match="prefill_tokens"):
            FrontendConfig(prefill_tokens=(0, 4))
        with pytest.raises(ValueError, match="decode_tokens"):
            FrontendConfig(decode_tokens=(8, 4))
        with pytest.raises(ValueError, match="max_queue_requests"):
            FrontendConfig(max_queue_requests=0)
        with pytest.raises(ValueError, match="ttft_deadline_s"):
            FrontendConfig(ttft_deadline_s=0.0)
        with pytest.raises(ValueError, match="max_requests_per_backend"):
            FrontendConfig(max_requests_per_backend=0)
        with pytest.raises(ValueError, match="max_iterations"):
            FrontendConfig(max_iterations=0)

    def test_max_iterations_guard_fires(self):
        frontend = make_frontend(max_iterations=5)
        with pytest.raises(RuntimeError, match="max_iterations"):
            frontend.run()

"""The benchmark's three workloads and one measured pass of each.

Every workload drives only the default production path through the
public API: a system from :mod:`repro.systems`, a
:class:`~repro.engine.ServingSimulator` with default configs, and for the
open loop a :class:`~repro.serving.ServingFrontend`.  A pass builds the
system from the seed, runs it, checks every output, and digests the
simulated trace; the same seed gives the same digest on every pass.
"""

import hashlib
import math
import time
from contextlib import ExitStack
from dataclasses import dataclass, field, replace

import numpy as np

from perfbench import tracing
from repro.balancer import GreedyBalancer, NonInvasiveBalancer
from repro.engine import ServingSimulator
from repro.faults import DeviceFailure, FaultSchedule, LinkDegradation, Straggler, health_version
from repro.models import QWEN3_235B
from repro.serving import FrontendConfig, ServingFrontend, summarize
from repro.systems import build_multi_wsc, build_wsc
from repro.workload import CHAT, CODING, MATH, PRIVACY, AzureLikeMixer, GatingSimulator, MMPPArrivals


@dataclass(frozen=True)
class System:
    """Hardware, model size and balancer of a workload."""

    wafers: int
    side: int
    tp: int
    num_experts: int
    layers: int
    balancer: type
    tokens_per_group: int


@dataclass(frozen=True)
class ClosedLoop:
    """Fixed batch every iteration; one pass is setup plus ``iterations`` steps."""

    name: str
    why: str
    system: System
    iterations: int
    #: Leading records left out of the simulated means (gating warm-up).
    sim_warmup: int


@dataclass(frozen=True)
class OpenLoop:
    """Open-loop requests through the front end; one pass drains them all."""

    name: str
    why: str
    system: System
    num_requests: int
    #: MMPP calm/burst rates (req/s) and mean sojourn per state.
    rates: tuple[float, float]
    mean_sojourn_s: float
    ttft_deadline_s: float
    faults: tuple
    sim_warmup: int
    max_queue_requests: int = 32
    max_requests_per_backend: int = 4


WORKLOADS = {
    workload.name: workload
    for workload in (
        ClosedLoop(
            name="wafer64_ni_closed",
            why="8x8 ER wafer, 58 layers, NI-Balancer, fixed batch: gating, "
            "balancer planning and draining, and layer-0 network simulation "
            "share the host time; trigger iterations make the tail",
            system=System(1, 8, 4, 64, 58, NonInvasiveBalancer, 128),
            iterations=300,
            sim_warmup=50,
        ),
        ClosedLoop(
            name="multiwafer1024_greedy_closed",
            why="4x(16x16) HER, 256 experts, greedy: sparse all-to-all "
            "pricing and the lazy route and pricer build dominate, with "
            "~1.6 GiB peak RSS; one invasive trigger per pass",
            system=System(4, 16, 16, 256, 58, GreedyBalancer, 128),
            # The fifth timed step is the first greedy trigger; a sixth keeps
            # the median off the trigger and the first timed step.
            iterations=6,
            sim_warmup=1,
        ),
        OpenLoop(
            name="wafer64_open_faults",
            why="front end on the 8x8 wafer: batch size changes every "
            "iteration and a straggler, a link degradation and a fail-stop "
            "bump the health version, so caches miss",
            system=System(1, 8, 4, 64, 4, NonInvasiveBalancer, 64),
            num_requests=4096,
            # Long-run mean 800 req/s, near the faulted wafer's capacity.
            rates=(200.0, 1400.0),
            mean_sojourn_s=0.02,
            ttft_deadline_s=0.05,
            # Every seed runs > 1300 iterations, so all three land and the
            # tail rule picks p99 (>= 1000 samples) on every seed.
            faults=(
                Straggler(iteration=40, device=27, factor=4.0, duration=40),
                LinkDegradation(iteration=100, src=18, dst=19, factor=0.25, duration=60),
                DeviceFailure(iteration=160, device=45),
            ),
            sim_warmup=50,
        ),
    )
}


def seeds(seed: int) -> dict[str, int]:
    """Independent sub-seeds for every random input of a pass."""
    state = np.random.SeedSequence(seed).generate_state(4)
    return dict(zip(("gating", "mixer", "arrivals", "shapes"), (int(s) for s in state)))


def _simulator(workload, sub: dict[str, int], faults=None) -> ServingSimulator:
    spec = workload.system
    model = replace(
        QWEN3_235B, name=f"qwen3-{spec.num_experts}e", num_experts=spec.num_experts
    )
    if spec.wafers > 1:
        system = build_multi_wsc(model, spec.wafers, spec.side, tp=spec.tp)
    else:
        system = build_wsc(model, side=spec.side, tp=spec.tp)
    gating = GatingSimulator(
        model,
        num_groups=system.mapping.dp,
        tokens_per_group=spec.tokens_per_group,
        mixer=AzureLikeMixer(
            [CHAT, CODING, MATH, PRIVACY], period_iters=60, seed=sub["mixer"]
        ),
        num_layers=spec.layers,
        seed=sub["gating"],
    )
    return ServingSimulator(
        system.device, model, system.mapping, gating, spec.balancer, fault_schedule=faults
    )


@dataclass
class PassResult:
    """What one pass measured (host) and produced (simulated)."""

    setup_s: float
    #: Host seconds of every timed iteration (setup step excluded).
    walls: list[float]
    records: list
    digest: str
    checked: int
    problems: list[str]
    traced: bool
    #: Host clock at the end of the setup step; spans after it are timed.
    timed_from: float = 0.0
    host_run_s: float = 0.0
    requests: list = field(default_factory=list)
    events: list = field(default_factory=list)
    elapsed_s: float = 0.0
    batch_tokens: list[int] = field(default_factory=list)
    layers: dict = field(default_factory=dict)


def run_pass(workload, seed: int, recorder: tracing.Recorder | None = None) -> PassResult:
    """One measured pass; ``recorder`` turns tracing on for it."""
    with ExitStack() as stack:
        if recorder is not None:
            stack.enter_context(tracing.global_hooks(recorder))
        if isinstance(workload, OpenLoop):
            result = _open_pass(workload, seed, recorder, stack)
        else:
            result = _closed_pass(workload, seed, recorder, stack)
    return result


def _closed_pass(workload: ClosedLoop, seed, recorder, stack) -> PassResult:
    clock = time.perf_counter
    start = clock()
    simulator = _simulator(workload, seeds(seed))
    if recorder is not None:
        tracing.instance_hooks(recorder, simulator, stack)
    records = [simulator.step()]
    timed_from = clock()
    walls = []
    for _ in range(workload.iterations):
        begin = clock()
        records.append(simulator.step())
        walls.append(clock() - begin)
    problems = check_records(records, simulator.model.num_sparse_layers)
    result = PassResult(
        setup_s=timed_from - start,
        walls=walls,
        records=records,
        digest=digest(records),
        checked=len(records),
        problems=problems,
        traced=recorder is not None,
        timed_from=timed_from,
    )
    if recorder is not None:
        result.layers = _pass_layers(recorder, simulator)
    return result


def _open_pass(workload: OpenLoop, seed, recorder, stack) -> PassResult:
    clock = time.perf_counter
    sub = seeds(seed)
    start = clock()
    simulator = _simulator(workload, sub, FaultSchedule(list(workload.faults)))
    frontend = ServingFrontend(
        simulator,
        MMPPArrivals(
            rates=workload.rates,
            mean_sojourn_s=workload.mean_sojourn_s,
            seed=sub["arrivals"],
        ),
        FrontendConfig(
            num_requests=workload.num_requests,
            seed=sub["shapes"],
            max_queue_requests=workload.max_queue_requests,
            max_requests_per_backend=workload.max_requests_per_backend,
        ),
    )
    if recorder is not None:
        tracing.instance_hooks(recorder, simulator, stack)
        tracing.hook(recorder, stack, frontend, "run", "serving.run")
    build_s = clock() - start

    # The benchmark's own clock on every step: an iteration's host time is
    # the gap between consecutive step completions, front-end work included.
    step_ends: list[float] = []
    batch_tokens: list[int] = []
    inner_step = simulator.step

    def timed_step(tokens_per_group=None):
        record = inner_step(tokens_per_group=tokens_per_group)
        step_ends.append(clock())
        batch_tokens.append(tokens_per_group)
        return record

    tracing.patch(stack, simulator, "step", timed_step)
    run_start = clock()
    trace = frontend.run()
    run_end = clock()

    records = trace.iteration_records
    problems = check_records(records, simulator.model.num_sparse_layers)
    problems += check_requests(trace.requests, workload.num_requests)
    result = PassResult(
        setup_s=build_s + step_ends[0] - run_start,
        walls=list(np.diff(step_ends)),
        records=records,
        digest=digest(records, trace.requests, trace.events),
        checked=len(records) + len(trace.requests),
        problems=problems,
        traced=recorder is not None,
        timed_from=step_ends[0],
        host_run_s=run_end - run_start,
        requests=trace.requests,
        events=trace.events,
        elapsed_s=trace.elapsed_s,
        batch_tokens=batch_tokens,
    )
    if recorder is not None:
        result.layers = _pass_layers(recorder, simulator)
    return result


def _pricer_nbytes(pricer) -> int:
    peak = getattr(pricer, "peak_operator_nbytes", None)
    if peak is not None:
        return int(peak)
    total = 0
    for value in vars(pricer).values():
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif hasattr(value, "indptr"):  # scipy sparse
            total += value.data.nbytes + value.indices.nbytes + value.indptr.nbytes
    return total


def _pass_layers(recorder: tracing.Recorder, simulator) -> dict:
    """Per-pass values that must be read while the hooks hold references."""
    return {
        "pricer_peak_bytes": max(
            (_pricer_nbytes(pricer) for pricer in recorder.pricers), default=0
        ),
        "health_version": health_version(simulator.mapping.topology),
        "invasive": simulator.invasive,
    }


# -- correctness ---------------------------------------------------------------


def record_values(record) -> tuple:
    """The simulated quantities of one iteration, in digest order."""
    breakdown = record.breakdown
    return (
        record.iteration,
        record.latency,
        breakdown.attention.compute,
        breakdown.attention.memory,
        breakdown.allreduce,
        breakdown.dispatch,
        breakdown.combine,
        breakdown.moe.compute,
        breakdown.moe.memory,
        record.alltoall_mean,
        record.max_device_load,
        record.mean_device_load,
        record.migration_exposed,
        record.migrations_started,
        record.migrations_completed,
        record.triggered,
        record.faults_active,
        record.experts_orphaned,
        record.repair_migrations,
        record.repair_exposed,
    )


def check_records(records, num_sparse_layers: int) -> list[str]:
    """Every value finite and non-negative; latency covers its parts.

    An iteration's latency is the depth-scaled mean layer time plus the
    exposed migration and repair stalls, and every layer spends at least
    the attention phase, so latency >= depth * attention phase + stalls.
    """
    problems = []
    for record in records:
        values = record_values(record)
        if not all(math.isfinite(v) and v >= 0 for v in values):
            problems.append(f"iteration {record.iteration}: non-finite or negative value")
            continue
        floor = (
            num_sparse_layers * record.breakdown.attention_phase
            + record.migration_exposed
            + record.repair_exposed
        )
        if not record.latency > 0 or record.latency < floor * (1 - 1e-12):
            problems.append(
                f"iteration {record.iteration}: latency {record.latency} below "
                f"its components {floor}"
            )
    return problems


def check_requests(requests, num_requests: int) -> list[str]:
    """Request conservation and per-request timestamp order."""
    problems = []
    completed = rejected = unfinished = 0
    for request in requests:
        if request.rejected:
            rejected += 1
            ok = request.first_token_s is None and request.completed_s is None
        elif request.completed:
            completed += 1
            ok = (
                request.first_token_s is not None
                and request.arrival_s <= request.first_token_s <= request.completed_s
            )
        else:
            unfinished += 1
            ok = True
        if not ok:
            problems.append(f"request {request.request_id}: inconsistent timestamps")
    if len(requests) != num_requests:
        problems.append(f"{len(requests)} requests arrived, {num_requests} offered")
    summary = summarize(requests, 1.0)
    if (summary.arrived, summary.completed, summary.rejected, summary.unfinished) != (
        len(requests),
        completed,
        rejected,
        unfinished,
    ) or completed + rejected + unfinished != len(requests):
        problems.append("arrived != completed + rejected + unfinished")
    return problems


def digest(records, requests=(), events=()) -> str:
    """SHA-256 over the simulated trace (exact float reprs)."""
    sha = hashlib.sha256()
    for record in records:
        sha.update(repr(record_values(record)).encode())
    for request in requests:
        sha.update(
            repr(
                (
                    request.request_id,
                    request.arrival_s,
                    request.prefill_tokens,
                    request.decode_tokens,
                    request.first_token_s,
                    request.completed_s,
                    request.backend,
                    request.rejected,
                    request.redispatches,
                )
            ).encode()
        )
    for event in events:
        sha.update(repr((event.time_s, event.backend, event.kind)).encode())
    return sha.hexdigest()

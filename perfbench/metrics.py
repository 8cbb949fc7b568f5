"""Metric names, units and their derivation from measured passes.

Host metrics are in host time, every ``sim`` metric in simulated time.
End-to-end metrics come from untraced passes only; layer metrics come
from traced passes and are ``None`` (reported as missing) when a hook
they rest on found nothing to wrap.
"""

import numpy as np

from perfbench import stats
from perfbench.workloads import OpenLoop
from repro.serving import summarize

END_TO_END = {
    "setup_s": "s",
    "iters_per_s": "1/s",
    "iter_wall_p50_ms": "ms",
    "iter_wall_tail_ms": "ms",
    "peak_rss_mib": "MiB",
    "sim_iter_latency_ms": "ms",
}

#: Open-loop request metrics.  Every end-to-end metric must exist on every
#: workload, so these ride with the layer metrics (0 on closed loops).
REQUESTS = {
    "serving.host_ms_per_request": "ms/req",
    "serving.sim_ttft_p50_ms": "ms",
    "serving.sim_ttft_p99_ms": "ms",
    "serving.sim_goodput_rps": "1/s",
    "serving.sim_shed_frac": "ratio",
}

PER_LAYER = {
    "workload.gating_ms": "ms/iter",
    "workload.cells_per_s": "1/s",
    "balancer.observe_ms": "ms/iter",
    "balancer.plan_ms": "ms/iter",
    "balancer.commit_ms": "ms/iter",
    "balancer.split_ms": "ms/iter",
    "balancer.route_ms": "ms/iter",
    "balancer.drain_ms": "ms/iter",
    "balancer.triggers": "count/pass",
    "balancer.migrations_started": "count/pass",
    "balancer.migrations_completed": "count/pass",
    "balancer.migration_completion_ratio": "ratio",
    "balancer.trigger_iter_frac": "ratio",
    "engine.step_ms": "ms/iter",
    "engine.step_self_ms": "ms/iter",
    "engine.layer0_ms": "ms/iter",
    "engine.roofline_ms": "ms/iter",
    "network.alltoall_layer0_ms": "ms/iter",
    "network.allreduce_ms": "ms/iter",
    "network.allreduce_cache_hit_ratio": "ratio",
    "network.plan_ms": "ms/iter",
    "network.plan_reuse_ratio": "ratio",
    "network.layered_price_ms": "ms/iter",
    "network.pricer_build_ms": "ms/pass",
    "network.pricer_peak_mib": "MiB",
    "topology.route_calls": "count/pass",
    "topology.route_ms": "ms/pass",
    "faults.health_version_bumps": "count/pass",
    "faults.repair_ms": "ms/iter",
    "faults.active_iter_frac": "ratio",
    **REQUESTS,
    "serving.frontend_self_ms_per_request": "ms/req",
    "serving.dispatch_us": "us/call",
    "serving.batch_tokens_mean": "tokens",
    "serving.blacklist_events": "count/pass",
    "serving.redispatches": "count/pass",
    "sim.attention_ms": "ms",
    "sim.allreduce_ms": "ms",
    "sim.alltoall_ms": "ms",
    "sim.moe_ms": "ms",
    "sim.migration_exposed_ms": "ms",
    "sim.repair_exposed_ms": "ms",
    "sim.load_ratio": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.spans": "count/pass",
}


def replay_walls(passes, traced: bool = False) -> np.ndarray:
    """Host seconds per iteration: the fastest replay of that iteration.

    Every pass of a run replays the same seed, so iteration ``i`` does the
    same work in each; machine noise only ever adds time to it.
    """
    walls = [result.walls for result in passes if result.traced == traced]
    size = min(len(w) for w in walls)
    return np.min([w[:size] for w in walls], axis=0)


def iters_per_s(passes, traced: bool = False) -> float:
    walls = replay_walls(passes, traced)
    return walls.size / walls.sum()


def end_to_end(passes, workload, peak_rss_mib: float) -> tuple[dict, dict]:
    """(metric values, notes) over the untraced passes."""
    untraced = [result for result in passes if not result.traced]
    walls = replay_walls(passes)
    tail, label = stats.tail(walls)
    steady = passes[0].records[workload.sim_warmup :]
    values = {
        "setup_s": stats.median([result.setup_s for result in untraced]),
        "iters_per_s": walls.size / walls.sum(),
        "iter_wall_p50_ms": stats.median(walls) * 1e3,
        "iter_wall_tail_ms": tail * 1e3,
        "peak_rss_mib": peak_rss_mib,
        "sim_iter_latency_ms": float(np.mean([r.latency for r in steady])) * 1e3,
    }
    replays = f"{walls.size} iterations, fastest of {len(untraced)} replays each"
    notes = {
        "setup_s": f"median of {len(untraced)} setups",
        "iters_per_s": replays,
        "iter_wall_p50_ms": replays,
        "iter_wall_tail_ms": f"{label} of {replays}",
        "sim_iter_latency_ms": f"mean of {len(steady)} iterations after warm-up",
    }
    return values, notes


def requests(passes, workload) -> dict:
    """Request-level metrics of the open loop; zeros on a closed loop."""
    if not isinstance(workload, OpenLoop):
        return dict.fromkeys(REQUESTS, 0.0)
    first = passes[0]
    summary = summarize(first.requests, first.elapsed_s, workload.ttft_deadline_s)
    host_s = min(r.host_run_s for r in passes if not r.traced)
    return {
        "serving.host_ms_per_request": host_s / workload.num_requests * 1e3,
        "serving.sim_ttft_p50_ms": summary.ttft_p50_s * 1e3,
        "serving.sim_ttft_p99_ms": summary.ttft_p99_s * 1e3,
        "serving.sim_goodput_rps": summary.goodput_rps,
        "serving.sim_shed_frac": summary.rejected / summary.arrived,
    }


def per_layer(result, recorder, workload, overhead: float) -> dict:
    """Every non-request layer metric of one traced pass."""
    timed = recorder.table(since=result.timed_from)
    whole = recorder.table()
    iterations = len(result.walls)

    def hooked(*names) -> bool:
        return all(recorder.installed.get(name) for name in names)

    def per_iter(name, self_time=False):
        if not hooked(name):
            return None
        _, total, own = timed.get(name, (0, 0.0, 0.0))
        return (own if self_time else total) * 1e3 / iterations

    def calls(name) -> int:
        return whole.get(name, (0, 0.0, 0.0))[0]

    def total(name) -> float:
        return whole.get(name, (0, 0.0, 0.0))[1]

    def ratio(numerator, denominator, empty=1.0):
        return numerator / denominator if denominator else empty

    records = result.records
    steady = records[workload.sim_warmup :]
    triggers = sum(r.triggered for r in records)
    started = sum(r.migrations_started for r in records)
    # Invasive migrations commit on the spot; only drained ones are recorded.
    completed = started if result.layers["invasive"] else sum(
        r.migrations_completed for r in records
    )
    values = {
        "workload.gating_ms": per_iter("workload.gating"),
        "workload.cells_per_s": (
            ratio(recorder.gating_cells, total("workload.gating"), 0.0)
            if hooked("workload.gating")
            else None
        ),
        "balancer.observe_ms": per_iter("balancer.observe"),
        "balancer.plan_ms": per_iter("balancer.plan"),
        "balancer.commit_ms": per_iter("balancer.commit"),
        "balancer.split_ms": per_iter("balancer.split"),
        "balancer.route_ms": per_iter("balancer.route"),
        "balancer.drain_ms": per_iter("balancer.drain"),
        "balancer.triggers": triggers,
        "balancer.migrations_started": started,
        "balancer.migrations_completed": completed,
        "balancer.migration_completion_ratio": ratio(completed, started),
        "balancer.trigger_iter_frac": triggers / len(records),
        "engine.step_ms": per_iter("engine.step"),
        "engine.step_self_ms": per_iter("engine.step", self_time=True),
        "engine.layer0_ms": per_iter("engine.layer0"),
        "engine.roofline_ms": per_iter("engine.roofline"),
        "network.alltoall_layer0_ms": per_iter("network.alltoall_layer0"),
        "network.allreduce_ms": per_iter("network.allreduce"),
        "network.allreduce_cache_hit_ratio": (
            1.0 - ratio(calls("network.allreduce_miss"), calls("network.allreduce"), 0.0)
            if hooked("network.allreduce", "network.allreduce_miss")
            else None
        ),
        "network.plan_ms": per_iter("network.plan"),
        "network.plan_reuse_ratio": (
            ratio(recorder.plan_reuses, calls("network.plan"), 0.0)
            if hooked("network.plan")
            else None
        ),
        "network.layered_price_ms": per_iter("network.layered_price"),
        "network.pricer_build_ms": (
            total("network.pricer_build") * 1e3 if hooked("network.pricer_build") else None
        ),
        "network.pricer_peak_mib": (
            result.layers["pricer_peak_bytes"] / 2**20 if hooked("network.pricer") else None
        ),
        "topology.route_calls": calls("topology.route") if hooked("topology.route") else None,
        "topology.route_ms": (
            total("topology.route") * 1e3 if hooked("topology.route") else None
        ),
        "faults.health_version_bumps": result.layers["health_version"],
        "faults.repair_ms": per_iter("faults.repair"),
        "faults.active_iter_frac": sum(r.faults_active > 0 for r in records) / len(records),
        "serving.frontend_self_ms_per_request": 0.0,
        "serving.dispatch_us": 0.0,
        "serving.batch_tokens_mean": float(workload.system.tokens_per_group),
        "serving.blacklist_events": 0,
        "serving.redispatches": 0,
        "sim.attention_ms": _sim_mean(steady, lambda r: r.breakdown.attention.total),
        "sim.allreduce_ms": _sim_mean(steady, lambda r: r.breakdown.allreduce),
        "sim.alltoall_ms": _sim_mean(steady, lambda r: r.alltoall_mean),
        "sim.moe_ms": _sim_mean(steady, lambda r: r.breakdown.moe.total),
        "sim.migration_exposed_ms": _sim_mean(steady, lambda r: r.migration_exposed),
        "sim.repair_exposed_ms": _sim_mean(steady, lambda r: r.repair_exposed),
        "sim.load_ratio": float(np.mean([r.load_ratio for r in steady])),
        "trace.overhead_frac": overhead,
        "trace.spans": len(recorder.start),
    }
    if isinstance(workload, OpenLoop):
        values.update(
            {
                "serving.frontend_self_ms_per_request": (
                    (total("serving.run") - total("engine.step"))
                    * 1e3
                    / workload.num_requests
                    if hooked("serving.run", "engine.step")
                    else None
                ),
                "serving.dispatch_us": (
                    ratio(total("serving.dispatch"), calls("serving.dispatch"), 0.0) * 1e6
                    if hooked("serving.dispatch")
                    else None
                ),
                "serving.batch_tokens_mean": float(np.mean(result.batch_tokens)),
                "serving.blacklist_events": sum(
                    event.kind == "blacklist" for event in result.events
                ),
                "serving.redispatches": sum(r.redispatches for r in result.requests),
            }
        )
    return values


def _sim_mean(records, value) -> float:
    return float(np.mean([value(r) for r in records])) * 1e3


def mean_over_passes(per_pass: list[dict]) -> dict:
    """Metric-wise mean; missing in any pass means missing."""
    merged = {}
    for name in per_pass[0]:
        values = [values[name] for values in per_pass]
        merged[name] = None if None in values else float(np.mean(values))
    return merged

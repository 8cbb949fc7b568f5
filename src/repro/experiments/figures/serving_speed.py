"""Serving-loop wall-clock microbenchmark (simulator speed, not model perf).

Times the full ``ServingSimulator`` loop — gating, balancing, migration
draining, per-layer all-to-all pricing, batched MoE rooflines, device-load
stats — on two systems: the
64-device 8x8 wafer serving a 64-expert Qwen3 variant (the historical
trajectory configuration) and a 1024-device four-wafer 4x(16x16) HER
system serving a 256-expert variant, where the all-to-all operator is
only tractable because it is stored over hosted destinations in CSR form
(a dense ``(G*D, 2K)`` operator would be ~3.9 GiB there).  This is the
hot path the vectorized placement/balancer/compute and array-native
traffic layers accelerate; the spec is uncacheable because its metrics
are wall-clock timings.

Besides the rendered table, every run writes machine-readable per-config
timings to ``benchmarks/results/BENCH_serving.json`` so the perf
trajectory is tracked across PRs.  ``REPRO_SERVING_BENCH_ITERS`` shrinks
the loop for CI smoke runs (the JSON records the iteration count, so smoke
numbers are never mistaken for full-run numbers).

The case axis is composite (the cartesian product would cross the
1024-device system with every depth and strategy, hours of redundant wall
clock).  Its ``layers`` dimension is depth scaling: 2 simulated MoE
layers (the historical proxy depth, comparable with earlier PRs' records)
and 58 — full DeepSeek-V3 depth.  ``REPRO_SERVING_BENCH_LAYERS`` (or
``bench_serving_speed.py --layers``) overrides the base-system depths for
ad-hoc sweeps without editing this spec.

Every config also records ``devices`` and the pricer's peak
``operator_bytes``.  The wall clock covers the whole run, including the
first iteration's lazy route and pricer build.
"""

import os
import time
from dataclasses import replace

from repro.analysis.report import format_table
from repro.engine import EngineConfig, ServingConfig, ServingSimulator
from repro.experiments.common import emit_json
from repro.experiments.figures.shared import strategy_class, strategy_label
from repro.experiments.registry import register
from repro.experiments.spec import ExperimentSpec
from repro.models import QWEN3_235B
from repro.network.alltoall import alltoall_pricer
from repro.systems import build_multi_wsc, build_wsc
from repro.workload import AzureLikeMixer, CHAT, CODING, MATH, PRIVACY, GatingSimulator

FULL_ITERATIONS = 300
ITERATIONS = int(os.environ.get("REPRO_SERVING_BENCH_ITERS", str(FULL_ITERATIONS)))
#: The 1024-device case runs at a tenth of the base iteration count — one
#: iteration there simulates 16x the devices and 4x the experts, and the
#: wall-clock per iteration is itself the measurement.
SCALE_ITER_DIVISOR = 10
#: Proxy depth (2, the pre-stacked default) and full DeepSeek-V3 depth (58).
DEFAULT_LAYERS = [2, 58]
LAYERS = [
    int(value)
    for value in os.environ.get(
        "REPRO_SERVING_BENCH_LAYERS",
        ",".join(str(layers) for layers in DEFAULT_LAYERS),
    ).split(",")
]
#: The git-tracked trajectory record only holds full-length runs; reduced
#: smoke runs (CI) write a separate, untracked file so they never clobber it.
BENCH_JSON = "BENCH_serving.json"
BENCH_SMOKE_JSON = "BENCH_serving.smoke.json"
#: The trajectory system: one 8x8 wafer, flat ER, 64 experts.
BASE_SYSTEM = {
    "devices": 64,
    "wafers": 1,
    "side": 8,
    "tp": 4,
    "mapping": "er",
    "num_experts": 64,
}
#: The scale-proof system: four 16x16 wafers (1024 devices), HER mapping,
#: 256 experts.
SCALE_SYSTEM = {
    "devices": 1024,
    "wafers": 4,
    "side": 16,
    "tp": 16,
    "mapping": "her",
    "num_experts": 256,
}


def _case(system, strategy, layers, iterations):
    return {
        **system,
        "strategy": strategy,
        "layers": layers,
        "iterations": iterations,
    }


def _cases(iterations, layers_axis):
    scale_iterations = max(1, iterations // SCALE_ITER_DIVISOR)
    cases = [
        _case(BASE_SYSTEM, strategy, layers, iterations)
        for strategy in ["greedy", "non_invasive"]
        for layers in layers_axis
    ]
    # One point at scale: full depth, greedy.  NonInvasiveBalancer keeps
    # planning and landing migrations, and at 1024 devices repricing the
    # layers they mutate averaged ~0.8 s a step against ~3 ms of search:
    # that point would measure hosted-set churn, not the steady pricer.
    cases.append(_case(SCALE_SYSTEM, "greedy", 58, scale_iterations))
    return cases


CASES = _cases(ITERATIONS, LAYERS)
#: The canonical full-length grid — a run updates the tracked trajectory
#: record only when its cases match this exactly (reduced iterations and
#: ad-hoc --layers sweeps both divert to the untracked smoke file).
FULL_CASES = _cases(FULL_ITERATIONS, DEFAULT_LAYERS)


def run_point(params: dict) -> dict:
    case = params["case"]
    model = replace(
        QWEN3_235B, name=f"qwen3-{case['num_experts']}e",
        num_experts=case["num_experts"],
    )
    if case["wafers"] > 1:
        system = build_multi_wsc(
            model, case["wafers"], case["side"], tp=case["tp"],
            mapping=case["mapping"],
        )
    else:
        system = build_wsc(
            model, side=case["side"], tp=case["tp"], mapping=case["mapping"]
        )
    workload = GatingSimulator(
        model,
        num_groups=system.mapping.dp,
        tokens_per_group=128,
        mixer=AzureLikeMixer([CHAT, CODING, MATH, PRIVACY], period_iters=60),
        num_layers=case["layers"],
        seed=41,
    )
    simulator = ServingSimulator(
        system.device,
        model,
        system.mapping,
        workload,
        strategy_class(case["strategy"]),
        engine_config=EngineConfig(tokens_per_group=128),
        serving_config=ServingConfig(num_iterations=case["iterations"]),
    )
    start = time.perf_counter()
    trace = simulator.run()
    wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "iters_per_s": case["iterations"] / wall,
        "load_ratio": trace.mean_load_ratio(50),
        "migrations": trace.num_migrations(),
        "operator_bytes": alltoall_pricer(system.mapping).peak_operator_nbytes,
    }


def _case_key(case: dict) -> tuple:
    return tuple(sorted(case.items()))


def render(results) -> str:
    full_run = {_case_key(result.params["case"]) for result in results} == {
        _case_key(case) for case in FULL_CASES
    }
    emit_json(
        BENCH_JSON if full_run else BENCH_SMOKE_JSON,
        {
            "benchmark": "serving_speed",
            "systems": [BASE_SYSTEM, SCALE_SYSTEM],
            "configs": [
                {
                    "devices": result.params["case"]["devices"],
                    "mapping": result.params["case"]["mapping"],
                    "tp": result.params["case"]["tp"],
                    "strategy": result.params["case"]["strategy"],
                    "num_experts": result.params["case"]["num_experts"],
                    "layers": result.params["case"]["layers"],
                    "iterations": result.params["case"]["iterations"],
                    "wall_s": result.metrics["wall_s"],
                    "iters_per_s": result.metrics["iters_per_s"],
                    "load_ratio": result.metrics["load_ratio"],
                    "migrations": result.metrics["migrations"],
                    "operator_bytes": result.metrics["operator_bytes"],
                }
                for result in results
            ],
        },
    )
    rows = []
    for result in results:
        case = result.params["case"]
        m = result.metrics
        rows.append(
            [
                case["devices"],
                strategy_label(case["strategy"]),
                case["num_experts"],
                case["layers"],
                case["iterations"],
                f"{m['wall_s']:.2f}s",
                f"{m['iters_per_s']:.1f} it/s",
                f"{m['load_ratio']:.2f}",
                m["migrations"],
                f"{m['operator_bytes'] / 2**20:.1f} MiB",
            ]
        )
    return format_table(
        [
            "Devices",
            "Balancer",
            "Experts",
            "Layers",
            "Iterations",
            "Wall clock",
            "Throughput",
            "Max/Avg",
            "Migrations",
            "Op memory",
        ],
        rows,
    )


SPEC = register(
    ExperimentSpec(
        name="serving_speed",
        figure="serving_speed",
        description="Wall-clock microbenchmark of the serving simulator loop",
        grid={"case": CASES},
        point=run_point,
        render=render,
        cacheable=False,
    )
)

"""Fig. 15: run-time traces of device loads under each balancing strategy.

Qwen3 on an 8x8 wafer with a drifting mixed workload.  The paper's shape:
no balancing leaves a ~2x peak deviation; greedy balancing halves it but
interrupts roughly every 10 iterations; topology-aware balancing mitigates
the interruptions; non-invasive balancing eliminates them while achieving
the best balance.
"""

from repro.analysis.report import format_table
from repro.engine import EngineConfig, ServingConfig, ServingSimulator
from repro.experiments.figures.shared import strategy_class, strategy_label
from repro.experiments.registry import register
from repro.experiments.spec import ExperimentSpec
from repro.models import QWEN3_235B
from repro.systems import build_wsc
from repro.workload import AzureLikeMixer, CHAT, CODING, MATH, PRIVACY, GatingSimulator

ITERATIONS = 120
SKIP = 30

STRATEGY_KEYS = ["none", "greedy", "topology", "non_invasive"]


def run_point(params: dict) -> dict:
    model = QWEN3_235B
    system = build_wsc(model, side=8, tp=4, mapping="er")
    workload = GatingSimulator(
        model,
        num_groups=system.mapping.dp,
        tokens_per_group=128,
        mixer=AzureLikeMixer([CHAT, CODING, MATH, PRIVACY], period_iters=80),
        # Full model depth: the stacked balancer engine makes per-layer
        # state cheap, so the Eq. 2 trigger sees every sparse layer
        # instead of a 2-layer proxy.
        num_layers=model.num_sparse_layers,
        seed=17,
    )
    simulator = ServingSimulator(
        system.device,
        model,
        system.mapping,
        workload,
        strategy_class(params["strategy"]),
        engine_config=EngineConfig(tokens_per_group=128),
        serving_config=ServingConfig(num_iterations=ITERATIONS),
    )
    trace = simulator.run()
    return {
        "load_ratio": trace.mean_load_ratio(SKIP),
        "migrations": trace.num_migrations(),
        "interruptions": trace.num_interruptions(),
        "overhead_fraction": trace.migration_overhead_fraction(SKIP),
        "latency": trace.mean_latency(SKIP),
        "alltoall": trace.mean_component("alltoall", SKIP),
    }


def render(results) -> str:
    rows = []
    for result in results:
        m = result.metrics
        rows.append(
            [
                strategy_label(result.params["strategy"]),
                f"{m['load_ratio']:.2f}",
                m["migrations"],
                m["interruptions"],
                f"{m['overhead_fraction'] * 100:.1f}%",
                f"{m['latency'] * 1e3:.2f}ms",
            ]
        )
    return format_table(
        [
            "Strategy",
            "Max/Avg load",
            "Migrations",
            "Interruptions",
            "Migration overhead",
            "Iteration latency",
        ],
        rows,
    )


SPEC = register(
    ExperimentSpec(
        name="fig15_balancer_trace",
        figure="fig15",
        description="Serving traces under each balancing strategy",
        grid={"strategy": STRATEGY_KEYS},
        point=run_point,
        render=render,
        # v3: demand-resolved per-layer all-to-all pricing (v2 priced
        # per-layer placements under layer-0 demand).
        # v4: exact multinomial deep-layer splits from the batched
        # sampling kernels (v3 used the rescaled-Gaussian approximation,
        # which drifted per-group totals and therefore every trace).
        version=4,
    )
)

"""Sampling-kernel wall-clock microbenchmark (kernel speed, not model perf).

Times the batched binomial/multinomial kernels in
:mod:`repro.workload.sampling` on the serving-loop shapes — the 58-layer
demand resolution splits a ``(57, 64)`` per-(layer, expert) totals array
(mean ~256 selection slots per lane, Dirichlet-skewed like the mixer's
expert popularity) into 16 DP groups every iteration — against the two
exact scalar oracles they replaced: numpy's per-draw
``Generator.binomial`` and the legacy sequential thinning chain.  The
case axis is the kernel: the four batched kernels, then the two scalar
baselines.

Every run writes machine-readable per-case timings to
``benchmarks/results/BENCH_sampling.json`` so the kernel-speed trajectory
is tracked across PRs; ``REPRO_SAMPLING_BENCH_REPEATS`` shrinks the loop
for CI smoke runs, which divert to the untracked
``BENCH_sampling.smoke.json``.  ``tools/ci/check_serving_smoke.py
--expect-sampling`` gates the batched-vs-legacy speedup and an absolute
lanes/s floor on the smoke record.
"""

import os
import time

import numpy as np

from repro.analysis.report import format_table
from repro.experiments.common import emit_json
from repro.experiments.registry import register
from repro.experiments.spec import ExperimentSpec
from repro.workload import sampling

FULL_REPEATS = 200
REPEATS = int(os.environ.get("REPRO_SAMPLING_BENCH_REPEATS", str(FULL_REPEATS)))
#: The git-tracked trajectory record only holds full-length runs; reduced
#: smoke runs (CI) write a separate, untracked file.
BENCH_JSON = "BENCH_sampling.json"
BENCH_SMOKE_JSON = "BENCH_sampling.smoke.json"

#: Serving-resolution shape: 58 layers (57 split layers) x 64 experts,
#: 16 DP groups x 128 tokens x 8 experts/token selection slots per layer.
LAYERS, EXPERTS, GROUPS = 57, 64, 16
SLOTS_PER_LAYER = 16 * 128 * 8

BATCHED_KERNELS = [
    "binomial_half",
    "binomial_btrs",
    "binomial_inversion",
    "multinomial_split",
]
BASELINE_KERNELS = ["legacy_chain", "generator_binomial"]


def _cases(repeats):
    return [
        {"kernel": kernel, "repeats": repeats}
        for kernel in BATCHED_KERNELS + BASELINE_KERNELS
    ]


CASES = _cases(REPEATS)
FULL_CASES = _cases(FULL_REPEATS)


def _serving_totals() -> np.ndarray:
    """A fixed skewed (layers, experts) totals array, multinomial over a
    Dirichlet popularity per layer — the demand-resolution input shape."""
    rng = np.random.default_rng(7)
    popularity = rng.dirichlet(np.full(EXPERTS, 1.5), size=LAYERS)
    return rng.multinomial(SLOTS_PER_LAYER, popularity).astype(np.int64)


def _legacy_chain(rng, totals):
    """The pre-kernel exact sampler: sequential Binomial(rest, 1/(G-g))
    thinning, one scalar-floor Generator.binomial call per group step."""
    split = np.empty((totals.shape[0], GROUPS, totals.shape[1]))
    remaining = totals.copy()
    for group in range(GROUPS - 1):
        taken = rng.binomial(remaining, 1.0 / (GROUPS - group))
        split[:, group, :] = taken
        remaining -= taken
    split[:, GROUPS - 1, :] = remaining
    return split


def _run_kernel(kernel, rng, totals):
    flat = totals.reshape(-1)
    if kernel == "binomial_half":
        return sampling.binomial_half(rng, flat)
    if kernel == "binomial_btrs":
        # Heterogeneous p with every lane mean >= 10: the BTRS bulk path.
        p = 0.2 + 0.6 * (flat % 7) / 10.0
        return sampling.binomial(rng, np.maximum(flat, 64), p)
    if kernel == "binomial_inversion":
        # Lane means < 10: the batched inverse-CDF path.
        return sampling.binomial(rng, flat, 0.01)
    if kernel == "multinomial_split":
        # The serving hot path: exact 16-way resolution, float64 sink.
        out = np.empty((LAYERS, GROUPS, EXPERTS))
        return sampling.multinomial_split(rng, totals, GROUPS, axis=1, out=out)
    if kernel == "legacy_chain":
        return _legacy_chain(rng, totals)
    if kernel == "generator_binomial":
        # numpy's own scalar-floor batched call on the same lane vector.
        return rng.binomial(flat, 0.5)
    raise ValueError(f"unknown kernel {kernel!r}")


def run_point(params: dict) -> dict:
    case = params["case"]
    kernel, repeats = case["kernel"], case["repeats"]
    totals = _serving_totals()
    rng = np.random.default_rng(23)
    # Warm once outside the clock: scratch-buffer allocation.
    _run_kernel(kernel, rng, totals)
    start = time.perf_counter()
    for _ in range(repeats):
        _run_kernel(kernel, rng, totals)
    wall = time.perf_counter() - start
    lanes = totals.size
    return {
        "wall_s": wall,
        "lanes": lanes,
        "repeats": repeats,
        "lanes_per_s": lanes * repeats / wall,
        "slots_per_s": int(totals.sum()) * repeats / wall,
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
            "benchmark": "sampling_speed",
            "shape": {
                "layers": LAYERS,
                "experts": EXPERTS,
                "groups": GROUPS,
                "slots_per_layer": SLOTS_PER_LAYER,
            },
            "configs": [
                {
                    "kernel": result.params["case"]["kernel"],
                    "repeats": result.params["case"]["repeats"],
                    "wall_s": result.metrics["wall_s"],
                    "lanes": result.metrics["lanes"],
                    "lanes_per_s": result.metrics["lanes_per_s"],
                    "slots_per_s": result.metrics["slots_per_s"],
                }
                for result in results
            ],
        },
    )
    baseline = {
        result.params["case"]["kernel"]: result.metrics["lanes_per_s"]
        for result in results
        if result.params["case"]["kernel"] == "legacy_chain"
    }.get("legacy_chain")
    rows = []
    for result in results:
        case = result.params["case"]
        m = result.metrics
        speedup = (
            f"{m['lanes_per_s'] / baseline:.1f}x" if baseline else "-"
        )
        rows.append(
            [
                case["kernel"],
                case["repeats"],
                f"{m['wall_s'] * 1e3 / case['repeats']:.3f}ms",
                f"{m['lanes_per_s'] / 1e6:.2f} Mlanes/s",
                speedup,
            ]
        )
    return format_table(
        [
            "Kernel",
            "Repeats",
            "Per call",
            "Throughput",
            "vs legacy chain",
        ],
        rows,
    )


SPEC = register(
    ExperimentSpec(
        name="sampling_speed",
        figure="sampling_speed",
        description="Wall-clock microbenchmark of the batched sampling kernels",
        grid={"case": CASES},
        point=run_point,
        render=render,
        cacheable=False,
    )
)

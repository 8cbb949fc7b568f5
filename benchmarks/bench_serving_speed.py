"""Serving-loop wall-clock microbenchmark (simulator speed, not model perf).

Thin wrapper over the uncacheable ``serving_speed`` spec in
``repro.experiments.figures.serving_speed``: the 64-device 8x8 trajectory
system (64-expert Qwen3 variant, 300 serving iterations per balancer at
proxy and full DeepSeek-V3 depth) plus the 1024-device four-wafer
4x(16x16) HER scale case, which runs at a tenth of the base iteration
count.  Run standalone with
``python -m repro.experiments run serving_speed``, or directly —

    python benchmarks/bench_serving_speed.py --layers 2,58,94

— to sweep other base-system depths without editing the spec
(``--layers`` seeds ``REPRO_SERVING_BENCH_LAYERS`` before the spec
module loads).
"""

from helpers import run_and_emit


def test_serving_speed(benchmark):
    run_and_emit(benchmark, "serving_speed")


def main() -> None:
    import argparse
    import os

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--layers",
        help="comma-separated simulated MoE layer depths (default: the "
        "spec's 2,58 axis)",
    )
    parser.add_argument(
        "--iterations",
        type=int,
        help="serving iterations per config (default: the spec's 300)",
    )
    args = parser.parse_args()
    # The spec reads its grid from the environment at import time, so the
    # overrides must land before repro.experiments pulls it in.
    if args.layers:
        os.environ["REPRO_SERVING_BENCH_LAYERS"] = args.layers
    if args.iterations:
        os.environ["REPRO_SERVING_BENCH_ITERS"] = str(args.iterations)

    from repro.experiments import Runner, get_spec

    text = Runner(jobs=1, use_cache=False).run_text(get_spec("serving_speed"))
    print(text)


if __name__ == "__main__":
    main()

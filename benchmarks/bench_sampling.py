"""Sampling-kernel wall-clock microbenchmark (kernel speed, not model perf).

Thin wrapper over the uncacheable ``sampling_speed`` spec in
``repro.experiments.figures.sampling_speed``: the batched binomial /
multinomial-split kernels on the 58-layer serving demand-resolution shape
(57 x 64 lanes into 16 DP groups), against the scalar
``Generator.binomial`` and legacy thinning-chain baselines.  Run standalone
with ``python -m repro.experiments run sampling_speed``, or directly —

    python benchmarks/bench_sampling.py --repeats 50

— for quick sweeps (``--repeats`` seeds ``REPRO_SAMPLING_BENCH_REPEATS``
before the spec module loads; reduced runs write the untracked
``BENCH_sampling.smoke.json`` instead of the tracked trajectory record).
"""

from helpers import run_and_emit


def test_sampling_speed(benchmark):
    run_and_emit(benchmark, "sampling_speed")


def main() -> None:
    import argparse
    import os

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--repeats",
        type=int,
        help="timed kernel calls per case (default: the spec's 200)",
    )
    args = parser.parse_args()
    # The spec reads its grid from the environment at import time, so the
    # override must land before repro.experiments pulls it in.
    if args.repeats:
        os.environ["REPRO_SAMPLING_BENCH_REPEATS"] = str(args.repeats)

    from repro.experiments import Runner, get_spec

    text = Runner(jobs=1, use_cache=False).run_text(get_spec("sampling_speed"))
    print(text)


if __name__ == "__main__":
    main()

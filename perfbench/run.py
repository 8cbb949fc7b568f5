"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload wafer64_ni_closed --seed 1 --seconds 10 --trace 0

Runs measured passes of the workload, each a fresh build from the seed,
until ``--seconds`` have passed (at least two passes).  Every line but the
last is a human-readable report: each metric with its unit, the output
checks and the simulated-trace digest.  The last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A traced run alternates untraced and traced passes, so it
also measures the tracing overhead and checks that tracing leaves the
simulated digest unchanged.  Span arrays of traced passes are written to
``perfbench/out/``.
"""

import argparse
import gc
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 2
#: Host timing must not depend on how many cores a machine offers.
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _print_metrics(title: str, values: dict, units: dict, notes: dict | None = None) -> None:
    print(title)
    for name, unit in units.items():
        value = values[name]
        shown = "missing" if value is None else f"{value:.6g} {unit}"
        note = (notes or {}).get(name)
        print(f"  {name:<40} {shown}" + (f"  ({note})" if note else ""))


def _json_metrics(values: dict, units: dict) -> dict:
    out = {}
    for name, unit in units.items():
        value = values[name]
        if value is None:
            out[name] = {"value": None, "unit": unit, "missing": True}
        else:
            out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for variable in THREAD_VARIABLES:
        os.environ[variable] = "1"
    sys.path[:1] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import metrics, tracing, workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    passes, recorders = [], []
    failed = attempted = 0
    deadline = time.perf_counter() + args.seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        recorder = tracing.Recorder() if args.trace and len(passes) % 2 else None
        gc.collect()  # free the last pass and start each one in the same GC state
        try:
            result = workloads.run_pass(workload, args.seed, recorder)
        except Exception:  # a pass that raises is one failed operation
            traceback.print_exc()
            attempted += 1
            failed += 1
            break
        passes.append(result)
        recorders.append(recorder)
        attempted += result.checked
        failed += len(result.problems)
        for problem in result.problems[:5]:
            print(f"check failed: {problem}", file=sys.stderr)
    if not passes:
        return 1

    # Every pass replays the same seed, traced or not: one digest.
    reference = passes[0].digest
    mismatched = sum(result.digest != reference for result in passes)
    attempted += len(passes)
    failed += mismatched
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    print(f"workload {workload.name}: {workload.why}")
    print(
        f"seed {args.seed}, {len(passes)} passes "
        f"({sum(r.traced for r in passes)} traced), BLAS/OpenMP threads 1"
    )
    print(f"simulated trace digest {reference[:16]} ({mismatched} passes differ)")
    e2e, notes = metrics.end_to_end(passes, workload, peak_rss_mib)
    _print_metrics("end-to-end (host time; sim_ in simulated time)", e2e, metrics.END_TO_END, notes)
    request_values = metrics.requests(passes, workload)
    if isinstance(workload, workloads.OpenLoop):
        _print_metrics(
            "requests (arrival times are simulated: generator lateness is 0 by construction)",
            request_values,
            metrics.REQUESTS,
            {"serving.sim_goodput_rps": f"TTFT limit {workload.ttft_deadline_s * 1e3:g} ms"},
        )
    print(f"  {'ops_failed_frac':<40} {failed / attempted:.6g} ratio  ({failed} of {attempted})")

    if args.trace:
        overhead = 1.0 - metrics.iters_per_s(passes, traced=True) / metrics.iters_per_s(passes)
        traced = [
            metrics.per_layer(result, recorder, workload, overhead)
            for result, recorder in zip(passes, recorders)
            if recorder is not None
        ]
        layer_values = {**metrics.mean_over_passes(traced), **request_values}
        _print_metrics("per-layer (traced passes)", layer_values, metrics.PER_LAYER)
        out = ROOT / "perfbench" / "out"
        for index, recorder in enumerate(recorders):
            if recorder is not None:
                recorder.write(out / f"spans-{workload.name}-seed{args.seed}-pass{index}.npz")
        reported = _json_metrics(layer_values, metrics.PER_LAYER)
    else:
        reported = _json_metrics(e2e, metrics.END_TO_END)

    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": reported,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

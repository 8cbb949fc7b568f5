#!/usr/bin/env python3
"""CI perf gate over the serving-loop smoke benchmark record.

Validates a ``BENCH_serving.smoke.json`` (or the full-length
``BENCH_serving.json``) emitted by the ``serving_speed`` spec: the grid
must cover the expected depth and device axes, and every config must have
a positive wall clock at the expected iteration count.  Walls are single
samples, so no wall-clock ratio is gated on them.

With ``--expect-faults`` the checker instead validates a
``BENCH_faults[.smoke].json`` record from the ``fault_tolerance`` spec:
the scenario axis must match, every scenario must cover the record's
strategy axis, fail-stop scenarios must have committed repairs, and —
under ``--max-recovery-iters`` — the greedy and non-invasive strategies
must end fail-stop runs with zero orphaned experts and a recovery time
within the budget:

    REPRO_FAULT_BENCH_SCENARIOS=single_tile \
        PYTHONPATH=src python -m repro.experiments run fault_tolerance
    python tools/ci/check_serving_smoke.py \
        benchmarks/results/BENCH_faults.smoke.json \
        --expect-faults single_tile --max-recovery-iters 20

With ``--expect-slo`` the checker instead validates a
``BENCH_slo[.smoke].json`` record from the ``slo_serving`` front-end
spec: the config axis must match, every config must satisfy request
conservation (arrived == completed + rejected, nothing unfinished),
fault-injected configs must record both a blacklist and a reinstate
event (blacklist-driven recovery), and — at the reference operating
point pinned by ``--expect-arrival-rate`` — p99 TTFT must stay inside
the ``--max-p99-ttft`` budget:

    REPRO_SLO_BENCH_REQUESTS=96 \
        PYTHONPATH=src python -m repro.experiments run slo_serving
    python tools/ci/check_serving_smoke.py \
        benchmarks/results/BENCH_slo.smoke.json \
        --expect-slo poisson_reference,poisson_diurnal_overload,mmpp_bursty,straggler_fault \
        --expect-arrival-rate 500 --max-p99-ttft 0.02

This is the logic that used to live as an inline heredoc in
``.github/workflows/ci.yml``; as a checked-in module it has unit tests
(``tests/tools/test_check_serving_smoke.py``) and can be run locally:

    PYTHONPATH=src python -m repro.experiments run serving_speed
    python tools/ci/check_serving_smoke.py \
        benchmarks/results/BENCH_serving.smoke.json \
        --expect-layers 2,58 --expect-devices 64,1024

With ``--expect-sampling`` the checker instead validates a
``BENCH_sampling[.smoke].json`` record from the ``sampling_speed`` spec:
every batched kernel must appear, and the batched ``multinomial_split``
hot path must beat the legacy scalar thinning chain by
``--min-sampling-speedup`` and clear the ``--min-sampling-lanes-per-s``
absolute throughput floor:

    REPRO_SAMPLING_BENCH_REPEATS=30 \
        PYTHONPATH=src python -m repro.experiments run sampling_speed
    python tools/ci/check_serving_smoke.py \
        benchmarks/results/BENCH_sampling.smoke.json \
        --expect-sampling --min-sampling-speedup 2.0

Exit status 0 means every check passed; 1 reports each violation on
stderr (CI retries the sampling throughput gate once on the assumption of
a noisy runner).
"""

import argparse
import json
import sys


def _csv_ints(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


def _csv_strs(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Check a serving_speed benchmark record against the "
        "CI perf-gate expectations."
    )
    parser.add_argument(
        "record",
        help="path to the BENCH_serving[.smoke].json emitted by the "
        "serving_speed spec",
    )
    parser.add_argument(
        "--expect-iterations",
        type=int,
        default=None,
        help="require every base-system config to have run exactly this "
        "many iterations (reduced smoke runs must not be mistaken for "
        "full-length records); scaled-down groups declare their divisor "
        "via --scale-iter-divisor",
    )
    parser.add_argument(
        "--scale-iter-divisor",
        type=int,
        default=10,
        help="device groups above the smallest run 1/Nth of the expected "
        "iterations (default: %(default)s, the spec's divisor)",
    )
    parser.add_argument(
        "--expect-layers",
        type=_csv_ints,
        default=None,
        metavar="L1,L2,...",
        help="require the layer-depth axis to be exactly this set",
    )
    parser.add_argument(
        "--expect-devices",
        type=_csv_ints,
        default=None,
        metavar="N1,N2,...",
        help="require the device-count axis to be exactly this set "
        "(records predating the axis read as a single unlabeled group)",
    )
    parser.add_argument(
        "--expect-sampling",
        action="store_true",
        help="treat the record as a sampling_speed benchmark and require "
        "every batched kernel in it",
    )
    parser.add_argument(
        "--min-sampling-speedup",
        type=float,
        default=2.0,
        help="sampling records only: the batched "
        "multinomial_split throughput must be at least this multiple of "
        "the legacy scalar thinning chain's (default: %(default)s)",
    )
    parser.add_argument(
        "--min-sampling-lanes-per-s",
        type=float,
        default=1e5,
        help="sampling records only: absolute lanes/s floor on the batched "
        "multinomial_split hot path (default: %(default)s)",
    )
    parser.add_argument(
        "--expect-slo",
        type=_csv_strs,
        default=None,
        metavar="C1,C2,...",
        help="treat the record as an slo_serving benchmark and require its "
        "config axis to be exactly this set; every config must satisfy "
        "request conservation (arrived == completed + rejected, nothing "
        "left unfinished) and every fault-injected config must record "
        "both a blacklist and a reinstate event (blacklist-driven "
        "recovery, not just survival)",
    )
    parser.add_argument(
        "--expect-arrival-rate",
        type=float,
        default=None,
        help="SLO records only: require a non-faulted poisson config at "
        "exactly this arrival rate (req/s) — the reference operating "
        "point the p99 budget is measured at",
    )
    parser.add_argument(
        "--max-p99-ttft",
        type=float,
        default=None,
        help="SLO records only: p99 TTFT budget in seconds for the "
        "reference config selected by --expect-arrival-rate (or for "
        "every non-faulted config when no rate is pinned)",
    )
    parser.add_argument(
        "--expect-faults",
        type=_csv_strs,
        default=None,
        metavar="S1,S2,...",
        help="treat the record as a fault_tolerance benchmark and require "
        "its scenario axis to be exactly this set (each scenario covering "
        "every balancer strategy)",
    )
    parser.add_argument(
        "--max-recovery-iters",
        type=float,
        default=None,
        help="fault records only: every fail-stop config under the greedy "
        "or non_invasive strategy must fully repair (no orphans left) and "
        "recover its load ratio within this many iterations",
    )
    return parser.parse_args(argv)


def _label(config: dict) -> str:
    devices = config.get("devices")
    prefix = f"{devices}dev/" if devices is not None else ""
    return f"{prefix}{config.get('strategy')}@{config.get('layers')}"


#: Strategies whose recovery time the CI budget gates.  NoBalancer cannot
#: restore its load ratio after capacity loss (it never migrates beyond
#: the emergency repairs) and the topology-aware balancer is the greedy
#: upper bound — the budget binds the two strategies the paper ships.
GATED_RECOVERY_STRATEGIES = ("greedy", "non_invasive")


def check_fault_record(data: dict, args: argparse.Namespace) -> list[str]:
    """Violations of the fault_tolerance recovery expectations."""
    errors: list[str] = []
    configs = data.get("configs")
    if not configs:
        return ["record has no configs"]
    if data.get("benchmark") != "fault_tolerance":
        errors.append(
            "--expect-faults given but the record is not a "
            f"fault_tolerance benchmark (got {data.get('benchmark')!r})"
        )
        return errors

    scenarios = {config.get("scenario") for config in configs}
    if scenarios != set(args.expect_faults):
        errors.append(
            f"scenario axis {sorted(scenarios, key=str)} != expected "
            f"{sorted(set(args.expect_faults))}"
        )
    by_scenario: dict[str, set] = {}
    for config in configs:
        by_scenario.setdefault(config.get("scenario"), set()).add(
            config.get("strategy")
        )
    strategy_axis = set().union(*by_scenario.values())
    for scenario, strategies in sorted(by_scenario.items(), key=str):
        if strategies != strategy_axis:
            errors.append(
                f"{scenario}: strategies {sorted(strategies, key=str)} do "
                f"not cover the record's axis {sorted(strategy_axis, key=str)}"
            )

    for config in configs:
        label = f"{config.get('scenario')}/{config.get('strategy')}"
        if config.get("kind") == "failstop" and not config.get("repairs"):
            errors.append(f"{label}: fail-stop scenario recorded no repairs")
        if args.max_recovery_iters is None:
            continue
        if config.get("kind") != "failstop":
            continue
        if config.get("strategy") not in GATED_RECOVERY_STRATEGIES:
            continue
        if config.get("orphaned_final"):
            errors.append(
                f"{label}: {config['orphaned_final']} experts still "
                "orphaned at the end of the run"
            )
        recovery = config.get("recovery_iters")
        if recovery is None:
            errors.append(f"{label}: never recovered the pre-fault load ratio")
        else:
            print(
                f"recovery {label}: {recovery:.0f} iters "
                f"(budget {args.max_recovery_iters:.0f})"
            )
            if recovery > args.max_recovery_iters:
                errors.append(
                    f"{label}: recovery took {recovery:.0f} iterations "
                    f"(budget {args.max_recovery_iters:.0f})"
                )
    return errors


def check_slo_record(data: dict, args: argparse.Namespace) -> list[str]:
    """Violations of the slo_serving front-end expectations."""
    errors: list[str] = []
    configs = data.get("configs")
    if not configs:
        return ["record has no configs"]
    if data.get("benchmark") != "slo_serving":
        return [
            "--expect-slo given but the record is not an slo_serving "
            f"benchmark (got {data.get('benchmark')!r})"
        ]

    names = {config.get("name") for config in configs}
    if names != set(args.expect_slo):
        errors.append(
            f"config axis {sorted(names, key=str)} != expected "
            f"{sorted(set(args.expect_slo))}"
        )

    for config in configs:
        label = config.get("name")
        arrived = config.get("arrived", 0)
        completed = config.get("completed", 0)
        rejected = config.get("rejected", 0)
        unfinished = config.get("unfinished", 0)
        if not completed:
            errors.append(f"{label}: no request completed")
        if unfinished:
            errors.append(
                f"{label}: {unfinished} request(s) left unfinished — the "
                "front end must drain every run"
            )
        if arrived != completed + rejected + unfinished:
            errors.append(
                f"{label}: conservation violated — arrived {arrived} != "
                f"completed {completed} + rejected {rejected} + "
                f"unfinished {unfinished}"
            )
        if config.get("fault"):
            # Blacklist-driven recovery: the slowed backend must have been
            # taken out of rotation AND brought back within the run.
            if not config.get("blacklist_events"):
                errors.append(
                    f"{label}: fault-injected config recorded no "
                    "blacklist event"
                )
            if not config.get("reinstate_events"):
                errors.append(
                    f"{label}: fault-injected config recorded no "
                    "reinstate event — the backend never recovered"
                )

    # The reference operating point: p99 TTFT is only meaningful at a
    # pinned arrival rate (a budget over an unknown load gates nothing).
    gated = [config for config in configs if not config.get("fault")]
    if args.expect_arrival_rate is not None:
        gated = [
            config
            for config in gated
            if config.get("process") == "poisson"
            and config.get("arrival_rate") == args.expect_arrival_rate
        ]
        if not gated:
            errors.append(
                "no non-faulted poisson config at the expected arrival "
                f"rate {args.expect_arrival_rate:g} req/s"
            )
    if args.max_p99_ttft is not None:
        for config in gated:
            label = config.get("name")
            p99 = config.get("ttft_p99_s")
            if p99 is None:
                errors.append(f"{label}: no p99 TTFT recorded to gate")
                continue
            print(
                f"p99 TTFT {label}: {p99 * 1e3:.1f} ms "
                f"(budget {args.max_p99_ttft * 1e3:.1f} ms)"
            )
            if p99 > args.max_p99_ttft:
                errors.append(
                    f"{label}: p99 TTFT {p99 * 1e3:.1f} ms over the "
                    f"budget {args.max_p99_ttft * 1e3:.1f} ms"
                )
    return errors


#: The batched kernels the sampling record must measure (the scalar
#: baselines are rows the gate compares against, not gates themselves).
SAMPLING_GATED_KERNELS = (
    "binomial_half",
    "binomial_btrs",
    "binomial_inversion",
    "multinomial_split",
)


def check_sampling_record(data: dict, args: argparse.Namespace) -> list[str]:
    """Violations of the sampling_speed throughput expectations."""
    errors: list[str] = []
    configs = data.get("configs")
    if not configs:
        return ["record has no configs"]
    if data.get("benchmark") != "sampling_speed":
        return [
            "--expect-sampling given but the record is not a "
            f"sampling_speed benchmark (got {data.get('benchmark')!r})"
        ]

    throughput = {
        config.get("kernel"): config.get("lanes_per_s", 0.0)
        for config in configs
    }
    legacy = throughput.get("legacy_chain")
    if not legacy:
        errors.append("record holds no legacy_chain baseline to gate against")
    for kernel in SAMPLING_GATED_KERNELS:
        if kernel not in throughput:
            errors.append(f"no {kernel} config in the record")
    split = throughput.get("multinomial_split")
    if not split:
        return errors
    print(
        f"multinomial_split: {split / 1e6:.2f} Mlanes/s "
        f"(floor {args.min_sampling_lanes_per_s / 1e6:.2f})"
    )
    if split < args.min_sampling_lanes_per_s:
        errors.append(
            f"multinomial_split throughput {split:.0f} lanes/s under the "
            f"floor {args.min_sampling_lanes_per_s:.0f}"
        )
    if legacy:
        speedup = split / legacy
        print(
            f"multinomial_split vs legacy chain: {speedup:.1f}x "
            f"(floor {args.min_sampling_speedup}x)"
        )
        if speedup < args.min_sampling_speedup:
            errors.append(
                f"multinomial_split only {speedup:.2f}x the legacy chain "
                f"(floor {args.min_sampling_speedup}x)"
            )
    return errors


def check_record(data: dict, args: argparse.Namespace) -> list[str]:
    """All violated expectations, as human-readable messages."""
    if args.expect_slo is not None:
        return check_slo_record(data, args)
    if args.expect_faults is not None:
        return check_fault_record(data, args)
    if args.expect_sampling:
        return check_sampling_record(data, args)
    errors: list[str] = []
    configs = data.get("configs")
    if not configs:
        return ["record has no configs"]

    base_devices = min(
        (config.get("devices") or 0 for config in configs), default=0
    )
    for config in configs:
        label = _label(config)
        if not config.get("wall_s", 0) > 0:
            errors.append(f"{label}: wall_s must be > 0, got {config.get('wall_s')}")
        if args.expect_iterations is not None:
            expected = args.expect_iterations
            if (config.get("devices") or 0) > base_devices:
                expected = max(1, expected // args.scale_iter_divisor)
            if config.get("iterations") != expected:
                errors.append(
                    f"{label}: expected {expected} iterations, "
                    f"got {config.get('iterations')}"
                )

    layers = {config.get("layers") for config in configs}
    if args.expect_layers is not None and layers != set(args.expect_layers):
        errors.append(
            f"layer axis {sorted(layers)} != expected "
            f"{sorted(set(args.expect_layers))}"
        )
    devices_axis = {config.get("devices") for config in configs}
    if args.expect_devices is not None and devices_axis != set(
        args.expect_devices
    ):
        errors.append(
            f"devices axis {sorted(devices_axis, key=str)} != expected "
            f"{sorted(set(args.expect_devices))}"
        )
    return errors


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        with open(args.record) as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        print(f"cannot read record {args.record}: {error}", file=sys.stderr)
        return 1
    errors = check_record(data, args)
    if errors:
        for error in errors:
            print(f"FAIL: {error}", file=sys.stderr)
        return 1
    configs = data["configs"]
    if args.expect_slo is not None:
        print(
            "slo serving smoke ok:",
            [
                (
                    config["name"],
                    config.get("completed"),
                    config.get("rejected"),
                    round(config["ttft_p99_s"] * 1e3, 1)
                    if config.get("ttft_p99_s") is not None
                    else None,
                    round(config["goodput_rps"], 1)
                    if config.get("goodput_rps") is not None
                    else None,
                )
                for config in configs
            ],
        )
        return 0
    if args.expect_faults is not None:
        print(
            "fault recovery smoke ok:",
            [
                (
                    config["scenario"],
                    config["strategy"],
                    config.get("recovery_iters"),
                    config.get("repairs"),
                    config.get("orphaned_final"),
                )
                for config in configs
            ],
        )
        return 0
    if args.expect_sampling:
        print(
            "sampling perf smoke ok:",
            [
                (config["kernel"], round(config["lanes_per_s"] / 1e6, 2))
                for config in configs
            ],
        )
        return 0
    print(
        "serving perf smoke ok:",
        [
            (
                config.get("devices"),
                config["strategy"],
                config["layers"],
                round(config["iters_per_s"], 1),
            )
            for config in configs
        ],
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

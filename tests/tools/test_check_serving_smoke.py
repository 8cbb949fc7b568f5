"""Unit tests for the checked-in CI perf-gate tool.

The gate logic used to live as an inline heredoc in the workflow YAML;
these tests feed it synthetic smoke records so threshold and axis
regressions are caught by pytest instead of on a live CI runner.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[2] / "tools" / "ci" / "check_serving_smoke.py"
_spec = importlib.util.spec_from_file_location("check_serving_smoke", _TOOL)
check_serving_smoke = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_serving_smoke)


def config(
    strategy="greedy",
    layers=58,
    wall_s=1.0,
    iterations=150,
    devices=64,
    **extra,
):
    return {
        "devices": devices,
        "strategy": strategy,
        "num_experts": 64,
        "layers": layers,
        "iterations": iterations,
        "wall_s": wall_s,
        "iters_per_s": iterations / wall_s,
        "load_ratio": 1.5,
        "migrations": 100,
        "operator_bytes": 400_000,
        **extra,
    }


def record(configs):
    return {
        "benchmark": "serving_speed",
        "configs": configs,
    }


def serving_grid():
    """The spec's shape: a 64-device group at both depths plus a
    1024-device scale config."""
    configs = [config(layers=layers) for layers in (2, 58)]
    configs.append(
        config(
            layers=58,
            wall_s=60.0,
            iterations=15,
            devices=1024,
            operator_bytes=150 * 2**20,
        )
    )
    return configs


def run_checks(configs, *argv):
    args = check_serving_smoke.parse_args(["record.json", *argv])
    return check_serving_smoke.check_record(record(configs), args)


EXPECT_AXES = (
    "--expect-iterations",
    "150",
    "--expect-layers",
    "2,58",
    "--expect-devices",
    "64,1024",
)


class TestPassingRecord:
    def test_full_grid_passes(self):
        assert run_checks(serving_grid(), *EXPECT_AXES) == []

    def test_main_exit_zero(self, tmp_path, capsys):
        path = tmp_path / "smoke.json"
        path.write_text(json.dumps(record(serving_grid())))
        assert check_serving_smoke.main([str(path), *EXPECT_AXES]) == 0
        assert "serving perf smoke ok" in capsys.readouterr().out


class TestAxisViolations:
    def test_empty_record(self):
        assert run_checks([]) == ["record has no configs"]

    def test_missing_depth(self):
        configs = [c for c in serving_grid() if c["layers"] == 58]
        errors = run_checks(configs, *EXPECT_AXES)
        assert any("layer axis" in error for error in errors)

    def test_missing_devices_group(self):
        configs = [c for c in serving_grid() if c["devices"] == 64]
        errors = run_checks(configs, *EXPECT_AXES)
        assert any("devices axis" in error for error in errors)

    def test_record_without_devices_flagged(self):
        """Records without the devices axis read as one unlabeled group,
        so the devices expectation flags them instead of crashing."""
        configs = serving_grid()[:-1]
        for entry in configs:
            del entry["devices"]
        errors = run_checks(configs, "--expect-devices", "64,1024")
        assert any("devices axis" in error for error in errors)

    def test_wrong_iteration_count(self):
        configs = serving_grid()
        configs[0]["iterations"] = 30
        errors = run_checks(configs, *EXPECT_AXES)
        assert any("iterations" in error for error in errors)

    def test_scale_group_iterations_divided(self):
        """The 1024-device group runs expected/divisor iterations; the
        base count there is a violation, the divided count passes."""
        assert run_checks(serving_grid(), *EXPECT_AXES) == []
        configs = serving_grid()
        configs[-1]["iterations"] = 150
        errors = run_checks(configs, *EXPECT_AXES)
        assert any("expected 15 iterations" in error for error in errors)

    def test_nonpositive_wall(self):
        configs = serving_grid()
        configs[0]["wall_s"] = 0.0
        errors = run_checks(configs, *EXPECT_AXES)
        assert any("wall_s" in error for error in errors)


class TestMainErrors:
    def test_missing_file(self, tmp_path, capsys):
        assert check_serving_smoke.main([str(tmp_path / "nope.json")]) == 1
        assert "cannot read record" in capsys.readouterr().err

    def test_corrupt_json(self, tmp_path, capsys):
        path = tmp_path / "smoke.json"
        path.write_text("{not json")
        assert check_serving_smoke.main([str(path)]) == 1
        assert "cannot read record" in capsys.readouterr().err

    def test_violation_exit_one(self, tmp_path, capsys):
        configs = serving_grid()
        configs[0]["wall_s"] = 0.0
        path = tmp_path / "smoke.json"
        path.write_text(json.dumps(record(configs)))
        assert check_serving_smoke.main([str(path), *EXPECT_AXES]) == 1
        assert "FAIL:" in capsys.readouterr().err


def fault_config(
    scenario="single_tile",
    strategy="greedy",
    kind="failstop",
    recovery_iters=3.0,
    repairs=4,
    orphaned_final=0,
    **extra,
):
    return {
        "scenario": scenario,
        "strategy": strategy,
        "kind": kind,
        "devices": 64,
        "iterations": 80,
        "fault_iteration": 30,
        "recovery_iters": recovery_iters,
        "recovered": recovery_iters is not None,
        "repairs": repairs,
        "orphaned_final": orphaned_final,
        "degraded_fraction": 0.1,
        **extra,
    }


def fault_grid(overrides=None):
    """All four strategies over a fail-stop and a straggler scenario."""
    configs = []
    for scenario, kind in (("single_tile", "failstop"), ("stragglers", "stragglers")):
        for strategy in ("none", "greedy", "topology", "non_invasive"):
            fields = {
                "repairs": 4 if kind == "failstop" else 0,
                **(overrides or {}).get((scenario, strategy), {}),
            }
            configs.append(
                fault_config(
                    scenario=scenario, strategy=strategy, kind=kind, **fields
                )
            )
    return configs


def run_fault_checks(configs, *argv):
    args = check_serving_smoke.parse_args(["record.json", *argv])
    data = {"benchmark": "fault_tolerance", "configs": configs}
    return check_serving_smoke.check_record(data, args)


FAULT_AXES = ("--expect-faults", "single_tile,stragglers", "--max-recovery-iters", "20")


class TestFaultGates:
    def test_passing_record(self):
        assert run_fault_checks(fault_grid(), *FAULT_AXES) == []

    def test_wrong_scenario_axis(self):
        configs = [c for c in fault_grid() if c["scenario"] == "single_tile"]
        errors = run_fault_checks(configs, *FAULT_AXES)
        assert any("scenario axis" in error for error in errors)

    def test_missing_strategy_in_one_scenario(self):
        configs = [
            c
            for c in fault_grid()
            if not (c["scenario"] == "stragglers" and c["strategy"] == "greedy")
        ]
        errors = run_fault_checks(configs, *FAULT_AXES)
        assert any("do not cover" in error for error in errors)

    def test_failstop_without_repairs(self):
        configs = fault_grid({("single_tile", "greedy"): {"repairs": 0}})
        errors = run_fault_checks(configs, *FAULT_AXES)
        assert any("no repairs" in error for error in errors)

    def test_orphans_left_fails_gated_strategy(self):
        configs = fault_grid({("single_tile", "non_invasive"): {"orphaned_final": 2}})
        errors = run_fault_checks(configs, *FAULT_AXES)
        assert any("still orphaned" in error for error in errors)

    def test_recovery_over_budget(self):
        configs = fault_grid({("single_tile", "greedy"): {"recovery_iters": 35.0}})
        errors = run_fault_checks(configs, *FAULT_AXES)
        assert any("budget 20" in error for error in errors)

    def test_never_recovered(self):
        configs = fault_grid({("single_tile", "greedy"): {"recovery_iters": None}})
        errors = run_fault_checks(configs, *FAULT_AXES)
        assert any("never recovered" in error for error in errors)

    def test_ungated_strategies_may_lag(self):
        # NoBalancer never restores its load ratio after capacity loss;
        # the recovery budget only binds greedy and non_invasive.
        configs = fault_grid(
            {
                ("single_tile", "none"): {"recovery_iters": None},
                ("single_tile", "topology"): {"recovery_iters": 70.0},
            }
        )
        assert run_fault_checks(configs, *FAULT_AXES) == []

    def test_stragglers_not_recovery_gated(self):
        configs = fault_grid(
            {("stragglers", "greedy"): {"recovery_iters": None}}
        )
        assert run_fault_checks(configs, *FAULT_AXES) == []

    def test_serving_record_rejected(self):
        args = check_serving_smoke.parse_args(["record.json", *FAULT_AXES])
        errors = check_serving_smoke.check_record(
            record(serving_grid()), args
        )
        assert any("not a fault_tolerance benchmark" in error for error in errors)

    def test_main_success_print(self, tmp_path, capsys):
        path = tmp_path / "faults.json"
        path.write_text(
            json.dumps({"benchmark": "fault_tolerance", "configs": fault_grid()})
        )
        assert check_serving_smoke.main([str(path), *FAULT_AXES]) == 0
        out = capsys.readouterr().out
        assert "fault recovery smoke ok" in out
        assert "recovery single_tile/greedy" in out


def sampling_config(kernel, lanes_per_s, repeats=30):
    lanes = 3648
    return {
        "kernel": kernel,
        "repeats": repeats,
        "lanes": lanes,
        "wall_s": lanes * repeats / lanes_per_s,
        "lanes_per_s": lanes_per_s,
        "slots_per_s": lanes_per_s * 256,
    }


def sampling_grid(split_speed=2.0e6, legacy_speed=2.0e5):
    """Every gated kernel plus the scalar baselines."""
    configs = [
        sampling_config(
            kernel, split_speed if kernel == "multinomial_split" else 5.0e6
        )
        for kernel in check_serving_smoke.SAMPLING_GATED_KERNELS
    ]
    configs.append(sampling_config("legacy_chain", legacy_speed))
    configs.append(sampling_config("generator_binomial", 6.0e6))
    return configs


def run_sampling_checks(configs, *argv):
    args = check_serving_smoke.parse_args(["record.json", *argv])
    data = {"benchmark": "sampling_speed", "configs": configs}
    return check_serving_smoke.check_record(data, args)


SAMPLING_AXES = ("--expect-sampling", "--min-sampling-speedup", "2.0")


class TestSamplingGates:
    def test_passing_record(self):
        assert run_sampling_checks(sampling_grid(), *SAMPLING_AXES) == []

    def test_missing_gated_kernel(self):
        configs = [
            c for c in sampling_grid() if c["kernel"] != "binomial_btrs"
        ]
        errors = run_sampling_checks(configs, *SAMPLING_AXES)
        assert any("no binomial_btrs config" in error for error in errors)

    def test_speedup_under_floor(self):
        configs = sampling_grid(split_speed=3.0e5)  # 1.5x the legacy chain
        errors = run_sampling_checks(configs, *SAMPLING_AXES)
        assert any("1.50x the" in error for error in errors)

    def test_absolute_floor(self):
        configs = sampling_grid(split_speed=5.0e4, legacy_speed=1.0e4)
        errors = run_sampling_checks(configs, *SAMPLING_AXES)
        assert any("under the floor" in error for error in errors)

    def test_missing_legacy_baseline(self):
        configs = [
            c for c in sampling_grid() if c["kernel"] != "legacy_chain"
        ]
        errors = run_sampling_checks(configs, *SAMPLING_AXES)
        assert any("no legacy_chain baseline" in error for error in errors)

    def test_serving_record_rejected(self):
        args = check_serving_smoke.parse_args(["record.json", *SAMPLING_AXES])
        errors = check_serving_smoke.check_record(record(serving_grid()), args)
        assert any(
            "not a sampling_speed benchmark" in error for error in errors
        )

    def test_main_success_print(self, tmp_path, capsys):
        path = tmp_path / "sampling.json"
        path.write_text(
            json.dumps(
                {"benchmark": "sampling_speed", "configs": sampling_grid()}
            )
        )
        assert check_serving_smoke.main([str(path), *SAMPLING_AXES]) == 0
        out = capsys.readouterr().out
        assert "sampling perf smoke ok" in out
        assert "vs legacy chain" in out


def slo_config(
    name="poisson_reference",
    process="poisson",
    arrival_rate=500.0,
    fault=False,
    arrived=96,
    completed=96,
    rejected=0,
    unfinished=0,
    ttft_p99_s=0.006,
    blacklist_events=0,
    reinstate_events=0,
    **extra,
):
    return {
        "name": name,
        "process": process,
        "arrival_rate": arrival_rate,
        "fault": fault,
        "num_requests": arrived,
        "arrived": arrived,
        "completed": completed,
        "rejected": rejected,
        "unfinished": unfinished,
        "elapsed_s": 0.5,
        "ttft_p50_s": 0.003,
        "ttft_p95_s": 0.005,
        "ttft_p99_s": ttft_p99_s,
        "tpot_p50_s": 0.0015,
        "goodput_rps": 400.0,
        "throughput_rps": 420.0,
        "blacklist_events": blacklist_events,
        "reinstate_events": reinstate_events,
        "drop_events": 0,
        "redispatches": 0,
        **extra,
    }


def slo_grid(overrides=None):
    """The four-config front-end axis the CI smoke runs."""
    overrides = overrides or {}
    cases = [
        ("poisson_reference", dict()),
        (
            "poisson_diurnal_overload",
            dict(arrival_rate=4000.0, completed=60, rejected=36, ttft_p99_s=0.04),
        ),
        (
            "mmpp_bursty",
            dict(
                process="mmpp",
                arrival_rate=3150.0,
                completed=80,
                rejected=16,
                ttft_p99_s=0.03,
            ),
        ),
        (
            "straggler_fault",
            dict(fault=True, blacklist_events=1, reinstate_events=1, ttft_p99_s=0.1),
        ),
    ]
    return [
        slo_config(name=name, **{**fields, **overrides.get(name, {})})
        for name, fields in cases
    ]


def run_slo_checks(configs, *argv):
    args = check_serving_smoke.parse_args(["record.json", *argv])
    data = {"benchmark": "slo_serving", "configs": configs}
    return check_serving_smoke.check_record(data, args)


SLO_AXES = (
    "--expect-slo",
    "poisson_reference,poisson_diurnal_overload,mmpp_bursty,straggler_fault",
    "--expect-arrival-rate",
    "500",
    "--max-p99-ttft",
    "0.02",
)


class TestSLOGates:
    def test_passing_record(self):
        assert run_slo_checks(slo_grid(), *SLO_AXES) == []

    def test_wrong_config_axis(self):
        configs = [c for c in slo_grid() if c["name"] != "mmpp_bursty"]
        errors = run_slo_checks(configs, *SLO_AXES)
        assert any("config axis" in error for error in errors)

    def test_conservation_violation(self):
        configs = slo_grid({"poisson_reference": {"completed": 90}})
        errors = run_slo_checks(configs, *SLO_AXES)
        assert any("conservation violated" in error for error in errors)

    def test_unfinished_requests_fail(self):
        configs = slo_grid(
            {"mmpp_bursty": {"completed": 70, "unfinished": 10}}
        )
        errors = run_slo_checks(configs, *SLO_AXES)
        assert any("left unfinished" in error for error in errors)

    def test_nothing_completed_fails(self):
        configs = slo_grid(
            {"poisson_reference": {"completed": 0, "rejected": 96}}
        )
        errors = run_slo_checks(configs, *SLO_AXES)
        assert any("no request completed" in error for error in errors)

    def test_fault_config_without_blacklist(self):
        configs = slo_grid({"straggler_fault": {"blacklist_events": 0}})
        errors = run_slo_checks(configs, *SLO_AXES)
        assert any("no blacklist event" in error for error in errors)

    def test_fault_config_without_reinstate(self):
        configs = slo_grid({"straggler_fault": {"reinstate_events": 0}})
        errors = run_slo_checks(configs, *SLO_AXES)
        assert any("never recovered" in error for error in errors)

    def test_p99_budget_gates_the_reference_point(self):
        configs = slo_grid({"poisson_reference": {"ttft_p99_s": 0.05}})
        errors = run_slo_checks(configs, *SLO_AXES)
        assert any("over the budget" in error for error in errors)

    def test_budget_ignores_other_operating_points(self):
        # The overload and bursty configs run far past the reference
        # rate; their p99 is reported, not budgeted.
        configs = slo_grid(
            {"poisson_diurnal_overload": {"ttft_p99_s": 1.0}}
        )
        assert run_slo_checks(configs, *SLO_AXES) == []

    def test_missing_reference_point(self):
        configs = slo_grid({"poisson_reference": {"arrival_rate": 250.0}})
        errors = run_slo_checks(configs, *SLO_AXES)
        assert any("expected arrival rate" in error for error in errors)

    def test_unpinned_rate_gates_every_nonfaulted_config(self):
        configs = slo_grid({"mmpp_bursty": {"ttft_p99_s": 0.5}})
        errors = run_slo_checks(
            configs, "--expect-slo", SLO_AXES[1], "--max-p99-ttft", "0.05"
        )
        assert any(
            "mmpp_bursty" in error and "over the budget" in error
            for error in errors
        )

    def test_serving_record_rejected(self):
        args = check_serving_smoke.parse_args(["record.json", *SLO_AXES])
        errors = check_serving_smoke.check_record(record(serving_grid()), args)
        assert any(
            "not an slo_serving benchmark" in error for error in errors
        )

    def test_main_success_print(self, tmp_path, capsys):
        path = tmp_path / "slo.json"
        path.write_text(
            json.dumps({"benchmark": "slo_serving", "configs": slo_grid()})
        )
        assert check_serving_smoke.main([str(path), *SLO_AXES]) == 0
        out = capsys.readouterr().out
        assert "slo serving smoke ok" in out
        assert "p99 TTFT poisson_reference" in out


_RESULTS = Path(__file__).resolve().parents[2] / "benchmarks" / "results"


class TestTrackedRecords:
    """The tracked full-length records pass the gates CI applies to their
    smoke siblings."""

    @pytest.mark.parametrize(
        "record, argv",
        [
            (
                "BENCH_serving.json",
                [
                    "--expect-iterations", "300",
                    "--expect-layers", "2,58",
                    "--expect-devices", "64,1024",
                ],
            ),
            (
                "BENCH_slo.json",
                [
                    "--expect-slo",
                    "poisson_reference,poisson_diurnal_overload,mmpp_bursty,"
                    "straggler_fault",
                    "--expect-arrival-rate", "500",
                    "--max-p99-ttft", "0.02",
                ],
            ),
            (
                "BENCH_faults.json",
                [
                    "--expect-faults", "rack_loss,single_tile,stragglers",
                    "--max-recovery-iters", "20",
                ],
            ),
            (
                "BENCH_sampling.json",
                [
                    "--expect-sampling",
                    "--min-sampling-speedup", "2.0",
                    "--min-sampling-lanes-per-s", "100000",
                ],
            ),
        ],
        ids=["serving", "slo", "faults", "sampling"],
    )
    def test_tracked_record_passes_ci_gate(self, record, argv, capsys):
        assert check_serving_smoke.main([str(_RESULTS / record), *argv]) == 0
        assert "ok:" in capsys.readouterr().out

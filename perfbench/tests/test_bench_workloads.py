"""Digests, output checks and the benchmark's metric list."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from perfbench import metrics, tracing, workloads

ROOT = Path(__file__).resolve().parents[2]


def tiny_closed():
    spec = workloads.WORKLOADS["wafer64_ni_closed"]
    return replace(spec, system=replace(spec.system, layers=4), iterations=8, sim_warmup=2)


def tiny_open():
    spec = workloads.WORKLOADS["wafer64_open_faults"]
    return replace(spec, num_requests=48, sim_warmup=2)


@pytest.mark.parametrize("make", [tiny_closed, tiny_open])
def test_digest_is_stable_and_follows_the_seed(make):
    workload = make()
    first = workloads.run_pass(workload, seed=3)
    again = workloads.run_pass(workload, seed=3)
    other = workloads.run_pass(workload, seed=4)
    assert first.digest == again.digest
    assert first.digest != other.digest
    assert first.problems == []
    assert first.checked == len(first.records) + len(first.requests)


@pytest.mark.parametrize("make", [tiny_closed, tiny_open])
def test_tracing_leaves_the_simulated_trace_unchanged(make):
    workload = make()
    untraced = workloads.run_pass(workload, seed=5)
    recorder = tracing.Recorder()
    traced = workloads.run_pass(workload, seed=5, recorder=recorder)
    assert traced.digest == untraced.digest
    values = metrics.per_layer(traced, recorder, workload, overhead=0.0)
    assert set(values) | set(metrics.REQUESTS) == set(metrics.PER_LAYER)
    assert None not in values.values()
    assert values["engine.step_ms"] >= values["engine.step_self_ms"] > 0


def test_record_checks_catch_bad_values():
    result = workloads.run_pass(tiny_closed(), seed=1)
    record = result.records[-1]
    layers = 58
    assert workloads.check_records([record], layers) == []
    assert workloads.check_records([replace(record, latency=float("nan"))], layers)
    assert workloads.check_records([replace(record, repair_exposed=-1.0)], layers)
    assert workloads.check_records([replace(record, latency=record.latency / layers)], layers)


def test_request_checks_catch_lost_and_misordered_requests():
    result = workloads.run_pass(tiny_open(), seed=1)
    requests = result.requests
    assert workloads.check_requests(requests, len(requests)) == []
    assert workloads.check_requests(requests[1:], len(requests))
    served = next(r for r in requests if r.completed)
    bad = replace(served, first_token_s=served.arrival_s - 1.0)
    assert workloads.check_requests([bad, *requests[1:]], len(requests))


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER

"""Percentile oracle and SLO roll-up tests."""

import math

import numpy as np
import pytest

from repro.serving import RequestTrace, percentile, summarize


class TestPercentileOracle:
    def test_matches_scalar_oracle_simple(self):
        # Hand-computed type-7 values on [10, 20, 30, 40]:
        # h = (n-1) * q/100; p50 -> h=1.5 -> 25; p25 -> h=0.75 -> 17.5.
        values = [40.0, 10.0, 30.0, 20.0]
        assert percentile(values, 50.0) == pytest.approx(25.0)
        assert percentile(values, 25.0) == pytest.approx(17.5)
        assert percentile(values, 0.0) == 10.0
        assert percentile(values, 100.0) == 40.0

    def test_matches_numpy_linear_rule(self):
        rng = np.random.default_rng(42)
        values = rng.exponential(scale=3.0, size=257).tolist()
        for q in (0.0, 1.0, 12.5, 50.0, 90.0, 95.0, 99.0, 100.0):
            assert percentile(values, q) == pytest.approx(
                float(np.percentile(values, q)), rel=1e-12
            )

    def test_single_value(self):
        assert percentile([7.0], 99.0) == 7.0

    def test_empty_is_nan(self):
        assert math.isnan(percentile([], 50.0))

    def test_out_of_range_q(self):
        with pytest.raises(ValueError, match="percentile q"):
            percentile([1.0], 101.0)
        with pytest.raises(ValueError, match="percentile q"):
            percentile([1.0], -1.0)


def make_request(request_id, arrival, first, completed, decode=5, rejected=False):
    trace = RequestTrace(
        request_id=request_id,
        arrival_s=arrival,
        prefill_tokens=16,
        decode_tokens=decode,
    )
    trace.first_token_s = first
    trace.completed_s = completed
    trace.rejected = rejected
    return trace


class TestRequestTrace:
    def test_ttft_is_arrival_anchored(self):
        trace = make_request(0, arrival=2.0, first=2.5, completed=3.5)
        assert trace.ttft_s == pytest.approx(0.5)

    def test_tpot_is_mean_decode_interval(self):
        trace = make_request(0, arrival=0.0, first=1.0, completed=3.0, decode=5)
        assert trace.tpot_s == pytest.approx(2.0 / 4)

    def test_single_token_request_has_zero_tpot(self):
        trace = make_request(0, arrival=0.0, first=1.0, completed=1.0, decode=1)
        assert trace.tpot_s == 0.0

    def test_incomplete_request_has_no_metrics(self):
        trace = RequestTrace(0, arrival_s=0.0, prefill_tokens=8, decode_tokens=4)
        assert not trace.completed
        assert trace.ttft_s is None
        assert trace.tpot_s is None
        # The prefill iteration emits the first output token.
        assert trace.served_tokens == 11


class TestSummarize:
    def test_counts_satisfy_conservation(self):
        requests = [
            make_request(0, 0.0, 1.0, 2.0),
            make_request(1, 0.5, 1.5, 2.5),
            make_request(2, 1.0, None, None, rejected=True),
            RequestTrace(3, arrival_s=2.0, prefill_tokens=8, decode_tokens=4),
        ]
        summary = summarize(requests, elapsed_s=3.0)
        assert summary.arrived == 4
        assert summary.completed == 2
        assert summary.rejected == 1
        assert summary.unfinished == 1
        assert (
            summary.completed + summary.rejected + summary.unfinished
            == summary.arrived
        )

    def test_served_and_rejected_is_an_accounting_bug(self):
        bad = make_request(0, 0.0, 1.0, 2.0, rejected=True)
        with pytest.raises(ValueError, match="both served and rejected"):
            summarize([bad], elapsed_s=3.0)

    def test_goodput_gated_by_deadline(self):
        requests = [
            make_request(0, 0.0, 0.1, 1.0),  # TTFT 0.1 — meets 0.5s deadline
            make_request(1, 0.0, 0.9, 2.0),  # TTFT 0.9 — misses it
        ]
        summary = summarize(requests, elapsed_s=2.0, ttft_deadline_s=0.5)
        assert summary.throughput_rps == pytest.approx(1.0)
        assert summary.goodput_rps == pytest.approx(0.5)

    def test_no_deadline_counts_every_completion(self):
        requests = [make_request(0, 0.0, 5.0, 6.0)]
        summary = summarize(requests, elapsed_s=6.0)
        assert summary.goodput_rps == summary.throughput_rps

    def test_percentiles_match_oracle_on_the_ttft_list(self):
        requests = [
            make_request(i, 0.0, float(i + 1), float(i + 2)) for i in range(10)
        ]
        summary = summarize(requests, elapsed_s=20.0)
        ttfts = [r.ttft_s for r in requests]
        assert summary.ttft_p50_s == pytest.approx(float(np.percentile(ttfts, 50)))
        assert summary.ttft_p99_s == pytest.approx(float(np.percentile(ttfts, 99)))

    def test_empty_run_is_all_nan(self):
        summary = summarize([], elapsed_s=0.0)
        assert summary.arrived == 0
        assert math.isnan(summary.ttft_p99_s)
        assert math.isnan(summary.throughput_rps)

    def test_to_dict_round_trips_every_field(self):
        summary = summarize([make_request(0, 0.0, 1.0, 2.0)], elapsed_s=2.0)
        payload = summary.to_dict()
        assert payload["arrived"] == 1
        assert payload["ttft_p50_s"] == pytest.approx(1.0)
        assert set(payload) == {
            "arrived",
            "completed",
            "rejected",
            "unfinished",
            "elapsed_s",
            "ttft_p50_s",
            "ttft_p95_s",
            "ttft_p99_s",
            "ttft_mean_s",
            "tpot_p50_s",
            "tpot_p95_s",
            "tpot_p99_s",
            "tpot_mean_s",
            "throughput_rps",
            "goodput_rps",
        }

"""Unit tests for the heap-based replica dispatcher."""

import pytest

from repro.serving import ReplicaDispatcher, RequestTrace


class TestDispatchOrdering:
    def test_round_robins_while_backends_are_equal(self):
        dispatcher = ReplicaDispatcher(4)
        picks = [dispatcher.dispatch(10.0) for _ in range(4)]
        assert sorted(picks) == [0, 1, 2, 3]

    def test_prefers_least_expected_wait(self):
        dispatcher = ReplicaDispatcher(3)
        dispatcher.dispatch(100.0)  # backend 0 now heavily loaded
        assert dispatcher.dispatch(1.0) == 1
        assert dispatcher.dispatch(1.0) == 2

    def test_drain_restores_attractiveness(self):
        dispatcher = ReplicaDispatcher(2)
        backend = dispatcher.dispatch(50.0)
        dispatcher.dispatch(10.0)  # the other backend
        dispatcher.drain(backend, 50.0)
        assert dispatcher.dispatch(1.0) == backend

    def test_faster_ema_rate_attracts_work(self):
        dispatcher = ReplicaDispatcher(2, ema_alpha=1.0)
        # Same queue depth, but backend 1 is observed to serve 10x faster.
        dispatcher.dispatch(10.0)
        dispatcher.dispatch(10.0)
        dispatcher.observe_rate(0, tokens=10.0, elapsed_s=10.0)  # 1 tok/s
        dispatcher.observe_rate(1, tokens=100.0, elapsed_s=10.0)  # 10 tok/s
        assert dispatcher.dispatch(1.0) == 1

    def test_exclude_skips_full_backends(self):
        dispatcher = ReplicaDispatcher(3)
        assert dispatcher.dispatch(1.0, exclude={0, 1}) == 2
        # Excluded backends stay dispatchable next time around.
        assert dispatcher.dispatch(1.0, exclude={2}) in (0, 1)

    def test_all_excluded_raises(self):
        dispatcher = ReplicaDispatcher(2)
        with pytest.raises(RuntimeError, match="no live backend"):
            dispatcher.dispatch(1.0, exclude={0, 1})

    def test_nonpositive_tokens_rejected(self):
        dispatcher = ReplicaDispatcher(2)
        with pytest.raises(ValueError, match="tokens"):
            dispatcher.dispatch(0.0)


class TestEMA:
    def test_ema_converges_toward_observed_rate(self):
        dispatcher = ReplicaDispatcher(1, ema_alpha=0.5, initial_rate=1.0)
        for _ in range(20):
            dispatcher.observe_rate(0, tokens=8.0, elapsed_s=1.0)
        assert dispatcher.backends[0].ema_rate == pytest.approx(8.0, rel=1e-3)

    def test_degenerate_observations_are_ignored(self):
        dispatcher = ReplicaDispatcher(1)
        before = dispatcher.backends[0].ema_rate
        dispatcher.observe_rate(0, tokens=0.0, elapsed_s=1.0)
        dispatcher.observe_rate(0, tokens=5.0, elapsed_s=0.0)
        assert dispatcher.backends[0].ema_rate == before

    def test_drain_never_goes_negative(self):
        dispatcher = ReplicaDispatcher(1)
        dispatcher.dispatch(5.0)
        dispatcher.drain(0, 100.0)
        assert dispatcher.backends[0].queue_tokens == 0.0

    @pytest.mark.parametrize("decode_tokens", [1, 12])
    def test_fully_served_request_leaves_backend_at_zero(self, decode_tokens):
        """The dispatch charge equals what serving drains: the whole prompt
        in the prefill iteration (which also emits the first output
        token), then one token per later decode iteration.  Any residue
        would make an idle backend look busy forever."""
        request = RequestTrace(
            0, arrival_s=0.0, prefill_tokens=40, decode_tokens=decode_tokens
        )
        dispatcher = ReplicaDispatcher(2)
        backend = dispatcher.dispatch(request.served_tokens)
        dispatcher.drain(backend, request.prefill_tokens)
        for _ in range(request.decode_tokens - 1):
            dispatcher.drain(backend, 1)
        assert dispatcher.backends[backend].queue_tokens == 0.0
        assert dispatcher.min_expected_wait_s() == 0.0


class TestFaultIntegration:
    def test_blacklisted_backend_is_skipped(self):
        dispatcher = ReplicaDispatcher(2)
        assert dispatcher.blacklist(0)
        assert all(dispatcher.dispatch(1.0) == 1 for _ in range(3))

    def test_blacklist_and_reinstate_report_transitions(self):
        dispatcher = ReplicaDispatcher(2)
        assert dispatcher.blacklist(0) is True
        assert dispatcher.blacklist(0) is False  # already blacklisted
        assert dispatcher.reinstate(0) is True
        assert dispatcher.reinstate(0) is False  # already clean

    def test_reinstated_backend_serves_again(self):
        dispatcher = ReplicaDispatcher(2)
        dispatcher.blacklist(0)
        dispatcher.dispatch(50.0)  # piles onto backend 1
        dispatcher.reinstate(0)
        assert dispatcher.dispatch(1.0) == 0

    def test_all_blacklisted_degrades_to_least_loaded(self):
        # Serving slowly beats refusing service: with every live backend
        # blacklisted, dispatch still picks the least-loaded one.
        dispatcher = ReplicaDispatcher(2)
        dispatcher.dispatch(10.0)  # backend 0 loaded
        dispatcher.blacklist(0)
        dispatcher.blacklist(1)
        assert dispatcher.dispatch(1.0) == 1

    def test_remove_is_permanent(self):
        dispatcher = ReplicaDispatcher(2)
        assert dispatcher.remove(0) is True
        assert dispatcher.remove(0) is False
        assert dispatcher.num_alive == 1
        assert dispatcher.live_backends() == [1]
        assert all(dispatcher.dispatch(1.0) == 1 for _ in range(3))

    def test_remove_everything_raises_on_dispatch(self):
        dispatcher = ReplicaDispatcher(2)
        dispatcher.remove(0)
        dispatcher.remove(1)
        assert dispatcher.num_alive == 0
        with pytest.raises(RuntimeError, match="no live backend"):
            dispatcher.dispatch(1.0)

    def test_blacklisted_backends_listed(self):
        dispatcher = ReplicaDispatcher(3)
        dispatcher.blacklist(1)
        dispatcher.remove(2)
        dispatcher.blacklist(2)  # dead backends are not reported
        assert dispatcher.blacklisted_backends() == [1]


class TestExpectedWait:
    def test_min_expected_wait_tracks_load(self):
        dispatcher = ReplicaDispatcher(2, initial_rate=2.0)
        assert dispatcher.min_expected_wait_s() == 0.0
        dispatcher.dispatch(10.0)
        dispatcher.dispatch(4.0)
        assert dispatcher.min_expected_wait_s() == pytest.approx(2.0)

    def test_min_expected_wait_ignores_blacklisted_when_possible(self):
        dispatcher = ReplicaDispatcher(2, initial_rate=1.0)
        dispatcher.dispatch(10.0)  # backend 0
        dispatcher.blacklist(1)
        # Backend 1 is idle but blacklisted; the estimate uses backend 0.
        assert dispatcher.min_expected_wait_s() == pytest.approx(10.0)

    def test_min_expected_wait_falls_back_to_blacklisted(self):
        dispatcher = ReplicaDispatcher(1)
        dispatcher.dispatch(5.0)
        dispatcher.blacklist(0)
        assert dispatcher.min_expected_wait_s() == pytest.approx(5.0)

    def test_min_expected_wait_inf_when_all_dead(self):
        dispatcher = ReplicaDispatcher(1)
        dispatcher.remove(0)
        assert dispatcher.min_expected_wait_s() == float("inf")


class TestValidation:
    def test_bad_constructor_args(self):
        with pytest.raises(ValueError):
            ReplicaDispatcher(0)
        with pytest.raises(ValueError):
            ReplicaDispatcher(2, ema_alpha=0.0)
        with pytest.raises(ValueError):
            ReplicaDispatcher(2, ema_alpha=1.5)
        with pytest.raises(ValueError):
            ReplicaDispatcher(2, initial_rate=0.0)

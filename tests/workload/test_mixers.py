"""Tests for scenario mixers."""

import numpy as np
import pytest

from repro.workload.mixers import AzureLikeMixer, ConstantMixer
from repro.workload.scenarios import CHAT, CODING, MATH, PRIVACY

ALL = [CHAT, CODING, MATH, PRIVACY]


class TestConstantMixer:
    def test_defaults_to_uniform(self):
        mixer = ConstantMixer(ALL)
        np.testing.assert_allclose(mixer.weights(0), [0.25] * 4)

    def test_fixed_weights_normalised(self):
        mixer = ConstantMixer([MATH, CHAT], fixed_weights=[3.0, 1.0])
        np.testing.assert_allclose(mixer.weights(10), [0.75, 0.25])

    def test_single_scenario(self):
        mixer = ConstantMixer([MATH])
        assert mixer.weights(0).tolist() == [1.0]

    def test_weights_constant_over_time(self):
        mixer = ConstantMixer(ALL)
        np.testing.assert_array_equal(mixer.weights(0), mixer.weights(1000))

    def test_rejects_mismatched_weights(self):
        with pytest.raises(ValueError):
            ConstantMixer(ALL, fixed_weights=[1.0])

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            ConstantMixer([MATH], fixed_weights=[-1.0])

    def test_requires_scenarios(self):
        with pytest.raises(ValueError):
            ConstantMixer([])

    def test_popularity_mixture_normalised(self):
        mixer = ConstantMixer(ALL)
        popularity = mixer.popularity(128, layer=0, iteration=0)
        assert popularity.sum() == pytest.approx(1.0)


class TestAzureLikeMixer:
    def test_weights_normalised_and_positive(self):
        mixer = AzureLikeMixer(ALL, period_iters=100)
        for iteration in range(0, 300, 17):
            weights = mixer.weights(iteration)
            assert weights.sum() == pytest.approx(1.0)
            assert (weights >= 0).all()

    def test_composition_drifts(self):
        mixer = AzureLikeMixer(ALL, period_iters=200, noise=0.0)
        early = mixer.weights(0)
        later = mixer.weights(100)
        assert not np.allclose(early, later, atol=0.05)

    def test_cyclic_without_noise(self):
        mixer = AzureLikeMixer(ALL, period_iters=100, noise=0.0)
        np.testing.assert_allclose(mixer.weights(0), mixer.weights(100), atol=1e-9)

    def test_phase_shift_rotates_dominance(self):
        mixer = AzureLikeMixer(ALL, period_iters=400, noise=0.0)
        dominant = {int(np.argmax(mixer.weights(t))) for t in range(0, 400, 10)}
        assert len(dominant) == 4  # every scenario leads at some point

    def test_rejects_bad_period(self):
        with pytest.raises(ValueError):
            AzureLikeMixer(ALL, period_iters=0)

    def test_rejects_bad_noise(self):
        with pytest.raises(ValueError):
            AzureLikeMixer(ALL, noise=1.5)


class TestWeightsBatchScan:
    """The vectorized AR(1) scan against sequential weights() calls.

    The scan reassociates the recursion's floating-point sums (closed
    form instead of layer-by-layer), so equality is ~1e-12 relative, not
    bitwise; the RNG stream is consumed in exactly the sequential order.
    """

    @pytest.mark.parametrize("num_layers", [1, 3, 58, 300])
    def test_matches_sequential_weights(self, num_layers):
        batched = AzureLikeMixer(ALL, period_iters=60, seed=3)
        sequential = AzureLikeMixer(ALL, period_iters=60, seed=3)
        got = batched.weights_batch(iteration=5, num_layers=num_layers)
        want = np.stack(
            [sequential.weights(5) for _ in range(num_layers)]
        )
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(
            batched._noise_state, sequential._noise_state, rtol=1e-12, atol=0.0
        )

    def test_rng_stream_stays_aligned(self):
        batched = AzureLikeMixer(ALL, period_iters=60, seed=3)
        sequential = AzureLikeMixer(ALL, period_iters=60, seed=3)
        batched.weights_batch(iteration=0, num_layers=7)
        for _ in range(7):
            sequential.weights(0)
        assert batched._rng.integers(1 << 30) == sequential._rng.integers(1 << 30)

    def test_successive_batches_chain_the_state(self):
        """Two batch calls equal one long sequential run — the carried
        noise state chains across calls (and across scan blocks, since
        300 > _SCAN_BLOCK)."""
        batched = AzureLikeMixer(ALL, period_iters=60, seed=9)
        sequential = AzureLikeMixer(ALL, period_iters=60, seed=9)
        first = batched.weights_batch(iteration=2, num_layers=300)
        second = batched.weights_batch(iteration=2, num_layers=40)
        want = np.stack([sequential.weights(2) for _ in range(340)])
        got = np.concatenate([first, second])
        np.testing.assert_allclose(got, want, rtol=1e-11, atol=0.0)

    def test_noise_free_batch_is_broadcast(self):
        mixer = AzureLikeMixer(ALL, period_iters=60, noise=0.0)
        batch = mixer.weights_batch(iteration=4, num_layers=5)
        np.testing.assert_array_equal(batch, np.broadcast_to(batch[0], batch.shape))
        np.testing.assert_array_equal(batch[0], mixer.weights(4))


class TestRngDeterminism:
    """Pinned stream contracts the request-level front end will rely on."""

    def test_same_seed_same_weight_trace(self):
        a = AzureLikeMixer(ALL, period_iters=60, noise=0.05, seed=7)
        b = AzureLikeMixer(ALL, period_iters=60, noise=0.05, seed=7)
        trace_a = np.stack([a.weights(t) for t in range(50)])
        trace_b = np.stack([b.weights(t) for t in range(50)])
        np.testing.assert_array_equal(trace_a, trace_b)

    def test_different_seeds_diverge(self):
        a = AzureLikeMixer(ALL, noise=0.05, seed=1)
        b = AzureLikeMixer(ALL, noise=0.05, seed=2)
        assert (a.weights(0) != b.weights(0)).any()

    def test_batch_consumes_same_stream_as_sequential(self):
        # One weights_batch(t, L) call must leave the RNG where L
        # sequential weights(t) calls would.
        a = AzureLikeMixer(ALL, noise=0.05, seed=3)
        b = AzureLikeMixer(ALL, noise=0.05, seed=3)
        a.weights_batch(0, 8)
        for _ in range(8):
            b.weights(0)
        np.testing.assert_array_equal(a.weights(1), b.weights(1))

    def test_noise_free_mixer_is_rng_free(self):
        a = AzureLikeMixer(ALL, noise=0.0, seed=5)
        before = a._rng.bit_generator.state["state"]["state"]
        a.weights(3)
        a.weights_batch(4, 16)
        after = a._rng.bit_generator.state["state"]["state"]
        assert before == after


class TestRateMoments:
    def test_period_average_rate_is_uniform(self):
        # Phase-shifted raised cosines average to equal scenario shares
        # over a full period — the long-run "request rate" per scenario.
        mixer = AzureLikeMixer(ALL, period_iters=64, noise=0.0)
        trace = np.stack([mixer.weights(t) for t in range(64)])
        np.testing.assert_allclose(
            trace.mean(axis=0), np.full(len(ALL), 0.25), atol=0.02
        )

    def test_noise_free_weights_are_periodic(self):
        mixer = AzureLikeMixer(ALL, period_iters=48, noise=0.0)
        np.testing.assert_allclose(mixer.weights(5), mixer.weights(53))

    def test_ar1_noise_state_matches_stationary_moments(self):
        # state' = 0.9 s + 0.1 z, z ~ N(0, noise^2): stationary mean 0,
        # variance noise^2 / 19.
        mixer = AzureLikeMixer(ALL, period_iters=60, noise=0.2, seed=11)
        states = np.empty((4000, len(ALL)))
        for t in range(4000):
            mixer.weights(t)
            states[t] = mixer._noise_state
        warm = states[200:]
        assert np.abs(warm.mean(axis=0)).max() < 0.01
        np.testing.assert_allclose(
            warm.var(axis=0), 0.2**2 / 19.0, rtol=0.15
        )

    def test_interval_drift_is_slow(self):
        # Successive weight vectors move smoothly: the per-iteration step
        # stays a small fraction of the weight scale, the "slow drift"
        # property the gating warm-up depends on.
        mixer = AzureLikeMixer(ALL, period_iters=600, noise=0.05, seed=13)
        trace = np.stack([mixer.weights(t) for t in range(200)])
        steps = np.abs(np.diff(trace, axis=0)).max(axis=1)
        assert steps.max() < 0.05
        assert steps.mean() < 0.01

    def test_constant_mixer_rate_is_exact(self):
        mixer = ConstantMixer(ALL, fixed_weights=[4, 2, 1, 1])
        trace = np.stack([mixer.weights(t) for t in range(10)])
        np.testing.assert_array_equal(
            trace, np.tile([0.5, 0.25, 0.125, 0.125], (10, 1))
        )

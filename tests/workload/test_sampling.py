"""Distribution and determinism tests for the batched sampling kernels.

The kernels must match ``numpy.random.Generator.binomial`` *in
distribution* (they consume the bit stream differently, so never
bit-for-bit): fixed-seed moment checks bound the first two moments and
chi-squared goodness-of-fit tests compare full pmfs against exact
binomial probabilities.  All statistics are deterministic (fixed seeds),
so the critical values — 99.9th percentile via the Wilson–Hilferty cube
approximation — gate real regressions, not sampling noise.
"""

import math

import numpy as np
import pytest

from repro.workload import sampling
from repro.workload.sampling import binomial, binomial_half, multinomial_split


def chi2_critical(dof: int, z: float = 3.09) -> float:
    """Wilson–Hilferty 99.9th-percentile chi-squared quantile."""
    h = 2.0 / (9.0 * dof)
    return dof * (1.0 - h + z * math.sqrt(h)) ** 3


def binom_pmf(n: int, p: float) -> np.ndarray:
    k = np.arange(n + 1)
    comb = np.array([math.comb(n, int(i)) for i in k], dtype=float)
    return comb * p**k * (1.0 - p) ** (n - k)


def chi2_binomial(draws: np.ndarray, n: int, p: float) -> tuple[float, int]:
    """Goodness-of-fit statistic against the exact ``Binomial(n, p)`` pmf,
    tail bins lumped until every expected count is at least 8."""
    expected = binom_pmf(n, p) * draws.size
    counts = np.bincount(draws.astype(np.int64), minlength=n + 1).astype(float)
    keep = expected >= 8.0
    assert keep.any(), "test shape too small for a chi-squared bin"
    lo = int(np.argmax(keep))
    hi = int(n - np.argmax(keep[::-1]))
    obs = np.concatenate(
        [[counts[: lo + 1].sum()], counts[lo + 1 : hi], [counts[hi:].sum()]]
    )
    exp = np.concatenate(
        [[expected[: lo + 1].sum()], expected[lo + 1 : hi], [expected[hi:].sum()]]
    )
    stat = float(((obs - exp) ** 2 / exp).sum())
    return stat, obs.size - 1


class TestBinomialHalf:
    def test_moments_across_lane_sizes(self):
        # Covers the one-word (<=64), two-word (<=128) and segmented paths.
        rng = np.random.default_rng(101)
        n = np.array([0, 1, 5, 31, 64, 65, 127, 128, 129, 300, 1000])
        reps = 4000
        draws = np.stack([binomial_half(rng, n) for _ in range(reps)])
        assert (draws >= 0).all() and (draws <= n).all()
        assert (draws[:, 0] == 0).all()
        mean_err = np.abs(draws.mean(axis=0) - n / 2)
        assert (mean_err <= 3.5 * np.sqrt(n / 4 / reps) + 1e-9).all()
        var = draws.var(axis=0)
        big = n >= 31
        assert np.abs(var[big] / (n[big] / 4) - 1.0).max() < 0.12

    @pytest.mark.parametrize("n", [10, 60, 100, 250])
    def test_chi_squared_exact_pmf(self, n):
        rng = np.random.default_rng(7 + n)
        draws = np.concatenate(
            [binomial_half(rng, np.full(500, n)) for _ in range(12)]
        )
        stat, dof = chi2_binomial(draws, n, 0.5)
        assert stat < chi2_critical(dof), (n, stat, dof)

    @pytest.mark.parametrize("n", [[-5], [10, -1], [[3, 4], [-64, 2]]])
    def test_rejects_negative_counts(self, n):
        # -5 used to index the mask table from its end and come back as
        # a positive count.
        with pytest.raises(ValueError, match="nonnegative"):
            binomial_half(np.random.default_rng(0), np.array(n))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_float_counts(self, bad):
        with pytest.raises(ValueError, match="finite"):
            binomial_half(np.random.default_rng(0), np.array([4.0, bad]))

    def test_matches_generator_binomial_moments(self):
        # Same law as Generator.binomial(n, 0.5) on a fixed seed pair.
        n = np.full(3000, 96)
        ours = binomial_half(np.random.default_rng(3), np.tile(n, 10))
        ref = np.random.default_rng(4).binomial(np.tile(n, 10), 0.5)
        assert abs(ours.mean() - ref.mean()) < 0.25
        assert abs(ours.var() / ref.var() - 1.0) < 0.05


class TestBinomial:
    def test_heterogeneous_moments(self):
        rng = np.random.default_rng(11)
        n = np.array([0, 4, 12, 40, 40, 200, 1000, 64])
        p = np.array([0.3, 0.05, 0.5, 0.5, 0.9, 0.02, 0.25, 0.999])
        reps = 4000
        draws = np.stack([binomial(rng, n, p) for _ in range(reps)])
        assert (draws >= 0).all() and (draws <= n).all()
        mean = n * p
        sd = np.sqrt(np.maximum(n * p * (1 - p), 1e-12) / reps)
        assert (np.abs(draws.mean(axis=0) - mean) <= 4.0 * sd + 1e-9).all()
        var = n * p * (1 - p)
        well = var > 2.0
        assert np.abs(draws.var(axis=0)[well] / var[well] - 1.0).max() < 0.12

    @pytest.mark.parametrize(
        "n,p",
        [
            (40, 0.5),  # BTRS bulk path (n*p >= 10)
            (60, 0.08),  # inverse-CDF small-mean path
            (25, 0.9),  # complement path (p > 1/2)
            (500, 0.04),  # BTRS through a small p
        ],
    )
    def test_chi_squared_vs_generator_law(self, n, p):
        rng = np.random.default_rng(int(n * 1000 + p * 100))
        draws = np.concatenate(
            [binomial(rng, np.full(500, n), np.full(500, p)) for _ in range(12)]
        )
        stat, dof = chi2_binomial(draws, n, p)
        assert stat < chi2_critical(dof), (n, p, stat, dof)

    def test_edge_parameters(self):
        rng = np.random.default_rng(0)
        n = np.array([0, 10, 10, 10])
        p = np.array([0.7, 0.0, 1.0, 0.5])
        draws = binomial(rng, n, p)
        assert draws[0] == 0 and draws[1] == 0 and draws[2] == 10
        assert 0 <= draws[3] <= 10

    def test_validates_parameters(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            binomial(rng, np.array([-1]), np.array([0.5]))
        with pytest.raises(ValueError):
            binomial(rng, np.array([5]), np.array([1.5]))

    @pytest.mark.parametrize("p", [np.nan, np.inf, -np.inf, -0.5])
    def test_rejects_non_finite_or_out_of_range_p(self, p):
        # A NaN lane used to pass the range check and come back as
        # uninitialized memory: no branch wrote it.
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="p must be"):
            binomial(rng, np.array([50, 50]), np.array([0.5, p]))
        with pytest.raises(ValueError, match="p must be"):
            binomial(rng, 50, p)

    @pytest.mark.parametrize("n", [[-5], [3, -1, 7], [4.0, -2.0]])
    def test_rejects_negative_counts(self, n):
        with pytest.raises(ValueError, match="nonnegative"):
            binomial(np.random.default_rng(0), np.array(n), 0.3)

    def test_rejects_non_finite_float_counts(self):
        with pytest.raises(ValueError, match="finite"):
            binomial(np.random.default_rng(0), np.array([3.0, np.nan]), 0.3)


class TestMultinomialSplit:
    @pytest.mark.parametrize("num_groups", [1, 2, 3, 4, 6, 8, 16, 32])
    @pytest.mark.parametrize("shape,axis", [((40,), 0), ((7, 9), 1)])
    def test_totals_preserved_exactly(self, num_groups, shape, axis):
        rng = np.random.default_rng(31)
        totals = np.random.default_rng(6).integers(0, 900, size=shape)
        split = multinomial_split(rng, totals, num_groups, axis=axis)
        assert split.dtype == np.int64
        assert (split >= 0).all()
        assert (split.sum(axis=axis) == totals).all()

    def test_out_path_bitwise_matches_fresh_allocation(self):
        # Both write the tree's final level into the result, so out= and
        # the fresh int64 allocation must agree exactly.
        for num_groups in (2, 4, 8, 16):
            totals = np.random.default_rng(8).integers(0, 900, size=(57, 128))
            ref = multinomial_split(
                np.random.default_rng(42), totals, num_groups, axis=1
            )
            out = np.empty(totals.shape[:1] + (num_groups,) + totals.shape[1:])
            multinomial_split(
                np.random.default_rng(42), totals, num_groups, axis=1, out=out
            )
            assert (out == ref).all(), num_groups

    def test_float_out_holds_exact_integers(self):
        rng = np.random.default_rng(9)
        totals = np.random.default_rng(10).integers(0, 2000, size=(57, 128))
        out = np.empty((57, 16, 128))
        multinomial_split(rng, totals, 16, axis=1, out=out)
        assert (out == np.round(out)).all()
        assert (out.sum(axis=1) == totals).all()

    def test_split_law_moments_and_covariance(self):
        rng = np.random.default_rng(41)
        n, G, reps = 192, 4, 4000
        draws = np.stack(
            [multinomial_split(rng, np.array([n]), G)[:, 0] for _ in range(reps)]
        )
        mean = draws.mean(axis=0)
        assert np.abs(mean - n / G).max() < 4.0 * math.sqrt(n / G / reps) + 0.3
        var = draws.var(axis=0)
        exp_var = n * (1 / G) * (1 - 1 / G)
        assert np.abs(var / exp_var - 1.0).max() < 0.12
        cov = np.cov(draws[:, 0], draws[:, 1])[0, 1]
        assert abs(cov / (-n / G**2) - 1.0) < 0.25

    def test_marginal_chi_squared(self):
        # One slot of Multinomial(n, 1/G) is Binomial(n, 1/G) exactly.
        rng = np.random.default_rng(51)
        n, G = 160, 16
        draws = np.stack(
            [multinomial_split(rng, np.full(200, n), G)[0] for _ in range(25)]
        ).ravel()
        stat, dof = chi2_binomial(draws, n, 1.0 / G)
        assert stat < chi2_critical(dof), (stat, dof)

    def test_skewed_lane_partition_tiers(self):
        # Mixed lane sizes route through the fixed-word bulk + scattered
        # two-word / segmented tails; each tier keeps the split law.
        rng = np.random.default_rng(61)
        n = np.array([40] * 40 + [90] * 8 + [700] * 3)
        reps = 2500
        draws = np.stack([multinomial_split(rng, n, 4, axis=0) for _ in range(reps)])
        assert (draws.sum(axis=1) == n[None, :]).all()
        var = draws.var(axis=0)
        exp_var = n * 0.25 * 0.75
        for tier in (n == 40, n == 90, n == 700):
            ratio = var[:, tier].mean() / exp_var[tier].mean()
            assert abs(ratio - 1.0) < 0.1, ratio

    def test_matches_legacy_thinning_chain_in_distribution(self):
        # The tree and the sequential chain factorize the same joint law.
        n, G, reps = 128, 8, 3000
        tree = np.stack(
            [
                multinomial_split(np.random.default_rng(100 + i), np.array([n]), G)[
                    :, 0
                ]
                for i in range(reps)
            ]
        )
        chain = np.empty((reps, G))
        for i in range(reps):
            rng = np.random.default_rng(5000 + i)
            remaining = n
            for g in range(G - 1):
                taken = rng.binomial(remaining, 1.0 / (G - g))
                chain[i, g] = taken
                remaining -= taken
            chain[i, G - 1] = remaining
        assert abs(tree.mean() - chain.mean()) < 0.2
        assert abs(tree.var() / chain.var() - 1.0) < 0.1

    def test_validates_arguments(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            multinomial_split(rng, np.array([5]), 0)
        with pytest.raises(ValueError):
            multinomial_split(rng, np.array([5]), 4, out=np.empty((3, 1)))

    @pytest.mark.parametrize("num_groups", [2, 4, 6, 9, 16])
    def test_rejects_negative_totals(self, num_groups):
        # Power-of-two G used to return negative counts (G = 6 raised
        # from a tree level instead).
        with pytest.raises(ValueError, match="nonnegative"):
            multinomial_split(
                np.random.default_rng(0), np.array([5, -3, 7, 200]), num_groups
            )

    def test_rejects_non_finite_float_totals(self):
        with pytest.raises(ValueError, match="finite"):
            multinomial_split(np.random.default_rng(0), np.array([5.0, np.inf]), 4)

    def test_invalid_totals_leave_rng_untouched(self):
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        with pytest.raises(ValueError):
            multinomial_split(rng, np.array([[4, 4], [4, -4]]), 8, axis=1)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("num_groups", [1, 2, 4, 6, 16])
    def test_empty_totals(self, num_groups):
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        empty = np.zeros((0, 5), dtype=np.int64)
        split = multinomial_split(rng, empty, num_groups, axis=1)
        assert split.shape == (0, num_groups, 5)
        assert rng.bit_generator.state == state


class TestQuadKernel:
    def test_quad_split_strided_float_view(self):
        # The tree's final level writes into a moveaxis view; row writes
        # must land in the caller's memory, bitwise equal to the int64
        # staging result.
        n = np.random.default_rng(3).integers(0, 800, size=(4, 57, 128))
        ref = sampling._quad_split(np.random.default_rng(77), n.reshape(-1))
        host = np.empty((57, 4 * 4, 128))
        view = np.moveaxis(host, 1, 0).reshape((4, 4) + (57, 128))
        assert np.may_share_memory(view, host)
        sampling._quad_split(np.random.default_rng(77), n, out=view)
        assert (view.reshape(4, -1) == ref).all()


class TestDeterminism:
    def test_binomial_deterministic_per_seed(self):
        n = np.arange(200) * 7 % 300
        p = np.linspace(0.01, 0.99, 200)
        a = binomial(np.random.default_rng(1), n, p)
        b = binomial(np.random.default_rng(1), n, p)
        c = binomial(np.random.default_rng(2), n, p)
        assert (a == b).all()
        assert (a != c).any()

    def test_split_deterministic_per_seed(self):
        totals = np.arange(100) * 13 % 500
        a = multinomial_split(np.random.default_rng(5), totals, 16)
        b = multinomial_split(np.random.default_rng(5), totals, 16)
        assert (a == b).all()

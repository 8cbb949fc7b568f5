"""Tests for the gating simulator."""

import numpy as np
import pytest

from repro.analysis.load import device_token_loads, load_ratio
from repro.mapping.placement import StackedPlacement
from repro.models import QWEN3_235B
from repro.workload.mixers import AzureLikeMixer, ConstantMixer
from repro.workload.gating import GatingSimulator
from repro.workload.scenarios import CHAT, CODING, MATH, PRIVACY


def make_sim(**kwargs):
    defaults = dict(
        model=QWEN3_235B,
        num_groups=4,
        tokens_per_group=64,
        mixer=MATH,
        num_layers=2,
        seed=7,
    )
    defaults.update(kwargs)
    return GatingSimulator(**defaults)


class TestCounts:
    def test_shape(self):
        counts = make_sim().next_group_counts()
        assert counts.shape == (2, 4, 128)

    def test_total_selections(self):
        counts = make_sim().next_group_counts()
        # Layer 0 pins every group to its own slots; later layers pin
        # only the layer total (a group's share fluctuates).
        np.testing.assert_allclose(counts[0].sum(axis=1), 64 * 8)
        np.testing.assert_allclose(counts.sum(axis=(1, 2)), 4 * 64 * 8)

    def test_nonnegative_integers(self):
        counts = make_sim().next_group_counts()
        assert (counts >= 0).all()
        np.testing.assert_array_equal(counts, counts.astype(int))

    def test_iteration_advances(self):
        sim = make_sim()
        assert sim.iteration == 0
        sim.next_group_counts()
        assert sim.iteration == 1

    def test_seeded_reproducibility(self):
        a = make_sim(seed=42).next_group_counts()
        b = make_sim(seed=42).next_group_counts()
        np.testing.assert_array_equal(a, b)

    def test_expert_loads_sums_groups(self):
        sim = make_sim()
        counts = sim.next_group_counts()
        loads = sim.expert_loads(counts)
        assert loads.shape == (2, 128)
        np.testing.assert_allclose(loads, counts.sum(axis=1))


class TestImbalanceProperties:
    """The three load properties Fig. 12 depends on."""

    def test_skewed_loads(self):
        sim = make_sim(tokens_per_group=256)
        for _ in range(30):
            counts = sim.next_group_counts()
        placement = StackedPlacement(1, 128, 8)
        (loads,) = device_token_loads(counts[:1].sum(axis=1), placement)
        assert load_ratio(loads) > 1.5

    def test_balanced_mode_is_uniform(self):
        sim = make_sim(balanced=True, tokens_per_group=4096)
        counts = sim.next_group_counts()
        placement = StackedPlacement(1, 128, 8)
        (loads,) = device_token_loads(counts[:1].sum(axis=1), placement)
        assert load_ratio(loads) < 1.15

    def test_fixed_scenario_stabilises_after_warmup(self):
        """Device load ratios stabilise in a fixed scenario (Fig. 12)."""
        sim = make_sim(tokens_per_group=1024, adaptation=0.15)
        placement = StackedPlacement(1, 128, 8)
        ratios = []
        for _ in range(60):
            counts = sim.next_group_counts()
            (loads,) = device_token_loads(counts[:1].sum(axis=1), placement)
            ratios.append(loads / loads.sum())
        early_drift = np.abs(np.diff(ratios[:10], axis=0)).mean()
        late_drift = np.abs(np.diff(ratios[-10:], axis=0)).mean()
        assert late_drift < early_drift

    def test_mixed_scenario_keeps_drifting(self):
        mixer = AzureLikeMixer([CHAT, CODING, MATH, PRIVACY], period_iters=120)
        sim = make_sim(mixer=mixer, tokens_per_group=1024, adaptation=0.3)
        popularity_snapshots = []
        for iteration in range(180):
            sim.next_group_counts()
            if iteration % 60 == 0:
                popularity_snapshots.append(sim._state[0].copy())
        assert not np.allclose(
            popularity_snapshots[0], popularity_snapshots[-1], atol=1e-3
        )


class TestSingleLayerLoopParity:
    """At one layer (fig12's setup) next_group_counts draws nothing but
    layer 0's group counts, bit-identical to the seed's nested loop."""

    @staticmethod
    def loop_next_counts(sim):
        """The seed implementation of the per-(layer, group) draw."""
        model = sim.model
        selections = sim.tokens_per_group * model.experts_per_token
        counts = np.zeros(
            (sim.num_layers, sim.num_groups, model.num_experts), dtype=float
        )
        for layer in range(sim.num_layers):
            if sim.balanced:
                popularity = np.full(model.num_experts, 1.0 / model.num_experts)
            else:
                target = sim.mixer.popularity(
                    model.num_experts, layer, sim._iteration
                )
                sim._state[layer] = (
                    (1.0 - sim.adaptation) * sim._state[layer]
                    + sim.adaptation * target
                )
                popularity = sim._state[layer]
            for group in range(sim.num_groups):
                counts[layer, group] = sim._rng.multinomial(selections, popularity)
        sim._iteration += 1
        return counts

    @pytest.mark.parametrize("balanced", [False, True])
    def test_counts_and_state_bit_identical(self, balanced):
        # Noise-free drifting mixers: the AR(1) scan in weights_batch
        # reassociates floats (sequential parity is pinned to 1e-12 in
        # test_arrivals), so the bitwise multinomial draw-order oracle
        # here runs on the noise-free path, which is exact either way.
        mixer_a = AzureLikeMixer(
            [CHAT, CODING, MATH, PRIVACY], period_iters=40, noise=0.0
        )
        mixer_b = AzureLikeMixer(
            [CHAT, CODING, MATH, PRIVACY], period_iters=40, noise=0.0
        )
        new = make_sim(mixer=mixer_a, num_layers=1, balanced=balanced)
        reference = make_sim(mixer=mixer_b, num_layers=1, balanced=balanced)
        for _ in range(12):
            np.testing.assert_array_equal(
                new.next_group_counts(), self.loop_next_counts(reference)
            )
        np.testing.assert_array_equal(new._state, reference._state)
        # RNG streams remained aligned throughout.
        assert new._rng.integers(1 << 30) == reference._rng.integers(1 << 30)


class TestNextLoads:
    """Layer-0 group counts + layer totals, the reference for the
    layer totals of next_group_counts."""

    def test_shapes(self):
        counts0, loads = make_sim().next_loads()
        assert counts0.shape == (4, 128)
        assert loads.shape == (2, 128)

    def test_layer0_totals_consistent(self):
        counts0, loads = make_sim().next_loads()
        np.testing.assert_array_equal(loads[0], counts0.sum(axis=0))

    def test_total_selections_per_layer(self):
        _counts0, loads = make_sim(num_layers=5).next_loads()
        # Every layer's totals sum to num_groups * tokens * top_k: layers
        # past the first draw one multinomial with all groups' trials.
        np.testing.assert_allclose(loads.sum(axis=1), 4 * 64 * 8)

    def test_single_layer(self):
        counts0, loads = make_sim(num_layers=1).next_loads()
        assert loads.shape == (1, 128)
        np.testing.assert_array_equal(loads[0], counts0.sum(axis=0))

    def test_seeded_reproducibility(self):
        a0, al = make_sim(seed=42).next_loads()
        b0, bl = make_sim(seed=42).next_loads()
        np.testing.assert_array_equal(a0, b0)
        np.testing.assert_array_equal(al, bl)


class TestNextGroupCounts:
    """The demand-resolved path: per-layer group counts for every layer."""

    def test_shapes(self):
        counts = make_sim(num_layers=3).next_group_counts()
        assert counts.shape == (3, 4, 128)

    def test_layer0_bit_identical_to_next_loads(self):
        """Layer 0 and the layer totals consume the RNG stream exactly as
        next_loads, so the first iteration's totals are bitwise equal."""
        counts = make_sim().next_group_counts()
        counts0, loads = make_sim().next_loads()
        np.testing.assert_array_equal(counts[0], counts0)
        np.testing.assert_array_equal(counts.sum(axis=1)[0], loads[0])

    @pytest.mark.parametrize("num_groups", [4, 9])
    def test_totals_match_next_loads_bitwise_first_iteration(self, num_groups):
        sim = make_sim(num_layers=5, num_groups=num_groups)
        counts = sim.next_group_counts()
        _counts0, loads = make_sim(num_layers=5, num_groups=num_groups).next_loads()
        np.testing.assert_array_equal(counts.sum(axis=1), loads)

    def test_totals_preserved_every_iteration(self):
        """Every layer's totals sum to num_groups * tokens * top_k — the
        split never creates or loses selection slots."""
        sim = make_sim(num_layers=4)
        for _ in range(6):
            counts = sim.next_group_counts()
            np.testing.assert_allclose(counts.sum(axis=(1, 2)), 4 * 64 * 8)
            assert (counts >= 0).all()

    def test_multinomial_split_is_integer(self):
        counts = make_sim().next_group_counts()
        np.testing.assert_array_equal(counts, counts.astype(int))

    def test_totals_match_next_loads_in_distribution(self):
        """Fixed-seed moment check: long-run per-expert layer totals agree
        with next_loads' within sampling tolerance (both draw layer totals
        from the identical multinomial law)."""
        iterations = 150
        via_groups = make_sim(num_layers=2, tokens_per_group=256, seed=5)
        via_loads = make_sim(num_layers=2, tokens_per_group=256, seed=6)
        group_totals = np.zeros(128)
        load_totals = np.zeros(128)
        for _ in range(iterations):
            group_totals += via_groups.next_group_counts().sum(axis=1)[1]
            load_totals += via_loads.next_loads()[1][1]
        np.testing.assert_allclose(
            group_totals / iterations, load_totals / iterations, rtol=0.12, atol=6.0
        )

    def test_group_split_variance_matches_flat_slot_model(self):
        """The split's cross-group fluctuation carries the multinomial
        split variance (total/G)(1 - 1/G) on well-populated cells."""
        sim = make_sim(num_groups=16, tokens_per_group=128, seed=1)
        num = den = 0.0
        for _ in range(300):
            counts = sim.next_group_counts()
            totals = counts.sum(axis=1)[1]
            big = totals >= 200
            base = totals[big] / 16
            num += ((counts[1][:, big] - base) ** 2).mean(axis=0).sum()
            den += (base * (1 - 1 / 16)).sum()
        assert num / den == pytest.approx(1.0, rel=0.12)

    def test_popularity_state_matches_next_loads(self):
        mixer_a = AzureLikeMixer([CHAT, CODING, MATH, PRIVACY], period_iters=40)
        mixer_b = AzureLikeMixer([CHAT, CODING, MATH, PRIVACY], period_iters=40)
        via_groups = make_sim(mixer=mixer_a, num_layers=3)
        via_loads = make_sim(mixer=mixer_b, num_layers=3)
        for _ in range(8):
            via_groups.next_group_counts()
            via_loads.next_loads()
        np.testing.assert_array_equal(via_groups._state, via_loads._state)
        assert via_groups.iteration == via_loads.iteration

    def test_seeded_reproducibility(self):
        a = make_sim(seed=42).next_group_counts()
        b = make_sim(seed=42).next_group_counts()
        np.testing.assert_array_equal(a, b)

    def test_single_layer(self):
        counts = make_sim(num_layers=1).next_group_counts()
        assert counts.shape == (1, 4, 128)
        np.testing.assert_allclose(counts.sum(axis=2), 64 * 8)

    def test_oracles_untouched(self):
        """next_loads stays bit-identical whether or not the resolved
        path has consumed draws from a sibling simulator."""
        a = make_sim(seed=9)
        b = make_sim(seed=9)
        a.next_group_counts()
        b.next_group_counts()
        for left, right in zip(a.next_loads(), b.next_loads()):
            np.testing.assert_array_equal(left, right)


class TestValidation:
    def test_rejects_bad_groups(self):
        with pytest.raises(ValueError):
            make_sim(num_groups=0)

    def test_rejects_bad_adaptation(self):
        with pytest.raises(ValueError):
            make_sim(adaptation=0.0)

    def test_rejects_bad_layers(self):
        with pytest.raises(ValueError):
            make_sim(num_layers=0)

    def test_scenario_promoted_to_constant_mixer(self):
        sim = make_sim(mixer=MATH)
        assert isinstance(sim.mixer, ConstantMixer)

    @pytest.mark.parametrize("field", ["num_groups", "tokens_per_group", "num_layers"])
    @pytest.mark.parametrize("value", [2.5, 2.0, float("nan"), float("inf"), 0, -1])
    def test_sizes_are_positive_integers(self, field, value):
        """A fractional ``tokens_per_group`` drew 2.5 x top-k selections
        per group, and a fractional ``num_layers`` failed with a
        ``TypeError``, so every size must be a positive integer."""
        with pytest.raises(ValueError, match=field):
            make_sim(**{field: value})

    @pytest.mark.parametrize("draw", ["next_group_counts", "next_loads"])
    @pytest.mark.parametrize("value", [2.5, float("nan"), 0])
    def test_per_iteration_tokens_are_positive_integers(self, draw, value):
        with pytest.raises(ValueError, match="tokens_per_group"):
            getattr(make_sim(), draw)(tokens_per_group=value)

    def test_numpy_integer_sizes_are_legal(self):
        """numpy sizes draw the same counts as Python ints."""
        sizes = dict(num_groups=np.int64(4), tokens_per_group=np.int32(64), num_layers=np.int64(2))
        numpy_sim, python_sim = make_sim(**sizes), make_sim()
        np.testing.assert_array_equal(
            numpy_sim.next_group_counts(tokens_per_group=np.int64(32)),
            python_sim.next_group_counts(tokens_per_group=32),
        )
        np.testing.assert_array_equal(numpy_sim.next_loads()[1], python_sim.next_loads()[1])


class TestOneSampler:
    @pytest.mark.parametrize(
        "knob",
        [
            dict(sampler="batched"),
            dict(group_split="multinomial"),
            dict(sampling_backend="numpy"),
        ],
    )
    def test_removed_knobs_rejected(self, knob):
        with pytest.raises(TypeError):
            make_sim(**knob)


class TestReturnLoads:
    def test_multinomial_loads_equal_group_sum_exactly(self):
        sim = make_sim(num_layers=4)
        for _ in range(3):
            counts, loads = sim.next_group_counts(return_loads=True)
            np.testing.assert_array_equal(loads, counts.sum(axis=1))

    def test_return_loads_consumes_same_stream(self):
        a = make_sim(seed=11)
        b = make_sim(seed=11)
        counts_a = a.next_group_counts()
        counts_b, _ = b.next_group_counts(return_loads=True)
        np.testing.assert_array_equal(counts_a, counts_b)

    def test_single_layer_loads(self):
        sim = make_sim(num_layers=1)
        counts, loads = sim.next_group_counts(return_loads=True)
        np.testing.assert_array_equal(loads, counts.sum(axis=1))

    def test_out_buffer_reused_and_rewritten(self):
        sim = make_sim(num_layers=3)
        ref = make_sim(num_layers=3)
        buf = np.full(
            (3, sim.num_groups, sim.model.num_experts), -1.0
        )
        first = sim.next_group_counts(out=buf)
        assert first is buf
        np.testing.assert_array_equal(first, ref.next_group_counts())
        second = sim.next_group_counts(out=buf)
        assert second is buf
        np.testing.assert_array_equal(second, ref.next_group_counts())

    def test_out_shape_validated(self):
        sim = make_sim(num_layers=3)
        with pytest.raises(ValueError):
            sim.next_group_counts(out=np.empty((2, 2, 2)))

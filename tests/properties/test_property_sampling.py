"""Property tests for the exact group split over generated totals."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.workload.sampling import multinomial_split

#: Lane sizes across every tier of the quad kernel: one word (<= 64), two
#: words (<= 128) and the segmented multi-word path.
LANE = st.one_of(st.integers(0, 64), st.integers(65, 128), st.integers(129, 5000))


@st.composite
def split_case(draw):
    totals = draw(
        hnp.arrays(
            np.int64,
            hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=6),
            elements=LANE,
        )
    )
    axis = draw(st.integers(0, totals.ndim))
    num_groups = draw(st.integers(1, 70))
    seed = draw(st.integers(0, 2**32 - 1))
    return totals, axis, num_groups, seed


def split(totals, axis, num_groups, seed, kind):
    """One split with a fresh generator; returns (counts, rng state)."""
    rng = np.random.default_rng(seed)
    shape = totals.shape[:axis] + (num_groups,) + totals.shape[axis:]
    out = None if kind is None else np.full(shape, -1, dtype=kind)
    counts = multinomial_split(rng, totals, num_groups, axis=axis, out=out)
    if out is not None:
        assert counts is out
    assert counts.shape == shape
    return counts, rng.bit_generator.state


class TestMultinomialSplitProperties:
    @given(split_case())
    @settings(max_examples=150, deadline=None)
    def test_totals_preserved_and_nonnegative(self, case):
        totals, axis, num_groups, seed = case
        counts, _ = split(totals, axis, num_groups, seed, None)
        assert counts.dtype == np.int64
        assert (counts >= 0).all()
        np.testing.assert_array_equal(counts.sum(axis=axis), totals)

    @given(split_case())
    @settings(max_examples=150, deadline=None)
    def test_out_kinds_draw_identically(self, case):
        totals, axis, num_groups, seed = case
        fresh, state = split(totals, axis, num_groups, seed, None)
        for kind in (np.int64, np.float64):
            counts, kind_state = split(totals, axis, num_groups, seed, kind)
            assert counts.dtype == kind
            np.testing.assert_array_equal(counts, fresh)
            assert kind_state == state

    @given(split_case(), st.sampled_from([None, np.int64, np.float64]))
    @settings(max_examples=100, deadline=None)
    def test_result_survives_the_next_call(self, case, kind):
        # The tree works in module scratch buffers; none may back a
        # returned array, so a second call must leave the first intact.
        totals, axis, num_groups, seed = case
        first, _ = split(totals, axis, num_groups, seed, kind)
        kept = first.copy()
        split(totals, axis, num_groups, seed + 1, kind)
        np.testing.assert_array_equal(first, kept)

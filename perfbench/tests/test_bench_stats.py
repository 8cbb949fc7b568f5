"""The ten-sample tail rule."""

import numpy as np
import pytest

from perfbench import stats


@pytest.mark.parametrize(
    ("samples", "expected"),
    [
        (0, None),
        (19, None),
        (20, 50.0),
        (99, 75.0),
        (100, 90.0),
        (199, 90.0),
        (200, 95.0),
        (999, 95.0),
        (1000, 99.0),
        (9999, 99.0),
        (10000, 99.9),
        (10**6, 99.9),
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond(samples, expected):
    assert stats.tail_percentile(samples) == expected


def test_tail_reads_the_chosen_percentile():
    samples = np.arange(300, dtype=float)
    value, label = stats.tail(samples)
    assert label == "p95"
    assert value == np.percentile(samples, 95)
    assert (samples > value).sum() >= stats.MIN_BEYOND


def test_tail_of_a_short_sample_is_its_maximum():
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, "max")
    with pytest.raises(ValueError):
        stats.tail([])

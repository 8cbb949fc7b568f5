"""Host-time statistics: the median and the ten-sample tail rule."""

import numpy as np

#: Candidate tail percentiles, highest first, in tenths of a percent so
#: the "samples beyond" test is exact integer arithmetic.
TAIL_LADDER_PERMILLE = (999, 990, 950, 900, 750, 500)

#: A tail percentile is reported only when at least this many samples lie
#: beyond it; fewer and the value is a single outlier, not a tail.
MIN_BEYOND = 10


def tail_percentile(num_samples: int) -> float | None:
    """The highest ladder percentile with >= ``MIN_BEYOND`` samples beyond it.

    ``None`` when even the median has fewer than ten samples beyond it
    (fewer than 20 samples); the caller then reports the maximum.
    """
    for permille in TAIL_LADDER_PERMILLE:
        if num_samples * (1000 - permille) >= MIN_BEYOND * 1000:
            return permille / 10
    return None


def tail(samples) -> tuple[float, str]:
    """(tail value, label) of ``samples`` under :func:`tail_percentile`."""
    values = np.asarray(samples, dtype=float)
    if values.size == 0:
        raise ValueError("tail of an empty sample")
    pct = tail_percentile(values.size)
    if pct is None:
        return float(values.max()), "max"
    return float(np.percentile(values, pct)), f"p{pct:g}"


def median(samples) -> float:
    values = np.asarray(samples, dtype=float)
    if values.size == 0:
        raise ValueError("median of an empty sample")
    return float(np.median(values))

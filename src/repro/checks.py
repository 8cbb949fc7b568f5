"""Argument checks shared across packages."""

import numbers


def check_count(name: str, value, minimum: int) -> None:
    """Reject a count that is not an integer (NaN, inf and fractions
    included) or is below ``minimum``; numpy integers are integers."""
    if not isinstance(value, numbers.Integral) or value < minimum:
        kind = "positive" if minimum == 1 else "non-negative"
        raise ValueError(f"{name} must be a {kind} integer, got {value!r}")

"""Runtime cache-aliasing sanitizer.

The caching layers hand out *shared* array objects: the pricer's operator
and the route caches return the same arrays on every hit, per-instance memos
(:mod:`repro.memo`) return whatever the first call computed, and the
layered pricing plans freeze share stacks for a whole placement epoch.  A
caller mutating one of those arrays in place corrupts every later
iteration that hits the same cache entry — silently, because nothing ever
re-derives cached state whose version key did not change.

Under ``REPRO_SANITIZE=1`` every array crossing a cache boundary is
flagged ``writeable=False``, so the first in-place mutation raises
``ValueError: assignment destination is read-only`` at the offending line
instead of poisoning a later iteration.  The discipline mirrors the fault
layer: provably zero-cost when disabled (hot paths test one module-level
bool), and enabling it never changes any computed value — only whether
aliasing bugs crash or corrupt.

``tests/conftest.py`` enables the sanitizer suite-wide when
``REPRO_SANITIZE=1`` is exported (CI runs a dedicated leg that way); unit
tests for the sanitizer itself toggle :func:`enable`/:func:`disable`
directly.  See ``docs/static-analysis.md`` for the full contract.
"""

import os

import numpy as np

__all__ = ["enabled", "enable", "disable", "freeze"]

_enabled = os.environ.get("REPRO_SANITIZE", "0") not in ("", "0")


def enabled() -> bool:
    """Whether cache-boundary arrays are currently being frozen."""
    return _enabled


def enable() -> None:
    global _enabled
    _enabled = True


def disable() -> None:
    """Stop freezing *new* cache entries.

    Arrays already frozen stay read-only — caches would have to be
    cleared and rebuilt to hand out writeable arrays again (the test
    suite's autouse cache-reset fixture does exactly that between tests).
    """
    global _enabled
    _enabled = False


def freeze(value):
    """Mark ``value``'s arrays read-only under the sanitizer; return it.

    Accepts a bare ``ndarray`` or a tuple/list of values (route-cache
    entries are tuples of arrays and scalars); anything else passes
    through untouched.  Call it exactly where a computed object is stored
    into — or first handed out of — a cache that will serve the same
    object again.  No-op (and no copy, no flag write) when disabled.
    """
    if _enabled:
        _freeze(value)
    return value


def _freeze(value) -> None:
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, (tuple, list)):
        for item in value:
            _freeze(item)

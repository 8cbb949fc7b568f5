"""Per-instance method memoization.

The simulator memoizes pure methods on immutable objects (route walks on
topologies, popularity vectors on scenario profiles).  Those memos must live
on the *instance*, never in a method-level ``functools.lru_cache``: a
class-level cache keyed by ``self`` holds a strong reference to every
instance it ever saw, pinning retired mappings/topologies (and the route
tables hanging off them) alive for the process lifetime — which also
silently defeats every weakref-keyed cache layered on top (dispatch
plans, layered pricers).  ``instance_memo`` expresses the correct pattern
once; reach for it instead of ``lru_cache`` whenever the first argument
is ``self``.
"""

import functools

from repro import sanitize

_UNSET = object()


def instance_memo(attr: str):
    """Memoize a method in the per-instance dict ``self.<attr>``.

    The dict is created lazily on first call (safe during ``__init__``
    ordering, and — via ``object.__setattr__`` — on frozen dataclasses
    too), keyed by the positional argument tuple; computed values —
    including ``None`` — are stored as-is.  The decorated method must be
    pure for fixed ``self`` and take hashable positional arguments only.

    Memoized values are cache-resident: every later call returns the same
    object, so under ``REPRO_SANITIZE=1`` array results are frozen
    read-only at store time (see :mod:`repro.sanitize`).
    """

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(self, *args):
            memo = getattr(self, attr, None)
            if memo is None:
                memo = {}
                object.__setattr__(self, attr, memo)
            entry = memo.get(args, _UNSET)
            if entry is _UNSET:
                entry = sanitize.freeze(fn(self, *args))
                memo[args] = entry
            return entry

        return wrapper

    return decorate

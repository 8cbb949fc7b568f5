"""Batched binomial sampling kernels for heterogeneous-parameter draws.

numpy's ``Generator.binomial`` costs ~100 ns *per draw* regardless of
array shape — each entry re-derives its rejection constants in scalar C —
which put a ~13x floor under the exact demand resolution of
:meth:`~repro.workload.gating.GatingSimulator.next_group_counts` (58
layers x 16 groups x 64 experts x 15 thinning steps is ~5e4 binomials per
iteration).  This module samples whole arrays of ``Binomial(n_i, p_i)`` in
a handful of vector operations instead:

* :func:`binomial_half` — exact ``Binomial(n, 1/2)`` as the popcount of
  ``n`` raw generator bits.  Lanes with ``n <= 64`` cost one ``uint64``
  word and ~8 vector ops total; longer lanes fall back to a cumsum/
  segmented-reduction path over ``ceil(n / 64)`` words each.
* :func:`binomial` — heterogeneous ``Binomial(n, p)``: Hörmann's BTRS
  transformed-rejection sampler (with the squeeze step) batched over all
  lanes with ``n * p >= 10``, and the one-uniform inverse-CDF count
  method for the small-mean lanes.  Matches ``Generator.binomial`` in
  distribution (moment + chi-squared tested), not bit-for-bit — it
  consumes the bit stream differently.
* :func:`multinomial_split` — exact totals-preserving
  ``Multinomial(total, 1/G)`` resolution of an integer array into ``G``
  parts, factorized as a binary thinning tree: when ``G`` is a power of
  two (the serving configurations) pairs of halving levels fuse into one
  batched 4-way split, and otherwise each level is at most two batched
  :func:`binomial_half` / :func:`binomial` calls.

Every kernel consumes the passed ``Generator``'s bit stream
deterministically: a fixed seed fixes the draw.  Each public entry checks
its arguments once (counts nonnegative, ``p`` finite and in ``[0, 1]``);
the tree levels below it call the unchecked kernels.
"""

import numpy as np

__all__ = [
    "binomial",
    "binomial_half",
    "multinomial_split",
]

_FULL = np.uint64(0xFFFFFFFFFFFFFFFF)
_ONE = np.uint64(1)

if hasattr(np, "bitwise_count"):  # numpy >= 2.0
    _popcount64 = np.bitwise_count
else:
    # numpy 1.26 (the oldest CI leg) has no popcount ufunc: gather through
    # a 64 KiB per-uint16-halfword table instead (~2x the ufunc's cost,
    # still vectorized).
    _POP16 = np.array(
        [bin(i).count("1") for i in range(1 << 16)], dtype=np.uint8
    )

    def _popcount64(bits):
        parts = _POP16[np.ascontiguousarray(bits).reshape(-1).view(np.uint16)]
        return (
            parts.reshape(-1, 4)
            .sum(axis=1, dtype=np.int64)
            .reshape(bits.shape)
        )

# -- Binomial(n, 1/2): popcount of raw generator bits -------------------------

#: Last-word masks indexed by ``(n & 63) + 64 * (n == 0)``: entry 0 is the
#: full word (``n`` a positive multiple of 64), entries 1-63 keep the low
#: ``rem`` bits, entries 64-127 zero the word (``n == 0`` lanes).
_HALF_MASKS = np.zeros(128, dtype=np.uint64)
_HALF_MASKS[0] = _FULL
_HALF_MASKS[1:64] = (_ONE << np.arange(1, 64, dtype=np.uint64)) - _ONE

#: Low-``n``-bits masks indexed *directly* by ``n`` for the paths that
#: guarantee ``n <= 64`` — skips the ``(n & 63) + ((n == 0) << 6)`` index
#: arithmetic of :data:`_HALF_MASKS` on the hottest (widest) tree levels.
_MASK_BY_N = np.zeros(65, dtype=np.uint64)
_MASK_BY_N[1:64] = _HALF_MASKS[1:64]
_MASK_BY_N[64] = _FULL


def _half_single_word(rng, n):
    """``Binomial(n, 1/2)`` for lanes with ``n <= 64``: one word per lane."""
    bits = rng.integers(0, _FULL, size=n.shape, dtype=np.uint64, endpoint=True)
    return _popcount64(bits & _MASK_BY_N[n]).astype(np.int64)


def _half_multi_word(rng, n):
    """General ``Binomial(n, 1/2)``: ``ceil(n / 64)`` words per lane, last
    word masked to ``n mod 64`` bits.  The per-lane popcount sum runs as
    cumsum + gather-at-segment-ends + diff — segments are contiguous, and
    this is ~3x faster than numpy's segmented ``add`` reduction at the
    serving shapes."""
    words = np.maximum((n + 63) >> 6, 1)
    ends = np.cumsum(words)
    bits = rng.integers(
        0, _FULL, size=int(ends[-1]), dtype=np.uint64, endpoint=True
    )
    bits[ends - 1] &= _HALF_MASKS[(n & 63) + ((n == 0) << 6)]
    csum = np.cumsum(_popcount64(bits), dtype=np.int64)
    return np.diff(csum[ends - 1], prepend=0)


def _half_word_rounds(rng, n):
    """``Binomial(n, 1/2)`` by rounds of one word per still-unfinished lane
    (``Binomial(n, 1/2) = popcount(64 bits) + Binomial(n - 64, 1/2)``).

    Wins over :func:`_half_multi_word` when most lanes fit one word (no
    word-offset cumsum, no segment reduction): round one runs the full
    lane vector, later rounds only the compacted ``n > 64`` tail."""
    capped = np.minimum(n, 64)
    bits = rng.integers(0, _FULL, size=n.shape, dtype=np.uint64, endpoint=True)
    out = _popcount64(bits & _MASK_BY_N[capped]).astype(np.int64)
    idx = np.flatnonzero(n > 64)
    remaining = n[idx] - 64
    while idx.size:
        capped = np.minimum(remaining, 64)
        bits = rng.integers(
            0, _FULL, size=idx.shape, dtype=np.uint64, endpoint=True
        )
        out[idx] += _popcount64(bits & _MASK_BY_N[capped])
        more = remaining > 64
        idx = idx[more]
        remaining = remaining[more] - 64
    return out


def _counts(n) -> np.ndarray:
    """``n`` as an integer array: exact float counts are cast to int64."""
    n = np.asarray(n)
    if np.issubdtype(n.dtype, np.floating):
        n = n.astype(np.int64)
    return n


def _checked_counts(n) -> np.ndarray:
    """:func:`_counts` for a public entry, which checks its lanes once.

    A negative count would index the mask tables from the end and a
    non-finite float one has no integer value, so both raise here; the
    tree levels below an entry pass their own nonnegative parts unchecked.
    """
    n = np.asarray(n)
    if np.issubdtype(n.dtype, np.floating) and not np.isfinite(n).all():
        raise ValueError("counts must be finite")
    n = _counts(n)
    if n.size and n.min() < 0:
        raise ValueError("counts must be nonnegative")
    return n


def binomial_half(rng, n) -> np.ndarray:
    """Exact ``Binomial(n, 1/2)`` per lane, any shape of ``n >= 0``.

    Stream contract: one ``Generator.integers`` word per lane in flat
    order when every lane fits a word (``max(n) <= 64``), else
    ``ceil(n / 64)`` consecutive words per lane in flat order.
    """
    return _binomial_half(rng, _checked_counts(n))


def _binomial_half(rng, n):
    """:func:`binomial_half` without the argument check."""
    n = _counts(n)
    shape = n.shape
    n = n.reshape(-1)
    if n.size == 0:
        return np.zeros(shape, dtype=np.int64)
    if int(n.max()) <= 64:
        return _half_single_word(rng, n).reshape(shape)
    # Mean lane under ~1.5 words: the word-per-round path skips the
    # segment bookkeeping the long-lane path needs.
    if int(n.sum()) < 96 * n.size:
        return _half_word_rounds(rng, n).reshape(shape)
    return _half_multi_word(rng, n).reshape(shape)


# -- Binomial(n, p): BTRS + inverse-CDF ---------------------------------------

#: Exact log-factorial table; Stirling takes over above it.  1024 covers
#: every ``k``/``n - k`` the serving shapes produce, so the gather path is
#: the common one.
_LOGFACT_TABLE_SIZE = 1024
_LOGFACT = np.cumsum(
    np.concatenate(([0.0], np.log(np.arange(1, _LOGFACT_TABLE_SIZE))))
)


def _log_factorial(k):
    """``log(k!)`` elementwise: table gather, Stirling beyond the table."""
    small = k < _LOGFACT_TABLE_SIZE
    if small.all():
        return _LOGFACT[k]
    out = np.empty(k.shape)
    out[small] = _LOGFACT[k[small]]
    big = np.asarray(k[~small], dtype=float)
    # Stirling with the 1/12k - 1/360k^3 corrections: < 1e-12 relative
    # error at k >= 1024, far below the rejection test's tolerance.
    out[~small] = (
        (big + 0.5) * np.log(big)
        - big
        + 0.9189385332046727  # log(sqrt(2*pi))
        + 1.0 / (12.0 * big)
        - 1.0 / (360.0 * big**3)
    )
    return out


def _btrs(rng, n, p, out, idx):
    """Hörmann's BTRS rejection sampler, batched over lanes ``n * p >= 10``.

    Writes ``out[idx]``.  Each attempt consumes two uniforms per active
    lane; rejected lanes are compacted and retried (~1.07 attempts/lane on
    average, so the second round already runs on a few percent of lanes).

    The exact acceptance test compares the hat density against the true
    pmf through the log-ratio ``log f(k) - log f(m)`` (``m`` the mode),
    evaluated with exact log-factorials (table + Stirling in
    :func:`_log_factorial`) rather than Hörmann's hand-tuned series — the
    batched form gathers the table once per tested lane, so exactness
    costs nothing extra.
    """
    n = n.astype(np.float64)
    q = 1.0 - p
    spq = np.sqrt(n * p * q)
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    c = n * p + 0.5
    vr = 0.92 - 4.2 / b
    alpha = (2.83 + 5.1 / b) * spq
    lpq = np.log(p / q)
    m = np.floor((n + 1) * p)
    # log f(k) - log f(m) = h - logfact(k) - logfact(n-k) + (k - m)*lpq
    # with h = logfact(m) + logfact(n-m) (the binomial-coefficient pieces;
    # the p^k q^(n-k) pieces reduce to (k - m)*lpq).
    h = _log_factorial(m.astype(np.int64)) + _log_factorial(
        (n - m).astype(np.int64)
    )
    while idx.size:
        u = rng.random(idx.size) - 0.5
        v = rng.random(idx.size)
        us = 0.5 - np.abs(u)
        k = np.floor((2.0 * a / us + b) * u + c)
        valid = (k >= 0.0) & (k <= n)
        # Squeeze: accept outright well inside the hat's body.
        accept = valid & (us >= 0.07) & (v <= vr)
        # Exact log test for the rest.
        test = valid & ~accept
        if test.any():
            kt = k[test].astype(np.int64)
            nt = n[test].astype(np.int64)
            lhs = np.log(
                v[test] * alpha[test] / (a[test] / us[test] ** 2 + b[test])
            )
            rhs = (
                h[test]
                - _log_factorial(kt)
                - _log_factorial(nt - kt)
                + (k[test] - m[test]) * lpq[test]
            )
            accept[test] = lhs <= rhs
        out[idx[accept]] = k[accept].astype(np.int64)
        rejected = ~accept
        idx = idx[rejected]
        if not idx.size:
            break
        n = n[rejected]
        a = a[rejected]
        b = b[rejected]
        c = c[rejected]
        vr = vr[rejected]
        alpha = alpha[rejected]
        lpq = lpq[rejected]
        m = m[rejected]
        h = h[rejected]


def _inversion(rng, n, p, out, idx):
    """Inverse-CDF count method for the small-mean lanes (``n * p < 10``).

    One uniform per lane; the pmf recurrence walks all lanes in lockstep.
    Lanes freeze at their count the step their uniform is covered; the
    walk runs until the slowest lane stops (bounded by the largest count,
    which for means < 10 is a few dozen steps).
    """
    n = n.astype(np.float64)
    q = 1.0 - p
    u = rng.random(idx.size)
    f = q**n
    cum = f.copy()
    k = np.zeros(idx.size)
    result = np.zeros(idx.size)
    ratio = p / q
    active = u > cum
    while active.any():
        f = f * ratio * (n - k) / (k + 1.0)
        k += 1.0
        cum += f
        result[active] = k[active]
        # Numerical guard: once f underflows the recurrence stalls; the
        # residual mass is below any representable uniform gap, stop there.
        active &= (u > cum) & (k < n) & (f > 0.0)
    out[idx] = result.astype(np.int64)


def binomial(rng, n, p) -> np.ndarray:
    """Batched ``Binomial(n_i, p_i)`` with heterogeneous parameters.

    Matches ``numpy.random.Generator.binomial`` in distribution; the bit
    stream is consumed differently (vector draws per rejection round).
    Stream contract: BTRS lanes (``min(p,1-p)*n >= 10``) draw first, then
    the inverse-CDF lanes, both in flat order, with ``p > 1/2`` lanes
    sampled through the complement.
    """
    p = np.asarray(p, dtype=np.float64)
    # A NaN lane fails both comparisons, so the negated range test
    # rejects it (no branch below would write that lane).
    if not ((p >= 0.0) & (p <= 1.0)).all():
        raise ValueError("p must be finite and in [0, 1]")
    return _binomial(rng, _checked_counts(n), p)


def _binomial(rng, n, p):
    """:func:`binomial` without the argument check."""
    n = _counts(n)
    p = np.asarray(p, dtype=np.float64)
    shape = np.broadcast_shapes(n.shape, p.shape)
    n = np.broadcast_to(n, shape).reshape(-1)
    p = np.broadcast_to(p, shape).reshape(-1)
    out = np.empty(n.shape, dtype=np.int64)
    flip = p > 0.5
    q = np.where(flip, 1.0 - p, p)
    mean = n * q
    big = mean >= 10.0
    if big.any():
        idx = np.flatnonzero(big)
        _btrs(rng, n[idx], q[idx], out, idx)
    small = ~big
    if small.any():
        idx = np.flatnonzero(small & (mean > 0.0))
        if idx.size:
            _inversion(rng, n[idx], q[idx], out, idx)
        out[small & (mean == 0.0)] = 0
    np.subtract(n, out, out=out, where=flip)
    return out.reshape(shape)


# -- exact Multinomial(total, 1/G) resolution ---------------------------------

#: Reused internal work buffers, keyed by (site, shape, dtype).  The hot
#: split shapes are iteration-invariant, and reusing the buffers keeps
#: them cache-resident — fresh several-hundred-KB allocations per
#: iteration cost ~2x the arithmetic in DRAM write-allocate traffic on
#: narrow-memory hosts.  Buffers NEVER escape this module: every public
#: return is freshly allocated or caller-owned.
_SCRATCH: dict = {}


def _scratch(site: str, shape, dtype) -> np.ndarray:
    key = (site, shape, np.dtype(dtype).str)
    buf = _SCRATCH.get(key)
    if buf is None:
        if len(_SCRATCH) > 256:
            _SCRATCH.clear()
        buf = np.empty(shape, dtype=dtype)
        _SCRATCH[key] = buf
    return buf


def _quad_fill(n, p0, p1, p01, out):
    """Category counts from per-lane plane popcounts, inclusion-exclusion:
    slots with bits (1,1) / (1,0) / (0,1) / (0,0) in the two planes."""
    out[0] = p01
    np.subtract(p0, p01, out=out[1])
    np.subtract(p1, p01, out=out[2])
    np.subtract(n - p0, p1 - p01, out=out[3])
    return out


def _quad_split_single_word(rng, n, out):
    """``Multinomial(n, 1/4)`` for ``n <= 64``: two bit-planes, one word."""
    planes = rng.integers(
        0, _FULL, size=(2,) + n.shape, dtype=np.uint64, endpoint=True
    )
    mask = _MASK_BY_N[n]
    w0 = planes[0] & mask
    w1 = planes[1] & mask
    # Popcounts stay in the ufunc's narrow dtype (sums bounded by 128);
    # _quad_fill's subtractions widen into the int64 out rows.
    p0 = _popcount64(w0)
    p1 = _popcount64(w1)
    p01 = _popcount64(w0 & w1)
    return _quad_fill(n, p0, p1, p01, out)


def _quad_split_two_word(rng, n, out):
    """``Multinomial(n, 1/4)`` for ``n <= 128``: two *fixed* words per
    plane and lane — no word-offset cumsum, no segment gather, every op
    elementwise over the lane vector.  Lanes under 65 slots leave their
    second word fully masked (the raw bits are drawn and discarded)."""
    planes = rng.integers(
        0, _FULL, size=(2, 2) + n.shape, dtype=np.uint64, endpoint=True
    )
    m0 = _MASK_BY_N[np.minimum(n, 64)]
    m1 = _MASK_BY_N[np.maximum(n - 64, 0)]
    a0 = planes[0, 0] & m0
    a1 = planes[0, 1] & m1
    b0 = planes[1, 0] & m0
    b1 = planes[1, 1] & m1
    # Word-popcount sums are bounded by 128 so the ufunc's narrow dtype
    # holds them; _quad_fill widens into the int64 out rows.
    p0 = _popcount64(a0) + _popcount64(a1)
    p1 = _popcount64(b0) + _popcount64(b1)
    p01 = _popcount64(a0 & b0) + _popcount64(a1 & b1)
    return _quad_fill(n, p0, p1, p01, out)


def _quad_split_segmented(rng, n, out):
    """General ``Multinomial(n, 1/4)``: ``ceil(n / 64)`` words per lane in
    flat order, per-lane popcounts recovered by a segmented sum."""
    words = np.maximum((n + 63) >> 6, 1)
    ends = np.cumsum(words)
    total = int(ends[-1])
    planes = rng.integers(
        0, _FULL, size=(2, total), dtype=np.uint64, endpoint=True
    )
    last = ends - 1
    mask = _HALF_MASKS[(n & 63) + ((n == 0) << 6)].reshape(-1)
    planes[0, last] &= mask
    planes[1, last] &= mask
    w0, w1 = planes
    c0 = _popcount64(w0).astype(np.int64)
    c1 = _popcount64(w1).astype(np.int64)
    c01 = _popcount64(w0 & w1).astype(np.int64)
    if int(n.sum()) < (1 << 21):
        # Pack the three per-word counts into 21-bit fields of one int64:
        # one cumsum + one segment-end gather instead of three.  Fields
        # are monotone under cumsum and fieldwise ordered at the segment
        # ends, so the packed diff never borrows across fields; the bound
        # guarantees no field overflows (each count is at most the total
        # slot count).
        packed = c01
        packed += c0 << 21
        packed += c1 << 42
        segs = np.diff(np.cumsum(packed)[last], prepend=0)
        field = np.int64((1 << 21) - 1)
        p01 = segs & field
        p0 = (segs >> 21) & field
        p1 = (segs >> 42) & field
    else:
        combos = np.stack([c01, c0, c1])
        csum = np.cumsum(combos, axis=1, dtype=np.int64)
        segs = np.diff(csum[:, last], axis=1, prepend=0)
        p01, p0, p1 = segs
    shape = n.shape
    return _quad_fill(
        n, p0.reshape(shape), p1.reshape(shape), p01.reshape(shape), out
    )


def _quad_split(rng, n, out=None):
    """Exact ``Multinomial(n, 1/4)`` per lane into ``(4,) + n.shape``.

    ``out`` may be int64 or float64 (counts are exact integers either
    way) and its category rows may be strided views — every write is a
    whole-row ufunc/assignment, which is how the thinning tree's final
    level lands counts directly in the serving loop's demand tensor.

    Every selection slot draws *two* fair bits — its category in
    ``{0, 1, 2, 3}`` — from two raw generator bit-planes over the same
    words per lane; the counts come from the planes' popcounts and their
    intersection's by inclusion-exclusion.  Identical in law to two
    consecutive ``Binomial(n, 1/2)`` halving levels, at one level of
    bookkeeping and one ``Generator`` call.  ``out`` (written and
    returned when given) lets the thinning tree land category counts
    straight in its next-level buffer.

    Dispatch is by lane size: one fixed word per lane covers ``n <= 64``
    and two cover ``n <= 128``, both purely elementwise; only bigger
    lanes need the segmented multi-word reduction.  Skewed vectors — a
    handful of hot lanes over a small-``n`` bulk, the shape expert
    popularity produces — would drag every lane onto the segmented path
    on a max-only dispatch, so when oversized lanes are rare the bulk is
    drawn fixed-word (oversized lanes get a throwaway draw, kept so the
    consumed stream depends only on ``n``) and the tail is re-drawn
    segmented and scattered over it.
    """
    if out is None:
        out = np.empty((4,) + n.shape, dtype=np.int64)
    top = int(n.max())
    if top <= 64:
        return _quad_split_single_word(rng, n, out)
    if top <= 128:
        return _quad_split_two_word(rng, n, out)
    flat = n.reshape(-1)
    huge = np.flatnonzero(flat > 128)
    if huge.size * 4 <= flat.size:
        _quad_split_single_word(rng, np.minimum(n, 64), out)
        mid = np.flatnonzero((flat > 64) & (flat <= 128))
        if mid.size:
            scatter = (slice(None),) + np.unravel_index(mid, n.shape)
            out[scatter] = _quad_split_two_word(
                rng, flat[mid], np.empty((4, mid.size), dtype=np.int64)
            )
        scatter = (slice(None),) + np.unravel_index(huge, n.shape)
        out[scatter] = _quad_split_segmented(
            rng, flat[huge], np.empty((4, huge.size), dtype=np.int64)
        )
        return out
    return _quad_split_segmented(rng, n, out)


def _multinomial_split_pow2_into(rng, totals, num_groups, out, axis):
    """Binary halving fused into 4-way levels, the last one written
    straight into ``out``.

    Works on a contiguous *group-major* ``(parts, lanes)`` scratch buffer
    widened each level, so every kernel input is a zero-copy reshape.  An
    odd ``log2(G)`` runs one halving level up front; quad levels (two bits
    per slot at once, :func:`_quad_split`) carry the rest.  ``out``'s group
    axis is viewed groups-first and split as ``(4, G/4)`` (one axis split
    is always a view), and the last quad level (or the single halving, for
    ``G = 2``) writes its category rows into that view.  The group slots
    come out in a fixed tree order rather than thinning order;
    ``Multinomial(total, 1/G)`` is exchangeable across slots, so any fixed
    slot order realizes the same joint law.
    """
    lanes = totals.size
    groups_first = np.moveaxis(out, axis, 0)
    if num_groups == 2:
        n = totals.reshape(-1).astype(np.int64)
        left = _binomial_half(rng, n)
        groups_first[0] = left.reshape(totals.shape)
        groups_first[1] = (n - left).reshape(totals.shape)
        return out
    width = num_groups // 4
    final = groups_first.reshape((4, width) + totals.shape)
    parts = totals.reshape(1, lanes).astype(np.int64, copy=True)
    level = 1
    exponent = num_groups.bit_length() - 1
    if exponent % 2 == 1:
        left = _binomial_half(rng, parts.reshape(-1))
        doubled = _scratch("tree", (2, lanes), np.int64)
        doubled[:1].reshape(-1)[...] = left
        np.subtract(parts.reshape(-1), left, out=doubled[1:].reshape(-1))
        parts = doubled
        level = 2
    while level < width:
        widened = _scratch("tree", (4 * level, lanes), np.int64)
        _quad_split(
            rng, parts.reshape(-1), out=widened.reshape(4, level * lanes)
        )
        parts = widened
        level *= 4
    _quad_split(rng, parts.reshape((width,) + totals.shape), out=final)
    return out


def _multinomial_split_general(rng, out, axis, num_groups):
    """Binary halving for arbitrary ``G``: segments at one level share at
    most two distinct widths, so each level is at most two batched
    :func:`binomial` / :func:`binomial_half` calls."""
    index = [slice(None)] * out.ndim

    def view(group):
        index[axis] = group
        return out[tuple(index)]

    segments = [(0, num_groups)]
    while segments:
        next_segments = []
        by_width: dict[int, list[int]] = {}
        for start, width in segments:
            if width == 1:
                continue
            by_width.setdefault(width, []).append(start)
            left_width = width // 2
            next_segments.append((start, left_width))
            next_segments.append((start + left_width, width - left_width))
        for width in sorted(by_width):
            starts = by_width[width]
            left_width = width // 2
            parents = np.stack([view(start) for start in starts])
            if width % 2 == 0:
                left = _binomial_half(rng, parents)
            else:
                left = _binomial(rng, parents, left_width / width)
            for i, start in enumerate(starts):
                view(start + left_width)[...] = parents[i] - left[i]
                view(start)[...] = left[i]
        segments = next_segments


def multinomial_split(
    rng,
    totals,
    num_groups: int,
    axis: int = 0,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Resolve integer ``totals`` into ``num_groups`` exact parts.

    Returns an array with a new length-``num_groups`` axis inserted at
    ``axis``; summing over that axis reproduces ``totals`` exactly, and
    each slice follows the uniform multinomial split law
    ``Multinomial(total, 1/G)`` — factorized as a binary thinning tree
    (``Binomial(n, left/width)`` per node), which is the same joint law as
    the sequential thinning chain at ~``log2(G)`` batched kernel calls
    instead of ``G - 1``.

    ``out``, when given, receives the result (cast to its dtype — the
    serving loop sinks splits straight into its float demand tensor,
    skipping one several-hundred-KB copy per iteration) and is returned;
    otherwise a fresh int64 array is allocated.  Either way the draw is
    the same for the same seed.
    """
    if num_groups <= 0:
        raise ValueError(f"num_groups must be positive, got {num_groups}")
    totals = _checked_counts(totals)
    if axis < 0:
        axis += totals.ndim + 1
    shape = totals.shape[:axis] + (num_groups,) + totals.shape[axis:]
    if out is not None and out.shape != shape:
        raise ValueError(f"out must have shape {shape}, got {out.shape}")
    target = out if out is not None else np.empty(shape, dtype=np.int64)
    if num_groups == 1:
        target[...] = totals.reshape(shape)
        return target
    if totals.size == 0:
        return target
    if num_groups & (num_groups - 1) == 0:
        return _multinomial_split_pow2_into(rng, totals, num_groups, target, axis)
    index = [slice(None)] * target.ndim
    index[axis] = 0
    target[tuple(index)] = totals
    _multinomial_split_general(rng, target, axis, num_groups)
    return target

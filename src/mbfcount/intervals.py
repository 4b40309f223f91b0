"""Interval cardinalities: how many layer elements lie between x and y.

Four routes compute |{z : x <= z <= y}|, one for each job:

  * re_scan: a linear scan of the materialized layer, the definition and
    the oracle that selfcheck and the tests hold the other three against.
  * upward_counts: the count up to the top element for a list of
    elements of D_n (plus2 reads it, and `retable` writes it), by the
    half-split: the distinct points grouped by low half x0, and each
    count a sum over z0 >= x0 of upward counts in D_{n-1}, read through
    the join table of D_{n-2} and a table indexed by pairs of halves, in
    the calling process.
  * upward_in_interval: re(x, X[-1]) over one interval X of D_n, by the
    up-zeta transform over X alone (Bjorklund, Husfeldt, Kaski and
    Koivisto, SODA 2012, on Birkhoff's representation: an element is an
    up-set of the 2^n inputs): the k = 4 kernel's column over [h*, h],
    and with X = D_n the upward counts that upward_counts reads.
  * build_full_table: the all-pairs uint16 matrix for n <= 5, indexed by
    layer ordinal, by the down-zeta transform over D_n alone; selfcheck
    and the dense k = 4 reference read it.

The join-index table (_join_index_table) is built here too, by the
half-split: upward counts read it two layers down, the k = 4 counts at D_n.

Empty intervals count 0, so callers never branch on comparability.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import vecbits
from .core import table_width
from .errors import BudgetError, VerificationError, WidthError
from .layers import LAYER_SIZE, Layer, check_budget, generate_layer, read_records


def re_scan(layer: Layer, x: int, y: int) -> int:
    """Count z in the layer with x <= z <= y by direct scan; x and y are
    packed truth tables (Python ints or uint64)."""
    x, y = np.uint64(x), np.uint64(y)
    V = layer.values
    # subset tests: x <= z iff z & x == x, z <= y iff z & y == z
    return int(np.count_nonzero(((V & x) == x) & ((V & y) == V)))


def upward_in_interval(X: np.ndarray) -> np.ndarray:
    """re(x, X[-1]) for each x of X, the ascending uint64 array of an
    interval [X[0], X[-1]] of D_n (int32, in the order of X).

    f starts at 1; for each input p in X[-1] but not in X[0] (no other is
    in a difference z - x within X), in ascending order, f[x] += f[x | p]
    wherever x | p lies in X.  Then f(x) counts the z >= x in X with z - x
    among the inputs taken so far: an input above p in the cube is larger,
    so not yet taken, so in x if in z, and then x | p is an up-set, in X.
    x | p has p, so it is not updated in the step of p: the add is exact."""
    free = int(X[-1] & ~X[0])
    f = np.ones(len(X), dtype=np.int32)
    for bit in (np.uint64(1 << p) for p in range(free.bit_length()) if free & (1 << p)):
        src = np.flatnonzero((X & bit) == 0)
        up = X[src] | bit
        dst = np.searchsorted(X, up)  # < len(X): X[-1] bounds every x | p
        found = X[dst] == up
        f[src[found]] += f[dst[found]]
    return f


@lru_cache(maxsize=None)
def _full_upward(n: int) -> np.ndarray:
    """Upward counts over the whole layer D_n, n <= 5; cached per process."""
    return upward_in_interval(generate_layer(n).values)


_UPWARD_BLOCK = 1 << 17  # (point, z0) pairs gathered at once


def check_upward_budget(n: int, count: int) -> None:
    """Refuse upward counts for more than 200,000 elements at n=6, from the
    element count alone (a file header gives it before any row is read)."""
    if n == 6 and count > 200_000:
        raise BudgetError(f"upward counts for {count} elements at n=6 are out of budget")


def upward_counts(n: int, xs: np.ndarray) -> np.ndarray:
    """Count z >= x over the layer D_n for each x in xs (int64 array, in
    the order of xs).

    z = (z0, z1) is a pair z0 <= z1 in D_{n-1}, and z >= x = (x0, x1) iff
    z0 >= x0 and z1 >= x1 | z0: the count sums, over z0 >= x0, the upward
    count of x1 | z0 in D_{n-1} (_full_upward).  The distinct points are
    grouped by x0, so each group masks the z0 >= x0 once; x1 | z0 is
    joined half by half in D_{n-2} (_join_index_table) and its count read
    from a table indexed by that pair of halves, in blocks of at most
    _UPWARD_BLOCK (point, z0) pairs.  Every block writes into buffers
    allocated once per call: whether glibc maps and faults fresh
    block-sized temporaries anew on each block depends on the heap's
    history, which unrelated source edits change (at n = 6 over plus2's
    points, about 4,400 page faults per call, or none).  n <= 1 reads
    the whole layer's counts (D_0 has no halves).  Runs in this process.
    """
    if n > 6:
        raise WidthError("upward counts need materializable layers (n <= 6)")
    check_upward_budget(n, len(xs))
    xs = np.asarray(xs, dtype=np.uint64)
    if not vecbits.monotone_mask(xs, n).all():
        raise ValueError(f"upward counts take elements of D_{n}; some are not monotone")
    if n <= 1:
        return _full_upward(n)[np.searchsorted(generate_layer(n).values, xs)].astype(np.int64)
    if len(xs) == 0:
        return np.empty(0, dtype=np.int64)
    points, inverse = np.unique(xs, return_inverse=True)
    prev, x0, x1 = _halves(points, n)
    order = np.argsort(x0)
    starts = np.flatnonzero(np.diff(x0[order], prepend=-1, append=len(prev)))
    P, j0, j1, pair = _split(prev, n - 1)
    a0, a1 = j0[x1[order]], j1[x1[order]]  # the halves of each x1, in group order
    J = _join_index_table(P, n - 2).astype(np.intp)
    dp2 = len(J)
    JD = J * dp2
    # U[p * dp2 + q]: the upward count in D_{n-1} of the element with halves
    # (P[p], P[q]), or 0; every count is at most d_5 < 2^31
    U = np.append(_full_upward(n - 1), 0).astype(np.int32)[pair]
    counts = np.empty(len(points), dtype=np.int64)
    # a block holds at most max(_UPWARD_BLOCK, len(prev)) pairs
    size = max(_UPWARD_BLOCK, len(prev))
    joined_buf, part_buf = np.empty((2, size), dtype=np.intp)
    found_buf = np.empty(size, dtype=np.int32)
    for lo, hi in zip(starts[:-1], starts[1:]):
        low = prev[x0[order[lo]]]
        zs = np.flatnonzero((prev & low) == low)  # the z0 >= x0
        b0, b1 = j0[zs], j1[zs]
        rows = max(1, _UPWARD_BLOCK // len(zs))
        for r in range(lo, hi, rows):
            r1 = min(r + rows, hi)
            pairs = (r1 - r) * len(zs)
            joined = joined_buf[:pairs].reshape(r1 - r, -1)
            part = part_buf[:pairs].reshape(r1 - r, -1)
            found = found_buf[:pairs].reshape(r1 - r, -1)
            # x1 | z0 has the halves (a0 | b0, a1 | b1) in D_{n-2}; every
            # index is in range by construction, and mode="clip" lets take
            # write into out directly (mode="raise" buffers it)
            np.take(JD[a0[r:r1]], b0, axis=1, out=joined, mode="clip")
            np.take(J[a1[r:r1]], b1, axis=1, out=part, mode="clip")
            joined += part
            np.take(U, joined, out=found, mode="clip")
            counts[order[r:r1]] = found.sum(axis=1, dtype=np.int64)
    return counts[inverse]


@dataclass(frozen=True)
class IntervalTable:
    """The all-pairs matrix over the layer D_n: counts[i, j] = re(V[i],
    V[j]).  It is a class, not the bare array, only because the benchmark
    reads `build_full_table(n).counts`."""

    n: int
    counts: np.ndarray = field(repr=False)


def _halves(V: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The layer P = D_{n-1} and the indices in P of the low and high
    halves of each x in V (elements of D_n)."""
    P = generate_layer(n - 1).values
    halfw = table_width(n - 1)
    low = np.searchsorted(P, V & np.uint64((1 << halfw) - 1))
    return P, low, np.searchsorted(P, V >> np.uint64(halfw))


def _split(V: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Each x in V (elements of D_n) as the pair x0 <= x1 of its low and
    high halves in D_{n-1}: the layer P = D_{n-1}, the indices i0 and i1
    in P of the halves, and the flat lookup pair[a * len(P) + b] = the
    index in V of the element with halves (P[a], P[b]), or len(V) if
    P[a] <= P[b] fails (uint16: the tables are built only for n <= 5)."""
    P, i0, i1 = _halves(V, n)
    pair = np.full(len(P) ** 2, len(V), dtype=np.uint16)
    pair[i0 * len(P) + i1] = np.arange(len(V))
    return P, i0, i1, pair


_JOIN_CHUNK = 64


def _join_index_table(V: np.ndarray, n: int) -> np.ndarray:
    """J[i, j] = index of V[i] | V[j] in V, the layer D_n.

    Each x in D_n is the pair x0 <= x1 of its low and high halves in
    D_{n-1}, and x | y = (x0 | y0, x1 | y1), so J comes from the join
    table of D_{n-1} (built the same way, one layer down) and one flat
    lookup from the pair of half indices to the index in D_n, filled
    _JOIN_CHUNK rows at a time.  D_0 = {0, 1} has no lower layer; there
    the join is the larger index.  Entries are uint16: every caller
    builds it for n <= 5, where d <= 7,581.

    Each chunk takes whole rows of low and high and looks the sums up in
    pair, all by `take`, which numpy 2.4 runs more than twice as fast
    per entry as fancy indexing with a non-intp index.  `take` first
    copies the int32 sums to intp, 8 bytes per entry of the chunk, so the
    chunk is 64 rows: at 128 that copy raised the build's peak RSS at
    n = 5 by about 8 MB (141.5 MB against 133.8 MB).
    """
    d = len(V)
    if n == 0:
        idx = np.arange(d)
        return np.maximum(idx[:, None], idx[None, :]).astype(np.uint16)
    P, i0, i1, pair = _split(V, n)
    dp = len(P)
    Jp = _join_index_table(P, n - 1).astype(np.int32)  # dp * dp < 2^31
    low = Jp.take(i0, axis=1) * dp  # row p: (index of p | x0) * dp, per x in D_n
    high = Jp.take(i1, axis=1)  # row p: index of p | x1
    J = np.empty((d, d), dtype=np.uint16)
    for lo in range(0, d, _JOIN_CHUNK):
        hi = lo + _JOIN_CHUNK
        s = low.take(i0[lo:hi], axis=0)
        s += high.take(i1[lo:hi], axis=0)
        J[lo:hi] = pair.take(s)
    return J


def join_index_bytes(d: int) -> int:
    """Estimated peak of _join_index_table over the d elements of D_n: J,
    the int32 low and high (dp x d each, dp = |D_{n-1}|, the largest layer
    below d), and per entry of one chunk 18 bytes: the two int32 row
    gathers (one of them the sum), the intp copy of the sum that `take`
    makes and the uint16 lookup."""
    dp = max((s for s in LAYER_SIZE.values() if s < d), default=0)
    return d * d * 2 + dp * d * (4 + 4) + _JOIN_CHUNK * d * (4 + 4 + 8 + 2)


_ZETA_BLOCK = 128  # rows transformed at once


def full_table_bytes(d: int) -> int:
    """Estimated peak of build_full_table over the d elements of D_n: the
    uint16 matrix, and per entry of one _ZETA_BLOCK of rows, 16 bytes: its
    uint64 and bool indicator beside the last block's uint16 (13) and the
    steps (3)."""
    return d * d * 2 + _ZETA_BLOCK * d * 16


def build_full_table(n: int, budget_mb: int | None = None) -> IntervalTable:
    """The all-pairs interval matrix, uint16, in layer order; n <= 5 (above
    that it cannot fit).

    The down-zeta transform over D_n, each element the up-set of its true
    inputs.  Row x starts as F(y) = [x <= y]; then, per input p in
    descending order, F[dst] += F[src] over the pairs V[dst] = V[src] |
    bit p (one searchsorted), that is, wherever p is a minimal input of
    y.  After the step of p, F(y) counts the z in [x, y] with y - z among
    the inputs taken so far.  Descending order is what makes this hold:
    an input below p in the cube is numerically smaller, so not yet
    taken, so in z if in y, and then p is in the up-set z; so a p in
    y - z is minimal in y.  dst is unique within a step and never a src,
    so the in-place add is exact, and every partial sum counts a subset
    of [x, y], at most d < 2^16 (checked), so uint16 cannot overflow.

    Rows go _ZETA_BLOCK at a time in layer order, column-major (F has one
    row per y, so a step gathers contiguous rows).  x <= y as sets
    implies x <= y as integers, so re(x, y) = 0 for y below x in layer
    order: a block transforms only the columns from its first row r0 on
    and drops the pairs with src < r0, whose values are 0.
    """
    if n > 5:
        raise BudgetError(f"full interval table for n={n} is out of budget")
    layer = generate_layer(n, budget_mb)
    V, d = layer.values, len(layer)
    if d >= 1 << 16:
        raise VerificationError(f"full interval table for n={n} has {d} >= 2^16 rows")
    check_budget(f"full interval table for n={n}", full_table_bytes(d), budget_mb)
    steps = []
    for p in reversed(range(table_width(n))):
        bit = np.uint64(1 << p)
        src = np.flatnonzero((V & bit) == 0)
        dst = np.searchsorted(V, V[src] | bit)  # < d: the top bounds every join
        found = V[dst] == V[src] | bit
        steps.append((src[found], dst[found]))  # both ascending
    counts = np.zeros((d, d), dtype=np.uint16)
    for r0 in range(0, d, _ZETA_BLOCK):
        X = V[r0:r0 + _ZETA_BLOCK]
        F = ((V[r0:, None] & X) == X).astype(np.uint16)  # F[y - r0, k] = [X[k] <= y]
        for src, dst in steps:
            k = np.searchsorted(src, r0)
            F[dst[k:] - r0] += F[src[k:] - r0]
        counts[r0:r0 + _ZETA_BLOCK, r0:] = F.T
    return IntervalTable(n, counts)


def load_upward_table(path: str) -> tuple[int, np.ndarray, np.ndarray]:
    """Read an upward table file back as (n, elements, counts); refuses
    counts below 1."""
    n, elements, (counts,) = read_records(path, "retable")
    counts = np.array(counts, dtype=np.int64)
    bad = np.flatnonzero(counts < 1)
    if len(bad):
        raise ValueError(f"{path}:{bad[0] + 2}: interval count {counts[bad[0]]} is below 1")
    return n, elements, counts

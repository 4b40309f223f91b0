"""Interval cardinalities: how many layer elements lie between x and y.

Four routes compute |{z : x <= z <= y}|, one for each job:

  * re_scan: a linear scan of the materialized layer, the definition and
    the oracle that selfcheck and the tests hold the other three against.
  * upward_counts: the count up to the top element for a list of
    elements of D_n (plus2 reads it, and `retable` writes it), by the
    half-split: the distinct points grouped by low half x0, and each
    count a sum over z0 >= x0 of upward counts in D_{n-1}, read by pair
    key (below) through a table indexed by key, in the calling process.
  * upward_in_interval: re(x, X[-1]) over one interval X of D_n, by the
    up-zeta transform over X alone (Bjorklund, Husfeldt, Kaski and
    Koivisto, SODA 2012, on Birkhoff's representation: an element is an
    up-set of the 2^n inputs): the k = 4 kernel's column over [h*, h],
    and with X = D_n the upward counts that upward_counts reads.
  * build_full_table: the all-pairs uint16 matrix for n <= 5, indexed by
    layer ordinal, by the down-zeta transform over D_n alone; selfcheck
    and the dense k = 4 reference read it.

Joins are read by pair key (join_keys): each z of D_n is the pair z0 <=
z1 of its halves in D_{n-1}, keyed idx(z0) * |D_{n-1}| + idx(z1), and the
key of x | y comes from two small tables built from the join table of
D_{n-1}, so no d x d table over D_n is needed.  One routine reads every
such join (gather_joins): a table indexed by key, taken at the joins of
a list of rows with a list of columns.  upward_counts reads keys of
D_{n-1} through it, the k = 4 kernel and plus3 keys of D_n, and the
layer-indexed join table (_join_index_table, the index of x | y, d x d
uint16) is the gather of a key-to-index lookup over its own layer.  That
table is what the key tables one layer up are built from (upward_counts
reads it at D_{n-2}, the k = 4 keys at D_{n-1}), and it is built whole
only for the dense k = 4 reference (n <= 4) and for selfcheck, which
holds the kernel's key join against it.

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


_UPWARD_BLOCK = 1 << 17  # (z0, point) pairs summed at once


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
    grouped by x0, so each group masks the z0 >= x0 once.  x1 | z0 is
    joined half by half in D_{n-2}, and its count read from a table
    indexed by pair key (join_keys) by gather_joins, with the z0 on the
    rows and a chunk of the group's points on the columns, at most
    _UPWARD_BLOCK pairs; a point's count is its column's sum.  n = 0
    reads the whole layer's counts (D_0 has no halves).  Runs in this
    process.
    """
    if n > 6:
        raise WidthError("upward counts need materializable layers (n <= 6)")
    check_upward_budget(n, len(xs))
    xs = np.asarray(xs, dtype=np.uint64)
    if not vecbits.monotone_mask(xs, n).all():
        raise ValueError(f"upward counts take elements of D_{n}; some are not monotone")
    if n == 0:
        return _full_upward(n)[np.searchsorted(generate_layer(n).values, xs)].astype(np.int64)
    if len(xs) == 0:
        return np.empty(0, dtype=np.int64)
    points, inverse = np.unique(xs, return_inverse=True)
    prev, x0, x1 = _halves(points, n)
    order = np.argsort(x0)
    starts = np.flatnonzero(np.diff(x0[order], prepend=-1, append=len(prev)))
    keys, j0, j1, JD, J = join_keys(prev, n - 1)
    a0, a1 = j0[x1[order]], j1[x1[order]]  # the halves of each x1, in group order
    # U[key]: the upward count in D_{n-1} of the element with that pair
    # key, or 0; n <= 6 (refused above), so every count is at most |D_5| =
    # 7,581 < 2^15
    U = np.zeros(len(JD) * len(J), dtype=np.int16)
    U[keys] = _full_upward(n - 1)
    counts = np.empty(len(points), dtype=np.int64)
    for lo, hi in zip(starts[:-1], starts[1:]):
        low = prev[x0[order[lo]]]
        zs = np.flatnonzero((prev & low) == low)  # the z0 >= x0
        b0, b1 = j0[zs], j1[zs]
        cols = max(1, _UPWARD_BLOCK // len(zs))
        for c in range(lo, hi, cols):
            c1 = min(c + cols, hi)
            found = gather_joins(U, JD, J, b0, b1, a0[c:c1], a1[c:c1], np.empty((len(zs), c1 - c), dtype=np.int16))
            counts[order[c:c1]] = found.sum(axis=0, dtype=np.int64)
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


def key_count(n: int) -> int:
    """The number of pair keys of D_n (join_keys): |D_{n-1}|^2, or |D_0|
    = 2 at n = 0.  Keys are int16, so this raises when |D_{n-1}|^2 >
    2^15, that is from n = 6 on (28,224 at n = 5)."""
    if n == 0:
        return LAYER_SIZE[0]
    dp = LAYER_SIZE[n - 1]
    if dp * dp > 1 << 15:
        raise VerificationError(f"pair keys of D_{n} reach {dp}^2 = {dp * dp} > 2^15, beyond int16")
    return dp * dp


def join_keys(V: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    """Pair keys for the elements V of D_n, and the tables that give the
    key of a join without the layer-indexed join table.

    Each z in D_n is the pair z0 <= z1 of its low and high halves in
    D_{n-1}, and its key is idx(z0) * dp + idx(z1), dp = |D_{n-1}|, so
    keys are distinct and below key_count(n), which raises before anything
    is built unless they fit int16.  Since x | y = (x0 | y0, x1 | y1), the
    key of a join is lo[x0, y0] + hi[x1, y1], with hi the join table of
    D_{n-1} and lo = dp * hi (int16, dp x dp each).  Returns the keys, the
    half indices i0 and i1 (intp), lo and hi.  D_0 = {0, 1} has no halves:
    its key is the index (i0 = 0, lo = [[0]]), and hi the join of D_0, the
    larger index.  Either way a key is i0 * len(hi) + i1, and there are
    len(lo) * len(hi) of them."""
    key_count(n)
    if n == 0:
        i1 = np.searchsorted(generate_layer(0).values, V)
        i0 = np.zeros_like(i1)
        idx = np.arange(LAYER_SIZE[0])
        hi = np.maximum.outer(idx, idx).astype(np.int16)
        lo = np.zeros((1, 1), dtype=np.int16)
    else:
        P, i0, i1 = _halves(V, n)
        hi = _join_index_table(P, n - 1).astype(np.int16)
        lo = hi * np.int16(len(hi))
    return i0 * len(hi) + i1, i0, i1, lo, hi


_GATHER_BLOCK = 1 << 15  # entries of a gather's output filled at once


def gather_joins(
    table: np.ndarray, lo: np.ndarray, hi: np.ndarray,
    r0: np.ndarray, r1: np.ndarray, c0: np.ndarray, c1: np.ndarray, out: np.ndarray,
) -> np.ndarray:
    """out[i, k] = table[lo[r0[i], c0[k]] + hi[r1[i], c1[k]]]: the table,
    indexed by pair key, read at the join of the row element with half
    indices (r0[i], r1[i]) and the column element (c0[k], c1[k]), with lo
    and hi the key tables of join_keys.  They are symmetric, so either
    element of a join may be the row.  out is the caller's buffer of
    len(r0) x len(c0), of any strides, and is returned.

    The columns' parts of lo and hi are taken once, and the rows are
    filled _GATHER_BLOCK entries at a time (at least one row), so the
    int16 key block, the intp copy that `take` makes of it and the
    gathered block are one block's: 12 bytes per entry.  Every gather is
    a `take`, because numpy's fancy indexing with non-intp index arrays is
    slower: gathering the k = 4 kernel's column at the top block of n = 5
    (m = 7,581), on a 2-core host with numpy 2.4, an entry of `col[S]`
    with a uint16 S cost 2.6 ns against 1.1 ns by `col.take(S)`."""
    lo_c, hi_c = lo.take(c0, axis=1), hi.take(c1, axis=1)
    rows = max(1, _GATHER_BLOCK // max(1, len(c0)))
    for r in range(0, len(r0), rows):
        keys = lo_c.take(r0[r:r + rows], axis=0)
        keys += hi_c.take(r1[r:r + rows], axis=0)
        out[r:r + rows] = table.take(keys)
    return out


def _join_index_table(V: np.ndarray, n: int) -> np.ndarray:
    """J[i, j] = index of V[i] | V[j] in V, the layer D_n: a lookup from
    the pair keys of D_n (join_keys, built from the join table of D_{n-1},
    one layer down) to the index in D_n, gathered at every join.  Entries
    are uint16: every caller builds it for n <= 5, where d <= 7,581."""
    d = len(V)
    keys, i0, i1, lo, hi = join_keys(V, n)
    pair = np.full(len(lo) * len(hi), d, dtype=np.uint16)  # key -> index in V
    pair[keys] = np.arange(d)
    return gather_joins(pair, lo, hi, i0, i1, i0, i1, np.empty((d, d), dtype=np.uint16))


def _layer_below(d: int) -> int:
    """|D_{n-1}| for the layer D_n of d elements (0 below D_0)."""
    return max((s for s in LAYER_SIZE.values() if s < d), default=0)


def join_index_bytes(d: int) -> int:
    """Estimated peak of _join_index_table over the d elements of D_n: J;
    the int16 columns' parts of lo and hi (dp x d each, dp = |D_{n-1}|);
    per entry of one gather block (at most _GATHER_BLOCK entries, or one
    row of d, and no more than J) 14 bytes, the int16 rows of low and
    high (one of them the sum), the intp copy of the sum that `take`
    makes and the uint16 lookup; the pair lookup and the int16 lo and
    hi, dp^2 entries each; and per element of D_n 24 bytes, the intp
    keys and half indices.  The block's rows of high are freed before
    the lookup, so they are the margin."""
    dp = _layer_below(d)
    block = min(d * d, max(_GATHER_BLOCK, d))
    return d * d * 2 + dp * d * (2 + 2) + block * (2 + 2 + 8 + 2) + dp * dp * (2 + 2 + 2) + d * (8 + 8 + 8)


def k4_table_bytes(d: int) -> int:
    """Estimated peak of the k = 4 tables over the d elements of D_n (the
    layer's pair-key tables and its dual index).  The peak is in the build
    of the join table of D_{n-1} (join_index_bytes(dp)), beside 20 bytes
    per element of D_n: the intp half indices and the int32 dual index.
    The intp keys and the int16 lo and hi (dp^2 entries each) are made
    after that build has freed its buffers; the keys, 8 bytes per
    element, are counted as margin for the allocator.  At n = 5 the
    estimate is 0.68 MB, the peak under tracemalloc 0.57 MB, and
    ru_maxrss grows by 0.52-0.66 MB."""
    return d * (8 + 8 + 8 + 4) + join_index_bytes(_layer_below(d))


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

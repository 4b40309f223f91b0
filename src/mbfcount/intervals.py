"""Interval cardinalities: how many layer elements lie between x and y.

Three routes compute |{z : x <= z <= y}|, one for each job:

  * re_scan: a linear scan of the materialized layer, the definition and
    the oracle that selfcheck and the tests hold the other two against.
  * upward_counts: the count up to the top element for a list of
    elements of D_n (plus2 reads it, and `retable` writes it), by the
    half-split: the distinct points grouped by low half x0, and each
    count a sum over z0 >= x0 of upward counts in D_{n-1}, read through
    the join table of D_{n-2} and a table indexed by pairs of halves, in
    the calling process.
  * build_full_table: the all-pairs uint16 matrix for n <= 5, indexed by
    layer ordinal (the k = 4 counts read it through the join-index
    table), by the same half-split: with x = (x0, x1), y = (y0, y1) and
    z = (z0, z1) split into halves in D_{n-1}, |[x, y]| sums the matrix
    of D_{n-1} at (x1 | z0, y1) over z0 in [x0, y0], one float32
    product per low half x0.  Each sum in a product counts at most
    |D_{n-1}|^2 pairs, below 2^24, so float32 is exact; a check raises
    otherwise.  It builds every row by default (selfcheck, and the
    recursion one layer down) or only the rows at the layer indices it
    is given, running only the products of their low halves: the shared
    k = 4 kernel reads only the rows of the x <= x*.

The join-index table (_join_index_table) is built here too, by the same
split: upward counts read it two layers down, the matrix one layer down,
the k = 4 counts at D_n.

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


@lru_cache(maxsize=None)
def _full_upward(n: int) -> np.ndarray:
    """Upward counts for every element of the layer D_n, n <= 5, by
    upward_counts itself; cached per process."""
    return upward_counts(n, generate_layer(n).values)


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
    _UPWARD_BLOCK (point, z0) pairs.  n <= 1 counts over the layer
    directly (D_0 has no halves).  Runs in this process.
    """
    if n > 6:
        raise WidthError("upward counts need materializable layers (n <= 6)")
    check_upward_budget(n, len(xs))
    xs = np.asarray(xs, dtype=np.uint64)
    if not vecbits.monotone_mask(xs, n).all():
        raise ValueError(f"upward counts take elements of D_{n}; some are not monotone")
    if n <= 1:
        V = generate_layer(n).values
        return np.count_nonzero((xs[:, None] & ~V) == 0, axis=1).astype(np.int64)
    if len(xs) == 0:
        return np.empty(0, dtype=np.int64)
    points, inverse = np.unique(xs, return_inverse=True)
    prev, x0, x1 = _halves(points, n)
    order = np.argsort(x0)
    starts = np.flatnonzero(np.diff(x0[order], prepend=-1, append=len(prev)))
    P, j0, j1, pair = _split(prev, n - 1)
    a0, a1 = j0[x1[order]], j1[x1[order]]  # the halves of each x1, in group order
    J = _join_index_table(P, n - 2).astype(np.int32)
    dp2 = len(J)
    # U[p * dp2 + q]: the upward count in D_{n-1} of the element with halves
    # (P[p], P[q]), or 0; every count is at most d_5 < 2^31
    U = np.append(_full_upward(n - 1), 0).astype(np.int32)[pair]
    counts = np.empty(len(points), dtype=np.int64)
    for lo, hi in zip(starts[:-1], starts[1:]):
        low = prev[x0[order[lo]]]
        zs = np.flatnonzero((prev & low) == low)  # the z0 >= x0
        b0, b1 = j0[zs], j1[zs]
        rows = max(1, _UPWARD_BLOCK // len(zs))
        for r in range(lo, hi, rows):
            r1 = min(r + rows, hi)
            # x1 | z0 has the halves (a0 | b0, a1 | b1) in D_{n-2}
            joined = np.take(J[a0[r:r1]] * dp2, b0, axis=1)
            joined += np.take(J[a1[r:r1]], b1, axis=1)
            counts[order[r:r1]] = np.take(U, joined).sum(axis=1, dtype=np.int64)
    return counts[inverse]


@dataclass(frozen=True)
class IntervalTable:
    """Rows of the all-pairs matrix over the layer D_n: counts[k, j] =
    re(V[rows[k]], V[j]) for the layer indices rows build_full_table was
    given, so counts[i, j] = re(V[i], V[j]) when it builds every row.  It
    is a class, not the bare array, only because the benchmark reads
    `build_full_table(n).counts`."""

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


_JOIN_CHUNK = 128


def _join_index_table(V: np.ndarray, n: int) -> np.ndarray:
    """J[i, j] = index of V[i] | V[j] in V, the layer D_n.

    Each x in D_n is the pair x0 <= x1 of its low and high halves in
    D_{n-1}, and x | y = (x0 | y0, x1 | y1), so J comes from the join
    table of D_{n-1} (built the same way, one layer down) and one flat
    lookup from the pair of half indices to the index in D_n, filled
    _JOIN_CHUNK rows at a time.  D_0 = {0, 1} has no lower layer; there
    the join is the larger index.  Entries are uint16: build_full_table
    reads it one layer down, and _k4_tables after build_full_table has
    refused d >= 2^16.
    """
    d = len(V)
    if n == 0:
        idx = np.arange(d)
        return np.maximum(idx[:, None], idx[None, :]).astype(np.uint16)
    P, i0, i1, pair = _split(V, n)
    dp = len(P)
    Jp = _join_index_table(P, n - 1).astype(np.int32)  # dp * dp < 2^31
    low = Jp[:, i0] * dp  # row p: (index of p | x0) * dp, per x in D_n
    high = Jp[:, i1]  # row p: index of p | x1
    J = np.empty((d, d), dtype=np.uint16)
    for lo in range(0, d, _JOIN_CHUNK):
        hi = lo + _JOIN_CHUNK
        J[lo:hi] = pair[low[i0[lo:hi]] + high[i1[lo:hi]]]
    return J


def full_table_bytes(d: int, rows: int) -> int:
    """Estimated peak of build_full_table over the d elements of D_n when
    it builds rows of the matrix (d for every row): the uint16 rows, and
    the sum of the buffers of one low half (not all live at once), each
    at most dp x (d + 1) entries over the dp elements of D_{n-1}, the
    largest layer below d: W and its rows z0 >= x0, the float32 product
    and B in uint16, the index table T, and one gathered block of indices
    and of counts."""
    dp = max((s for s in LAYER_SIZE.values() if s < d), default=0)
    return rows * d * 2 + dp * (d + 1) * (4 + 4 + 4 + 2 + 8 + 8 + 2)


def build_full_table(
    n: int, budget_mb: int | None = None, rows: np.ndarray | None = None
) -> IntervalTable:
    """Rows of the all-pairs interval matrix, uint16, one per layer index
    in rows (every row, in layer order, by default); n <= 5 (above that it
    cannot fit).

    Write x = (x0, x1) and y = (y0, y1) by their halves in D_{n-1}.  An
    element z = (z0, z1) of D_n has z0 <= z1, so x <= z <= y iff
    x0 <= z0 <= y0 and x1 | z0 <= z1 <= y1, and

        |[x, y]| = sum over z0 in [x0, y0] of |[x1 | z0, y1]| in D_{n-1}.

    With the matrix of D_{n-1} (this function, one layer down, every row;
    D_0 has [[1, 2], [0, 1]]) and its join table, W[z0, w] =
    |[w0 | z0, w1]| for each w = (w0, w1) in D_n, plus a zero column.  Per
    low half x0 that owns a row to build, one float32 product
    B = [z0 <= y0]^T W over the z0 >= x0 gives B[y0, w]; row x = (x0, x1)
    gathers, for each y, the entry of row y0 and column (x1, y1), or the
    zero column unless x1 <= y1.  A selection skips the products of the
    other low halves, and its rows equal those of the whole matrix.
    Exact: every sum in B counts pairs (z0, z1) of D_{n-1}, at most
    dp^2 < 2^24 (float32 holds such integers), and every entry is at most
    d < 2^16; both are checked before any product.
    """
    if n > 5:
        raise BudgetError(f"full interval table for n={n} is out of budget")
    layer = generate_layer(n, budget_mb)
    d = len(layer)
    if d >= 1 << 16:
        raise VerificationError(f"full interval table for n={n} has {d} >= 2^16 rows")
    rows = np.arange(d) if rows is None else np.asarray(rows, dtype=np.intp)
    if n == 0:
        return IntervalTable(0, np.array([[1, 2], [0, 1]], dtype=np.uint16)[rows])
    dp = len(generate_layer(n - 1))
    if dp * dp >= 1 << 24:
        raise VerificationError(
            f"full interval table for n={n} sums up to {dp}^2 >= 2^24 pairs in float32"
        )
    check_budget(f"full interval table for n={n}", full_table_bytes(d, len(rows)), budget_mb)
    P, i0, i1, pair = _split(layer.values, n)
    inner = build_full_table(n - 1).counts
    W = np.zeros((dp, d + 1), dtype=np.float32)
    W[:, :d] = inner[_join_index_table(P, n - 1)[:, i0], i1]
    # T[x1, y] = y0 * (d + 1) + the column of (x1, y1) in W, or its zero
    # column d
    T = i0 * (d + 1) + pair.reshape(dp, dp)[:, i1]
    leq = (P[:, None] & ~P[None, :]) == 0  # leq[a, b]: P[a] <= P[b]
    leq_f = leq.astype(np.float32)
    low = i0[rows]  # the low half of each row to build
    counts = np.empty((len(rows), d), dtype=np.uint16)
    for x0 in np.flatnonzero(np.bincount(low, minlength=dp)).tolist():
        above = leq[x0]  # the z0 >= x0
        B = (leq_f[above].T @ W[above]).astype(np.uint16)
        at = np.flatnonzero(low == x0)
        counts[at] = np.take(B, T[i1[rows[at]]])
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

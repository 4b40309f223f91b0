"""Interval cardinalities: how many layer elements lie between x and y.

Two independent routes compute |{z : x <= z <= y}|:

  * re_scan: a linear scan of the materialized layer (the definition;
    also the test oracle).
  * re_fast: recursion over the half-split.  z = z0.z1 lies in [x, y]
    iff x0 <= z0 <= y0 and z1 ranges over [x1 | z0, y1], so the count is
    the sum over admissible z0 of the next-lower count.  Memoized on
    (n, x, y); empty intervals count 0 by convention so callers never
    branch on comparability.

Bulk tables, each an IntervalTable: upward counts (to the top element)
for a given element list, which up() answers and which have a text file
format, from one recurrence over the same half-split down to D_0; and the
full all-pairs uint16 matrix for small n, which callers index by layer
ordinal (the k = 4 counts read it through the join-index table).  The
matrix is computed exactly as a product of the 0/1 order relation with
itself.  The layer is sorted ascending and x <= z as sets implies x <= z
as integers, so the relation and the matrix are upper triangular: the
product runs over blocks on and above the diagonal only, and for block
(i, j) only the z between the two blocks can lie between an x of block i
and a y of block j.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import parallel, vecbits
from .core import Mbf, table_width
from .errors import BudgetError, VerificationError, WidthError
from .layers import DEFAULT_BUDGET_MB, Layer, generate_layer, read_records

MAX_MEMO_ENTRIES = 10_000_000

_memo: dict[tuple[int, int, int], int] = {}


def _bits(v) -> int:
    return v.bits if isinstance(v, Mbf) else int(v)


def re_scan(layer: Layer, x, y) -> int:
    """Count z in the layer with x <= z <= y by direct scan."""
    xb, yb = _bits(x), _bits(y)
    V = layer.values
    # subset tests: x <= z iff z & x == x, z <= y iff z & y == z
    return int(np.count_nonzero(((V & xb) == xb) & ((V & yb) == V)))


def clear_memo() -> None:
    _memo.clear()


def re_fast(x: Mbf, y: Mbf) -> int:
    """Count z with x <= z <= y via the memoized half-split recursion."""
    if x.n != y.n:
        raise WidthError(f"width mismatch: n={x.n} vs n={y.n}")
    if x.n > 6:
        raise WidthError(f"interval recursion needs materializable layers (n <= 6)")
    return _re(x.n, x.bits, y.bits)


def _re(n: int, x: int, y: int) -> int:
    if x & ~y:
        return 0
    if n == 0:
        return y - x + 1
    key = (n, x, y)
    hit = _memo.get(key)
    if hit is not None:
        return hit
    halfw = table_width(n - 1)
    mask = (1 << halfw) - 1
    x0, x1 = x & mask, x >> halfw
    y0, y1 = y & mask, y >> halfw
    prev = generate_layer(n - 1).values
    mids = prev[((prev & x0) == x0) & ((prev & y0) == prev)]
    total = 0
    for z0 in mids:
        total += _re(n - 1, x1 | int(z0), y1)
    if len(_memo) >= MAX_MEMO_ENTRIES:
        raise BudgetError(f"interval memo would exceed {MAX_MEMO_ENTRIES} entries")
    _memo[key] = total
    return total


@lru_cache(maxsize=None)
def _full_upward(n: int) -> np.ndarray:
    """Upward counts for every element of the layer D_n, n <= 5, by
    upward_counts itself at 1 worker; cached per process."""
    return upward_counts(n, generate_layer(n).values)


def _upward_chunk(task) -> np.ndarray:
    lo, hi = task
    st = parallel.state()
    xs, prev, up_prev = st["xs"][lo:hi], st["prev"], st["up_prev"]
    halfw = np.uint64(st["halfw"])
    mask = np.uint64((1 << st["halfw"]) - 1)
    out = np.empty(len(xs), dtype=np.int64)
    for i, x in enumerate(xs):
        x0, x1 = x & mask, x >> halfw
        mids = prev[(prev & x0) == x0]
        out[i] = up_prev[np.searchsorted(prev, x1 | mids)].sum()
    return out


def upward_counts(n: int, xs: np.ndarray, workers: int = 1) -> np.ndarray:
    """Count z >= x over the layer D_n for each x in xs (int64 array).

    z = z0.z1 is a pair z0 <= z1 in D_{n-1}, and z >= x iff z0 >= x0 and
    z1 >= x1 | z0: the count sums, over z0 >= x0, the upward count of
    x1 | z0 in D_{n-1} (_full_upward).  D_0 = {0, 1} has counts 2 and 1.
    """
    if n > 6:
        raise WidthError("upward counts need materializable layers (n <= 6)")
    if n == 6 and len(xs) > 200_000:
        raise BudgetError(
            f"upward counts for {len(xs)} elements at n=6 are out of budget"
        )
    xs = np.asarray(xs, dtype=np.uint64)
    if not vecbits.monotone_mask(xs, n).all():
        raise ValueError(f"upward counts take elements of D_{n}; some are not monotone")
    if n == 0:
        return 2 - xs.astype(np.int64)
    if len(xs) == 0:
        return np.empty(0, dtype=np.int64)
    shared = {
        "xs": xs,
        "halfw": table_width(n - 1),
        "prev": generate_layer(n - 1).values,
        "up_prev": _full_upward(n - 1),
    }
    if workers > 1 and len(xs) > 1024:
        step = -(-len(xs) // (workers * 4))
    else:
        step = len(xs)
    tasks = [(lo, min(lo + step, len(xs))) for lo in range(0, len(xs), step)]
    return np.concatenate(parallel.run_tasks(_upward_chunk, tasks, workers, shared=shared))


@dataclass(frozen=True)
class IntervalTable:
    """Interval counts by element: the upward column re(x, top) over listed
    elements, or the full all-pairs matrix over the layer (counts[i, j] =
    re(V[i], V[j]), indexed by layer ordinal)."""

    n: int
    mode: str  # "upward" | "full"
    elements: np.ndarray | None = field(default=None, repr=False)
    counts: np.ndarray | None = field(default=None, repr=False)

    def up(self, x) -> int:
        """re(x, top) for a listed element of an upward table."""
        if self.mode != "upward":
            raise ValueError("only upward tables answer up() queries")
        xb = _bits(x)
        i = int(np.searchsorted(self.elements, np.uint64(xb)))
        if i >= len(self.elements) or int(self.elements[i]) != xb:
            raise KeyError(f"0x{xb:x} not in the table")
        return int(self.counts[i])


def build_upward_table(source, n: int | None = None, workers: int = 1) -> IntervalTable:
    """Upward counts for a Layer, or for a list of orbit classes of D_n."""
    if isinstance(source, Layer):
        xs, n = source.values, source.n
    elif n is None:
        raise ValueError("n is required unless source is a Layer")
    else:
        xs = np.array([c.representative.bits for c in source], dtype=np.uint64)
    return IntervalTable(n, "upward", xs, upward_counts(n, xs, workers))


_FULL_BLOCK = 512


def build_full_table(n: int, budget_mb: int | None = None) -> IntervalTable:
    """All-pairs interval matrix, uint16; n <= 5 (above that it cannot fit).

    counts = L @ L for the 0/1 order relation L[x, z] = (x <= z), taken in
    float32 over square blocks of _FULL_BLOCK indices: block (i, j) with
    j >= i is L[i, i..j] @ L[i..j, j], and blocks below the diagonal stay
    zero.  Exact while d < 2^16: entries fit uint16, float32 sums of 0/1
    products stay below 2^24.
    """
    if n > 5:
        raise BudgetError(f"full interval table for n={n} is out of budget")
    layer = generate_layer(n, budget_mb)
    d = len(layer)
    if d >= 1 << 16:
        raise VerificationError(
            f"full interval table for n={n} has {d} >= 2^16 rows, beyond what"
            f" uint16 entries and float32 sums hold exactly"
        )
    budget = DEFAULT_BUDGET_MB if budget_mb is None else budget_mb
    need_mb = d * d * 10 / 1e6
    if need_mb > budget:
        raise BudgetError(
            f"full interval table for n={n} needs ~{need_mb:.0f} MB, over the"
            f" {budget} MB budget"
        )
    V = layer.values
    B = _FULL_BLOCK
    Lf = np.empty((d, d), dtype=np.float32)
    for lo in range(0, d, B):
        Lf[lo:lo + B] = (V[lo:lo + B, None] & ~V[None, :]) == 0
    counts = np.zeros((d, d), dtype=np.uint16)
    for i in range(0, d, B):
        for j in range(i, d, B):
            counts[i:i + B, j:j + B] = Lf[i:i + B, i:j + B] @ Lf[i:j + B, j:j + B]
    return IntervalTable(n, "full", V, counts)


def load_upward_table(path: str) -> IntervalTable:
    """Read an upward table file back; refuses counts below 1."""
    n, elements, (counts,) = read_records(path, "retable")
    counts = np.array(counts, dtype=np.int64)
    bad = np.flatnonzero(counts < 1)
    if len(bad):
        raise ValueError(f"{path}:{bad[0] + 2}: interval count {counts[bad[0]]} is below 1")
    return IntervalTable(n, "upward", elements, counts)

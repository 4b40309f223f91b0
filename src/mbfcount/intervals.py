"""Interval cardinalities: how many layer elements lie between x and y.

Three routes compute |{z : x <= z <= y}|, one for each job:

  * re_scan: a linear scan of the materialized layer, the definition and
    the oracle that selfcheck and the tests hold the other two against.
  * upward_counts: the count up to the top element for a list of
    elements of D_n (plus2 reads it, and `retable` writes it), by a
    recurrence over the half-split down to D_0.
  * build_full_table: the all-pairs uint16 matrix for n <= 5, indexed by
    layer ordinal (the k = 4 counts read it through the join-index
    table): |[x, y]| = sum_z [x <= z][z <= y], summed one block of middle
    elements z at a time as float32 products of 0/1 blocks.

Empty intervals count 0, so callers never branch on comparability.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import parallel, vecbits
from .core import Mbf, table_width
from .errors import BudgetError, VerificationError, WidthError
from .layers import Layer, check_budget, generate_layer, read_records

def _bits(v) -> int:
    return v.bits if isinstance(v, Mbf) else int(v)


def re_scan(layer: Layer, x, y) -> int:
    """Count z in the layer with x <= z <= y by direct scan."""
    xb, yb = _bits(x), _bits(y)
    V = layer.values
    # subset tests: x <= z iff z & x == x, z <= y iff z & y == z
    return int(np.count_nonzero(((V & xb) == xb) & ((V & yb) == V)))


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


def check_upward_budget(n: int, count: int) -> None:
    """Refuse upward counts for more than 200,000 elements at n=6, from the
    element count alone (a file header gives it before any row is read)."""
    if n == 6 and count > 200_000:
        raise BudgetError(f"upward counts for {count} elements at n=6 are out of budget")


def upward_counts(n: int, xs: np.ndarray, workers: int = 1) -> np.ndarray:
    """Count z >= x over the layer D_n for each x in xs (int64 array).

    z = z0.z1 is a pair z0 <= z1 in D_{n-1}, and z >= x iff z0 >= x0 and
    z1 >= x1 | z0: the count sums, over z0 >= x0, the upward count of
    x1 | z0 in D_{n-1} (_full_upward).  D_0 = {0, 1} has counts 2 and 1.
    """
    if n > 6:
        raise WidthError("upward counts need materializable layers (n <= 6)")
    check_upward_budget(n, len(xs))
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
    """The full all-pairs matrix over the layer D_n: counts[i, j] =
    re(V[i], V[j]), indexed by layer ordinal.  It is a class, not the bare
    array, only because the benchmark reads `build_full_table(n).counts`."""

    n: int
    counts: np.ndarray = field(repr=False)


_FULL_BLOCK = 512


def full_table_bytes(d: int) -> int:
    """Estimated peak of build_full_table over d elements: the matrix, and per step
    d x min(d, _FULL_BLOCK) entries each of a uint64 subset test, its bool and two float32
    blocks of x <= z (this one, and the last one until it is replaced)."""
    return d * d * 2 + d * min(d, _FULL_BLOCK) * (8 + 1 + 4 + 4)


def build_full_table(n: int, budget_mb: int | None = None) -> IntervalTable:
    """All-pairs interval matrix, uint16; n <= 5 (above that it cannot fit).

    counts[x, y] = sum_z [x <= z][z <= y], over blocks of B = _FULL_BLOCK
    middle elements z.  The layer is ascending and x <= z as sets implies
    x <= z as integers, so a block of z reaches only the rows x before its
    end and the columns y from its start: per block of B such columns it
    adds (x <= z) @ (z <= y), taken in float32.  Exact while d < 2^16:
    each product sums B terms of 0 or 1 (float32 holds integers below
    2^24), and the uint16 partial sums never exceed the final count, <= d.
    """
    if n > 5:
        raise BudgetError(f"full interval table for n={n} is out of budget")
    layer = generate_layer(n, budget_mb)
    d = len(layer)
    if d >= 1 << 16:
        raise VerificationError(f"full interval table for n={n} has {d} >= 2^16 rows")
    check_budget(f"full interval table for n={n}", full_table_bytes(d), budget_mb)
    V = layer.values
    B = _FULL_BLOCK
    counts = np.zeros((d, d), dtype=np.uint16)
    for k in range(0, d, B):
        z = V[k:k + B]
        below = ((V[:k + B, None] & ~z) == 0).astype(np.float32)
        for j in range(k, d, B):
            above = ((z[:, None] & ~V[j:j + B]) == 0).astype(np.float32)
            counts[:k + B, j:j + B] += (below @ above).astype(np.uint16)
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

"""Exact counts of self-dual monotone functions, by five routes.

A monotone function of n+k variables is a monotone assignment of one
n-variable function to each vertex of the k-cube (split the table into
2^k blocks); it is self-dual exactly when the block at vertex v is the
dual of the block at the complementary vertex.  Fixing k = 2, 3, 4 turns
that constraint into closed sums over a smaller layer:

  brute   scan the materialized layer for fixed points of the dual map
          (n <= 6).

  plus2   with k = 2 the four blocks are d*, b, b*, d with the single
          constraint d >= b | b*, so the count is
              sum over b of |{h : h >= b | dual(b)}|,
          folded over orbit classes with multiplicity gamma.

  plus3   with k = 3 the blocks are a, b, d, c, c*, d*, b*, a* with
          a <= b <= c <= dual(a) and a <= d <= c & dual(b); summing the
          interval count re(a, c & dual(b)) over b, c pairs counts the
          d choices.  The sum runs over the classes of h = dual(a) with
          dual(h) <= h, so [a, a*] = [dual(h), h].  Classes with
          weight(h) = 2^(n-1) are self-dual, force every block equal to
          a and contribute exactly one function each, which is the count
          for n itself, added as a closed term; the sum runs over
          weight(h) > 2^(n-1).  Dual maps [a, h] onto itself and reverses
          its order, so re(a, y) = re(y*, h), and with c' = c* the sum
          for b is that of re(b | c', h) over the c' <= b* in [a, h]: the
          column re(x, h) the k = 4 kernel counts, read by pair key
          (_plus3_sums).  b runs over one representative per
          Stab(h)-orbit: 16,698 for the 92,816 elements of the 80 base-5
          classes.

  plus4   with k = 4 the sixteen blocks reduce to a, b, c plus a top
          block h >= a|b|c|dual(a)|dual(b)|dual(c) and four free middle
          blocks, each ranging over one interval ending at h; the count
          is the sum over (a, b, c, h) of the product of four interval
          counts.  The product vanishes unless dual(h) <= a, b, c <= h,
          so per top block h and a in [dual(h), h] the kernel
          (_top_block_sums) sums S(a, h) over b, c in [dual(h), h]: per
          chunk of c it builds the factors re(c | x, h) and re(c* | x, h)
          once, stored one row per x in [dual(h), h] in two buffers
          allocated once per call, and every a takes its four factors
          from them as whole rows, by `take`, _ROW_BLOCK rows at a time.
          Swapping b and c, and replacing (b, c) by (b*, c*), each
          permute the four factors, so it evaluates about a quarter of
          the pairs, one per orbit of (b, c) under b <-> c and
          (b, c) -> (b*, c*), weighted by the orbit's size.  Pruned plus4
          runs one task per h over the classes a under it, and each task
          cuts its own interval; c -> c* maps the sum for a* onto
          the sum for a, so a class and its dual class are summed once,
          with twice the weight.  Pruned is the plus4 route at every base;
          strategy="dense", the sum over every (a, b, c, h) (n <= 4),
          is the reference for the kernel.

  plus4c  the same k = 4 sum regrouped per top block h over the classes
          plus3 sums, with the same closed term (again the count for n
          itself); the kernel's a runs over one representative per orbit
          of Stab(h) on [dual(h), h].

plus3 and plus4c run one driver (_run_class_tasks): one task per class
h, longest interval [dual(h), h] first.  A relabeling that fixes h fixes
dual(h), maps the interval onto itself and leaves every term unchanged,
so each task walks the orbits of Stab(h) once and weights the route's
kernel at one representative per orbit by the orbit size.  Every task is
a closure over its route's local arrays, and every kernel takes the
tables it reads as arguments.

plus3, both k = 4 routes and the dense reference read the tables built
by one helper (_k4_tables): the layer, the index of each dual and the
layer's pair keys (intervals.join_keys).  Each z of D_n is the pair z0 <=
z1 of its halves in D_{n-1}, keyed idx(z0) * |D_{n-1}| + idx(z1), so the
key of a join x | y is Jlo[x0, y0] + Jhi[x1, y1], read from the join
table of D_{n-1} (168 x 168 at n = 5).  A factor such as re(a | b | c, h) is the
entry of the column re(x, h), indexed by key, at the key of (a | b) | c.
plus3 and the shared kernel count that column over [h*, h] alone
(upward_in_interval, _interval_column), where every join they read lies,
and read it, and the kernel its join positions, through the one gather
of every pair-key join (intervals.gather_joins), into buffers each call
allocates once; only the dense reference (n <= 4) builds the uint16
interval matrix and the layer-indexed join table J (the index of x | y),
and reads RE[J[J[a, b], c], h].  Entries are cast up only where summed
or where a product of two could pass their type.

Every accumulator is an exact integer: numpy partial sums stay below
2^63 by construction (wide blocks are split 26 bits at a time before
summing), and the final folds are Python ints, so results are identical
for any worker count or task order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from . import orbits, parallel, vecbits
from .core import table_width
from .errors import BudgetError, UnsupportedCombinationError, VerificationError
from .intervals import _GATHER_BLOCK, _join_index_table, build_full_table, full_table_bytes, gather_joins
from .intervals import join_index_bytes, join_keys, k4_table_bytes, key_count, upward_counts, upward_in_interval
from .layers import Layer, check_budget, generate_layer, self_dual_brute
from .orbits import OrbitClass, canonical_array, classify

# reference values for verification (OEIS A001206); counts of self-dual
# monotone functions of 0..9 variables
LAMBDA_KNOWN = {
    0: 0,
    1: 1,
    2: 2,
    3: 4,
    4: 12,
    5: 81,
    6: 2_646,
    7: 1_422_564,
    8: 229_809_982_112,
    9: 423_295_099_074_735_261_880,
}

METHODS = ("brute", "plus2", "plus3", "plus4", "plus4c")

_BASE_OFFSET = {"brute": 0, "plus2": 2, "plus3": 3, "plus4": 4, "plus4c": 4}
_BASE_MAX = {"brute": 6, "plus2": 6, "plus3": 5, "plus4": 5, "plus4c": 4}


@dataclass(frozen=True)
class LambdaResult:
    """One exact count: which index, which route, and the timing."""

    n_target: int
    method: str
    value: int
    base_n: int
    seconds: float
    base_source: str | None = None  # provenance of an additive closed term

    def record(self) -> str:
        """Machine-readable result line; value always plain decimal."""
        return (
            f"lambda n={self.n_target} method={self.method} value={self.value}"
            f" base_n={self.base_n} seconds={self.seconds:.3f}"
        )


def exact_sum(a: np.ndarray) -> int:
    """Exact integer sum of nonnegative int64 entries, for len(a) < 2^37
    and len(a) * max(a) < 2^89.

    Splitting at 26 bits keeps both partial sums inside int64: the low
    parts sum below len(a) * 2^26 < 2^63 and the high parts below
    len(a) * max(a) / 2^26 < 2^63; they recombine in Python integers.
    The callers guarantee the bound.  plus2 sums gamma times an upward
    count, below 6! * d_6 < 2^33, over at most 16,353 classes.  The k = 4
    kernels sum four-way products of interval counts, and _k4_tables
    raises before any task runs unless every count c has c^4 < 2^52
    (_require_exact_products).  _top_block_sums sums at most
    d_5 = 7,581 < 2^13 entries, each a sum of at most _PRUNED_CHUNK
    products, and both its routes (pruned plus4, plus4c) raise unless
    _PRUNED_CHUNK * 2^52 <= 2^63 (_require_exact_chunk_sums), so
    len(a) * max(a) < 2^76.  The dense plus4 reference (n <= 4) does not
    call it: per b it sums d^2 products of four counts in one int64
    einsum, below 168^6 < 2^45, and adds those in Python ints.
    """
    lo = int((a & np.int64((1 << 26) - 1)).sum())
    hi = int((a >> np.int64(26)).sum())
    return lo + (hi << 26)


def _rep_array(classes: list[OrbitClass]) -> tuple[np.ndarray, np.ndarray]:
    reps = np.array([c.representative.bits for c in classes], dtype=np.uint64)
    gammas = np.array([c.gamma for c in classes], dtype=np.int64)
    return reps, gammas


def _require_base(method: str, n: int) -> None:
    """Raise unless base layer n is within the method's reach (_BASE_MAX)."""
    if n > _BASE_MAX[method]:
        raise BudgetError(f"{method} over base n={n} is out of budget (n <= {_BASE_MAX[method]})")


def lambda_brute(n: int, budget_mb: int | None = None) -> LambdaResult:
    """Count by scanning the layer for fixed points of the dual map."""
    t0 = time.perf_counter()
    value = self_dual_brute(n, budget_mb)
    return LambdaResult(n, "brute", value, n, time.perf_counter() - t0)


# -- plus2 ------------------------------------------------------------------


def lambda_plus2(layer: Layer, classes: list[OrbitClass], workers: int = 1) -> LambdaResult:
    """Count for n+2: per class, gamma times |{h >= rep | dual(rep)}|.

    The upward counts run in this process; workers is accepted for call
    compatibility and unused."""
    t0 = time.perf_counter()
    n = layer.n
    reps, gammas = _rep_array(classes)
    points = reps | vecbits.dual_array(reps, n)
    ups = upward_counts(n, points)
    value = exact_sum(gammas * ups)
    return LambdaResult(n + 2, "plus2", value, n, time.perf_counter() - t0)


# -- the class-task driver (plus3, plus4c) -----------------------------------


def _dual_intervals(V: np.ndarray, tops: np.ndarray, duals: np.ndarray) -> dict[int, np.ndarray]:
    """The ascending index array of [dual(h), h] in the layer V, for each
    given top index ih (h = V[ih], dual(h) <= h) and the dual of its h,
    which every caller already holds."""
    return {
        ih: np.nonzero(((hd & ~V) == 0) & ((V & ~V[ih]) == 0))[0].astype(np.int32)
        for ih, hd in zip(tops.tolist(), duals)
    }


def _run_class_tasks(layer: Layer, classes, workers: int, kernel) -> int:
    """Sum one task per class h with dual(h) <= h and weight(h) > 2^(n-1),
    longest interval first, plus the closed term for the weight-equal
    (self-dual) classes, which is the count for n itself.  A task is
    gamma(h) times the sum, over the orbits of Stab(h) on [dual(h), h], of
    the orbit size times kernel(I, reps), the value at each orbit
    representative: I holds the layer indices of [dual(h), h] in
    ascending order and reps the representatives' positions in I.
    """
    V, n = layer.values, layer.n
    reps, gammas = _rep_array(classes)
    rep_idx = np.searchsorted(V, reps)
    dual_reps = vecbits.dual_array(reps, n)
    sel = (dual_reps & ~reps) == 0
    sel &= 2 * vecbits.popcount(reps) > table_width(n)
    intervals = _dual_intervals(V, rep_idx[sel], dual_reps[sel])
    tasks = sorted(np.nonzero(sel)[0].tolist(), key=lambda ci: -len(intervals[int(rep_idx[ci])]))

    def class_task(ci: int) -> int:
        ih = int(rep_idx[ci])
        I = intervals[ih]
        orbit_reps, _, sizes = orbits.stabilizer_orbits(int(V[ih]), V[I], n)
        sums = kernel(I, orbit_reps)
        return int(gammas[ci]) * sum(size * s for size, s in zip(sizes.tolist(), sums))

    return sum(parallel.run_tasks(class_task, tasks, workers)) + self_dual_brute(n)


# -- the column re(x, h) over [h*, h], read by pair key (plus3, k = 4) ---------


def _interval_column(tables, cidx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The column re(x, h) over the interval [h*, h] (cidx, its layer
    indices in ascending order, h at cidx[-1]), indexed by pair key, and
    the interval's keys.  tables are those of _k4_tables; the column is
    read only at joins inside the interval.  Entries are below 2^13
    (_k4_tables checks), so they fit int16."""
    V, _, keys, _, _, Jlo, Jhi = tables
    kc = keys.take(cidx)
    col = np.zeros(len(Jlo) * len(Jhi), dtype=np.int16)
    col[kc] = upward_in_interval(V.take(cidx))
    return col, kc


# -- plus3 ------------------------------------------------------------------


_PLUS3_BLOCK = 64  # representatives b per key block


def _plus3_sums(tables, cidx: np.ndarray, reps) -> list[int]:
    """Per representative b (positions in the interval X = [a, h], a =
    h*, layer indices cidx): the sum over c >= b in X of |[a, c & b*]|,
    which counts the d choices.  Dual maps X onto itself and reverses its
    order, so |[a, y]| = re(y*, h), and with c' = c* the sum is that of
    re(b | c', h) over the c' <= b* in X: the column of _interval_column
    at the key of b | c'.  A c' <= b* is no larger as an integer, so it
    lies in X up to b*; the representatives are taken in order of that
    end, _PLUS3_BLOCK at a time, each block reading the key block over the
    prefix its last one needs, masked to c' <= b*.  A column sums at most
    m entries below m, so below m^2 < 2^26.  Every key block is gathered
    (intervals.gather_joins) into a prefix of one buffer the call
    allocates."""
    V, dual_idx, _, i0, i1, Jlo, Jhi = tables
    x0, x1 = i0.take(cidx), i1.take(cidx)
    col = _interval_column(tables, cidx)[0]
    X = V.take(cidx)
    bs = cidx.take(reps)
    bds = V.take(dual_idx.take(bs))  # b*, in X
    ends = np.searchsorted(X, bds, side="right")
    order = np.argsort(ends, kind="stable")
    sums = np.empty(len(bs), dtype=np.int64)
    buf = np.empty(len(cidx) * _PLUS3_BLOCK, dtype=np.int16)
    for lo in range(0, len(order), _PLUS3_BLOCK):
        blk = order[lo:lo + _PLUS3_BLOCK]
        e, cs = int(ends[blk[-1]]), bs.take(blk)
        rows = buf[:e * len(blk)].reshape(e, len(blk))
        gather_joins(col, Jlo, Jhi, x0[:e], x1[:e], i0.take(cs), i1.take(cs), rows)
        rows *= (X[:e, None] & ~bds.take(blk)[None, :]) == 0
        sums[blk] = rows.sum(axis=0, dtype=np.int64)
    return sums.tolist()


def _plus3_bytes(keys: int, m: int) -> int:
    """Estimated peak of the buffers one _plus3_sums call allocates, for an
    interval of m elements of a layer with the given number of pair keys
    (intervals.key_count): per entry of a key block over the whole
    interval (m x _PLUS3_BLOCK), 14 bytes, the call's int16 buffer, the
    uint64 AND of the subset test and its bool mask, and 3 of margin; 2
    bytes per key for the int16 column; and 32 bytes per element for the
    interval's values, keys and halves.  The gather's block (12 bytes per
    entry of at most _GATHER_BLOCK, below 1 per entry of the whole key
    block at m = 7,581) is freed before the mask is made.  At the top
    block of n = 5 the estimate is 7.1 MB, and blocks of the lowest b,
    whose prefixes reach the top, peak at 5.6 MB."""
    return 14 * _PLUS3_BLOCK * m + 2 * keys + 32 * m


def lambda_plus3(
    layer: Layer,
    classes: list[OrbitClass],
    workers: int = 1,
    budget_mb: int | None = None,
) -> LambdaResult:
    """Count for n+3 from the 4-tuple sum over orbit classes."""
    t0 = time.perf_counter()
    n = layer.n
    _require_base("plus3", n)
    # a task's interval lies in D_n
    tables = _k4_tables(layer, budget_mb, max(workers, 1) * _plus3_bytes(key_count(n), len(layer)))
    value = _run_class_tasks(layer, classes, workers, lambda I, reps: _plus3_sums(tables, I, reps))
    return LambdaResult(n + 3, "plus3", value, n, time.perf_counter() - t0, "brute")


# -- plus4, dense reference (every (a, b, c, h), n <= 4) ---------------------


def _plus4_dense_sum(tables, ia: int) -> int:
    """The sum over every b, c and top block h of the four factors, for the
    layer index a; tables are the interval matrix, J and the dual index."""
    RE, J, dual_idx = tables
    ida = dual_idx[ia]
    total = 0
    for ib in range(len(J)):
        idb = dual_idx[ib]
        # one row per c (the row of J of a | b is its join with every c),
        # columns h; c* runs over the layer in order through dual_idx.
        # Entries are at most d, and d^2 < 2^16 (lambda_plus4_direct
        # checks), so a product of two fits uint16
        p = RE[J[J[ia, ib]]] * RE[J[J[ia, idb]][dual_idx]]  # a|b|c, a|b*|c*
        q = RE[J[J[ida, ib]][dual_idx]] * RE[J[J[ida, idb]]]  # a*|b|c*, a*|b*|c
        # the d^2 products of four, each below d^4, sum below d^6 <= 168^6 < 2^45
        total += int(np.einsum("ij,ij->", p, q, dtype=np.int64))
    return total


# -- plus4, pruned (per top block, n <= 5) -----------------------------------


_PRUNED_CHUNK = 64  # columns c per chunk of factor rows
_ROW_BLOCK = 512  # rows b per block of factor-row takes and products


def _top_block_sums(tables, cidx: np.ndarray, a_idx) -> list[int]:
    """S(a, h) for the top block h and each layer index a in [dual(h), h]:
    the sum over b, c in [dual(h), h] of
    re(a|b|c, h) re(a|b*|c*, h) re(a*|b|c*, h) re(a*|b*|c, h).  tables
    are those of _k4_tables, cidx the layer indices of [dual(h), h] in
    ascending order (_dual_intervals), so h is at cidx[-1].  Every factor
    is an entry of the column re(x, h) at a join inside [dual(h), h],
    which the kernel counts over that interval (upward_in_interval).

    The summand is unchanged when b and c are swapped, and when (b, c) is
    replaced by (b*, c*), which maps the first factor onto the second and
    the third onto the fourth.  So the kernel sums one (b, c) per orbit of
    the group these generate, weighted by the orbit's size: about a
    quarter of the m^2 pairs.  The interval splits into L, the lower of
    each dual pair by layer index, the self-dual elements S and dual(L).
    The columns c run over L, and the rows b over Q = [dual(L), S, L],
    with dual(L) in the order of L.  The chunk [lo, hi) of L reads rows
    Q[lo : l + s + hi], with weights:
      - 2 on its first hi - lo rows, dual(L[lo:hi]): (e*, c) and (c*, e)
        share an orbit of 4 and both lie in that square, and (c*, c) has
        an orbit of 2;
      - 2 on its last hi - lo rows, L[lo:hi]: likewise (b, c) and (c, b);
      - 4 on the rows between, whose orbits have one pair among all the
        pairs read: (e*, c) and (c*, e) with e beyond hi, (b, c) and
        (c, b) with b below lo, and for a self-dual b, (b, c) and (b, c*).
    One more pass sums the columns S over the rows S at weight 1.

    Joins are read by pair key (intervals.join_keys): the key of x | y is
    Jlo[x0, y0] + Jhi[x1, y1], from the half indices of x and y and two
    small tables (Jhi is the 168 x 168 join table of D_4 at n = 5), so
    the column re(x, h) and the position index are indexed by key (28,224
    int16 entries each at n = 5), and no d x d join table is built.  Both
    are read through one gather (intervals.gather_joins).  The join
    positions take four gathers, rows Q or dual(Q) and columns the a or
    the a*, each into the transpose of one int16 slab of one row per a,
    so each a's four rows are contiguous.  The factor rows of a chunk of
    c are the gather of the column with rows every x in the interval
    (ascending, so the gathers keep their locality) and columns the
    chunk's c, so each a takes its four factors as whole contiguous rows
    by position.  The call allocates its buffers once: two int16 buffers
    of m x _PRUNED_CHUNK entries for the factor rows (a chunk of w columns
    fills the contiguous prefix of m * w) and one int64 row sum per
    element.  The factor-row takes and products are made _ROW_BLOCK rows
    at a time and the gathers a block at a time, so no temporary is
    larger than a block: at the top block of n = 5 a call for six a peaks
    at 3.4 MB under tracemalloc, against 8.8 MB with every chunk's blocks
    built whole.  A chunk of 64 columns by keys takes 0.68-0.70 ms at the
    top block of n = 5 (m = 7,581, on a 2-core host with numpy 2.4)
    against 1.04-1.07 ms by gathering 64 rows of a layer-indexed join
    table, their columns at the interval and a transpose (114-116 against
    191-197 us at m = 1,296; medians of 300).
    """
    _, dual_idx, _, i0, i1, Jlo, Jhi = tables
    m = len(cidx)
    # col[key(x)] = re(x, h); its int16 entries are below 2^13, so a
    # product of two fits int32 and of four stays below 2^52
    col, kc = _interval_column(tables, cidx)
    # a, a*, b and b* all lie in [h*, h], so each join of two does too;
    # pos gives its position in the interval, below m <= d_5 = 7,581 <
    # 2^13, so it fits int16
    pos = np.zeros(len(col), dtype=np.int16)
    pos[kc] = np.arange(m)
    dcidx = dual_idx.take(cidx)
    low, self_dual = cidx[cidx < dcidx], cidx[cidx == dcidx]
    l, s = len(low), len(self_dual)
    dlow = dual_idx.take(low)
    rows_q = np.concatenate((dlow, self_dual, low))  # Q
    drows_q = np.concatenate((low, self_dual, dlow))  # the dual of each row of Q
    da_idx = dual_idx.take(a_idx)
    # joins[k]: the positions of a | b, a | b*, a* | b and a* | b* per row
    # b of Q, for the k-th a
    joins = np.empty((len(a_idx), 4, m), dtype=np.int16)
    for j, (rows, cols) in enumerate(zip((rows_q, drows_q, rows_q, drows_q), (a_idx, a_idx, da_idx, da_idx))):
        gather_joins(pos, Jlo, Jhi, i0.take(rows), i1.take(rows), i0.take(cols), i1.take(cols), joins[:, j].T)
    x0, x1 = i0.take(cidx), i1.take(cidx)
    # every chunk's factor rows and row sums go to these buffers; a chunk
    # of w columns uses the contiguous prefix of m * w entries
    buf_c, buf_dc = np.empty(m * _PRUNED_CHUNK, dtype=np.int16), np.empty(m * _PRUNED_CHUNK, dtype=np.int16)
    sums = np.empty(m, dtype=np.int64)

    def factor_rows(buf, cs):
        # out[x, k] = re(x | cs[k], h), one row per x of the interval
        out = buf[:m * len(cs)].reshape(m, len(cs))
        return gather_joins(col, Jlo, Jhi, x0, x1, i0.take(cs), i1.take(cs), out)

    def row_sums(McT, MdcT, js, lo, hi):
        # one sum per b in the rows [lo, hi) of Q, over the chunk's columns,
        # each below _PRUNED_CHUNK * 2^52: p pairs a|b|c with a|b*|c*, q
        # a*|b|c* with a*|b*|c
        for r in range(lo, hi, _ROW_BLOCK):
            j_bot, j_a, j_b, j_c = (j[r:min(r + _ROW_BLOCK, hi)] for j in js)
            p = np.multiply(McT.take(j_bot, axis=0), MdcT.take(j_a, axis=0), dtype=np.int32)
            q = np.multiply(MdcT.take(j_b, axis=0), McT.take(j_c, axis=0), dtype=np.int32)
            np.einsum("ij,ij->i", p, q, dtype=np.int64, out=sums[r - lo:r - lo + len(p)])
        return sums[:hi - lo]

    totals = [0] * len(joins)
    for lo in range(0, l, _PRUNED_CHUNK):
        hi = min(lo + _PRUNED_CHUNK, l)
        w = hi - lo
        McT, MdcT = factor_rows(buf_c, low[lo:hi]), factor_rows(buf_dc, dlow[lo:hi])
        for k, js in enumerate(joins):
            rs = row_sums(McT, MdcT, js, lo, l + s + hi)
            totals[k] += 2 * (exact_sum(rs[:w]) + exact_sum(rs[-w:])) + 4 * exact_sum(rs[w:-w])
    for lo in range(0, s, _PRUNED_CHUNK):
        M = factor_rows(buf_c, self_dual[lo:lo + _PRUNED_CHUNK])  # c* = c
        for k, js in enumerate(joins):
            totals[k] += exact_sum(row_sums(M, M, js, l, l + s))
    return totals


def _top_block_bytes(keys: int, m: int, k: int) -> int:
    """Estimated peak of the buffers one _top_block_sums call allocates,
    for an interval of m elements of a layer with the given number of
    pair keys (intervals.key_count) and k values of a: 8 bytes per a and
    element for the four int16 join positions; per entry of a chunk's
    factor rows (m x _PRUNED_CHUNK), 4 bytes for the two int16 buffers;
    4 bytes per key for the key-indexed int16 column and positions; 96
    bytes per element: the call's index arrays (of Q and its duals, their
    halves and the halves of the interval) take 74, the int64 row sums 8,
    exact_sum's int64 temporary 8, and 6 are margin; and 20 bytes per
    entry of the larger block, one of _ROW_BLOCK rows of a chunk or one
    gather block (_GATHER_BLOCK entries).  Under tracemalloc a
    row-sum block peaks at about 17 bytes per entry: its int32 products,
    the two int16 row takes of the second and einsum's cast buffer.  A
    gather block, its key block, the intp copy that `take` makes of it
    and the gathered block, takes 12 bytes per entry, and the column's
    count about 50 bytes per element of the interval before the buffers
    exist, so neither sets the peak."""
    block = max(_ROW_BLOCK * _PRUNED_CHUNK, _GATHER_BLOCK)
    return 8 * m * k + 4 * _PRUNED_CHUNK * m + 96 * m + 4 * keys + 20 * block


def fold_dual_classes(classes: list[OrbitClass], n: int) -> tuple[list[OrbitClass], list[int]]:
    """The classes the pruned plus4 sum evaluates, and the multiplicity of each.

    The substitution c -> c* permutes the four factors, so a and a* have
    equal sums at every top block, and relabeling the variables permutes
    the top blocks, so a class and its dual class have equal partial sums.
    When both are listed, only the first is kept, with multiplicity 2; a
    self-dual class, or one whose dual class is not listed, keeps 1.
    """
    reps, _ = _rep_array(classes)
    dual_reps = canonical_array(vecbits.dual_array(reps, n), n)
    waiting: dict[int, list[int]] = {}  # representative -> kept, unpaired indices
    kept, mult = [], []
    for c, r, dr in zip(classes, reps.tolist(), dual_reps.tolist()):
        if dr != r and waiting.get(dr):
            mult[waiting[dr].pop()] = 2
            continue
        waiting.setdefault(r, []).append(len(kept))
        kept.append(c)
        mult.append(1)
    return kept, mult


def _pruned_terms(V: np.ndarray, n: int, rep_joins: np.ndarray):
    """The top indices ih with dual(h) <= h and some class under h (h >=
    a | dual(a), one entry of rep_joins), the size m of each interval
    [dual(h), h], and the number k of classes under each: k * m^2 ordered
    (b, c) pairs are summed at that top.  Only those tops are cut, one at a
    time, so a call over few classes, or none, cuts few intervals of the
    2,646 tops at n = 5, and no interval outlives its count."""
    duals = vecbits.dual_array(V, n)
    tops = np.nonzero((duals & ~V) == 0)[0]
    not_tops = ~V.take(tops)
    ks = np.zeros(len(tops), dtype=np.int64)
    for r in rep_joins:
        ks += (r & not_tops) == 0
    tops, ks = tops[ks > 0], ks[ks > 0]
    sizes = [len(_dual_intervals(V, t, duals[t])[t[0]]) for t in tops.reshape(-1, 1)]
    return tops, np.array(sizes, dtype=np.int64), ks


def plus4_pruned_term_count(layer: Layer, classes: list[OrbitClass]) -> int:
    """Number of ordered (b, c) interval products summed for these classes.

    Each listed class counts once: over all 210 classes of the n=5 layer
    that is 417,628,327,127.  The kernel sums a class and its dual class
    once (fold_dual_classes), so it is given 227,793,759,723 over the 112
    classes the fold keeps; and it evaluates about a quarter of those,
    one per orbit of (b, c) under b <-> c and (b, c) -> (b*, c*), which
    leave each product unchanged.
    """
    reps, _ = _rep_array(classes)
    joins = reps | vecbits.dual_array(reps, layer.n)
    _, sizes, ks = _pruned_terms(layer.values, layer.n, joins)
    return int((ks * sizes * sizes).sum())


def _require_exact_products(max_count: int) -> None:
    """Raise unless a product of four interval counts stays below 2^52."""
    if max_count ** 4 >= 1 << 52:
        raise VerificationError(
            f"interval counts reach {max_count}, so four-way products reach"
            f" {max_count ** 4} >= 2^52, beyond the exact range of the int64 sums"
        )


def _require_exact_chunk_sums(chunk: int) -> None:
    """Raise unless a chunk's sum of products below 2^52 stays in int64."""
    if chunk << 52 > 1 << 63:
        raise VerificationError(
            f"the pruned kernel sums {chunk} products below 2^52 in int64"
            f" before exact_sum; more than 2^11 can reach 2^63"
        )


def _k4_tables(layer: Layer, budget_mb: int | None, kernel_bytes: int = 0) -> tuple[np.ndarray, ...]:
    """The tables every k = 4 kernel and plus3 take: the layer values V,
    the index of each element's dual, and the pair keys of the layer with
    the two small tables that give the key of a join (intervals.join_keys:
    the keys, the half indices i0 and i1, Jlo and Jhi).  A kernel reads
    interval counts of at most the layer's size d, so this raises before
    building anything unless d^4 < 2^52; then it refuses these tables,
    with their build buffers, together with the kernel_bytes the kernel
    allocates beside them (the tasks' buffers, or the dense reference's
    matrix and join-index table)."""
    V, n, d = layer.values, layer.n, len(layer)
    _require_exact_products(d)
    check_budget(f"k = 4 tables for n={n} with the kernel's buffers", k4_table_bytes(d) + kernel_bytes, budget_mb)
    dual_idx = np.searchsorted(V, vecbits.dual_array(V, n)).astype(np.int32)
    return (V, dual_idx, *join_keys(V, n))


def lambda_plus4_direct(
    layer: Layer,
    classes: list[OrbitClass],
    workers: int = 1,
    budget_mb: int | None = None,
    strategy: str = "pruned",
) -> LambdaResult:
    """Count for n+4 by the direct sum over (a, b, c, top block); only
    checks name strategy="dense", the unpruned reference (bases up to 4)."""
    if strategy not in ("dense", "pruned"):
        raise ValueError(f"unknown strategy {strategy!r}")
    t0 = time.perf_counter()
    n = layer.n
    _require_base("plus4", n)
    if strategy == "dense" and n > 4:
        raise BudgetError(
            f"dense plus4 gathers a {len(layer)} x {len(layer)} block of the matrix"
            f" per b, {len(layer)} times per class; use pruned"
        )
    V = layer.values
    if strategy == "dense":
        d = len(layer)
        _require_exact_products(d)  # the refusal every k = 4 route gives first
        if d * d >= 1 << 16:
            raise VerificationError(
                f"interval counts reach {d}, so the dense reference's uint16 products of two"
                f" reach {d * d} >= 2^16"
            )
        dual_idx = _k4_tables(layer, budget_mb, full_table_bytes(d) + join_index_bytes(d))[1]
        tables = build_full_table(n, budget_mb).counts, _join_index_table(V, n), dual_idx
        reps, gammas = _rep_array(classes)
        rep_idx = np.searchsorted(V, reps)
        parts = parallel.run_tasks(
            lambda ci: int(gammas[ci]) * _plus4_dense_sum(tables, int(rep_idx[ci])),
            range(len(classes)), workers,
        )
    else:
        _require_exact_chunk_sums(_PRUNED_CHUNK)
        kept, mult = fold_dual_classes(classes, n)
        reps, gammas = _rep_array(kept)
        rep_idx = np.searchsorted(V, reps)
        rep_joins = reps | vecbits.dual_array(reps, n)
        class_weights = [g * k for g, k in zip(gammas.tolist(), mult)]  # doubled for a folded dual pair
        tops, sizes, ks = _pruned_terms(V, n, rep_joins)
        terms = ks * sizes * sizes
        order = np.argsort(-terms, kind="stable")  # longest first
        # each worker may run the largest task at the same time
        task_bytes = max((_top_block_bytes(key_count(n), m, k) for m, k in zip(sizes.tolist(), ks.tolist())), default=0)
        tables = _k4_tables(layer, budget_mb, min(max(workers, 1), len(order)) * task_bytes)

        def top_task(ih: int) -> int:
            under = np.nonzero((rep_joins & ~V[ih]) == 0)[0]  # classes with a | a* <= h
            top = np.array([ih])
            sums = _top_block_sums(tables, _dual_intervals(V, top, V[tables[1][top]])[ih], rep_idx[under])
            return sum(class_weights[ci] * s for ci, s in zip(under, sums))

        parts = parallel.run_tasks(top_task, tops[order].tolist(), workers, weights=terms[order].tolist())
    value = sum(parts)
    return LambdaResult(n + 4, "plus4", value, n, time.perf_counter() - t0)


# -- plus4c (per top block over orbit classes) --------------------------------


def lambda_plus4_classes(
    layer: Layer,
    classes: list[OrbitClass],
    workers: int = 1,
    budget_mb: int | None = None,
) -> LambdaResult:
    """Count for n+4 grouped per top block h over orbit classes.

    Only classes with dual(h) <= h and weight(h) > 2^(n-1) are summed;
    the weight-equal top blocks contribute the closed n-count term.
    """
    t0 = time.perf_counter()
    n = layer.n
    _require_base("plus4c", n)
    _require_exact_chunk_sums(_PRUNED_CHUNK)
    # a task's interval lies in D_n, and its a are at most one per element
    d = len(layer)
    tables = _k4_tables(layer, budget_mb, max(workers, 1) * _top_block_bytes(key_count(n), d, d))
    value = _run_class_tasks(layer, classes, workers, lambda I, reps: _top_block_sums(tables, I, I[reps]))
    return LambdaResult(n + 4, "plus4c", value, n, time.perf_counter() - t0, "brute")


# -- dispatch -----------------------------------------------------------------


def verify_result(result: LambdaResult) -> None:
    """Raise if the value contradicts the known reference table."""
    known = LAMBDA_KNOWN.get(result.n_target)
    if known is not None and result.value != known:
        raise VerificationError(
            f"{result.method} produced {result.value} for n={result.n_target};"
            f" the known value is {known} (implementation defect)"
        )


def lambda_any(
    n_target: int,
    method: str,
    workers: int = 1,
    budget_mb: int | None = None,
    verify: bool = True,
) -> LambdaResult:
    """Compute the count for n_target by the named method, with verification.

    Chooses the base layer n_target - offset, builds prerequisites, runs
    the method, and checks the value against the reference table (raising
    VerificationError on mismatch) unless verify is off.
    """
    if method not in METHODS:
        raise UnsupportedCombinationError(
            f"unknown method {method!r}; choose from {', '.join(METHODS)}"
        )
    base = n_target - _BASE_OFFSET[method]
    if base < 0 or base > _BASE_MAX[method]:
        raise UnsupportedCombinationError(
            f"{method} cannot reach n={n_target}: base layer n={base} is outside"
            f" 0..{_BASE_MAX[method]}"
        )
    t0 = time.perf_counter()
    if method == "brute":
        result = lambda_brute(base, budget_mb)
    else:
        layer = generate_layer(base, budget_mb)
        classes = classify(layer)
        if method == "plus2":
            result = lambda_plus2(layer, classes, workers)
        elif method == "plus3":
            result = lambda_plus3(layer, classes, workers, budget_mb)
        elif method == "plus4":
            result = lambda_plus4_direct(layer, classes, workers, budget_mb)
        else:
            result = lambda_plus4_classes(layer, classes, workers, budget_mb=budget_mb)
    result = replace(result, seconds=time.perf_counter() - t0)
    if verify:
        verify_result(result)
    return result

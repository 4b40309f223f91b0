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
          weight(h) > 2^(n-1).  The outer loop runs over b, and the
          interval counts within [a, a*] are taken once per Stab(h)-orbit:
          16,698 representatives for the 92,816 elements of the 80 base-5
          classes.

  plus4   with k = 4 the sixteen blocks reduce to a, b, c plus a top
          block h >= a|b|c|dual(a)|dual(b)|dual(c) and four free middle
          blocks, each ranging over one interval ending at h; the count
          is the sum over (a, b, c, h) of the product of four interval
          counts.  The product vanishes unless dual(h) <= a, b, c <= h,
          so per top block h and a in [dual(h), h] the kernel
          (_top_block_sums) sums S(a, h) over b, c in [dual(h), h]: per
          chunk of c it builds the factors re(c | x, h) and re(c* | x, h)
          once, stored one row per x in [dual(h), h], and every a takes
          its four factors from them as whole rows, by `take`.
          Swapping b and c, and replacing (b, c) by (b*, c*), each
          permute the four factors, so it evaluates about a quarter of
          the pairs, one per orbit of (b, c) under b <-> c and
          (b, c) -> (b*, c*), weighted by the orbit's size.  Pruned plus4 runs one task per
          h over the classes a under it; c -> c* maps the sum for a* onto
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

Both k = 4 routes, and the dense reference, read the tables built by one
helper (_k4_tables): the layer, the join-index table J (the index of
x | y) and the index of each dual.  A factor such as re(a | b | c, h) is
the entry of the column re(x, h) at J[J[a, b], c].  The shared kernel
counts that column over [h*, h] alone (upward_in_interval), where every
join it reads lies; only the dense reference builds the uint16 interval
matrix.  Entries are cast up only where multiplied.

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
from .intervals import _join_index_table, build_full_table, full_table_bytes, join_index_bytes
from .intervals import upward_counts, upward_in_interval
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
    len(a) * max(a) < 2^76.  The dense plus4 reference runs at n <= 4 and
    sums at most d_4 = 168 entries, each a sum of at most 168 products,
    so len(a) * max(a) < 2^67.
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


def _dual_intervals(V: np.ndarray, n: int, tops) -> dict[int, np.ndarray]:
    """The ascending index array of [dual(h), h] in the layer V, for each
    given top index ih (h = V[ih], dual(h) <= h)."""
    duals = vecbits.dual_array(V[tops], n)
    return {
        ih: np.nonzero(((hd & ~V) == 0) & ((V & ~V[ih]) == 0))[0].astype(np.int32)
        for ih, hd in zip(tops.tolist(), duals)
    }


def _run_class_tasks(layer: Layer, classes, workers: int, kernel) -> int:
    """Sum one task per class h with dual(h) <= h and weight(h) > 2^(n-1),
    longest interval first, plus the closed term for the weight-equal
    (self-dual) classes, which is the count for n itself.  A task is
    gamma(h) times the sum, over the orbits of Stab(h) on [dual(h), h], of
    the orbit size times kernel(ih, I, reps, inverse), the value at each
    orbit representative (positions in the interval I); inverse maps each
    position to its orbit, so a kernel counts an orbit invariant once per
    orbit.
    """
    V, n = layer.values, layer.n
    reps, gammas = _rep_array(classes)
    rep_idx = np.searchsorted(V, reps)
    sel = (vecbits.dual_array(reps, n) & ~reps) == 0
    sel &= 2 * vecbits.popcount(reps) > table_width(n)
    intervals = _dual_intervals(V, n, rep_idx[sel])
    tasks = sorted(np.nonzero(sel)[0].tolist(), key=lambda ci: -len(intervals[int(rep_idx[ci])]))

    def class_task(ci: int) -> int:
        ih = int(rep_idx[ci])
        I = intervals[ih]
        orbit_reps, inverse, sizes = orbits.stabilizer_orbits(int(V[ih]), V[I], n)
        sums = kernel(ih, I, orbit_reps, inverse)
        return int(gammas[ci]) * sum(size * s for size, s in zip(sizes.tolist(), sums))

    return sum(parallel.run_tasks(class_task, tasks, workers)) + self_dual_brute(n)


# -- plus3 ------------------------------------------------------------------


def _plus3_sums(X: np.ndarray, n: int, reps, inverse) -> list[int]:
    """Per representative b (positions in X, the interval [a, a*]): the
    c >= b in X, each counting the d choices, which fill [a, c & dual(b)]."""
    Xd = vecbits.dual_array(X, n)
    rea = np.array([np.count_nonzero((X & ~b) == 0) for b in X[reps]])[inverse]
    return [int(rea[np.searchsorted(X, X[(X[r] & ~X) == 0] & Xd[r])].sum()) for r in reps]


def lambda_plus3(layer: Layer, classes: list[OrbitClass], workers: int = 1) -> LambdaResult:
    """Count for n+3 from the 4-tuple sum over orbit classes."""
    t0 = time.perf_counter()
    n = layer.n
    _require_base("plus3", n)
    value = _run_class_tasks(
        layer, classes, workers, lambda ih, I, reps, inverse: _plus3_sums(layer.values[I], n, reps, inverse)
    )
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
        # Entries are below 2^13, so a product of two fits int32
        p = np.multiply(RE[J[J[ia, ib]]], RE[J[J[ia, idb]][dual_idx]], dtype=np.int32)  # a|b|c, a|b*|c*
        q = np.multiply(RE[J[J[ida, ib]][dual_idx]], RE[J[J[ida, idb]]], dtype=np.int32)  # a*|b|c*, a*|b*|c
        # one sum per h over the d <= 168 rows, each below 168 * 2^52
        total += exact_sum(np.einsum("ij,ij->j", p, q, dtype=np.int64))
    return total


# -- plus4, pruned (per top block, n <= 5) -----------------------------------


_PRUNED_CHUNK = 64


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

    The factor rows of a chunk of c are stored transposed, one row per x
    in the interval (ascending, so the gathers keep their locality) and
    one column per c, so each a takes its four factors as whole
    contiguous rows by position.  Every gather is a `take`, because
    numpy's fancy indexing with non-intp index arrays is slower: at the
    top block of n = 5 (m = 7,581), on a 2-core host with numpy 2.4, an
    entry of `col[S]` with a uint16 S cost 2.6 ns against 1.1 ns by
    `col.take(S)`, and an entry of a column gather from rows stored one
    per c 0.51 ns against 0.07 ns by a whole-row `take` along axis 0.
    """
    V, J, dual_idx = tables
    m = len(cidx)
    # col[x] = re(x, h), read only at joins inside [dual(h), h]; entries
    # are below 2^13 (_k4_tables checks), so they fit int16, a product of
    # two fits int32 and of four stays below 2^52
    col = np.zeros(len(V), dtype=np.int16)
    col[cidx] = upward_in_interval(V.take(cidx))
    # a, a*, b and b* all lie in [h*, h], so each join of two does too;
    # pos gives its position in the interval, below m <= d_5 = 7,581 <
    # 2^13, so it fits int16
    pos = np.zeros(len(J), dtype=np.int16)
    pos[cidx] = np.arange(m)
    dcidx = dual_idx.take(cidx)
    low, self_dual = cidx[cidx < dcidx], cidx[cidx == dcidx]
    l, s = len(low), len(self_dual)
    dlow = dual_idx.take(low)
    rows_q = np.concatenate((dlow, self_dual, low))  # Q
    drows_q = np.concatenate((low, self_dual, dlow))  # the dual of each row of Q
    joins = []
    for ia in a_idx:
        Ja, Jda = J[ia], J[dual_idx[ia]]
        joins.append((
            pos.take(Ja.take(rows_q)),  # a | b, per row b of Q
            pos.take(Ja.take(drows_q)),  # a | b*
            pos.take(Jda.take(rows_q)),  # a* | b
            pos.take(Jda.take(drows_q)),  # a* | b*
        ))

    def factor_rows(cs):
        # J is symmetric, so row k of J's chunk holds the joins with
        # c = cs[k]; transposed, out[x, k] = re(cs[k] | x, h) for every x
        # in the interval, shared by every a
        return np.ascontiguousarray(col.take(J.take(cs, axis=0).take(cidx, axis=1)).T)

    def row_sums(McT, MdcT, js, rows):
        # one row per b in rows: p pairs a|b|c with a|b*|c*, q a*|b|c*
        # with a*|b*|c; one sum per b over the chunk's columns, each below
        # _PRUNED_CHUNK * 2^52
        j_bot, j_a, j_b, j_c = (j[rows] for j in js)
        p = np.multiply(McT.take(j_bot, axis=0), MdcT.take(j_a, axis=0), dtype=np.int32)
        q = np.multiply(MdcT.take(j_b, axis=0), McT.take(j_c, axis=0), dtype=np.int32)
        return np.einsum("ij,ij->i", p, q, dtype=np.int64)

    totals = [0] * len(joins)
    for lo in range(0, l, _PRUNED_CHUNK):
        hi = min(lo + _PRUNED_CHUNK, l)
        w = hi - lo
        McT = factor_rows(low[lo:hi])
        MdcT = factor_rows(dlow[lo:hi])
        for k, js in enumerate(joins):
            sums = row_sums(McT, MdcT, js, slice(lo, l + s + hi))
            totals[k] += 2 * (exact_sum(sums[:w]) + exact_sum(sums[-w:])) + 4 * exact_sum(sums[w:-w])
    for lo in range(0, s, _PRUNED_CHUNK):
        M = factor_rows(self_dual[lo:lo + _PRUNED_CHUNK])  # c* = c
        for k, js in enumerate(joins):
            totals[k] += exact_sum(row_sums(M, M, js, slice(l, l + s)))
    return totals


def _top_block_bytes(d: int, m: int, k: int) -> int:
    """Estimated peak of the buffers one _top_block_sums call allocates,
    for an interval of m elements of a layer of d and k values of a: 8
    bytes per a and element for the four int16 join positions; per entry
    of a chunk's factor rows (m x _PRUNED_CHUNK), 16 bytes: the two int16
    blocks of the chunk before, beside the build's uint16 joins, the intp
    copy that `take` makes of them and the int16 result; 2 bytes per
    entry of the _PRUNED_CHUNK rows of J that the build gathers first;
    and 16 bytes per layer element for the column and the position index.
    Between builds, the two int32 products and two int16 row takes over a
    window of l + s + (hi - lo) <= m rows take 12 bytes per entry beside
    the blocks' 4, and the column's count about 50 bytes per element of the
    interval before any chunk, so neither sets the peak."""
    return 8 * m * k + 16 * _PRUNED_CHUNK * m + 2 * _PRUNED_CHUNK * d + 16 * d


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
    """The top indices ih with dual(h) <= h, the interval [dual(h), h] of
    each, and the ordered (b, c) pairs per class a and top block h: the
    squared size of the interval where h >= a | dual(a) (one entry of
    rep_joins), else 0 (one row per class)."""
    tops = np.nonzero((vecbits.dual_array(V, n) & ~V) == 0)[0]
    intervals = _dual_intervals(V, n, tops)
    squares = np.array([len(intervals[ih]) ** 2 for ih in tops.tolist()], dtype=np.int64)
    under = (rep_joins[:, None] & ~V[tops][None, :]) == 0
    return tops, intervals, under * squares


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
    return int(_pruned_terms(layer.values, layer.n, joins)[2].sum())


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
    """The tables every k = 4 kernel takes: the layer values V, the
    join-index table J (the index of x | y in the layer) and the index of
    each element's dual.  A kernel reads interval counts of at most the
    layer's size d, so this raises before building anything unless d^4 <
    2^52; then it refuses J, with its build buffers, together with the
    kernel_bytes the kernel allocates beside it (the tasks' buffers, or the
    dense reference's matrix)."""
    V, n, d = layer.values, layer.n, len(layer)
    _require_exact_products(d)
    check_budget(f"join index for n={n} with the kernel's buffers", join_index_bytes(d) + kernel_bytes, budget_mb)
    dual_idx = np.searchsorted(V, vecbits.dual_array(V, n)).astype(np.int32)
    return V, _join_index_table(V, n), dual_idx


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
        _, J, dual_idx = _k4_tables(layer, budget_mb, full_table_bytes(len(layer)))
        tables = build_full_table(n, budget_mb).counts, J, dual_idx
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
        tops, intervals, terms = _pruned_terms(V, n, rep_joins)
        ks = np.count_nonzero(terms, axis=0)  # the classes a under each top block
        terms = terms.sum(axis=0)
        order = np.argsort(-terms, kind="stable")  # longest first
        order = order[terms[order] > 0]
        sizes = [len(intervals[ih]) for ih in tops[order].tolist()]
        # each worker may run the largest task at the same time
        task_bytes = max((_top_block_bytes(len(V), m, k) for m, k in zip(sizes, ks[order].tolist())), default=0)
        tables = _k4_tables(layer, budget_mb, min(max(workers, 1), len(order)) * task_bytes)

        def top_task(ih: int) -> int:
            under = np.nonzero((rep_joins & ~V[ih]) == 0)[0]  # classes with a | a* <= h
            sums = _top_block_sums(tables, intervals[ih], rep_idx[under])
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
    tables = _k4_tables(layer, budget_mb, max(workers, 1) * _top_block_bytes(d, d, d))
    value = _run_class_tasks(
        layer, classes, workers, lambda ih, I, reps, inverse: _top_block_sums(tables, I, I[reps])
    )
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
            result = lambda_plus3(layer, classes, workers)
        elif method == "plus4":
            result = lambda_plus4_direct(layer, classes, workers, budget_mb)
        else:
            result = lambda_plus4_classes(layer, classes, workers, budget_mb=budget_mb)
    result = replace(result, seconds=time.perf_counter() - t0)
    if verify:
        verify_result(result)
    return result

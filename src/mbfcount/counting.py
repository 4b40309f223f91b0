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
          chunk of c it builds the rows re(c | x, h) and re(c* | x, h)
          over x in [dual(h), h] once, and every a takes its four
          factors from them.  Swapping b and c swaps two factors, so it
          sums only b <= c and counts b < c twice.  Pruned plus4 runs
          one task per h over the classes a under it; c -> c* maps the
          sum for a* onto the sum for a, so a class and its dual class
          are summed once, with twice the weight.  Pruned is the plus4
          route at every base; strategy="dense", the sum over every
          (a, b, c, h) (n <= 4), is the reference for the kernel.

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

Both k = 4 routes, and the dense reference, read one representation,
built by one helper (_k4_tables): rows of the uint16 interval matrix with
a row index, the join-index table J (the index of x | y) and the index of
each dual.  A factor such as re(a | b | c, h) is the matrix entry at row
J[J[a, b], c]; the shared kernel reads a column re(x, h) as the row of
h* gathered through the dual index, since re(x, h) = re(h*, x*).  Its top
blocks have h* <= h, so it reads only the rows of the x <= x*, and only
those are built (2,646 of the 7,581 at n = 5, 40 MB of the 115 MB
matrix); the dense reference reads every row, and gets the whole matrix.
Entries are cast up only where multiplied.

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
from .intervals import _join_index_table, build_full_table, full_table_bytes, upward_counts
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
    layer index a; tables are those of _k4_tables."""
    RE, _, J, dual_idx = tables  # every row, in layer order
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


def _top_block_sums(tables, ih: int, cidx: np.ndarray, a_idx) -> list[int]:
    """S(a, h) for the top block h at layer index ih and each layer index a
    in [dual(h), h]: the sum over b, c in [dual(h), h] of
    re(a|b|c, h) re(a|b*|c*, h) re(a*|b|c*, h) re(a*|b*|c, h).  tables
    are those of _k4_tables, cidx the layer indices of [dual(h), h] in
    ascending order (_dual_intervals).  Every factor is an entry of the
    column re(x, h), which is the row of h* read through the row index:
    the one row of the matrix this kernel reads per top block."""
    RE, row, J, dual_idx = tables
    dcidx = dual_idx[cidx]
    m = len(cidx)
    # col[x] = re(x, h) = re(h*, x*): dual reverses the order, so the
    # column of h is a gather from the contiguous row of h* (h* <= h, so
    # _k4_tables built it); entries are below 2^13 (_k4_tables checks),
    # so they fit int16, a product of two fits int32 and of four stays
    # below 2^52
    col = RE[row[dual_idx[ih]]][dual_idx].astype(np.int16)
    # a, a*, b and b* all lie in [h*, h], so each join of two does too;
    # pos gives its column in the factor rows below
    pos = np.zeros(len(J), dtype=np.intp)
    pos[cidx] = np.arange(m)
    joins = []
    for ia in a_idx:
        ida = dual_idx[ia]
        joins.append((
            pos[J[ia, cidx]],  # a | b, per b in the interval
            pos[J[ia, dcidx]],  # a | b*
            pos[J[ida, cidx]],  # a* | b
            pos[J[ida, dcidx]],  # a* | b*
        ))
    # the product is symmetric in b and c, so sum only b <= c by interval
    # index: per chunk of c in [lo, hi), the b in [0, lo) lie above the
    # diagonal and count twice, the square of b, c in [lo, hi) counts once
    off = [0] * len(joins)
    diag = [0] * len(joins)
    for lo in range(0, m, _PRUNED_CHUNK):
        hi = lo + _PRUNED_CHUNK
        # J is symmetric, so row k holds the joins with c = cidx[lo + k]:
        # Mc[k, x] = re(c | x, h) and Mdc[k, x] = re(c* | x, h) for every x
        # in the interval, shared by every a
        Mc = col[J[cidx[lo:hi]][:, cidx]]
        Mdc = col[J[dcidx[lo:hi]][:, cidx]]
        for k, (j_bot, j_a, j_b, j_c) in enumerate(joins):
            p = np.multiply(Mc[:, j_bot[:hi]], Mdc[:, j_a[:hi]], dtype=np.int32)  # a|b|c, a|b*|c*
            q = np.multiply(Mdc[:, j_b[:hi]], Mc[:, j_c[:hi]], dtype=np.int32)  # a*|b|c*, a*|b*|c
            # one sum per b over the chunk's rows, each below _PRUNED_CHUNK * 2^52
            sums = np.einsum("ij,ij->j", p, q, dtype=np.int64)
            if lo:
                off[k] += exact_sum(sums[:lo])
            diag[k] += exact_sum(sums[lo:])
    return [2 * o + d for o, d in zip(off, diag)]


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
    classes the fold keeps; and since the products are symmetric in b and
    c, it evaluates about half of those, one per pair b <= c.
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


def _k4_tables(
    layer: Layer, budget_mb: int | None, every_row: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The tables every k = 4 kernel takes: rows RE of the uint16 interval
    matrix, the row index (row[i] is the row of layer index i in RE), the
    join-index table J (the index of x | y in the layer) and the index of
    each element's dual.  _top_block_sums reads only the row of h* for a
    top block h with h* <= h, so RE holds only the rows of the x <= x*
    (2,646 of the 7,581 at n = 5); the dense reference reads every row
    (every_row), and there RE is the whole matrix.  A row not built has
    the index len(RE), so reading it raises.  Refuses the rows, their
    build buffers and J together (d^2 * 2 bytes for J) before building
    any of them, and raises before any task runs unless four-way products
    of interval counts stay below 2^52.
    """
    V, n, d = layer.values, layer.n, len(layer)
    dual = vecbits.dual_array(V, n)
    rows = np.arange(d) if every_row else np.flatnonzero((V & ~dual) == 0)
    check_budget(
        f"matrix and join index for n={n}", full_table_bytes(d, len(rows)) + d * d * 2, budget_mb
    )
    counts = build_full_table(n, budget_mb, rows).counts
    _require_exact_products(int(counts.max()))
    row = np.full(d, len(rows), dtype=np.int32)
    row[rows] = np.arange(len(rows))
    dual_idx = np.searchsorted(V, dual).astype(np.int32)
    return counts, row, _join_index_table(V, n), dual_idx


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
    tables = _k4_tables(layer, budget_mb, every_row=strategy == "dense")
    if strategy == "dense":
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
        terms = terms.sum(axis=0)
        order = np.argsort(-terms, kind="stable")  # longest first
        order = order[terms[order] > 0]

        def top_task(ih: int) -> int:
            under = np.nonzero((rep_joins & ~V[ih]) == 0)[0]  # classes with a | a* <= h
            sums = _top_block_sums(tables, ih, intervals[ih], rep_idx[under])
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
    tables = _k4_tables(layer, budget_mb)
    value = _run_class_tasks(
        layer, classes, workers, lambda ih, I, reps, inverse: _top_block_sums(tables, ih, I, I[reps])
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

"""Cross-module invariant suites, runnable from the CLI.

Each suite re-derives a structural fact by an independent route and
compares: dual algebra on whole layers, permutation equivariance and the
relabeling walk's results (canonical_array, classify, stabilizer_orbits)
against _relabel, a position map applied for every relabeling, the upward
counts and the all-pairs interval matrix that the counts read against the
definition scan, the Dedekind numbers and dual symmetry, the upward counts
with the join and dual indices against D_{n+2}, stabilizer orbits against
classification, and the counting methods (class folding, each plus3 class
task against the definition, the kernel that plus4c and pruned plus4
share against the definition at every (a, h), and both routes against
the dense k = 4 sum).  A build that passes all of these and the
reference table is very hard to get wrong silently.

A suite is a check of one n.  SUITES gives each its largest n, and
run_selfcheck is the one loop over n: it stops a suite at its first
failing n and names that n on the suite's FAIL line.  The suites share no
state: each check builds what it reads.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator

import numpy as np

from . import vecbits
from .core import dual_bits, table_width
from .counting import (
    LAMBDA_KNOWN,
    _dual_intervals,
    _k4_tables,
    _top_block_sums,
    exact_sum,
    lambda_plus2,
    lambda_plus3,
    lambda_plus4_classes,
    lambda_plus4_direct,
)
from .errors import VerificationError
from .intervals import _join_index_table, build_full_table, re_scan, upward_counts, upward_in_interval
from .layers import DEDEKIND_7, LAYER_SIZE, generate_layer, self_dual_brute
from .orbits import canonical_array, classify, stabilizer_orbits

RNG_SEED = 20240901


def check_dual_involution(n: int) -> bool:
    """dual(dual(x)) == x for every element."""
    V = generate_layer(n).values
    return np.array_equal(vecbits.dual_array(vecbits.dual_array(V, n), n), V)


def check_dual_antitone(n: int) -> bool:
    """x <= y implies dual(y) <= dual(x), all pairs."""
    V = generate_layer(n).values
    D = vecbits.dual_array(V, n)
    le = (V[:, None] & ~V[None, :]) == 0
    led = (D[None, :] & ~D[:, None]) == 0  # dual(y) <= dual(x)
    return np.array_equal(le, led)


def check_dual_lattice_identities(n: int) -> bool:
    """dual(x|y) == dual(x) & dual(y) and the meet twin, all pairs."""
    V = generate_layer(n).values
    D = vecbits.dual_array(V, n)
    joins = (V[:, None] | V[None, :]).ravel()
    meets = (V[:, None] & V[None, :]).ravel()
    return np.array_equal(vecbits.dual_array(joins, n), (D[:, None] & D[None, :]).ravel()) and (
        np.array_equal(vecbits.dual_array(meets, n), (D[:, None] | D[None, :]).ravel())
    )


def check_join_meet_closure(n: int) -> bool:
    """Joins and meets of layer elements stay monotone, all pairs."""
    V = generate_layer(n).values
    joins = (V[:, None] | V[None, :]).ravel()
    meets = (V[:, None] & V[None, :]).ravel()
    return bool(np.all(vecbits.monotone_mask(joins, n)) and np.all(vecbits.monotone_mask(meets, n)))


def _relabel(values: np.ndarray, n: int, mapping) -> np.ndarray:
    """Relabel every function in values: bit p moves to the position whose
    digit mapping[d] is digit d of p.  Shares no code with orbits' walk."""
    out = np.zeros_like(values)
    for p in range(table_width(n)):
        q = sum(1 << m for d, m in enumerate(mapping) if (p >> d) & 1)
        out |= ((values >> np.uint64(p)) & np.uint64(1)) << np.uint64(q)
    return out


def _images(values: np.ndarray, n: int) -> list[np.ndarray]:
    """The images of values under all n! relabelings, by _relabel."""
    return [_relabel(values, n, m) for m in itertools.permutations(range(n))]


def check_equivariance(n: int) -> bool:
    """Every relabeling commutes with dual_array on the whole layer, so
    the orbit of a self-dual element is self-dual."""
    V = generate_layer(n).values
    return all(
        np.array_equal(vecbits.dual_array(image, n), dual_image)
        for image, dual_image in zip(_images(V, n), _images(vecbits.dual_array(V, n), n))
    )


def check_relabeling_oracle(n: int) -> bool:
    """Every relabeling permutes D_n.  For each plus3 class a (a <=
    dual(a), weight below half), n <= 4, stabilizer_orbits over
    [a, dual(a)] gives the orbits and sizes of the relabelings that fix a."""
    V = generate_layer(n).values
    images = _images(V, n)
    if not all(np.array_equal(np.sort(image), V) for image in images):
        return False
    if n > 4:
        return True
    duals = vecbits.dual_array(V, n)
    outer = (np.min(images, axis=0) == V) & ((V & ~duals) == 0)
    for i in np.nonzero(outer & (2 * vecbits.popcount(V) < table_width(n)))[0]:
        a = V[i]
        inside = ((V & a) == a) & ((V & ~duals[i]) == 0)
        interval = V[inside]
        # image[j] is a relabeling of V[j]: those with image[i] == a fix a
        low = np.min([image[inside] for image in images if image[i] == a], axis=0)
        minima, inverse, sizes = np.unique(low, return_inverse=True, return_counts=True)
        got = stabilizer_orbits(int(a), interval, n)
        expect = (np.searchsorted(interval, minima), inverse, sizes)
        if not all(np.array_equal(g, e) for g, e in zip(got, expect)):
            return False
    return True


def check_canonicality(n: int) -> bool:
    """canonical_array is the minimum over every relabeling's image, and
    classify's representatives and gammas are its distinct values and
    their counts, on the whole layer."""
    layer = generate_layer(n)
    low = np.min(_images(layer.values, n), axis=0)
    if not np.array_equal(canonical_array(layer.values, n), low):
        return False
    reps, gammas = np.unique(low, return_counts=True)
    classes = classify(layer)
    return [c.representative.bits for c in classes] == reps.tolist() and (
        [c.gamma for c in classes] == gammas.tolist()
    )


def check_stabilizer_orbits(n: int) -> bool:
    """Every relabeling fixes the bottom element, so its stabilizer orbits
    over the whole layer are classify's classes, with gamma as sizes."""
    layer = generate_layer(n)
    reps, _, sizes = stabilizer_orbits(0, layer.values, n)
    classes = classify(layer)
    return layer.values[reps].tolist() == [c.representative.bits for c in classes] and (
        sizes.tolist() == [c.gamma for c in classes]
    )


def check_selfdual_weight(n: int) -> bool:
    """Every self-dual element has exactly half its table set."""
    V = generate_layer(n).values
    sd = V[V == vecbits.dual_array(V, n)]
    return bool(np.all(vecbits.popcount(sd) * 2 == table_width(n)))


def check_interval_oracle(n: int) -> bool:
    """The interval counts that the counting methods read equal the
    definition scan: upward_counts over the whole layer, and the matrix
    of build_full_table on every pair up to n = 4 and on 10^4 seeded
    random pairs at n = 5.  Its last column is the upward counts, and its
    first row, |[0, x]| = |[x*, top]| because dual reverses the order, is
    the upward counts read through the dual index.  The matrix is nonzero
    exactly on the pairs x <= y, which are the elements of D_{n+1}, so
    its support counts the next Dedekind number.  Every entry satisfies
    re(x, y) = re(y*, x*), which the zeta transform that builds it never
    uses.  The k = 4 kernel's column over [h*, h] (upward_in_interval) is
    that of the matrix, at every h with h* <= h."""
    layer = generate_layer(n)
    V = layer.values
    top = V[-1]  # the layer ascends, and the top is its largest element
    up = upward_counts(n, V)
    if up.tolist() != [re_scan(layer, x, top) for x in V]:
        return False
    d = len(V)
    if n < 5:
        pairs = np.ndindex(d, d)
    else:
        pairs = np.random.default_rng(RNG_SEED).integers(0, d, size=(10_000, 2))
    C = build_full_table(n).counts
    if np.count_nonzero(C) != LAYER_SIZE[n + 1]:
        return False
    duals = vecbits.dual_array(V, n)
    dual_idx = np.searchsorted(V, duals)
    if not (np.array_equal(C[:, -1], up) and np.array_equal(C[0], up[dual_idx])):
        return False
    for k in range(0, d, 256):  # column y of C is row y* permuted by dual
        if not np.array_equal(C[:, k:k + 256], C[dual_idx[k:k + 256]][:, dual_idx].T):
            return False
    tops = np.flatnonzero((duals & ~V) == 0)
    if not all(np.array_equal(upward_in_interval(V[I]), C[I, ih]) for ih, I in _dual_intervals(V, n, tops).items()):
        return False
    return all(C[i, j] == re_scan(layer, V[i], V[j]) for i, j in pairs)


def _four_block_count(up: np.ndarray, J: np.ndarray, dual_idx: np.ndarray) -> int:
    """Sum over x, y of re[0, x & y] * re[x | y, top]: an element of
    D_{n+2} is four blocks a <= x, y <= e of D_n, and fixing the middle
    blocks x, y leaves a in [0, x & y] and e in [x | y, top].  The meet
    comes through the join of the duals: x & y = (x* | y*)*.  Dual
    reverses the order, so |[0, x]| = |[x*, top]|: both factors are
    upward counts."""
    down = up[dual_idx]
    total = 0
    for lo in range(0, len(J), 512):
        joins = J[lo:lo + 512]
        meets = dual_idx[J[dual_idx[lo:lo + 512]][:, dual_idx]]
        total += int((down[meets] * up[joins]).sum())
    return total


def check_dedekind_two_up(n: int) -> bool:
    """The upward counts, read through the join index and the dual index,
    count D_{n+2} by _four_block_count."""
    V = generate_layer(n).values
    J = _join_index_table(V, n)
    dual_idx = np.searchsorted(V, vecbits.dual_array(V, n))
    return _four_block_count(upward_counts(n, V), J, dual_idx) == LAYER_SIZE.get(n + 2, DEDEKIND_7)


def check_plus2_class_fold(n: int) -> bool:
    """Class-weighted plus2 equals the plain sum over all elements."""
    layer = generate_layer(n)
    V = layer.values
    plain = exact_sum(upward_counts(n, V | vecbits.dual_array(V, n)))
    return plain == lambda_plus2(layer, classify(layer)).value


def _plus3_definition(values: np.ndarray, n: int, h: int) -> int:
    """The plus3 sum of the top block h, for a = dual(h), by subset tests:
    over b <= c in [a, h], the d in [a, h] with d <= c & dual(b)."""
    a = dual_bits(h, n)
    X = np.array([x for x in values.tolist() if a & ~x == 0 and x & ~h == 0], dtype=np.uint64)
    total = 0
    for b in X.tolist():
        tops = X[(X & np.uint64(b)) == b] & np.uint64(dual_bits(b, n))  # c & dual(b), c >= b
        total += int(np.count_nonzero((X[None, :] & ~tops[:, None]) == 0))
    return total


def check_plus3_classes(n: int) -> bool:
    """Each plus3 class task: lambda_plus3 over the one class, less the
    closed term, is gamma times the definition's sum for a top block h
    with dual(h) <= h and weight(h) > 2^(n-1), and 0 for any other class;
    with the closed term the partials add up to the count."""
    layer = generate_layer(n)
    w = table_width(n)
    total = closed = self_dual_brute(n)
    for c in classify(layer):
        h = c.representative.bits
        summed = dual_bits(h, n) & ~h == 0 and 2 * h.bit_count() > w
        expect = c.gamma * _plus3_definition(layer.values, n, h) if summed else 0
        if lambda_plus3(layer, [c]).value - closed != expect:
            return False
        total += expect
    return total == LAMBDA_KNOWN[n + 3]


def top_block_products(values: np.ndarray, n: int, h: int, a_values) -> Iterator[np.ndarray]:
    """For each a in a_values, T(b, c) = re(a|b|c, h) re(a|b*|c*, h)
    re(a*|b|c*, h) re(a*|b*|c, h) from its definition, one row per b and
    one column per c in [dual(h), h], ascending: each join a bitwise or and
    each re(x, h) a count of the z in values with x <= z <= h by subset
    tests, every (b, c) pair at once, with no matrix, join table or zeta
    transform; the interval, its counts and its duals once per h.  Each a
    must lie in [dual(h), h], so every join does too, and the m^2 products
    of one a, each at most m^4 for m = |[dual(h), h]|, sum inside int64
    for m <= 1448 (both checked)."""
    V = np.asarray(values, dtype=np.uint64)
    below_h = V[(V & ~np.uint64(h)) == 0]
    I = below_h[(np.uint64(dual_bits(h, n)) & ~below_h) == 0]  # [dual(h), h]
    if len(I) > 1448:
        raise ValueError(f"|[dual(h), h]| = {len(I)} overflows the int64 sum")
    re = np.count_nonzero((I[:, None] & ~below_h[None, :]) == 0, axis=1)
    B = I[:, None]  # b down the rows, and c across the columns of B.T
    Bd = np.array([dual_bits(int(b), n) for b in I], dtype=np.uint64)[:, None]
    for a in (int(a) for a in a_values):
        ad = dual_bits(a, n)
        joins = np.stack([a | B | B.T, a | Bd | Bd.T, ad | B | Bd.T, ad | Bd | B.T])
        at = np.minimum(np.searchsorted(I, joins), len(I) - 1)
        if not np.array_equal(I[at], joins):
            raise ValueError("a join falls outside [dual(h), h]")
        f = re[at].astype(np.int64)
        yield f[0] * f[1] * f[2] * f[3]


def definition_sums(values: np.ndarray, n: int, h: int, a_values) -> list[int]:
    """S(a, h) for each a in a_values, the sum of top_block_products."""
    return [int(T.sum()) for T in top_block_products(values, n, h, a_values)]


def check_top_block_sums(n: int) -> bool:
    """The shared k = 4 kernel, which sums one (b, c) per orbit of b <-> c
    and (b, c) -> (b*, c*), gives definition_sums at every top block h
    with dual(h) <= h and every a in [dual(h), h]."""
    layer = generate_layer(n)
    V = layer.values
    tops = np.nonzero((vecbits.dual_array(V, n) & ~V) == 0)[0]
    tables = _k4_tables(layer, None)
    return all(
        _top_block_sums(tables, I, I) == definition_sums(V, n, int(V[ih]), V[I])
        for ih, I in _dual_intervals(V, n, tops).items()
    )


def check_plus4c_against_dense(n: int) -> bool:
    """plus4c, which sums b, c over [dual(h), h] only, equals dense plus4,
    which sums every (a, b, c, h) (out-of-interval terms have a zero
    factor)."""
    layer = generate_layer(n)
    classes = classify(layer)
    dense = lambda_plus4_direct(layer, classes, strategy="dense").value
    return lambda_plus4_classes(layer, classes).value == dense


def check_plus4_strategies(n: int) -> bool:
    """Dense and pruned plus4 strategies agree."""
    layer = generate_layer(n)
    classes = classify(layer)
    dense = lambda_plus4_direct(layer, classes, strategy="dense").value
    return lambda_plus4_direct(layer, classes, strategy="pruned").value == dense


# (name, largest n, check of one n): run_selfcheck runs each check at
# n = 0, 1, ... up to the smaller of its largest n and the run's
SUITES = (
    ("dual-involution", 4, check_dual_involution),
    ("dual-antitone", 4, check_dual_antitone),
    ("dual-lattice-identities", 4, check_dual_lattice_identities),
    ("join-meet-closure", 3, check_join_meet_closure),
    ("permutation-equivariance", 5, check_equivariance),
    ("relabeling-oracle", 5, check_relabeling_oracle),
    ("canonical-representatives", 5, check_canonicality),
    ("stabilizer-orbits", 5, check_stabilizer_orbits),
    ("self-dual-weight", 4, check_selfdual_weight),
    ("interval-oracle", 5, check_interval_oracle),
    ("dedekind-two-up", 5, check_dedekind_two_up),
    ("plus2-class-fold", 4, check_plus2_class_fold),
    ("plus3-classes", 4, check_plus3_classes),
    ("top-block-sums", 4, check_top_block_sums),
    ("plus4c-against-dense", 2, check_plus4c_against_dense),
    ("plus4-strategies", 3, check_plus4_strategies),
)


def run_selfcheck(max_n: int = 5, report=print) -> bool:
    """Run every suite up to max_n; report one line each; True iff all
    pass.  A suite stops at its first failing n, and its line names it."""
    all_ok = True
    for name, cap, check in SUITES:
        line = f"PASS {name}"
        for n in range(min(max_n, cap) + 1):
            try:
                if check(n):
                    continue
                line = f"FAIL {name}: n={n}"
            except VerificationError as e:  # this suite fails; the rest still run
                line = f"FAIL {name}: n={n}: {e}"
            all_ok = False
            break
        report(line)
    return all_ok

"""Cross-module invariant suites, runnable from the CLI.

Each suite re-derives a structural fact by an independent route and
compares: dual algebra on whole layers, permutation equivariance and the
relabeling walk's results (canonical_array, classify, stabilizer_orbits)
against _relabel, a position map applied for every relabeling, the upward
counts and the all-pairs interval matrix that the counts read against the
definition scan and the Dedekind numbers, the upward counts with the join
and dual indices against D_{n+2}, orbit size bookkeeping, stabilizer
orbits against classification, and the counting methods (class folding,
each plus3 class task against the definition, and plus4c and pruned
plus4, which share one kernel, against the dense k = 4 sum).  A build
that passes all of these and the reference table is very hard to get
wrong silently.  The suites share no state: each builds what it reads.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import vecbits
from .core import dual_bits, table_width
from .counting import (
    LAMBDA_KNOWN,
    exact_sum,
    lambda_plus2,
    lambda_plus3,
    lambda_plus4_classes,
    lambda_plus4_direct,
)
from .errors import VerificationError
from .intervals import _join_index_table, build_full_table, re_scan, upward_counts
from .layers import DEDEKIND_7, LAYER_SIZE, generate_layer, self_dual_brute
from .orbits import canonical_array, classify, stabilizer_orbits

RNG_SEED = 20240901


def check_dual_involution(max_n: int) -> bool:
    """dual(dual(x)) == x for every element, n <= 4."""
    for n in range(min(max_n, 4) + 1):
        V = generate_layer(n).values
        if not np.array_equal(vecbits.dual_array(vecbits.dual_array(V, n), n), V):
            return False
    return True


def check_dual_antitone(max_n: int) -> bool:
    """x <= y implies dual(y) <= dual(x), all pairs, n <= 4."""
    for n in range(min(max_n, 4) + 1):
        V = generate_layer(n).values
        D = vecbits.dual_array(V, n)
        le = (V[:, None] & ~V[None, :]) == 0
        led = (D[None, :] & ~D[:, None]) == 0  # dual(y) <= dual(x)
        if not np.array_equal(le, led):
            return False
    return True


def check_dual_lattice_identities(max_n: int) -> bool:
    """dual(x|y) == dual(x) & dual(y) and the meet twin, all pairs, n <= 4."""
    for n in range(min(max_n, 4) + 1):
        V = generate_layer(n).values
        D = vecbits.dual_array(V, n)
        joins = V[:, None] | V[None, :]
        meets = V[:, None] & V[None, :]
        if not np.array_equal(vecbits.dual_array(joins.ravel(), n),
                              (D[:, None] & D[None, :]).ravel()):
            return False
        if not np.array_equal(vecbits.dual_array(meets.ravel(), n),
                              (D[:, None] | D[None, :]).ravel()):
            return False
    return True


def check_join_meet_closure(max_n: int) -> bool:
    """Joins and meets of layer elements stay monotone, all pairs, n <= 3."""
    for n in range(min(max_n, 3) + 1):
        V = generate_layer(n).values
        joins = (V[:, None] | V[None, :]).ravel()
        meets = (V[:, None] & V[None, :]).ravel()
        if not np.all(vecbits.monotone_mask(joins, n)):
            return False
        if not np.all(vecbits.monotone_mask(meets, n)):
            return False
    return True


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


def check_equivariance(max_n: int) -> bool:
    """Every relabeling commutes with dual_array on whole layers, n <= 5,
    so the orbit of a self-dual element is self-dual."""
    for n in range(min(max_n, 5) + 1):
        V = generate_layer(n).values
        for image, dual_image in zip(_images(V, n), _images(vecbits.dual_array(V, n), n)):
            if not np.array_equal(vecbits.dual_array(image, n), dual_image):
                return False
    return True


def check_relabeling_oracle(max_n: int) -> bool:
    """Every relabeling permutes D_n, n <= 5.  For each plus3 class a
    (a <= dual(a), weight below half), n <= 4, stabilizer_orbits over
    [a, dual(a)] gives the orbits and sizes of the relabelings that fix a."""
    for n in range(min(max_n, 5) + 1):
        V = generate_layer(n).values
        images = _images(V, n)
        if not all(np.array_equal(np.sort(image), V) for image in images):
            return False
        if n > 4:
            continue
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


def check_gamma_sums(max_n: int) -> bool:
    """Orbit sizes over each layer add up to the layer size, n <= 5."""
    for n in range(min(max_n, 5) + 1):
        layer = generate_layer(n)
        if sum(c.gamma for c in classify(layer)) != len(layer):
            return False
    return True


def check_canonicality(max_n: int) -> bool:
    """canonical_array is the minimum over every relabeling's image, and
    classify's representatives and gammas are its distinct values and
    their counts; whole layers, n <= 5."""
    for n in range(min(max_n, 5) + 1):
        layer = generate_layer(n)
        low = np.min(_images(layer.values, n), axis=0)
        if not np.array_equal(canonical_array(layer.values, n), low):
            return False
        reps, gammas = np.unique(low, return_counts=True)
        classes = classify(layer)
        if [c.representative.bits for c in classes] != reps.tolist():
            return False
        if [c.gamma for c in classes] != gammas.tolist():
            return False
    return True


def check_stabilizer_orbits(max_n: int) -> bool:
    """Every relabeling fixes the bottom element, so its stabilizer orbits
    over a whole layer are classify's classes, with gamma as sizes; n <= 5."""
    for n in range(min(max_n, 5) + 1):
        layer = generate_layer(n)
        reps, _, sizes = stabilizer_orbits(0, layer.values, n)
        classes = classify(layer)
        if layer.values[reps].tolist() != [c.representative.bits for c in classes]:
            return False
        if sizes.tolist() != [c.gamma for c in classes]:
            return False
    return True


def check_selfdual_weight(max_n: int) -> bool:
    """Every self-dual element has exactly half its table set, n <= 4."""
    for n in range(min(max_n, 4) + 1):
        V = generate_layer(n).values
        sd = V[V == vecbits.dual_array(V, n)]
        if not np.all(vecbits.popcount(sd) * 2 == table_width(n)):
            return False
    return True


def check_interval_oracle(max_n: int) -> bool:
    """The interval counts that the counting methods read equal the
    definition scan: upward_counts over each whole layer up to n = 5, and
    the matrix of build_full_table on every pair up to n = 4 and on 10^4
    seeded random pairs at n = 5.  At every n its last column is the
    upward counts, and its first row, |[0, x]| = |[x*, top]| because dual
    reverses the order, is the upward counts read through the dual index.
    The matrix is nonzero exactly on the pairs x <= y, which are the
    elements of D_{n+1}, so its support counts the next Dedekind number."""
    for n in range(min(max_n, 5) + 1):
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
        dual_idx = np.searchsorted(V, vecbits.dual_array(V, n))
        if not (np.array_equal(C[:, -1], up) and np.array_equal(C[0], up[dual_idx])):
            return False
        for i, j in pairs:
            if C[i, j] != re_scan(layer, V[i], V[j]):
                return False
    return True


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


def check_dedekind_two_up(max_n: int) -> bool:
    """The upward counts, read through the join index and the dual index,
    count D_{n+2} by _four_block_count, n <= 5."""
    for n in range(min(max_n, 5) + 1):
        V = generate_layer(n).values
        J = _join_index_table(V, n)
        dual_idx = np.searchsorted(V, vecbits.dual_array(V, n))
        expect = LAYER_SIZE.get(n + 2, DEDEKIND_7)
        if _four_block_count(upward_counts(n, V), J, dual_idx) != expect:
            return False
    return True


def check_plus2_class_fold(max_n: int) -> bool:
    """Class-weighted plus2 equals the plain sum over all elements, n <= 4."""
    for n in range(min(max_n, 4) + 1):
        layer = generate_layer(n)
        V = layer.values
        plain = exact_sum(upward_counts(n, V | vecbits.dual_array(V, n)))
        folded = lambda_plus2(layer, classify(layer)).value
        if plain != folded:
            return False
    return True


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


def check_plus3_classes(max_n: int) -> bool:
    """Each plus3 class task, n <= 4: lambda_plus3 over the one class,
    less the closed term, is gamma times the definition's sum for a top
    block h with dual(h) <= h and weight(h) > 2^(n-1), and 0 for any
    other class; with the closed term the partials add up to the count."""
    for n in range(min(max_n, 4) + 1):
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
        if total != LAMBDA_KNOWN[n + 3]:
            return False
    return True


def check_plus4c_against_dense(max_n: int) -> bool:
    """plus4c, which sums b, c over [dual(h), h] only, equals dense plus4,
    which sums every (a, b, c, h) (out-of-interval terms have a zero
    factor), n <= 2."""
    for n in range(min(max_n, 2) + 1):
        layer = generate_layer(n)
        classes = classify(layer)
        a = lambda_plus4_classes(layer, classes).value
        b = lambda_plus4_direct(layer, classes, strategy="dense").value
        if a != b:
            return False
    return True


def check_plus4_strategies(max_n: int) -> bool:
    """Dense and pruned plus4 strategies agree, n <= 3."""
    for n in range(min(max_n, 3) + 1):
        layer = generate_layer(n)
        classes = classify(layer)
        a = lambda_plus4_direct(layer, classes, strategy="dense").value
        b = lambda_plus4_direct(layer, classes, strategy="pruned").value
        if a != b:
            return False
    return True


SUITES = (
    ("dual-involution", check_dual_involution),
    ("dual-antitone", check_dual_antitone),
    ("dual-lattice-identities", check_dual_lattice_identities),
    ("join-meet-closure", check_join_meet_closure),
    ("permutation-equivariance", check_equivariance),
    ("relabeling-oracle", check_relabeling_oracle),
    ("gamma-sums", check_gamma_sums),
    ("canonical-representatives", check_canonicality),
    ("stabilizer-orbits", check_stabilizer_orbits),
    ("self-dual-weight", check_selfdual_weight),
    ("interval-oracle", check_interval_oracle),
    ("dedekind-two-up", check_dedekind_two_up),
    ("plus2-class-fold", check_plus2_class_fold),
    ("plus3-classes", check_plus3_classes),
    ("plus4c-against-dense", check_plus4c_against_dense),
    ("plus4-strategies", check_plus4_strategies),
)


def run_selfcheck(max_n: int = 5, report=print) -> bool:
    """Run every suite up to max_n; report one line each; True iff all pass."""
    all_ok = True
    for name, fn in SUITES:
        try:
            ok, why = fn(max_n), ""
        except VerificationError as e:  # this suite fails; the rest still run
            ok, why = False, f": {e}"
        all_ok &= ok
        report(f"{'PASS' if ok else 'FAIL'} {name}{why}")
    return all_ok

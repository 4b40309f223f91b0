"""Cross-module invariant suites, runnable from the CLI.

Each suite re-derives a structural fact by an independent route and
compares: dual algebra on whole layers, permutation equivariance, the
interval recursion against the definition scan, orbit size bookkeeping,
stabilizer orbits against classification, and the counting-method
identities (refinement, loop order, class folding, and plus4c and pruned
plus4, which share one kernel, against the dense k = 4 sum).  A build
that passes all of these and the reference table is very hard to get
wrong silently.
"""

from __future__ import annotations

import numpy as np

from . import vecbits
from .core import table_width
from .counting import (
    exact_sum,
    lambda_plus2,
    lambda_plus3,
    lambda_plus4_classes,
    lambda_plus4_direct,
)
from .intervals import re_fast, re_scan, upward_counts
from .layers import generate_layer
from .orbits import (
    all_permutations,
    apply_permutation,
    canonical,
    classify,
    compose,
    stabilizer_orbits,
)

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


def check_equivariance(max_n: int) -> bool:
    """Relabeling commutes with dual, and orbits of self-duals are
    self-dual; exhaustive up to n = 3 (and n = 4 for the orbit half)."""
    for n in range(min(max_n, 3) + 1):
        for g in generate_layer(n):
            for pi in all_permutations(n):
                if apply_permutation(pi, g.dual()) != apply_permutation(pi, g).dual():
                    return False
    for n in range(min(max_n, 4) + 1):
        for g in generate_layer(n):
            if not g.is_self_dual():
                continue
            for pi in all_permutations(n):
                if not apply_permutation(pi, g).is_self_dual():
                    return False
    return True


def check_action_law(max_n: int) -> bool:
    """apply(compose(p, q), g) == apply(p, apply(q, g)), exhaustive n = 3."""
    if max_n < 3:
        return True
    layer = generate_layer(3)
    perms = list(all_permutations(3))
    for p in perms:
        for q in perms:
            pq = compose(p, q)
            for g in layer:
                if apply_permutation(pq, g) != apply_permutation(p, apply_permutation(q, g)):
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
    """Re-canonicalizing any image of a representative returns it;
    exhaustive n <= 4, sampled at n = 5."""
    for n in range(min(max_n, 4) + 1):
        for cls in classify(generate_layer(n)):
            for pi in all_permutations(n):
                if canonical(apply_permutation(pi, cls.representative)) != cls.representative:
                    return False
    if max_n >= 5:
        rng = np.random.default_rng(RNG_SEED)
        classes = classify(generate_layer(5))
        perms = list(all_permutations(5))
        for ci in rng.choice(len(classes), size=20, replace=False):
            rep = classes[int(ci)].representative
            for pi in rng.choice(len(perms), size=12, replace=False):
                if canonical(apply_permutation(perms[int(pi)], rep)) != rep:
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
    """re_fast equals the definition scan: exhaustive on each layer up to
    n=3, and on 10^4 seeded random pairs of the n=5 layer."""
    for n in range(min(max_n, 3) + 1):
        layer = generate_layer(n)
        for x in layer:
            for y in layer:
                if re_fast(x, y) != re_scan(layer, x, y):
                    return False
    if max_n >= 5:
        layer5 = generate_layer(5)
        rng = np.random.default_rng(RNG_SEED)
        idx = rng.integers(0, len(layer5), size=(10_000, 2))
        for i, j in idx:
            x, y = layer5.mbf(int(i)), layer5.mbf(int(j))
            if re_fast(x, y) != re_scan(layer5, x, y):
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


def check_plus3_refinement(max_n: int) -> bool:
    """Refined plus3 (closed base term) equals the unrefined sum, n <= 3."""
    for n in range(min(max_n, 3) + 1):
        layer = generate_layer(n)
        classes = classify(layer)
        a = lambda_plus3(layer, classes, refined=True).value
        b = lambda_plus3(layer, classes, refined=False).value
        if a != b:
            return False
    return True


def check_plus3_loop_order(max_n: int) -> bool:
    """Both nesting orders of the plus3 inner sum agree, n <= 4."""
    for n in range(min(max_n, 4) + 1):
        layer = generate_layer(n)
        classes = classify(layer)
        a = lambda_plus3(layer, classes, loop_order="pairs-first").value
        b = lambda_plus3(layer, classes, loop_order="d-first").value
        if a != b:
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
    ("group-action-law", check_action_law),
    ("gamma-sums", check_gamma_sums),
    ("canonical-representatives", check_canonicality),
    ("stabilizer-orbits", check_stabilizer_orbits),
    ("self-dual-weight", check_selfdual_weight),
    ("interval-oracle", check_interval_oracle),
    ("plus2-class-fold", check_plus2_class_fold),
    ("plus3-refinement", check_plus3_refinement),
    ("plus3-loop-order", check_plus3_loop_order),
    ("plus4c-against-dense", check_plus4c_against_dense),
    ("plus4-strategies", check_plus4_strategies),
)


def run_selfcheck(max_n: int = 5, report=print) -> bool:
    """Run every suite up to max_n; report one line each; True iff all pass."""
    all_ok = True
    for name, fn in SUITES:
        ok = fn(max_n)
        all_ok &= ok
        report(f"{'PASS' if ok else 'FAIL'} {name}")
    return all_ok

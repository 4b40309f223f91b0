"""Variable-relabeling action on layers: orbits, representatives, sizes.

A permutation of the n input variables permutes the binary digits of every
table position, hence the bits of every packed function.  Orbit
representatives are the minimal orbit members under the integer order.

Every orbit job walks the relabelings in plain-changes (Johnson-Trotter)
order: each successive arrangement differs from the previous one by one
adjacent digit transposition, so one pass per group element steps a whole
array of values to its next images.  The walk holds one arrangement at a
time, O(len) memory, never a table of all n! images.  It is the package's
one implementation of the action; selfcheck checks it over every
relabeling against an independent position map.

Classification enumerates orbits rather than canonicalizing every element.
An orbit minimum is lowered by no adjacent transposition nor by any
product of two, so a prefilter keeps only such elements: n-1 passes over
the layer for the single transpositions, then 2(n-1) over their
survivors for the products (21,464 of the 7,828,354 at n=6).  One walk
over the survivors keeps, for each, its running minimum, the arrangements
that fix it and the arrangements whose image is at most the layer's last
element.  The survivors equal to their minimum are the representatives
(16,353 at n=6).  Each distinct image occurs once per fixing arrangement,
so the orbit size is the second count over the first.

The counting kernels reduce their inner loops by the relabelings that fix
one element (its stabilizer).  stabilizer_orbits walks the same sequence
over that element and a value set the stabilizer maps to itself, and keeps
a running minimum over the arrangements that leave the element in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial

import numpy as np

from . import vecbits
from .core import Mbf
from .errors import BudgetError, VerificationError
from .layers import Layer, read_records

# classify walks a set this small directly; a larger one is prefiltered
# first, which keeps 218 of the 7,581 elements at n=5
DIRECT_WALK_MAX = 2048
# elements per prefilter step: at 1 << 16 (512 KB) the temporaries of each
# step fault in fresh pages, 37,386 minor faults over D_6 in a new process,
# against 607 at 1 << 14, which halves the pass; 1 << 13 is no faster
PREFILTER_CHUNK = 1 << 14


@dataclass(frozen=True)
class OrbitClass:
    """A canonical representative and its orbit size gamma."""

    representative: Mbf
    gamma: int


@lru_cache(maxsize=None)
def adjacent_swap_sequence(n: int) -> tuple[int, ...]:
    """Johnson-Trotter swap positions: n!-1 adjacent transpositions that
    step through every arrangement of n items."""
    if n < 2:
        return ()
    perm = list(range(n))
    direction = [-1] * n
    seq = []
    while True:
        mobile, mi = -1, -1
        for i, v in enumerate(perm):
            j = i + direction[v]
            if 0 <= j < n and perm[j] < v and v > mobile:
                mobile, mi = v, i
        if mobile < 0:
            return tuple(seq)
        j = mi + direction[mobile]
        seq.append(min(mi, j))
        perm[mi], perm[j] = perm[j], perm[mi]
        for v in range(mobile + 1, n):
            direction[v] = -direction[v]


def _walk(values: np.ndarray, n: int):
    """The n!-1 further arrangements of values along the plain-changes
    walk, one relabeled array at a time."""
    vecbits.check_vector_n(n)
    for k in adjacent_swap_sequence(n):
        values = vecbits.digit_transpose(values, k, k + 1, n)
        yield values


def canonical_array(values: np.ndarray, n: int) -> np.ndarray:
    """Per-element orbit minimum over all n! digit relabelings."""
    low = values.copy()
    for image in _walk(values, n):
        np.minimum(low, image, out=low)
    return low


def stabilizer_orbits(fixed: int, values: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orbits of the relabelings that fix `fixed`, on a set they map to itself.

    values must be distinct; orbits are numbered by ascending minimum.
    Returns (reps, inverse, sizes): reps[k] is the position in values of
    the minimum of orbit k, values[i] lies in orbit inverse[i], and
    sizes[k] is the number of values in orbit k.

    One plain-changes walk over [fixed, *values] keeps a running minimum
    over the arrangements that leave fixed in place: O(n! * len) time,
    O(len) memory.  Raises VerificationError unless each value's orbit
    holds the stabilizer's order over the number of its arrangements that
    fix the value (orbit-stabilizer), which holds exactly when the set is
    closed under the stabilizer; every size then divides that order.
    """
    fixed = np.uint64(fixed)
    low = values.copy()
    fixes = np.ones(len(values), dtype=np.int64)  # stabilizer arrangements fixing each value
    order = 1
    for cur in _walk(np.concatenate((np.array([fixed]), values)), n):
        if cur[0] == fixed:
            order += 1
            np.minimum(low, cur[1:], out=low)
            fixes += cur[1:] == values
    _, inverse = np.unique(low, return_inverse=True)
    sizes = np.bincount(inverse)
    if np.any(sizes[inverse] * fixes != order):
        raise VerificationError(
            f"values are not closed under the {order} relabelings that fix"
            f" {int(fixed):#x}: some orbit is only partly present"
        )
    reps = np.nonzero(low == values)[0]
    return reps[np.argsort(values[reps])], inverse, sizes


def _minimum_candidates(values: np.ndarray, n: int) -> np.ndarray:
    """Elements lowered by no adjacent digit transposition nor by any
    product of two, ascending.

    An orbit minimum is lowered by no relabeling, so every representative
    survives; at n=6, 21,464 of 7,828,354 elements do.  A chunked pass
    keeps the elements v with T_i(v) >= v for each adjacent transposition
    T_i; a second pass stacks their images T_i(v) and keeps v where
    T_j(T_i(v)) >= v for every i and j (i = j gives v itself).
    """
    keep = []
    for lo in range(0, len(values), PREFILTER_CHUNK):
        v = values[lo:lo + PREFILTER_CHUNK]
        for i in range(n - 1):
            v = v[vecbits.digit_transpose(v, i, i + 1, n) >= v]
        keep.append(v)
    v = np.concatenate(keep)
    images = np.empty((n - 1, len(v)), dtype=np.uint64)
    for i in range(n - 1):
        images[i] = vecbits.digit_transpose(v, i, i + 1, n)
    for j in range(n - 1):
        ok = (vecbits.digit_transpose(images, j, j + 1, n) >= v).all(axis=0)
        v = v[ok]
        images = images[:, ok]
    return v


def classify(layer: Layer, workers: int = 1) -> list[OrbitClass]:
    """Partition a layer into orbits, ascending by representative.

    layer may also hold a sorted prefix of D_n, which holds the orbit
    minimum of each of its elements; gamma is then the number of prefix
    elements in the orbit, and the whole orbit size on a whole layer.

    One walk over the candidates counts, per candidate, the arrangements
    that fix it and those whose image is at most the last value.  Every
    image of an element of D_n lies in D_n, so the latter are the images
    in the layer, and each distinct image occurs once per fixing
    arrangement: gamma is the quotient.  Raises VerificationError on a
    nonzero remainder, or unless the gammas add up to len(layer), as when
    a member below the last value is missing.  Classification runs in this
    process; workers is accepted for call compatibility and unused.
    """
    n = layer.n
    if n > 6:
        raise BudgetError(f"classification over n={n} is out of budget")
    values = layer.values
    # a small set walks directly: the prefilter pays only on larger layers
    cands = values if len(values) <= DIRECT_WALK_MAX else _minimum_candidates(values, n)
    low = cands.copy()
    fixes = np.ones(len(cands), dtype=np.int64)
    inside = np.ones(len(cands), dtype=np.int64)
    last = values[-1]
    for image in _walk(cands, n):
        np.minimum(low, image, out=low)
        fixes += image == cands
        inside += image <= last
    own = low == cands
    gammas, rest = np.divmod(inside[own], fixes[own])
    if rest.any():
        raise VerificationError(
            f"the images in the n={n} layer of some representative are not"
            " a whole multiple of the relabelings that fix it"
        )
    classes = [OrbitClass(Mbf(n, int(r)), int(g)) for r, g in zip(cands[own], gammas)]
    total = int(gammas.sum())
    if total != len(values):
        raise VerificationError(
            f"orbit sizes of the {len(classes)} classes add up to {total},"
            f" not to the {len(values)} elements of the n={n} layer"
        )
    return classes


def load_classes(path: str) -> tuple[int, list[OrbitClass]]:
    """Read a classes file back; refuses an orbit size that does not divide n!."""
    n, reps, (gammas,) = read_records(path, "classes")
    for line, gamma in enumerate(gammas, 2):
        if gamma < 1 or factorial(n) % gamma:
            raise ValueError(
                f"{path}:{line}: orbit size {gamma} is not a positive divisor of {n}!"
            )
    return n, [OrbitClass(Mbf(n, r), g) for r, g in zip(reps.tolist(), gammas)]

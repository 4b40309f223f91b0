"""Independent brute-force oracles the tests check the library against.

Everything here is written the slow, obvious way on purpose: full
pairwise scans, string manipulation, set-walking orbit enumeration.
None of it shares code with the library's fast paths.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np


def slow_is_monotone(n: int, bits: int) -> bool:
    """All-pairs check straight from the definition (O(4^n))."""
    w = 1 << n
    for i in range(w):
        for j in range(w):
            if (i & j) == i and ((bits >> i) & 1) > ((bits >> j) & 1):
                return False
    return True


def slow_leq(n: int, x: int, y: int) -> bool:
    """Positionwise scan."""
    return all((x >> i) & 1 <= (y >> i) & 1 for i in range(1 << n))


@functools.lru_cache(maxsize=None)
def slow_dual(n: int, bits: int) -> int:
    """Via the text form: reverse the string, complement the characters."""
    w = 1 << n
    s = "".join("1" if (bits >> i) & 1 else "0" for i in range(w))
    flipped = "".join("0" if ch == "1" else "1" for ch in reversed(s))
    return sum(1 << i for i, ch in enumerate(flipped) if ch == "1")


def slow_layer(n: int) -> list[int]:
    """Filter every raw vector through the definition check (n <= 3)."""
    return [v for v in range(1 << (1 << n)) if slow_is_monotone(n, v)]


def permute_value(n: int, bits: int, mapping: tuple[int, ...]) -> int:
    """Move digit d of every set position to digit mapping[d]."""
    out = 0
    for pos in range(1 << n):
        if (bits >> pos) & 1:
            q = 0
            for d in range(n):
                if (pos >> d) & 1:
                    q |= 1 << mapping[d]
            out |= 1 << q
    return out


def slow_orbit(n: int, bits: int) -> set[int]:
    return {
        permute_value(n, bits, m) for m in itertools.permutations(range(n))
    }


def slow_classes(n: int, values) -> list[tuple[int, int]]:
    """(representative, orbit size) pairs by set-walking, ascending."""
    seen: set[int] = set()
    out = []
    for v in sorted(int(x) for x in values):
        if v in seen:
            continue
        orbit = slow_orbit(n, v)
        seen |= orbit
        out.append((v, len(orbit)))
    return out


def slow_two_swap_minima(n: int, values) -> list[int]:
    """The v, ascending, that no adjacent digit transposition lowers and no
    product of two, each relabeling applied through its own position map."""
    swaps = []
    for i in range(n - 1):
        m = list(range(n))
        m[i], m[i + 1] = m[i + 1], m[i]
        swaps.append(tuple(m))
    mappings = set(swaps) | {tuple(b[a[d]] for d in range(n)) for a in swaps for b in swaps}
    position_maps = [
        [sum(1 << m[d] for d in range(n) if (pos >> d) & 1) for pos in range(1 << n)]
        for m in mappings
    ]
    out = []
    for v in sorted(int(x) for x in values):
        ones = [pos for pos in range(1 << n) if (v >> pos) & 1]
        if all(sum(1 << q[pos] for pos in ones) >= v for q in position_maps):
            out.append(v)
    return out


def slow_interval_count(values, x: int, y: int) -> int:
    """Count layer elements z with x <= z <= y, one by one."""
    total = 0
    for z in values:
        z = int(z)
        if x & ~z == 0 and z & ~y == 0:
            total += 1
    return total


def interval_matrix(values) -> np.ndarray:
    """|{z : x <= z <= y}| for every pair of an ascending list of functions,
    as sum_z [x <= z][z <= y]: the subset relation times itself in float32
    (exact, since every sum counts at most len(values) < 2^24 ones), one
    block of 512 rows x and one block of 512 middle elements z at a time.
    A superset is the larger integer, so a block of rows needs only the z
    and y from its first row on."""
    v = np.asarray(values, dtype=np.uint64)
    d = len(v)
    out = np.zeros((d, d), dtype=np.min_scalar_type(d))
    for lo in range(0, d, 512):
        x, rest = v[lo:lo + 512], v[lo:]
        acc = np.zeros((len(x), len(rest)), dtype=np.float32)
        for zlo in range(0, len(rest), 512):
            z = rest[zlo:zlo + 512]
            x_below_z = (x[:, None] & ~z[None, :]) == 0
            z_below_y = (z[:, None] & ~rest[None, :]) == 0
            acc += x_below_z.astype(np.float32) @ z_below_y.astype(np.float32)
        out[lo:lo + 512, lo:] = acc
    return out


def slow_plus3_sums(values, n: int, positions) -> list[int]:
    """For each b = values[r], r in positions, of an interval [a, a*] given
    by its ascending values: the sum over c >= b in the interval of
    |[a, c & dual(b)]|, each count read at the meet's position from a list
    of |[a, y]| for every y, by subset tests (every z of the interval is
    >= a, so |[a, y]| counts the z <= y)."""
    X = np.asarray(values, dtype=np.uint64)
    below = np.array([np.count_nonzero((X & ~y) == 0) for y in X])
    out = []
    for r in positions:
        b = X[r]
        meets = X[(X & b) == b] & np.uint64(slow_dual(n, int(b)))
        out.append(int(below[np.searchsorted(X, meets)].sum()))
    return out

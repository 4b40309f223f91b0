"""Bit-parallel numpy kernels over uint64 arrays of packed truth tables.

These mirror the scalar operations in core for whole layers at once; all
of them are pure and allocation-only (no in-place surprises for callers).
Widths up to 64 bits (n <= 6) are supported.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .core import _cover_masks, reverse_bits, table_width
from .errors import WidthError

U64_ALL = np.uint64(0xFFFF_FFFF_FFFF_FFFF)

# byte-reversal lookup, entries widened to uint64 so shifts stay in-type
_REV8 = np.array([reverse_bits(b, 8) for b in range(256)], dtype=np.uint64)
_BYTE = np.uint64(0xFF)


def check_vector_n(n: int) -> None:
    if not 0 <= n <= 6:
        raise WidthError(f"bulk kernels support n <= 6 (64-bit tables), got n={n}")


def window_mask(nbits: int) -> np.uint64:
    """All-ones uint64 limited to the low nbits."""
    if nbits >= 64:
        return U64_ALL
    return np.uint64((1 << nbits) - 1)


def popcount(a: np.ndarray) -> np.ndarray:
    """Per-element number of set bits, as int64."""
    return np.bitwise_count(a).astype(np.int64)


def bit_reverse64(a: np.ndarray) -> np.ndarray:
    """Reverse all 64 bits of each element."""
    out = _REV8[a & _BYTE] << np.uint64(56)
    for k in range(1, 8):
        out |= _REV8[(a >> np.uint64(8 * k)) & _BYTE] << np.uint64(56 - 8 * k)
    return out


def dual_array(a: np.ndarray, n: int) -> np.ndarray:
    """Reverse-and-complement each element within the 2^n-bit window."""
    check_vector_n(n)
    w = table_width(n)
    return (bit_reverse64(a) >> np.uint64(64 - w)) ^ window_mask(w)


@lru_cache(maxsize=None)
def _cover_masks64(n: int) -> tuple[np.uint64, ...]:
    return tuple(np.uint64(m) for m in _cover_masks(n))


def monotone_mask(a: np.ndarray, n: int) -> np.ndarray:
    """Boolean array: which elements fit 2^n bits and are monotone there."""
    check_vector_n(n)
    ok = (a & ~window_mask(table_width(n))) == 0
    for k, m in enumerate(_cover_masks64(n)):
        half = np.uint64(1 << k)
        ok &= ((a & m) & ~(a >> half)) == 0
    return ok


@lru_cache(maxsize=None)
def _transpose_masks(n: int, i: int, j: int) -> tuple[np.uint64, np.uint64, np.uint64, int]:
    # positions whose index has digit i set and digit j clear move up by
    # 2^j - 2^i; the mirror set moves down; everything else stays
    w = table_width(n)
    up = 0
    down = 0
    for p in range(w):
        bi = (p >> i) & 1
        bj = (p >> j) & 1
        if bi and not bj:
            up |= 1 << p
        elif bj and not bi:
            down |= 1 << p
    keep = ((1 << w) - 1) ^ up ^ down
    shift = (1 << j) - (1 << i)
    return np.uint64(keep), np.uint64(up), np.uint64(down), shift


def digit_transpose(a: np.ndarray, i: int, j: int, n: int) -> np.ndarray:
    """Swap variable digits i < j of every element's bit positions."""
    check_vector_n(n)
    if not 0 <= i < j < n:
        raise ValueError(f"need 0 <= i < j < n, got i={i}, j={j}, n={n}")
    keep, up, down, shift = _transpose_masks(n, i, j)
    s = np.uint64(shift)
    return (a & keep) | ((a & up) << s) | ((a & down) >> s)

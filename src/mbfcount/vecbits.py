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
    """The one width rule of the layers and bulk kernels: a table fits 64 bits."""
    if not 0 <= n <= 6:
        raise WidthError(f"layers and bulk kernels take n in 0..6 (64-bit tables), got n={n}")


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
def _transpose_masks(n: int, i: int, j: int) -> tuple[np.uint64, np.uint64]:
    # the positions whose index has digit i set and digit j clear; each
    # trades its bit with the position 2^j - 2^i above it, and every other
    # position is either such a partner or stays
    up = 0
    for p in range(table_width(n)):
        if (p >> i) & 1 and not (p >> j) & 1:
            up |= 1 << p
    return np.uint64(up), np.uint64((1 << j) - (1 << i))


def digit_transpose(a: np.ndarray, i: int, j: int, n: int) -> np.ndarray:
    """Swap variable digits i < j of every element's bit positions."""
    check_vector_n(n)
    if not 0 <= i < j < n:
        raise ValueError(f"need 0 <= i < j < n, got i={i}, j={j}, n={n}")
    up, s = _transpose_masks(n, i, j)
    # a delta swap (Knuth, TAOCP 7.1.3): t marks the up positions whose bit
    # differs from its partner's, and flipping both ends of each swaps them
    t = a >> s
    t ^= a
    t &= up
    out = t << s
    out ^= t
    out ^= a
    return out

"""Monotone Boolean functions packed into integer bit vectors.

A monotone function g of n 0/1 variables is stored as the 2^n-bit integer
whose bit i holds g(x) for the input x whose variable j+1 equals bit j of
i.  The text form prints bit 0 leftmost, so for n=2 the four characters
read g(00) g(10) g(01) g(11): "0101" has bits 1 and 3 set, i.e. value 10.

Everything else follows from this encoding:

  * g <= h pointwise        iff   bits(g) & ~bits(h) == 0
  * dual (= negate output on negated inputs)
                            ==    bit-reverse within 2^n bits, then complement
  * join / meet             ==    bitwise or / and
  * monotone                iff   raising any single input never lowers the
                                  output; per variable k this is one shift and
                                  two masks over the whole table

Plain Python ints are the storage, so every width up to n = 8 (256 bits)
runs through the same code; bulk per-layer work lives elsewhere on numpy
uint64 arrays and is limited to n <= 6.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import WidthError

MAX_N = 8


def table_width(n: int) -> int:
    """Number of truth-table bits for n variables."""
    return 1 << n


def full_mask(n: int) -> int:
    """All-ones value of width 2^n (the maximal function)."""
    return (1 << (1 << n)) - 1


def check_n(n: int) -> None:
    if not 0 <= n <= MAX_N:
        raise WidthError(f"variable count {n} outside supported range 0..{MAX_N}")


@lru_cache(maxsize=None)
def _cover_masks(n: int) -> tuple[int, ...]:
    # mask k selects table positions whose index has digit k clear
    w = table_width(n)
    masks = []
    for k in range(n):
        half = 1 << k
        block = (1 << half) - 1
        m = 0
        for base in range(0, w, 2 * half):
            m |= block << base
        masks.append(m)
    return tuple(masks)


def reverse_bits(v: int, nbits: int) -> int:
    """Reverse the low nbits bits of v (v must fit in nbits)."""
    r = 0
    for _ in range(nbits):
        r = (r << 1) | (v & 1)
        v >>= 1
    return r


def dual_bits(v: int, n: int) -> int:
    """Reverse-and-complement within the 2^n-bit window."""
    return reverse_bits(v, table_width(n)) ^ full_mask(n)


def monotone_bits(v: int, n: int) -> bool:
    """Covering-pairs monotonicity check: O(n) word operations.

    For each variable k the positions i with digit k clear pair with
    i + 2^k; v is monotone iff no set bit sits below a clear partner.
    Transitivity makes the covering pairs sufficient.
    """
    for k, m in enumerate(_cover_masks(n)):
        if (v & m) & ~(v >> (1 << k)):
            return False
    return True


@dataclass(frozen=True, slots=True)
class Mbf:
    """One monotone Boolean function; bits is the packed truth table.

    Direct construction checks the width only: every operation in this
    package preserves monotonicity, so re-validating per call would be
    wasted work.  Use from_bits to vet raw input.
    """

    n: int
    bits: int

    def __post_init__(self) -> None:
        check_n(self.n)
        if not 0 <= self.bits <= full_mask(self.n):
            raise WidthError(
                f"value 0x{self.bits:x} does not fit in {table_width(self.n)} bits"
            )

    @classmethod
    def from_bits(cls, n: int, bits: int) -> "Mbf":
        """Validated constructor for raw truth tables."""
        x = cls(n, bits)  # checks n and the width
        if not monotone_bits(bits, n):
            raise ValueError(f"bit vector {x} is not monotone")
        return x

    @classmethod
    def from_string(cls, s: str) -> "Mbf":
        """Parse the canonical '0'/'1' text form (bit 0 leftmost)."""
        w = len(s)
        n = w.bit_length() - 1
        if w == 0 or w != 1 << n:
            raise WidthError(f"string length {w} is not a power of two")
        bits = 0
        for i, ch in enumerate(s):
            if ch == "1":
                bits |= 1 << i
            elif ch != "0":
                raise ValueError(f"invalid character {ch!r} in bit string")
        return cls.from_bits(n, bits)

    def to_string(self) -> str:
        return to_string(self.n, self.bits)

    def to_hex(self) -> str:
        return to_hex(self.n, self.bits)

    def dual(self) -> "Mbf":
        return Mbf(self.n, dual_bits(self.bits, self.n))

    def weight(self) -> int:
        return self.bits.bit_count()

    def is_self_dual(self) -> bool:
        return self.bits == dual_bits(self.bits, self.n)

    def _same_width(self, other: "Mbf") -> None:
        if self.n != other.n:
            raise WidthError(f"width mismatch: n={self.n} vs n={other.n}")

    def __le__(self, other: "Mbf") -> bool:
        self._same_width(other)
        return self.bits & ~other.bits == 0

    def __or__(self, other: "Mbf") -> "Mbf":
        self._same_width(other)
        return Mbf(self.n, self.bits | other.bits)

    def __and__(self, other: "Mbf") -> "Mbf":
        self._same_width(other)
        return Mbf(self.n, self.bits & other.bits)

    def __str__(self) -> str:
        return self.to_string()

    def __repr__(self) -> str:
        return f"Mbf({self.n}, 0x{self.bits:x})"


def to_string(n: int, bits: int) -> str:
    """Render 2^n characters, bit position 0 leftmost."""
    return "".join("1" if (bits >> i) & 1 else "0" for i in range(table_width(n)))


def to_hex(n: int, bits: int) -> str:
    """Compact hex, at least one digit (widths below 4 bits still render)."""
    digits = max(1, table_width(n) // 4)
    return f"{bits:0{digits}x}"


def bottom(n: int) -> Mbf:
    """The minimal element: all-zero table."""
    check_n(n)
    return Mbf(n, 0)


def top(n: int) -> Mbf:
    """The maximal element: all-one table."""
    check_n(n)
    return Mbf(n, full_mask(n))


"""Materialized layers: every monotone function of n variables, sorted.

A layer for n+1 is built from the layer for n as all concatenations
lo . hi with lo <= hi pointwise (lo in bit positions 0..2^n-1, hi above),
starting from the two constants at n=0.  The high half dominates the
integer order, so with hi as the outer loop and both loops ascending the
layer comes out sorted, written into one array of its exact size.  Layers
are immutable uint64 arrays, so membership and ordinals are binary searches.

Only n <= 6 is materializable (64-bit tables, 7.8M elements); the next
layer has ~2.4e12 elements and is refused outright.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import vecbits
from .core import Mbf, table_width, to_hex
from .errors import BudgetError, VerificationError, WidthError

DEFAULT_BUDGET_MB = 4096

# exact element counts (Dedekind numbers): they refuse oversized requests
# before any work and size each layer's array, which a build must fill
_LAYER_SIZE = {0: 2, 1: 3, 2: 6, 3: 20, 4: 168, 5: 7_581, 6: 7_828_354}

_CACHE: dict[int, "Layer"] = {}


@dataclass(frozen=True)
class Layer:
    """All monotone functions of n variables, ascending by integer value."""

    n: int
    values: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.values)

    def index(self, bits: int) -> int:
        """Ordinal of a member value; raises KeyError for non-members."""
        i = int(np.searchsorted(self.values, np.uint64(bits)))
        if i >= len(self.values) or int(self.values[i]) != bits:
            raise KeyError(f"0x{bits:x} is not in the layer for n={self.n}")
        return i

    def __contains__(self, bits: int) -> bool:
        i = int(np.searchsorted(self.values, np.uint64(bits)))
        return i < len(self.values) and int(self.values[i]) == bits

    def mbf(self, i: int) -> Mbf:
        return Mbf(self.n, int(self.values[i]))

    def __iter__(self):
        for v in self.values:
            yield Mbf(self.n, int(v))


def check_layer_budget(n: int, budget_mb: int | None = None) -> None:
    """Refuse layer work that cannot fit the budget (or the uint64 storage)."""
    if n < 0:
        raise WidthError(f"variable count {n} is negative")
    if n > 6:
        raise WidthError(
            f"layers for n={n} are not materializable (tables exceed 64 bits"
            " and the element count is astronomically large)"
        )
    budget = DEFAULT_BUDGET_MB if budget_mb is None else budget_mb
    need_mb = _LAYER_SIZE[n] * 8 / 1e6
    if need_mb > budget:
        raise BudgetError(
            f"layer for n={n} needs ~{need_mb:.0f} MB, over the {budget} MB budget"
        )


def generate_layer(n: int, budget_mb: int | None = None) -> Layer:
    """Build (and cache) the layer for n by the pair construction."""
    check_layer_budget(n, budget_mb)
    cached = _CACHE.get(n)
    if cached is not None:
        return cached
    if n == 0:
        values = np.array([0, 1], dtype=np.uint64)
    else:
        prev = generate_layer(n - 1, budget_mb).values
        half = np.uint64(table_width(n - 1))
        values = np.empty(_LAYER_SIZE[n], dtype=np.uint64)
        end = 0
        for hi in prev:
            los = prev[(prev & ~hi) == 0]
            end += len(los)
            if end <= len(values):
                values[end - len(los):end] = los | (hi << half)
        if end != len(values):
            raise VerificationError(f"layer for n={n} has {end} elements, not {len(values)}")
    layer = Layer(n, values)
    _CACHE[n] = layer
    return layer


def clear_layer_cache() -> None:
    _CACHE.clear()


def self_dual_brute(n: int, budget_mb: int | None = None) -> int:
    """Count self-dual elements by scanning the whole layer."""
    layer = generate_layer(n, budget_mb)
    return int(np.count_nonzero(layer.values == vecbits.dual_array(layer.values, n)))


def write_layer(layer: Layer, fh) -> None:
    """Write the text format: header line, then one hex value per line."""
    fh.write(f"mbf-layer n={layer.n} count={len(layer)}\n")
    for v in layer.values:
        fh.write(to_hex(layer.n, int(v)) + "\n")


def save_layer(layer: Layer, path: str) -> None:
    with open(path, "w") as fh:
        write_layer(layer, fh)


def hex_array(path: str, texts) -> np.ndarray:
    """The hex values read from a file as uint64; raises ValueError naming
    the file and the value unless each lies in 0..2^64-1."""
    values = []
    for t in texts:
        v = int(t, 16)
        if not 0 <= v < 1 << 64:
            raise ValueError(f"{path}: value {t} is negative or wider than 64 bits")
        values.append(v)
    return np.array(values, dtype=np.uint64)


def load_layer(path: str) -> Layer:
    """Read a layer file back; validates shape, order and monotonicity."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 3 or header[0] != "mbf-layer":
            raise ValueError(f"{path}: not a layer file")
        n = int(header[1].removeprefix("n="))
        count = int(header[2].removeprefix("count="))
        values = hex_array(path, [line.strip() for line in fh])
    if len(values) != count:
        raise ValueError(f"{path}: header says {count} elements, found {len(values)}")
    if np.any(values[1:] <= values[:-1]):
        raise ValueError(f"{path}: elements are not strictly ascending")
    if not np.all(vecbits.monotone_mask(values, n)):
        raise ValueError(f"{path}: contains non-monotone elements")
    return Layer(n, values)

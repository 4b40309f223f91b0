"""Materialized layers: every monotone function of n variables, sorted.

A layer for n+1 is built from the layer for n as all concatenations
lo . hi with lo <= hi pointwise (lo in bit positions 0..2^n-1, hi above),
starting from the two constants at n=0.  The high half dominates the
integer order, so with hi as the outer loop and both loops ascending the
layer comes out sorted, written into one array of its exact size.  A layer
is that uint64 array and its n; callers index and search the array itself.

Only n <= 6 is materializable (64-bit tables, 7.8M elements); the next
layer has ~2.4e12 elements and is refused outright.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from . import vecbits
from .core import table_width, to_hex
from .errors import BudgetError, VerificationError

DEFAULT_BUDGET_MB = 4096


def check_budget(what: str, need_bytes: int, budget_mb: int | None = None) -> None:
    """Refuse a step estimated at need_bytes over budget_mb (default DEFAULT_BUDGET_MB)."""
    budget = DEFAULT_BUDGET_MB if budget_mb is None else budget_mb
    if need_bytes / 1e6 > budget:
        raise BudgetError(f"{what} needs ~{need_bytes / 1e6:.0f} MB, over the {budget} MB budget")


# exact element counts (Dedekind numbers): they refuse oversized requests
# before any work and size each layer's array, which a build must fill
LAYER_SIZE = {0: 2, 1: 3, 2: 6, 3: 20, 4: 168, 5: 7_581, 6: 7_828_354}
# the Dedekind number D_7, one past the layers above: the k = 4 tables of
# D_5 count it (selfcheck's dedekind-two-up)
DEDEKIND_7 = 2_414_682_040_998

_CACHE: dict[int, "Layer"] = {}


@dataclass(frozen=True)
class Layer:
    """All monotone functions of n variables, ascending by integer value:
    values is the uint64 array of packed truth tables, and len() its size."""

    n: int
    values: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.values)


def check_layer_budget(n: int, budget_mb: int | None = None) -> None:
    """Refuse the layer for an n outside 0..6 (vecbits.check_vector_n:
    WidthError), or whose array is over budget_mb (BudgetError)."""
    vecbits.check_vector_n(n)
    check_budget(f"layer for n={n}", LAYER_SIZE[n] * 8, budget_mb)


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
        values = np.empty(LAYER_SIZE[n], dtype=np.uint64)
        end = 0
        for i, hi in enumerate(prev):
            # lo <= hi pointwise makes lo <= hi as integers, so every lo
            # lies in the sorted prefix that ends at hi
            head = prev[:i + 1]
            los = head[(head & ~hi) == 0]
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


# The three text formats: a header line, then one row per line, a hex
# value and then the kind's decimal columns, named here (none or one)
_RECORD_KINDS = {
    "layer": ("", ()),
    "classes": ("", ("orbit size",)),
    "retable": (" mode=upward", ("count",)),
}
_HEX = re.compile(r"[0-9a-fA-F]+")
_DECIMAL = re.compile(r"[0-9]+")


def write_records(fh, kind: str, n: int, rows: np.ndarray) -> None:
    """Write a file of one kind: the header, then one line per row of the
    2-D integer array rows, the value column in hex and the rest in decimal."""
    mode, names = _RECORD_KINDS[kind]
    fh.write(f"mbf-{kind} n={n}{mode} count={len(rows)}\n")
    line = f"{{:0{len(to_hex(n, 0))}x}}" + " {}" * len(names) + "\n"  # to_hex's width
    for lo in range(0, len(rows), 1 << 16):  # Python ints, one block at a time
        for row in rows[lo:lo + (1 << 16)].tolist():
            fh.write(line.format(*row))


def _read_header(fh, path: str, kind: str | None = None) -> tuple[str, int, int]:
    """Parse the header line: (kind, n, count).  With no kind given, the
    header's own word names it, and a word that names no kind reads as a
    layer header, which it then fails to be."""
    header = " ".join(fh.readline().split())
    if kind is None:
        kind = header.split(" ", 1)[0].removeprefix("mbf-")
        kind = kind if kind in _RECORD_KINDS else "layer"
    mode = _RECORD_KINDS[kind][0]
    m = re.fullmatch(rf"mbf-{kind} n=([0-9]+){mode} count=([0-9]+)", header)
    if m is None:
        raise ValueError(
            f"{path}:1: expected the header 'mbf-{kind} n=<n>{mode} count=<count>',"
            f" found {header!r}"
        )
    if int(m[1]) > 6:  # refused before any row is read
        raise ValueError(f"{path}:1: n={int(m[1])} is outside 0..6")
    return kind, int(m[1]), int(m[2])


def record_header(path: str) -> tuple[str, int, int]:
    """A file's header alone, as (kind, n, count); read_records checks the rest."""
    with open(path, encoding="ascii", errors="replace") as fh:
        return _read_header(fh, path)


def read_records(path: str, kind: str) -> tuple[int, np.ndarray, list[list[int]]]:
    """Read a file of one kind back: (n, values, columns), the values as
    uint64 and each decimal column as a list of ints.

    Raises ValueError("<path>:<line>: ...") for a header off the grammar
    'mbf-<kind> n=<n> [mode=upward] count=<count>' (mode=upward exactly for
    retable files) or with n outside 0..6, before any row is read; then for
    a row without exactly the kind's columns, a value not hex below 2^64, a
    decimal not digits below 2^63, a wrong row count, a value outside D_n.
    """
    names = _RECORD_KINDS[kind][1]
    fields = [("value", _HEX, 16, 64)] + [(name, _DECIMAL, 10, 63) for name in names]
    # the formats are ASCII: another byte reads as U+FFFD and fails on its line
    with open(path, encoding="ascii", errors="replace") as fh:
        _, n, count = _read_header(fh, path, kind)
        columns = [[] for _ in fields]
        for line, text in enumerate(fh, 2):
            row = text.split()
            if len(row) != len(fields):
                raise ValueError(
                    f"{path}:{line}: expected {len(fields)} column(s), found {len(row)}"
                )
            for (name, digits, base, bits), column, t in zip(fields, columns, row):
                if not digits.fullmatch(t) or (v := int(t, base)) >> bits:
                    raise ValueError(
                        f"{path}:{line}: {name} {t} is not a base-{base} number below 2^{bits}"
                    )
                column.append(v)
    if len(columns[0]) != count:
        raise ValueError(f"{path}:1: header says count={count}, found {len(columns[0])} rows")
    values = np.array(columns[0], dtype=np.uint64)
    bad = np.flatnonzero(~vecbits.monotone_mask(values, n))
    if len(bad):
        raise ValueError(
            f"{path}:{bad[0] + 2}: value {to_hex(n, int(values[bad[0]]))} is not"
            f" monotone in {n} variables"
        )
    return n, values, columns[1:]


def load_layer(path: str) -> Layer:
    """Read a layer file back; refuses values out of strictly ascending
    order, and a file of other than all |D_n| elements (distinct elements
    of D_n, as many as D_n has, are all of D_n)."""
    n, values, _ = read_records(path, "layer")
    if len(values) != LAYER_SIZE[n]:
        raise ValueError(
            f"{path}:1: a layer file for n={n} holds all {LAYER_SIZE[n]} elements"
            f" of D_{n}, not count={len(values)}"
        )
    bad = np.flatnonzero(values[1:] <= values[:-1])
    if len(bad):
        raise ValueError(f"{path}:{bad[0] + 3}: elements are not strictly ascending")
    return Layer(n, values)

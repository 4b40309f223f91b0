import numpy as np
import pytest

from mbfcount import vecbits
from mbfcount.core import dual_bits, monotone_bits, reverse_bits
from mbfcount.errors import WidthError
from mbfcount.layers import generate_layer

from oracles import permute_value

RNG = np.random.default_rng(1234)


def random_u64(size):
    return RNG.integers(0, 1 << 64, size=size, dtype=np.uint64)


def test_popcount_matches_int_bit_count():
    a = random_u64(1000)
    expect = np.array([int(v).bit_count() for v in a])
    assert np.array_equal(vecbits.popcount(a), expect)


def test_bit_reverse64_matches_scalar():
    a = random_u64(1000)
    expect = np.array([reverse_bits(int(v), 64) for v in a], dtype=np.uint64)
    assert np.array_equal(vecbits.bit_reverse64(a), expect)


@pytest.mark.parametrize("n", range(7))
def test_dual_array_matches_scalar(n):
    # dual is a raw bit transform, so random vectors exercise it at n = 6
    V = generate_layer(n).values if n <= 5 else random_u64(500)
    got = vecbits.dual_array(V, n)
    expect = np.array([dual_bits(int(v), n) for v in V], dtype=np.uint64)
    assert np.array_equal(got, expect)


def test_monotone_mask_rejects_bits_above_the_window():
    a = np.array([0x10, 0xF0, 0x1F], dtype=np.uint64)
    assert not vecbits.monotone_mask(a, 2).any()


@pytest.mark.parametrize("n", range(5))
def test_monotone_mask_matches_scalar_exhaustive(n):
    vals = np.arange(1 << (1 << n), dtype=np.uint64)
    got = vecbits.monotone_mask(vals, n)
    expect = np.array([monotone_bits(int(v), n) for v in vals])
    assert np.array_equal(got, expect)


@pytest.mark.parametrize("n", range(2, 6))
def test_digit_transpose_matches_permutation_oracle(n):
    V = generate_layer(n).values
    for i in range(n - 1):
        mapping = list(range(n))
        mapping[i], mapping[i + 1] = mapping[i + 1], mapping[i]
        got = vecbits.digit_transpose(V, i, i + 1, n)
        expect = np.array(
            [permute_value(n, int(v), tuple(mapping)) for v in V], dtype=np.uint64
        )
        assert np.array_equal(got, expect)


@pytest.mark.parametrize("n", [5, 6])
def test_digit_transpose_of_rows_is_each_row_transposed(n):
    # the prefilter transposes a stack of images in one call
    a = random_u64((3, 400)) & vecbits.window_mask(1 << n)
    before = a.copy()
    for i in range(n - 1):
        for j in range(i + 1, n):
            got = vecbits.digit_transpose(a, i, j, n)
            assert got.shape == a.shape
            for row, out in zip(a, got):
                assert np.array_equal(out, vecbits.digit_transpose(row, i, j, n))
    assert np.array_equal(a, before)


def test_digit_transpose_validates_args():
    V = generate_layer(2).values
    with pytest.raises(ValueError):
        vecbits.digit_transpose(V, 1, 1, 2)
    with pytest.raises(WidthError):
        vecbits.dual_array(V, 7)

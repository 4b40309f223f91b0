import pytest

from mbfcount.core import Mbf, bottom, monotone_bits, top
from mbfcount.errors import WidthError

from oracles import slow_dual, slow_is_monotone, slow_layer, slow_leq

D2_STRINGS = ["0000", "0001", "0011", "0101", "0111", "1111"]


def d(n):
    return [Mbf(n, v) for v in slow_layer(n)]


def test_bottom_top():
    assert bottom(2).to_string() == "0000"
    assert top(2).to_string() == "1111"
    assert top(0).to_string() == "1"
    assert top(3).weight() == 8


def test_string_round_trip():
    for s in D2_STRINGS:
        assert Mbf.from_string(s).to_string() == s
    assert Mbf.from_string("0101").bits == 0b1010  # bit 0 is leftmost


def test_hex_round_trip():
    for n in range(5):
        for x in d(n):
            h = x.to_hex()
            assert len(h) == max(1, (1 << n) // 4)
            assert int(h, 16) == x.bits


def test_leq_examples():
    assert Mbf.from_string("0001") <= Mbf.from_string("0111")
    assert not Mbf.from_string("0011") <= Mbf.from_string("0101")
    for x in d(2):
        assert x <= x


def test_leq_matches_scan_oracle():
    for x in d(2):
        for y in d(2):
            assert (x <= y) == slow_leq(2, x.bits, y.bits)


def test_dual_examples():
    assert Mbf.from_string("1111").dual().to_string() == "0000"
    assert Mbf.from_string("0001").dual().to_string() == "0111"


def test_dual_matches_string_oracle():
    for n in range(4):
        for x in d(n):
            assert x.dual().bits == slow_dual(n, x.bits)


def test_dual_involution_d4():
    for x in d(4):
        assert x.dual().dual() == x


def test_dual_antitone_d3():
    for x in d(3):
        for y in d(3):
            if x <= y:
                assert y.dual() <= x.dual()


def test_dual_lattice_identities_d3():
    for x in d(3):
        for y in d(3):
            assert (x | y).dual() == x.dual() & y.dual()
            assert (x & y).dual() == x.dual() | y.dual()


def test_join_meet_examples():
    a, b = Mbf.from_string("0011"), Mbf.from_string("0101")
    assert (a | b).to_string() == "0111"
    assert (a & b).to_string() == "0001"
    for x in d(3):
        assert x | bottom(3) == x
        assert x & top(3) == x


def test_join_meet_closure_d3():
    for x in d(3):
        for y in d(3):
            assert monotone_bits((x | y).bits, 3)
            assert monotone_bits((x & y).bits, 3)


def test_weight_examples():
    assert Mbf.from_string("0000").weight() == 0
    assert Mbf.from_string("0101").weight() == 2


def test_is_monotone_examples():
    assert monotone_bits(Mbf.from_string("0101").bits, 2)
    assert not monotone_bits(0b0010, 2)  # "0100": input 10 set, 11 clear
    assert not slow_is_monotone(2, 0b0010)
    assert monotone_bits(0, 2)


@pytest.mark.parametrize("n", range(4))
def test_is_monotone_matches_pairwise_oracle(n):
    for v in range(1 << (1 << n)):
        assert monotone_bits(v, n) == slow_is_monotone(n, v)


def test_is_self_dual_examples():
    assert Mbf.from_string("0101").is_self_dual()
    assert Mbf.from_string("0011").is_self_dual()
    assert not Mbf.from_string("0000").is_self_dual()


def test_self_dual_weight_property():
    for n in range(5):
        for x in d(n):
            if x.is_self_dual():
                assert 2 * x.weight() == 1 << n


def test_order_weight_compatibility():
    for n in range(5):
        for x in d(n):
            if x <= x.dual():
                assert 2 * x.weight() <= 1 << n


def test_wide_values_supported():
    # single-value operations must work up to n = 8
    for n in (7, 8):
        t = top(n)
        assert t.dual() == bottom(n)
        assert t.weight() == 1 << n
        assert bottom(n) <= t
        assert not t.is_self_dual()
        assert Mbf.from_bits(n, t.bits) == t


def test_width_errors():
    with pytest.raises(WidthError):
        bottom(9)
    with pytest.raises(WidthError):
        Mbf(2, 16)
    with pytest.raises(WidthError):
        bottom(2) <= bottom(3)
    with pytest.raises(WidthError):
        top(1) | top(2)
    with pytest.raises(WidthError):
        Mbf.from_bits(2, 1 << 20)
    with pytest.raises(WidthError):
        Mbf.from_bits(9, 0)
    for s in ("", "000", "0" * 5):
        with pytest.raises(WidthError, match=f"string length {len(s)} is not a power of two"):
            Mbf.from_string(s)


def test_from_bits_rejects_non_monotone():
    with pytest.raises(ValueError):
        Mbf.from_bits(2, 0b0010)
    with pytest.raises(ValueError):
        Mbf.from_string("0100")


def test_validated_and_raw_constructors_agree():
    for v in slow_layer(2):
        assert Mbf.from_bits(2, v) == Mbf(2, v)

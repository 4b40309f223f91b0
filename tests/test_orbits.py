import tracemalloc
from itertools import permutations
from math import factorial

import numpy as np
import pytest

from mbfcount import orbits
from mbfcount.core import Mbf
from mbfcount.errors import VerificationError, WidthError
from mbfcount.layers import Layer, generate_layer, write_records
from mbfcount.orbits import (
    DIRECT_WALK_MAX,
    _minimum_candidates,
    adjacent_swap_sequence,
    canonical_array,
    classify,
    load_classes,
    stabilizer_orbits,
)

from oracles import permute_value, slow_classes, slow_dual, slow_orbit, slow_two_swap_minima


def test_equivariance_with_dual():
    for n in range(4):
        for v in generate_layer(n).values:
            g = Mbf(n, int(v))
            for m in permutations(range(n)):
                image = Mbf(n, permute_value(n, g.bits, m))
                assert permute_value(n, g.dual().bits, m) == image.dual().bits


def test_self_dual_orbits_stay_self_dual():
    for n in range(5):
        for v in generate_layer(n).values:
            g = Mbf(n, int(v))
            if g.is_self_dual():
                assert all(
                    Mbf(n, v).is_self_dual() for v in slow_orbit(n, g.bits)
                )


def test_adjacent_swap_sequence_enumerates_everything():
    for n in range(7):
        seq = adjacent_swap_sequence(n)
        assert len(seq) == max(factorial(n) - 1, 0)
        arr = list(range(n))
        seen = {tuple(arr)}
        for k in seq:
            arr[k], arr[k + 1] = arr[k + 1], arr[k]
            seen.add(tuple(arr))
        assert len(seen) == factorial(n)


@pytest.mark.parametrize("n", range(5))
def test_canonical_array_matches_scalar(n):
    V = generate_layer(n).values
    got = canonical_array(V, n)
    expect = np.array([min(slow_orbit(n, int(v))) for v in V], dtype=np.uint64)
    assert np.array_equal(got, expect)


def test_canonical_array_matches_scalar_sampled_n5():
    V = generate_layer(5).values
    rng = np.random.default_rng(99)
    idx = rng.choice(len(V), size=200, replace=False)
    got = canonical_array(V, 5)
    for i in idx:
        assert int(got[i]) == min(slow_orbit(5, int(V[i])))


def test_classify_d2_exact():
    got = [(c.representative.to_string(), c.gamma) for c in classify(generate_layer(2))]
    assert got == [("0000", 1), ("0001", 1), ("0101", 2), ("0111", 1), ("1111", 1)]


def test_classify_d0():
    got = classify(generate_layer(0))
    assert [(c.representative.bits, c.gamma) for c in got] == [(0, 1), (1, 1)]


def test_classify_refuses_tables_wider_than_64_bits():
    # a width refusal, as every bulk kernel gives, before any walk
    with pytest.raises(WidthError, match="n=7"):
        classify(Layer(7, np.zeros(1, dtype=np.uint64)))


@pytest.mark.parametrize("n", range(5))
def test_classify_matches_set_walk_oracle(n):
    layer = generate_layer(n)
    got = [(c.representative.bits, c.gamma) for c in classify(layer)]
    assert got == slow_classes(n, layer.values)


def test_classify_d5_class_count():
    layer = generate_layer(5)
    cl = classify(layer)
    assert len(cl) == 210
    assert sum(c.gamma for c in cl) == len(layer)
    assert all(factorial(5) % c.gamma == 0 for c in cl)


def test_classify_d6_class_count():
    layer = generate_layer(6)
    cl = classify(layer)
    assert len(cl) == 16_353
    assert sum(c.gamma for c in cl) == len(layer)
    assert all(factorial(6) % c.gamma == 0 for c in cl)


# every cut of D_4, and seeded cuts of D_5 on both sides of the direct-walk
# size (2048), some of which split an orbit; the n=6 cut is prefiltered
_D5_CUTS = sorted({2048, 2049, 7581, *np.random.default_rng(5).integers(
    [1] * 4 + [2050] * 4, [2048] * 4 + [7581] * 4).tolist()})


@pytest.mark.parametrize(
    "n, cut", [(4, c) for c in range(1, 169)] + [(5, c) for c in _D5_CUTS] + [(6, 1 << 16)]
)
def test_classify_prefix_matches_per_element_grouping(n, cut):
    prefix = generate_layer(n).values[:cut]
    reps, counts = np.unique(canonical_array(prefix, n), return_counts=True)
    got = classify(Layer(n, prefix))
    assert [c.representative.bits for c in got] == reps.tolist()
    assert [c.gamma for c in got] == counts.tolist()


def test_classify_raises_when_a_representative_is_missing():
    layer = generate_layer(5)
    rep = next(c.representative.bits for c in classify(layer) if c.gamma > 1)
    damaged = Layer(5, layer.values[layer.values != np.uint64(rep)])
    with pytest.raises(VerificationError):
        classify(damaged)


def test_classify_raises_when_a_member_is_missing():
    # the member lies below the last value, so its orbit's gamma still counts it
    layer = generate_layer(5)
    rep = next(c.representative for c in classify(layer) if c.gamma > 1)
    member = max(slow_orbit(5, rep.bits))
    damaged = Layer(5, layer.values[layer.values != np.uint64(member)])
    with pytest.raises(VerificationError):
        classify(damaged)


@pytest.mark.parametrize("n, sample", [(5, None), (6, 20)])
def test_classify_prefilter_path_matches_the_scalar_orbits(n, sample):
    layer = generate_layer(n)
    assert len(layer) > DIRECT_WALK_MAX
    found = classify(layer)
    if sample is not None:
        pick = np.random.default_rng(6).choice(len(found), size=sample, replace=False)
        found = [found[i] for i in pick]
    for c in found:
        orbit = slow_orbit(n, c.representative.bits)
        assert min(orbit) == c.representative.bits
        assert len(orbit) == c.gamma


@pytest.mark.parametrize("n", range(1, 6))
def test_minimum_candidates_match_the_scalar_oracle(n):
    V = generate_layer(n).values
    got = _minimum_candidates(V, n)
    assert got.tolist() == slow_two_swap_minima(n, V)
    assert set(np.unique(canonical_array(V, n)).tolist()) <= set(got.tolist())


def test_minimum_candidates_of_d6():
    layer = generate_layer(6)
    got = _minimum_candidates(layer.values, 6)
    assert len(got) == 21_464
    reps = [c.representative.bits for c in classify(layer)]
    assert len(reps) == 16_353
    assert np.isin(np.array(reps, dtype=np.uint64), got).all()


def test_minimum_candidates_do_not_depend_on_the_chunk(monkeypatch):
    V = generate_layer(5).values
    whole = _minimum_candidates(V, 5)
    monkeypatch.setattr(orbits, "PREFILTER_CHUNK", 1 << 10)
    assert np.array_equal(_minimum_candidates(V, 5), whole)


def test_classify_d6_stays_within_16_mb():
    layer = generate_layer(6)
    tracemalloc.start()
    try:
        classify(layer)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6, f"classify(D_6) peaked at {peak / 1e6:.1f} MB"


def test_classify_workers_deterministic():
    layer = generate_layer(5)
    assert classify(layer, workers=2) == classify(layer, workers=1)


def test_gamma_divides_group_order():
    for n in range(5):
        layer = generate_layer(n)
        for c in classify(layer):
            assert factorial(n) % c.gamma == 0


def test_canonical_invariance():
    for n in range(4):
        for cls in classify(generate_layer(n)):
            rep = cls.representative.bits
            images = [permute_value(n, rep, m) for m in permutations(range(n))]
            assert canonical_array(np.array(images, dtype=np.uint64), n).tolist() == [rep] * len(images)


def save_classes(classes, n, path):
    rows = np.array([(c.representative.bits, c.gamma) for c in classes], dtype=np.uint64)
    with open(path, "w") as fh:
        write_records(fh, "classes", n, rows)


def test_classes_file_round_trip(tmp_path):
    layer = generate_layer(3)
    cl = classify(layer)
    path = tmp_path / "classes3.txt"
    save_classes(cl, 3, str(path))
    first = path.read_bytes()
    n, loaded = load_classes(str(path))
    assert n == 3 and loaded == cl
    save_classes(loaded, n, str(path))
    assert path.read_bytes() == first
    assert path.read_text().splitlines()[0] == "mbf-classes n=3 count=10"


@pytest.mark.parametrize(
    "line", ["10 1", "fe 0", "fe -1", "fe 4"],
    ids=["non-monotone", "gamma-zero", "gamma-negative", "gamma-not-dividing"],
)
def test_load_classes_rejects_what_is_not_a_class(tmp_path, line):
    path = tmp_path / "bad.classes"
    path.write_text(f"mbf-classes n=3 count=1\n{line}\n")
    with pytest.raises(ValueError):
        load_classes(str(path))


def plus3_classes(n):
    """Representatives a of the plus3 outer classes (a <= a*, weight below
    half the table) and the ascending interval [a, a*] of each."""
    V = generate_layer(n).values
    out = []
    for c in classify(generate_layer(n)):
        a = c.representative.bits
        ad = slow_dual(n, a)
        if a & ~ad == 0 and 2 * a.bit_count() < 1 << n:
            out.append((c, V[((V & np.uint64(a)) == a) & ((V & ~np.uint64(ad)) == 0)]))
    return out


@pytest.mark.parametrize("n", range(6))
def test_stabilizer_orbits_of_the_bottom_are_the_classes(n):
    # every relabeling fixes the bottom element, so the orbits are classify's
    layer = generate_layer(n)
    reps, inverse, sizes = stabilizer_orbits(0, layer.values, n)
    classes = classify(layer)
    assert layer.values[reps].tolist() == [c.representative.bits for c in classes]
    assert sizes.tolist() == [c.gamma for c in classes]
    assert np.array_equal(layer.values[reps][inverse], canonical_array(layer.values, n))


@pytest.mark.parametrize("n", range(5))
def test_stabilizer_orbits_match_the_permutation_oracle(n):
    for c, interval in plus3_classes(n):
        a = c.representative.bits
        stab = [m for m in permutations(range(n)) if permute_value(n, a, m) == a]
        assert len(stab) == factorial(n) // c.gamma
        reps, inverse, sizes = stabilizer_orbits(a, interval, n)
        values = interval.tolist()
        for i, v in enumerate(values):
            orbit = {permute_value(n, v, m) for m in stab}
            members = {values[j] for j in np.nonzero(inverse == inverse[i])[0]}
            assert members == orbit
            assert values[reps[inverse[i]]] == min(orbit)
        assert sizes.sum() == len(interval)
        assert all(len(stab) % s == 0 for s in sizes.tolist())


def test_stabilizer_orbits_refuse_a_set_that_is_not_closed():
    V = generate_layer(3).values
    x01, x02, x12 = 0x88, 0xA0, 0xC0  # x0 & x1, x0 & x2, x1 & x2: one S_3 orbit

    def u64(*xs):
        return np.array(xs, dtype=np.uint64)

    # two of the three: the size found, 2, divides 3! = 6 but is not the orbit's
    with pytest.raises(VerificationError, match="not closed"):
        stabilizer_orbits(0, u64(x01, x02), 3)
    with pytest.raises(VerificationError, match="not closed"):
        stabilizer_orbits(0, u64(0x80, x12), 3)
    # the relabelings fixing x0 & x1 swap x0 and x1 and so x0 & x2 with x1 & x2
    assert stabilizer_orbits(x01, u64(x01), 3)[2].tolist() == [1]
    assert stabilizer_orbits(x01, u64(x02, x12), 3)[2].tolist() == [2]
    with pytest.raises(VerificationError):
        stabilizer_orbits(x01, u64(x01, x02), 3)
    assert stabilizer_orbits(0, V, 3)[2].sum() == len(V)


def test_stabilizer_orbits_over_the_base5_plus3_classes():
    found = plus3_classes(5)
    assert len(found) == 80
    assert sum(len(interval) for _, interval in found) == 92_816
    reps = sum(len(stabilizer_orbits(c.representative.bits, interval, 5)[0]) for c, interval in found)
    assert reps == 16_698

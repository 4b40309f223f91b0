import numpy as np
import pytest

from mbfcount import intervals, vecbits
from mbfcount.core import Mbf, bottom, top
from mbfcount.errors import BudgetError, VerificationError
from mbfcount.intervals import (
    build_full_table,
    check_upward_budget,
    load_upward_table,
    re_scan,
    upward_counts,
)
from mbfcount.layers import Layer, generate_layer, write_records

from oracles import slow_interval_count

# upward counts for the six n=2 elements in ascending order, frozen from
# the definition scan (recomputed against the oracle below)
D2_UPWARD = [6, 5, 3, 3, 2, 1]


def test_re_scan_examples():
    layer2 = generate_layer(2)
    assert re_scan(layer2, bottom(2), top(2)) == 6
    assert re_scan(layer2, Mbf.from_string("0101"), top(2)) == 3
    layer3 = generate_layer(3)
    for x in layer3:
        assert re_scan(layer3, x, x) == 1


def test_re_scan_matches_slow_oracle():
    layer = generate_layer(3)
    for x in layer:
        for y in layer:
            assert re_scan(layer, x, y) == slow_interval_count(layer.values, x.bits, y.bits)


def test_duality_symmetry_d3():
    # re(x, y) = re(dual(y), dual(x)) on the n=3 matrix the k=4 routes read
    V = generate_layer(3).values
    C = build_full_table(3).counts
    dual_idx = np.searchsorted(V, vecbits.dual_array(V, 3))
    for i in range(len(V)):
        for j in range(len(V)):
            assert C[i, j] == C[dual_idx[j], dual_idx[i]]


def test_monotone_in_upper_end():
    V = generate_layer(3).values
    C = build_full_table(3).counts
    for x in range(len(V)):
        for y1 in range(len(V)):
            for y2 in range(len(V)):
                if V[y1] & ~V[y2] == 0:  # y1 <= y2
                    assert C[x, y1] <= C[x, y2]


def test_upward_table_d2_frozen_values():
    layer = generate_layer(2)
    by_scan = [re_scan(layer, x, top(2)) for x in layer]
    assert by_scan == D2_UPWARD
    assert upward_counts(2, layer.values).tolist() == D2_UPWARD


def test_upward_table_extremes():
    for n in range(5):
        layer = generate_layer(n)
        ups = upward_counts(n, np.array([top(n).bits, bottom(n).bits], dtype=np.uint64))
        assert ups.tolist() == [1, len(layer)]


def test_upward_counts_sum_is_next_layer_size():
    for n in range(5):
        layer = generate_layer(n)
        assert int(upward_counts(n, layer.values).sum()) == len(generate_layer(n + 1))


@pytest.mark.parametrize("n", range(6))
def test_upward_counts_whole_layer_match_definition(n):
    intervals._full_upward.cache_clear()  # rebuild the chain of layers below n
    V = generate_layer(n).values
    expect = np.array([np.count_nonzero((x & ~V) == 0) for x in V])
    assert np.array_equal(upward_counts(n, V), expect)


def test_upward_counts_refuse_non_monotone_elements():
    # the recurrence looks up halves in D_{n-1}: 0x10 at n=3 is the pair
    # (0, 1), and its high half 1 is not in D_2
    with pytest.raises(ValueError, match="not monotone"):
        upward_counts(3, np.array([0x10], dtype=np.uint64))


def test_upward_counts_n6_recursion_matches_scan():
    layer = generate_layer(6)
    rng = np.random.default_rng(7)
    xs = layer.values[rng.choice(len(layer), size=50, replace=False)]
    got = upward_counts(6, xs)
    V = layer.values
    expect = [int(np.count_nonzero((x & ~V) == 0)) for x in xs]
    assert got.tolist() == expect


def test_upward_counts_workers_deterministic():
    layer = generate_layer(4)
    a = upward_counts(4, layer.values, workers=1)
    b = upward_counts(4, layer.values, workers=2)
    assert np.array_equal(a, b)


def test_upward_table_from_classes():
    from mbfcount.orbits import classify

    layer = generate_layer(3)
    reps = [c.representative for c in classify(layer)]
    ups = upward_counts(3, np.array([r.bits for r in reps], dtype=np.uint64))
    assert ups.tolist() == [re_scan(layer, r, top(3)) for r in reps]


def _full_re(table, layer, x, y):
    """The full table's entry for the pair, indexed by layer ordinal."""
    return int(table.counts[layer.index(x.bits), layer.index(y.bits)])


def test_full_table_matches_scan():
    for n in range(4):
        layer = generate_layer(n)
        table = build_full_table(n)
        for x in layer:
            for y in layer:
                assert _full_re(table, layer, x, y) == re_scan(layer, x, y)


def test_full_table_n4_sampled():
    layer = generate_layer(4)
    table = build_full_table(4)
    rng = np.random.default_rng(3)
    for i, j in rng.integers(0, len(layer), size=(500, 2)):
        x, y = layer.mbf(int(i)), layer.mbf(int(j))
        assert _full_re(table, layer, x, y) == re_scan(layer, x, y)


@pytest.fixture(scope="module")
def table5():
    return build_full_table(5)


def test_full_table_n5_exactness_sampled(table5):
    # the n=5 matrix is built through float32 matmul; spot-check hard
    layer = generate_layer(5)
    table = table5
    assert table.counts.dtype == np.uint16
    rng = np.random.default_rng(11)
    for i, j in rng.integers(0, len(layer), size=(300, 2)):
        x, y = layer.mbf(int(i)), layer.mbf(int(j))
        assert _full_re(table, layer, x, y) == re_scan(layer, x, y)
    assert _full_re(table, layer, bottom(5), top(5)) == len(layer)


def test_full_table_n5_whole_matrix(table5):
    layer = generate_layer(5)
    V = layer.values
    C = table5.counts
    d = len(V)
    assert not np.tril(C, -1).any()
    assert (np.diagonal(C) == 1).all()
    assert np.array_equal(C[:, -1], [np.count_nonzero((x & ~V) == 0) for x in V])
    below = np.array([np.count_nonzero((V & ~y) == 0) for y in V])
    assert np.array_equal(C[0], below)
    # re(x, y) = re(dual(y), dual(x)): the dual reverses the order
    dual_idx = np.searchsorted(V, vecbits.dual_array(V, 5))
    assert np.array_equal(C, C[dual_idx][:, dual_idx].T)
    # every pair among the indices on either side of a block edge
    edges = [0, d - 1]
    for e in range(intervals._FULL_BLOCK, d, intervals._FULL_BLOCK):
        edges += [e - 1, e]
    for i in edges:
        for j in edges:
            assert C[i, j] == re_scan(layer, V[i], V[j])


def test_full_table_refuses_inexact_sizes(monkeypatch):
    # 2^16 elements would overflow uint16 entries; refused before any matrix
    big = Layer(5, np.arange(1 << 16, dtype=np.uint64))
    monkeypatch.setattr(intervals, "generate_layer", lambda n, budget_mb=None: big)
    with pytest.raises(VerificationError):
        build_full_table(5)


def save_upward_table(n, elements, counts, path):
    rows = np.column_stack((elements, counts.astype(np.uint64)))
    with open(path, "w") as fh:
        write_records(fh, "retable", n, rows)


def test_retable_round_trip(tmp_path):
    elements = generate_layer(2).values
    counts = upward_counts(2, elements)
    path = tmp_path / "re2.txt"
    save_upward_table(2, elements, counts, str(path))
    first = path.read_bytes()
    n, loaded_elements, loaded_counts = load_upward_table(str(path))
    assert n == 2
    assert np.array_equal(loaded_elements, elements)
    assert np.array_equal(loaded_counts, counts)
    save_upward_table(n, loaded_elements, loaded_counts, str(path))
    assert path.read_bytes() == first
    assert path.read_text().splitlines()[0] == "mbf-retable n=2 mode=upward count=6"


@pytest.mark.parametrize(
    "body", ["4 3\n8 5\n", "0 6\n8 0\n"], ids=["non-monotone", "count-zero"]
)
def test_load_upward_table_rejects_values_outside_the_layer(tmp_path, body):
    path = tmp_path / "bad.txt"
    path.write_text("mbf-retable n=2 mode=upward count=2\n" + body)
    with pytest.raises(ValueError):
        load_upward_table(str(path))


def test_bulk_budget_refusals():
    with pytest.raises(BudgetError):
        upward_counts(6, np.zeros(200_001, dtype=np.uint64))
    with pytest.raises(BudgetError, match="7828354 elements at n=6"):
        check_upward_budget(6, 7_828_354)
    check_upward_budget(6, 200_000)
    check_upward_budget(5, 7_581)
    with pytest.raises(BudgetError):
        build_full_table(6)
    with pytest.raises(BudgetError):
        build_full_table(5, budget_mb=50)

import numpy as np
import pytest

from mbfcount import intervals, vecbits
from mbfcount.core import Mbf, bottom, dual, top
from mbfcount.errors import BudgetError, VerificationError
from mbfcount.intervals import (
    IntervalTable,
    build_full_table,
    build_upward_table,
    load_upward_table,
    re_fast,
    re_scan,
    upward_counts,
)
from mbfcount.layers import Layer, generate_layer, write_records

from oracles import slow_interval_count

# upward counts for the six n=2 elements in ascending order, frozen from
# the definition scan (recomputed against the oracle below)
D2_UPWARD = [6, 5, 3, 3, 2, 1]


@pytest.fixture(autouse=True)
def fresh_memo():
    intervals.clear_memo()
    yield


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


def test_re_fast_examples():
    assert re_fast(bottom(2), top(2)) == 6
    assert re_fast(Mbf.from_string("0001"), Mbf.from_string("0111")) == 4
    assert re_fast(Mbf.from_string("0011"), Mbf.from_string("0101")) == 0


def test_re_fast_equals_scan_exhaustive_d3():
    layer = generate_layer(3)
    for x in layer:
        for y in layer:
            assert re_fast(x, y) == re_scan(layer, x, y)


def test_re_fast_equals_scan_random_d5():
    layer = generate_layer(5)
    rng = np.random.default_rng(42)
    idx = rng.integers(0, len(layer), size=(2000, 2))
    for i, j in idx:
        x, y = layer.mbf(int(i)), layer.mbf(int(j))
        assert re_fast(x, y) == re_scan(layer, x, y)


def test_duality_symmetry_d3():
    layer = generate_layer(3)
    for x in layer:
        for y in layer:
            assert re_fast(x, y) == re_fast(dual(y), dual(x))


def test_monotone_in_upper_end():
    layer = generate_layer(3)
    for x in layer:
        for y1 in layer:
            for y2 in layer:
                if y1 <= y2:
                    assert re_fast(x, y1) <= re_fast(x, y2)


def test_upward_table_d2_frozen_values():
    layer = generate_layer(2)
    by_scan = [re_scan(layer, x, top(2)) for x in layer]
    assert by_scan == D2_UPWARD
    table = build_upward_table(layer)
    assert [table.up(x) for x in layer] == D2_UPWARD


def test_upward_table_extremes():
    for n in range(5):
        layer = generate_layer(n)
        table = build_upward_table(layer)
        assert table.up(top(n)) == 1
        assert table.up(bottom(n)) == len(layer)


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
    classes = classify(layer)
    table = build_upward_table(classes, 3)
    for c in classes:
        assert table.up(c.representative) == re_scan(layer, c.representative, top(3))


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
        assert _full_re(table, layer, x, y) == re_fast(x, y)
    assert _full_re(table, layer, bottom(5), top(5)) == len(layer)


def test_full_table_n5_whole_matrix(table5):
    V = generate_layer(5).values
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
            assert C[i, j] == re_fast(Mbf(5, int(V[i])), Mbf(5, int(V[j])))


def test_full_table_refuses_inexact_sizes(monkeypatch):
    # 2^16 elements would overflow uint16 entries; refused before any matrix
    big = Layer(5, np.arange(1 << 16, dtype=np.uint64))
    monkeypatch.setattr(intervals, "generate_layer", lambda n, budget_mb=None: big)
    with pytest.raises(VerificationError):
        build_full_table(5)


def test_up_answers_upward_tables_only():
    with pytest.raises(ValueError):
        build_full_table(2).up(bottom(2))
    with pytest.raises(KeyError):
        IntervalTable(2, "upward", np.array([8], dtype=np.uint64), np.array([5])).up(0)


def save_upward_table(table, path):
    rows = np.column_stack((table.elements, table.counts.astype(np.uint64)))
    with open(path, "w") as fh:
        write_records(fh, "retable", table.n, rows)


def test_retable_round_trip(tmp_path):
    table = build_upward_table(generate_layer(2))
    path = tmp_path / "re2.txt"
    save_upward_table(table, str(path))
    first = path.read_bytes()
    loaded = load_upward_table(str(path))
    assert loaded.n == 2
    assert np.array_equal(loaded.elements, table.elements)
    assert np.array_equal(loaded.counts, table.counts)
    save_upward_table(loaded, str(path))
    assert path.read_bytes() == first
    assert path.read_text().splitlines()[0] == "mbf-retable n=2 mode=upward count=6"


def test_memo_budget_refusal(monkeypatch):
    monkeypatch.setattr(intervals, "MAX_MEMO_ENTRIES", 3)
    with pytest.raises(BudgetError):
        re_fast(bottom(4), top(4))


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
    with pytest.raises(BudgetError):
        build_full_table(6)
    with pytest.raises(BudgetError):
        build_full_table(5, budget_mb=50)

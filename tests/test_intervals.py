import tracemalloc

import numpy as np
import pytest

from mbfcount import intervals, vecbits
from mbfcount.core import Mbf, bottom, table_width, top
from mbfcount.errors import BudgetError, VerificationError
from mbfcount.intervals import (
    build_full_table,
    check_upward_budget,
    load_upward_table,
    re_scan,
    upward_counts,
    upward_in_interval,
)
from mbfcount.layers import DEDEKIND_7, LAYER_SIZE, Layer, generate_layer, write_records
from mbfcount.selfcheck import _four_block_count

from oracles import interval_matrix, slow_interval_count

# upward counts for the six n=2 elements in ascending order, frozen from
# the definition scan (recomputed against the oracle below)
D2_UPWARD = [6, 5, 3, 3, 2, 1]


def test_re_scan_examples():
    layer2 = generate_layer(2)
    assert re_scan(layer2, bottom(2).bits, top(2).bits) == 6
    assert re_scan(layer2, Mbf.from_string("0101").bits, top(2).bits) == 3
    layer3 = generate_layer(3)
    for x in layer3.values:
        assert re_scan(layer3, x, x) == 1


def test_re_scan_matches_slow_oracle():
    layer = generate_layer(3)
    for x in layer.values:
        for y in layer.values:
            assert re_scan(layer, x, y) == slow_interval_count(layer.values, int(x), int(y))


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
    by_scan = [re_scan(layer, x, top(2).bits) for x in layer.values]
    assert by_scan == D2_UPWARD
    assert upward_counts(2, layer.values).tolist() == D2_UPWARD


def test_upward_table_extremes():
    for n in range(5):
        layer = generate_layer(n)
        ups = upward_counts(n, np.array([top(n).bits, bottom(n).bits], dtype=np.uint64))
        assert ups.tolist() == [1, len(layer)]


def test_upward_counts_sum_is_next_layer_size():
    # the pairs x <= z of D_n are the elements of D_{n+1}
    for n in range(6):
        layer = generate_layer(n)
        assert int(upward_counts(n, layer.values).sum()) == LAYER_SIZE[n + 1]


def _shared_low_halves(V, n, rng, size, lows=3):
    """size seeded elements of the layer V = D_n, n >= 1, drawn from those
    whose low half is one of `lows` seeded elements of D_{n-1} (all of
    them if D_{n-1} has fewer)."""
    halfw = table_width(n - 1)
    low = V & np.uint64((1 << halfw) - 1)
    halves = np.unique(low)
    chosen = rng.choice(halves, size=min(lows, len(halves)), replace=False)
    return rng.choice(V[np.isin(low, chosen)], size=size)


@pytest.mark.parametrize("n", range(6))
def test_upward_counts_whole_layer_match_definition(n):
    intervals._full_upward.cache_clear()  # recount the layer below n
    V = generate_layer(n).values
    expect = np.array([np.count_nonzero((x & ~V) == 0) for x in V])
    assert np.array_equal(upward_counts(n, V), expect)
    # shuffled, with duplicates, and many points on a few low halves
    rng = np.random.default_rng(n)
    xs = np.concatenate((V, rng.choice(V, size=len(V))))
    if n >= 1:
        xs = np.concatenate((xs, _shared_low_halves(V, n, rng, len(V))))
    rng.shuffle(xs)
    assert np.array_equal(upward_counts(n, xs), expect[np.searchsorted(V, xs)])


@pytest.mark.parametrize("n", range(5))
def test_upward_in_interval_is_the_scan_on_every_top_block(n):
    # re(x, h) over [h*, h] for every h with h* <= h, against the definition
    layer = generate_layer(n)
    V = layer.values
    duals = vecbits.dual_array(V, n)
    for ih in np.flatnonzero((duals & ~V) == 0).tolist():
        X = V[((duals[ih] & ~V) == 0) & ((V & ~V[ih]) == 0)]
        assert upward_in_interval(X).tolist() == [re_scan(layer, x, V[ih]) for x in X]


@pytest.mark.parametrize("n", range(6))
def test_upward_in_interval_over_the_layer_is_its_upward_counts(n):
    V = generate_layer(n).values
    assert np.array_equal(upward_in_interval(V), upward_counts(n, V))


def test_upward_counts_of_no_points():
    for n in range(7):
        got = upward_counts(n, np.empty(0, dtype=np.uint64))
        assert got.dtype == np.int64 and got.shape == (0,)


def test_upward_counts_refuse_non_monotone_elements():
    # the recurrence looks up halves in D_{n-1}: 0x10 at n=3 is the pair
    # (0, 1), and its high half 1 is not in D_2
    with pytest.raises(ValueError, match="not monotone"):
        upward_counts(3, np.array([0x10], dtype=np.uint64))


def test_upward_counts_n6_recursion_matches_scan():
    # most points share one of five low halves, some repeat, and the
    # rest are spread over the layer
    V = generate_layer(6).values
    rng = np.random.default_rng(7)
    xs = np.concatenate((_shared_low_halves(V, 6, rng, 150, lows=5), rng.choice(V, size=50)))
    xs = np.concatenate((xs, xs[:40]))
    rng.shuffle(xs)
    got = upward_counts(6, xs)
    above = ~V  # x <= z iff x & ~z == 0
    expect = {x: int(np.count_nonzero((above & x) == 0)) for x in set(xs.tolist())}
    assert got.tolist() == [expect[x] for x in xs.tolist()]


def test_upward_counts_across_block_boundaries(monkeypatch):
    # a block of 3 (point, z0) pairs clamps to one point wherever a group
    # has more than 3 z0 >= x0, so those groups span one block per point
    monkeypatch.setattr(intervals, "_UPWARD_BLOCK", 3)
    intervals._full_upward.cache_clear()
    try:
        for n in range(6):
            V = generate_layer(n).values
            expect = [int(np.count_nonzero((x & ~V) == 0)) for x in V]
            assert upward_counts(n, V).tolist() == expect
    finally:
        intervals._full_upward.cache_clear()


def test_upward_table_from_classes():
    from mbfcount.orbits import classify

    layer = generate_layer(3)
    reps = [c.representative for c in classify(layer)]
    ups = upward_counts(3, np.array([r.bits for r in reps], dtype=np.uint64))
    assert ups.tolist() == [re_scan(layer, r.bits, top(3).bits) for r in reps]


def test_full_table_matches_scan():
    for n in range(4):
        layer = generate_layer(n)
        table = build_full_table(n)
        V = layer.values
        for i in range(len(V)):
            for j in range(len(V)):
                assert table.counts[i, j] == re_scan(layer, V[i], V[j])


def test_full_table_n4_sampled():
    layer = generate_layer(4)
    table = build_full_table(4)
    rng = np.random.default_rng(3)
    for i, j in rng.integers(0, len(layer), size=(500, 2)):
        assert table.counts[i, j] == re_scan(layer, layer.values[i], layer.values[j])


@pytest.mark.parametrize("n", range(5))
def test_full_table_equals_the_oracle_matrix(n):
    counts = build_full_table(n).counts
    assert counts.dtype == np.uint16
    assert np.array_equal(counts, interval_matrix(generate_layer(n).values))


@pytest.fixture(scope="module")
def table5_and_peak():
    generate_layer(5)  # cached, so the peak is the build's own
    tracemalloc.start()
    try:
        table = build_full_table(5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return table, peak


@pytest.fixture(scope="module")
def table5(table5_and_peak):
    return table5_and_peak[0]


def test_full_table_n5_stays_below_twice_the_matrix(table5_and_peak):
    # no d x d order relation is held beside the uint16 result
    table, peak = table5_and_peak
    assert peak < 2 * table.counts.nbytes, f"build_full_table(5) peaked at {peak / 1e6:.1f} MB"


def test_full_table_budget_estimate_covers_the_peak(table5_and_peak):
    table, peak = table5_and_peak
    need = intervals.full_table_bytes(len(table.counts))
    assert peak <= need <= 1.5 * peak, f"estimate {need / 1e6:.1f} MB, peak {peak / 1e6:.1f} MB"


def _check_seeded_pairs(table):
    layer = generate_layer(5)
    assert table.counts.dtype == np.uint16
    rng = np.random.default_rng(11)
    for i, j in rng.integers(0, len(layer), size=(300, 2)):
        assert table.counts[i, j] == re_scan(layer, layer.values[i], layer.values[j])
    assert table.counts[0, -1] == len(layer)  # bottom(5) to top(5)


def test_full_table_n5_exactness_sampled(table5):
    # the n=5 matrix is summed in uint16 by the zeta transform; spot-check hard
    _check_seeded_pairs(table5)


def test_full_table_n5_whole_matrix(table5):
    V = generate_layer(5).values
    C = table5.counts
    assert not np.tril(C, -1).any()
    assert (np.diagonal(C) == 1).all()
    assert np.array_equal(C[:, -1], [np.count_nonzero((x & ~V) == 0) for x in V])
    below = np.array([np.count_nonzero((V & ~y) == 0) for y in V])
    assert np.array_equal(C[0], below)
    # re(x, y) = re(dual(y), dual(x)): the dual reverses the order
    dual_idx = np.searchsorted(V, vecbits.dual_array(V, 5))
    assert np.array_equal(C, C[dual_idx][:, dual_idx].T)
    assert np.array_equal(C, interval_matrix(V))


def _row_selections(n):
    V = generate_layer(n).values
    d = len(V)
    rng = np.random.default_rng(25)
    return {
        "empty": np.empty(0, dtype=np.intp),
        "one": np.array([d // 2]),
        "seeded": rng.choice(d, size=min(d, 40), replace=False),  # unsorted
        "below-dual": np.flatnonzero((V & ~vecbits.dual_array(V, n)) == 0),
        "all": np.arange(d),
    }


@pytest.mark.parametrize("which", ["empty", "one", "seeded", "below-dual", "all"])
@pytest.mark.parametrize("n", range(6))
def test_full_table_row_selection_is_those_rows_of_the_matrix(n, which, table5):
    # row x of the matrix, re(x, y) = re(y*, x*), is upward_in_interval's
    # column over [bottom, x*] read through the dual, by a route that
    # shares no code with the down-zeta transform of the matrix
    full = table5.counts if n == 5 else build_full_table(n).counts
    V = generate_layer(n).values
    duals = vecbits.dual_array(V, n)
    for i in _row_selections(n)[which].tolist():
        X = V[(V & ~duals[i]) == 0]  # [bottom, x*], ascending
        above = (V[i] & ~V) == 0  # the y >= x, whose duals lie in X
        row = np.zeros(len(V), dtype=np.int64)
        row[above] = upward_in_interval(X)[np.searchsorted(X, duals[above])]
        assert np.array_equal(full[i], row), i


def test_full_table_refuses_inexact_sizes(monkeypatch):
    # 2^16 elements would overflow uint16 entries; refused before any matrix
    big = Layer(5, np.arange(1 << 16, dtype=np.uint64))
    monkeypatch.setattr(intervals, "generate_layer", lambda n, budget_mb=None: big)
    with pytest.raises(VerificationError):
        build_full_table(5)


def test_full_table_reads_only_its_own_layer(monkeypatch, table5):
    # no layer below, no split into halves and no join table: the whole
    # matrix comes from D_5 alone
    real_layer = intervals.generate_layer

    def only_five(n, budget_mb=None):
        assert n == 5, f"generate_layer({n}) was called"
        return real_layer(n, budget_mb)

    def never(*args, **kwargs):
        raise AssertionError("a half-split table was built")

    monkeypatch.setattr(intervals, "generate_layer", only_five)
    monkeypatch.setattr(intervals, "_split", never)
    monkeypatch.setattr(intervals, "_join_index_table", never)
    assert np.array_equal(build_full_table(5).counts, table5.counts)


@pytest.mark.parametrize("n", range(6))
def test_full_table_support_is_the_next_dedekind_number(n):
    # re(x, y) > 0 exactly when x <= y, and the pairs x <= y are D_{n+1}
    assert np.count_nonzero(build_full_table(n).counts) == LAYER_SIZE[n + 1]


def _join_and_dual(n):
    V = generate_layer(n).values
    return intervals._join_index_table(V, n), np.searchsorted(V, vecbits.dual_array(V, n))


@pytest.mark.parametrize("n", range(6))
def test_tables_count_the_dedekind_number_two_up(n):
    J, dual_idx = _join_and_dual(n)
    expect = LAYER_SIZE.get(n + 2, DEDEKIND_7)
    assert _four_block_count(upward_counts(n, generate_layer(n).values), J, dual_idx) == expect


def test_one_wrong_join_breaks_the_dedekind_identity():
    # moving a join to the top lowers its own term (up = 1) and the term
    # of the dual pair (down = 1); moving it to the bottom raises both
    up = upward_counts(3, generate_layer(3).values)
    J, dual_idx = _join_and_dual(3)
    top = len(J) - 1
    assert _four_block_count(up, J, dual_idx) == LAYER_SIZE[5]
    for i, j in np.ndindex(J.shape):
        for wrong in (0, top):
            if J[i, j] != wrong:
                bad = J.copy()
                bad[i, j] = wrong
                assert _four_block_count(up, bad, dual_idx) != LAYER_SIZE[5], (i, j, wrong)


def test_one_wrong_dual_breaks_the_dedekind_identity():
    # the meets and the downward counts come through the dual index, so
    # every single wrong entry, and every swap of two entries, miscounts D_5
    up = upward_counts(3, generate_layer(3).values)
    J, dual_idx = _join_and_dual(3)
    d = len(dual_idx)
    for i, wrong in np.ndindex(d, d):
        if dual_idx[i] != wrong:
            bad = dual_idx.copy()
            bad[i] = wrong
            assert _four_block_count(up, J, bad) != LAYER_SIZE[5], (i, wrong)
    for i in range(d):
        for j in range(i + 1, d):
            bad = dual_idx.copy()
            bad[[i, j]] = bad[[j, i]]
            assert _four_block_count(up, J, bad) != LAYER_SIZE[5], (i, j)


def test_one_wrong_upward_count_breaks_the_dedekind_identity():
    # each upward count is a factor both as |[x | y, top]| and, through
    # the dual index, as |[0, x & y]|, so one count off by one miscounts D_5
    up = upward_counts(3, generate_layer(3).values)
    J, dual_idx = _join_and_dual(3)
    for i in range(len(up)):
        for delta in (-1, 1):
            bad = up.copy()
            bad[i] += delta
            assert _four_block_count(bad, J, dual_idx) != LAYER_SIZE[5], (i, delta)


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

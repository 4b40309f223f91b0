import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mbfcount import counting, intervals, orbits, parallel, vecbits
from mbfcount.counting import (
    LAMBDA_KNOWN,
    LambdaResult,
    exact_sum,
    lambda_any,
    lambda_brute,
    lambda_plus2,
    lambda_plus3,
    lambda_plus4_classes,
    lambda_plus4_direct,
    plus4_pruned_term_count,
    verify_result,
)
from mbfcount.errors import BudgetError, UnsupportedCombinationError, VerificationError
from mbfcount.intervals import upward_counts
from mbfcount.layers import Layer, generate_layer, self_dual_brute
from mbfcount.selfcheck import _plus3_definition, definition_sums, top_block_products

from oracles import interval_matrix, slow_dual, slow_layer, slow_orbit, slow_plus3_sums


def setup(n, classes):
    return generate_layer(n), classes(n)


def dual_intervals(V, n, tops):
    """counting._dual_intervals, given the duals of the tops' elements."""
    tops = np.asarray(tops)
    return counting._dual_intervals(V, tops, vecbits.dual_array(V[tops], n))


@pytest.mark.parametrize("n", range(5))
def test_plus2_known_values(n, classes):
    layer, cl = setup(n, classes)
    assert lambda_plus2(layer, cl).value == LAMBDA_KNOWN[n + 2]


def test_plus2_base0_hand_decomposition():
    # both one-variable-less elements join with their dual to the top,
    # each with one element above it
    ups = upward_counts(0, np.array([1, 1], dtype=np.uint64))
    assert ups.tolist() == [1, 1]
    assert lambda_any(2, "plus2").value == 2


@pytest.mark.parametrize("n", range(5))
def test_plus2_class_fold_equals_plain_sum(n, classes):
    layer, cl = setup(n, classes)
    V = layer.values
    plain = exact_sum(upward_counts(n, V | vecbits.dual_array(V, n)))
    assert lambda_plus2(layer, cl).value == plain


@pytest.mark.parametrize("n", range(4))
def test_plus3_known_values(n, classes):
    layer, cl = setup(n, classes)
    got = lambda_plus3(layer, cl)
    assert got.value == LAMBDA_KNOWN[n + 3]
    assert got.base_source == "brute"


@pytest.mark.parametrize("n", range(5))
def test_plus3_sums_match_the_subset_formula(n, classes, monkeypatch):
    # every element of [dual(h), h] as b, in a seeded order, for every
    # class h with dual(h) <= h: a superset of the orbit representatives.
    # Gather blocks of 5 rows end short inside the prefixes of the key
    # blocks
    layer, cl = setup(n, classes)
    V = layer.values
    reps = np.array([c.representative.bits for c in cl], dtype=np.uint64)
    tops = np.searchsorted(V, reps[(vecbits.dual_array(reps, n) & ~reps) == 0])
    tables = counting._k4_tables(layer, None)
    rng = np.random.default_rng(n)
    for ih, I in dual_intervals(V, n, tops).items():
        positions = rng.permutation(len(I))
        expect = slow_plus3_sums(V[I], n, positions)
        for block in (5, 512):
            monkeypatch.setattr(intervals, "_GATHER_BLOCK", block * counting._PLUS3_BLOCK)
            assert counting._plus3_sums(tables, I, positions) == expect, hex(V[ih])


@pytest.mark.parametrize("n", range(4))
def test_plus4_known_values(n, classes):
    layer, cl = setup(n, classes)
    assert lambda_plus4_direct(layer, cl).value == LAMBDA_KNOWN[n + 4]


@pytest.mark.parametrize("n", range(4))
def test_plus4_strategies_agree(n, classes):
    layer, cl = setup(n, classes)
    dense = lambda_plus4_direct(layer, cl, strategy="dense").value
    pruned = lambda_plus4_direct(layer, cl, strategy="pruned").value
    assert dense == pruned


def test_plus4_routes_run_pruned_unless_dense_is_named(classes, monkeypatch):
    def never(*args):
        raise AssertionError("the dense reference ran")

    monkeypatch.setattr(counting, "_plus4_dense_sum", never)
    assert lambda_any(8, "plus4").value == LAMBDA_KNOWN[8]
    layer, cl = setup(4, classes)
    assert lambda_plus4_direct(layer, cl).value == LAMBDA_KNOWN[8]


@pytest.mark.parametrize("n", [3, 4])
def test_plus4_strategies_agree_class_by_class(n, classes):
    layer, cl = setup(n, classes)
    for c in cl:
        dense = lambda_plus4_direct(layer, [c], strategy="dense").value
        assert dense == lambda_plus4_direct(layer, [c], strategy="pruned").value


@pytest.mark.parametrize("n", range(4))
def test_plus4c_known_values(n, classes):
    layer, cl = setup(n, classes)
    got = lambda_plus4_classes(layer, cl)
    assert got.value == LAMBDA_KNOWN[n + 4]


@pytest.mark.parametrize("n", range(4))
def test_plus4c_equals_dense_plus4(n, classes):
    # plus4c reads b, c only in [dual(h), h]; dense sums every (a, b, c, h),
    # so the terms plus4c skips must have a zero factor
    layer, cl = setup(n, classes)
    assert (
        lambda_plus4_classes(layer, cl).value
        == lambda_plus4_direct(layer, cl, strategy="dense").value
    )


@pytest.mark.parametrize("n, chunk", [
    pytest.param(n, chunk, id=f"{n}-chunk{chunk}" if chunk else str(n))
    for n in range(5) for chunk in (None, 1, 7)
])
def test_join_index_table_is_the_join(n, chunk, monkeypatch):
    # the default gather block, blocks of one row, and of 7 rows, where
    # the last block is shorter than the others (20 = 7 + 7 + 6 rows at
    # n = 3)
    V = generate_layer(n).values
    if chunk:
        monkeypatch.setattr(intervals, "_GATHER_BLOCK", chunk * len(V))
    J = intervals._join_index_table(V, n)
    assert np.array_equal(V[J], V[:, None] | V[None, :])
    assert np.array_equal(J, J.T)


def test_join_index_table_refuses_sums_beyond_int16(monkeypatch):
    # a pair index of D_6 reaches |D_5|^2 = 57,471,561 > 2^15, so the
    # int16 sums would wrap: refused before the halves or any table
    def never(*args, **kwargs):
        raise AssertionError("a table was built")

    monkeypatch.setattr(intervals, "_halves", never)
    with pytest.raises(VerificationError, match="2\\^15"):
        intervals._join_index_table(np.zeros(0, dtype=np.uint64), 6)


def test_pair_keys_refuse_int16_overflow_at_n6(monkeypatch):
    # keys of D_6 would reach |D_5|^2 = 57,471,561 > 2^15: join_keys raises
    # before it splits an element or builds a join table; D_5's 168^2 =
    # 28,224 keys fit, and D_0's key is its index
    def never(*args, **kwargs):
        raise AssertionError("a table was built")

    assert [intervals.key_count(n) for n in range(6)] == [2, 4, 9, 36, 400, 28_224]
    monkeypatch.setattr(intervals, "_halves", never)
    monkeypatch.setattr(intervals, "_join_index_table", never)
    with pytest.raises(VerificationError, match="2\\^15"):
        intervals.join_keys(np.zeros(0, dtype=np.uint64), 6)


def test_join_index_table_n5_rows():
    V = generate_layer(5).values
    J = intervals._join_index_table(V, 5)
    rows = [0, len(V) - 1] + np.random.default_rng(5).integers(0, len(V), 100).tolist()
    for i in rows:
        assert np.array_equal(J[i], np.searchsorted(V, V[i] | V))


@pytest.mark.parametrize("n", range(4))
def test_k4_sum_over_every_quadruple_is_lambda(n):
    # the definition's k = 4 sum runs over every (a, b, c, h); a product
    # is nonzero only where dual(h) <= a, b, c <= h, the range the kernels
    # sum over
    v = np.array(slow_layer(n), dtype=np.uint64)
    vd = np.array([slow_dual(n, int(x)) for x in v], dtype=np.uint64)
    RE = interval_matrix(v).astype(np.int64)  # RE[x, h] = re(v[x], v[h])
    a, b, c = np.indices((len(v),) * 3).reshape(3, -1)
    factors = [
        RE[np.searchsorted(v, x | y | z)]  # one row per (a, b, c), one column per h
        for x, y, z in [(v[a], v[b], v[c]), (v[a], vd[b], vd[c]), (vd[a], v[b], vd[c]), (vd[a], vd[b], v[c])]
    ]
    product = factors[0] * factors[1] * factors[2] * factors[3]
    assert int(product.sum()) == LAMBDA_KNOWN[n + 4]
    in_range = np.ones(product.shape, dtype=bool)
    for x in (v[a], v[b], v[c]):
        in_range &= ((vd[None, :] & ~x[:, None]) == 0) & ((x[:, None] & ~v[None, :]) == 0)
    assert not product[~in_range].any()


@pytest.mark.parametrize("n", [3, 4])
def test_top_block_sums_match_the_definition(n, monkeypatch):
    # every top block h with dual(h) <= h, every a in [dual(h), h].  With
    # chunks of 1, 7 and 64 the chunks of L end ragged, the self-dual
    # elements (12 at the top block of n = 4) span several chunks, and
    # intervals are smaller than one chunk; with blocks of 5 rows, blocks
    # end short inside chunks, and with 512 one block holds every window.
    # The gather's blocks are as many rows of a chunk
    layer = generate_layer(n)
    V = layer.values
    tops = np.nonzero((vecbits.dual_array(V, n) & ~V) == 0)[0]
    tables = counting._k4_tables(layer, None)
    by_top = dual_intervals(V, n, tops)
    # the pairs dual(h) <= a <= h are plus2's terms, so they count lambda_{n+2}
    assert sum(len(a_idx) for a_idx in by_top.values()) == LAMBDA_KNOWN[n + 2]
    for ih, a_idx in by_top.items():
        expect = definition_sums(V, n, int(V[ih]), V[a_idx])
        for chunk, block in ((1, 512), (7, 512), (64, 512), (64, 5)):
            monkeypatch.setattr(counting, "_PRUNED_CHUNK", chunk)
            monkeypatch.setattr(counting, "_ROW_BLOCK", block)
            monkeypatch.setattr(intervals, "_GATHER_BLOCK", block * chunk)
            assert counting._top_block_sums(tables, a_idx, a_idx) == expect


@pytest.mark.parametrize("n", [3, 4])
def test_top_block_products_are_invariant_under_the_orbit_group(n):
    # T(b, c) = T(c, b) = T(b*, c*) at every (a, h), from the definition
    # alone: the identity behind the kernel's orbit weights
    V = generate_layer(n).values
    for h in V.tolist():
        hd = slow_dual(n, h)
        if hd & ~h:
            continue
        I = V[((V & ~np.uint64(h)) == 0) & ((np.uint64(hd) & ~V) == 0)]
        dual_pos = np.searchsorted(I, [slow_dual(n, b) for b in I.tolist()])
        for T in top_block_products(V, n, h, I):
            assert np.array_equal(T, T.T)
            assert np.array_equal(T, T[np.ix_(dual_pos, dual_pos)])


def _never_the_matrix(*args, **kwargs):
    raise AssertionError("an interval-matrix row was built")


def _key_joins(tables, rows):
    """The key join of the kernel, Jlo[x0, y0] + Jhi[x1, y1], for each x
    of rows and every y of the layer, and the key of V[x] | V[y] found by
    search."""
    V, _, keys, i0, i1, Jlo, Jhi = tables
    got = Jlo[i0[rows][:, None], i0[None, :]] + Jhi[i1[rows][:, None], i1[None, :]]
    return got, keys[np.searchsorted(V, V[rows][:, None] | V[None, :])]


@pytest.mark.parametrize("n", range(5))
def test_k4_tables_hold_the_rows_the_kernel_reads(n, monkeypatch):
    # the layer, the index of each dual, distinct pair keys whose key join
    # is the key of x | y on every pair, and no row of the interval matrix
    # or of the layer-indexed join table
    monkeypatch.setattr(counting, "build_full_table", _never_the_matrix)
    monkeypatch.setattr(counting, "_join_index_table", _never_the_matrix)
    layer = generate_layer(n)
    tables = counting._k4_tables(layer, None)
    V, dual_idx, keys, _, _, Jlo, Jhi = tables
    assert V is layer.values
    assert V[dual_idx].tolist() == [slow_dual(n, x) for x in V.tolist()]
    assert len(np.unique(keys)) == len(V) and keys.max() < len(Jlo) * len(Jhi) == intervals.key_count(n)
    got, expect = _key_joins(tables, np.arange(len(V)))
    assert np.array_equal(got, expect)


def test_k4_key_join_n5_rows():
    # the seeded rows of test_join_index_table_n5_rows
    tables = counting._k4_tables(generate_layer(5), None)
    V, keys = tables[0], tables[2]
    assert len(np.unique(keys)) == len(V)
    rows = [0, len(V) - 1] + np.random.default_rng(5).integers(0, len(V), 100).tolist()
    got, expect = _key_joins(tables, np.array(rows))
    assert np.array_equal(got, expect)


def test_pruned_routes_build_no_join_table_at_base5(base5, monkeypatch):
    # the kernels read joins by pair key: pruned plus4 and plus4c at base 5
    # build no d x d join-index table of D_5 (D_4's, 168 x 168, gives the keys)
    real = intervals._join_index_table

    def below_five(V, n):
        assert n < 5, "the join-index table of D_5 was built"
        return real(V, n)

    monkeypatch.setattr(intervals, "_join_index_table", below_five)
    monkeypatch.setattr(counting, "_join_index_table", below_five)
    layer, cl = base5
    by_rep = {c.representative.bits: c for c in cl}
    bottom = by_rep[0x00000000]
    assert lambda_plus4_direct(layer, [bottom]).value == 2_414_682_040_998
    # plus4c's task of the class h with the smallest [h*, h], its orbit
    # sum against the kernel at every a; plus4c stops at base 4 for its
    # budget, so the cap is lifted for this one class
    monkeypatch.setitem(counting._BASE_MAX, "plus4c", 5)
    V = layer.values
    summed = [c for c in cl if c.representative.dual().bits & ~c.representative.bits == 0
              and 2 * c.representative.bits.bit_count() > 32]
    tops = np.searchsorted(V, [c.representative.bits for c in summed])
    by_top = dual_intervals(V, 5, tops)
    c, ih = min(zip(summed, tops.tolist()), key=lambda pair: len(by_top[pair[1]]))
    I = by_top[ih]
    tables = counting._k4_tables(layer, None)
    expect = c.gamma * sum(counting._top_block_sums(tables, I, I)) + LAMBDA_KNOWN[5]
    assert lambda_plus4_classes(layer, [c], budget_mb=1 << 20).value == expect


@pytest.mark.parametrize("n", range(5))
def test_pruned_routes_build_no_matrix_row(n, classes, monkeypatch):
    # each top-block task counts its own column over [h*, h]
    monkeypatch.setattr(counting, "build_full_table", _never_the_matrix)
    layer, cl = setup(n, classes)
    assert lambda_plus4_direct(layer, cl).value == LAMBDA_KNOWN[n + 4]
    assert lambda_plus4_classes(layer, cl).value == LAMBDA_KNOWN[n + 4]


@pytest.mark.parametrize("chunk", [1, 7, 64])
@pytest.mark.parametrize("n", [3, 4])
def test_plus4_pruned_half_sum_over_many_chunks(n, chunk, classes, monkeypatch):
    # intervals span several chunks of c, so the pairs of one orbit of
    # (b, c) fall in different chunks; with 7 most intervals end in a
    # ragged chunk.  plus4c sums through the same kernel
    monkeypatch.setattr(counting, "_PRUNED_CHUNK", chunk)
    layer, cl = setup(n, classes)
    assert lambda_plus4_direct(layer, cl, strategy="pruned").value == LAMBDA_KNOWN[n + 4]
    assert lambda_plus4_classes(layer, cl).value == LAMBDA_KNOWN[n + 4]


def test_plus4_pruned_schedules_longest_first(classes, monkeypatch):
    layer, cl = setup(4, classes)
    V = layer.values
    duals = vecbits.dual_array(V, 4)
    calls = []
    real = parallel.run_tasks

    def spy(fn, tasks, *args, **kwargs):
        calls.append((list(tasks), kwargs["weights"]))
        return real(fn, tasks, *args, **kwargs)

    monkeypatch.setattr(parallel, "run_tasks", spy)
    assert lambda_plus4_direct(layer, cl, strategy="pruned").value == LAMBDA_KNOWN[8]
    [(submitted, weights)] = calls
    # one task per top block h with dual(h) <= h and some kept class under it
    kept, _ = counting.fold_dual_classes(cl, 4)
    spans = [c.representative.bits | c.representative.dual().bits for c in kept]
    assert len(set(submitted)) == len(submitted)
    for ih, w in zip(submitted, weights):
        h = int(V[ih])
        assert int(duals[ih]) & ~h == 0
        size = sum(1 for z in V.tolist() if int(duals[ih]) & ~z == 0 and z & ~h == 0)
        under = sum(1 for u in spans if u & ~h == 0)
        assert under > 0 and w == size * size * under
    assert weights == sorted(weights, reverse=True)
    assert weights[0] > weights[-1]
    assert sum(weights) == plus4_pruned_term_count(layer, kept)


@pytest.mark.parametrize("n", range(5))
def test_plus3_and_plus4c_submit_the_same_class_tasks(n, classes, monkeypatch):
    # both routes run one task per class h with dual(h) <= h and weight(h)
    # > 2^(n-1), longest interval [dual(h), h] first, ties by class index
    layer, cl = setup(n, classes)
    submitted = []
    real = parallel.run_tasks

    def spy(fn, tasks, *args, **kwargs):
        if fn.__module__ == counting.__name__:
            submitted.append(list(tasks))
        return real(fn, tasks, *args, **kwargs)

    monkeypatch.setattr(parallel, "run_tasks", spy)
    assert lambda_plus3(layer, cl).value == LAMBDA_KNOWN[n + 3]
    assert lambda_plus4_classes(layer, cl).value == LAMBDA_KNOWN[n + 4]
    plus3_tasks, plus4c_tasks = submitted
    assert plus3_tasks == plus4c_tasks

    def interval(h):
        hd = int(vecbits.dual_array(np.array([h], dtype=np.uint64), n)[0])
        return [z for z in layer.values.tolist() if hd & ~z == 0 and z & ~h == 0]

    tops = {
        ci: c.representative.bits
        for ci, c in enumerate(cl)
        if c.representative.dual().bits & ~c.representative.bits == 0
        and 2 * c.representative.bits.bit_count() > 1 << n
    }
    expected = sorted(tops, key=lambda ci: (-len(interval(tops[ci])), ci))
    assert plus3_tasks == expected


def _dual_class(c, cl):
    dual_rep = min(slow_orbit(c.representative.n, c.representative.dual().bits))
    [match] = [d for d in cl if d.representative.bits == dual_rep]
    return match


def test_plus4_pruned_dual_classes_have_equal_partials(classes):
    layer, cl = setup(4, classes)
    partial = {
        c.representative.bits: lambda_plus4_direct(layer, [c], strategy="pruned").value for c in cl
    }
    self_dual = 0
    for c in cl:
        d = _dual_class(c, cl)
        self_dual += d is c
        assert partial[c.representative.bits] == partial[d.representative.bits]
    assert 0 < self_dual < len(cl)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_plus4_pruned_grouped_call_equals_single_calls(seed, classes):
    layer, cl = setup(4, classes)
    rng = random.Random(seed)
    pair = rng.choice([c for c in cl if _dual_class(c, cl) is not c])
    self_dual = rng.choice([c for c in cl if _dual_class(c, cl) is c])
    subset = [pair, _dual_class(pair, cl), self_dual] + rng.sample(cl, 6)
    rng.shuffle(subset)
    single = sum(lambda_plus4_direct(layer, [c], strategy="pruned").value for c in subset)
    assert lambda_plus4_direct(layer, subset, strategy="pruned").value == single


@pytest.fixture(scope="module")
def base5():
    layer = generate_layer(5)
    return layer, orbits.classify(layer)


def test_fold_dual_classes_n5(base5):
    layer, cl = base5
    kept, mult = counting.fold_dual_classes(cl, 5)
    assert (len(kept), mult.count(1), mult.count(2)) == (112, 14, 98)
    assert sum(c.gamma * k for c, k in zip(kept, mult)) == len(layer)
    assert plus4_pruned_term_count(layer, cl) == 417_628_327_127
    assert plus4_pruned_term_count(layer, kept) == 227_793_759_723


def test_pruned_terms_cut_intervals_only_under_a_class(base5, monkeypatch):
    # [dual(h), h] is cut only for the tops h >= a | a* of some class a,
    # one top at a time: none for no class, only the top for the bottom
    # class (whose dual is the top), and the 1,704 task intervals of a
    # full lambda_9
    layer, cl = base5
    V = layer.values
    cut = []
    real = counting._dual_intervals

    def spy(V, tops, duals):
        cut.append(tops.tolist())
        return real(V, tops, duals)

    monkeypatch.setattr(counting, "_dual_intervals", spy)
    assert lambda_plus4_direct(layer, []).value == 0
    assert cut == []
    cut.clear()
    [bottom] = [c for c in cl if c.representative.bits == 0]
    assert plus4_pruned_term_count(layer, [bottom]) == len(layer) ** 2
    assert cut == [[len(layer) - 1]]
    cut.clear()
    assert plus4_pruned_term_count(layer, cl) == 417_628_327_127
    assert all(len(tops) == 1 for tops in cut)
    joins = [slow_dual(5, h) | h for h in (c.representative.bits for c in cl)]
    expect = [
        ih for ih, h in enumerate(V.tolist())
        if slow_dual(5, h) & ~h == 0 and any(j & ~h == 0 for j in joins)
    ]
    assert len(expect) == 1_704
    assert sorted(ih for [ih] in cut) == expect


def test_pruned_term_count_takes_each_dual_array_once(base5, monkeypatch):
    # the classes' duals and the layer's: no dual of one top per interval
    layer, cl = base5
    calls = []
    real = vecbits.dual_array

    def spy(values, n):
        calls.append(len(values))
        return real(values, n)

    monkeypatch.setattr(vecbits, "dual_array", spy)
    assert plus4_pruned_term_count(layer, cl) == 417_628_327_127
    assert len(calls) <= 2, calls


def test_pruned_term_count_holds_no_interval_table(base5):
    # every class of the n = 5 layer: the 1,704 intervals are sized one at
    # a time and the classes under each top counted by one subset test per
    # class, so no interval table or class-by-top matrix is held
    layer, cl = base5
    tracemalloc.start()
    try:
        assert plus4_pruned_term_count(layer, cl) == 417_628_327_127
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6, f"peak {peak / 1e6:.2f} MB"


def test_top_block_sums_match_the_definition_base5(base5, monkeypatch):
    # seeded (a, h) pairs over the top blocks with |[dual(h), h]| <= 400
    layer, _ = base5
    V = layer.values
    tops = np.nonzero((vecbits.dual_array(V, 5) & ~V) == 0)[0]
    tables = counting._k4_tables(layer, None)
    by_top = dual_intervals(V, 5, tops)
    small = [ih for ih in tops.tolist() if len(by_top[ih]) <= 400]
    rng = random.Random(22)
    for ih in rng.sample(small, 22):
        ia = int(rng.choice(by_top[ih]))
        got = counting._top_block_sums(tables, by_top[ih], [ia])
        assert got == definition_sums(V, 5, int(V[ih]), [V[ia]])
    # the block with the most self-dual elements (20 of m = 400), in
    # chunks of 7 and blocks of 5 rows, and gathers of 5 rows of a chunk:
    # the pass over them spans three chunks, and every window of rows ends
    # in a short block
    dual_idx = tables[1]
    ih = max(small, key=lambda j: np.count_nonzero(dual_idx[by_top[j]] == by_top[j]))
    I = by_top[ih]
    assert np.count_nonzero(dual_idx[I] == I) == 20
    monkeypatch.setattr(counting, "_PRUNED_CHUNK", 7)
    monkeypatch.setattr(counting, "_ROW_BLOCK", 5)
    monkeypatch.setattr(intervals, "_GATHER_BLOCK", 5 * 7)
    a_idx = [int(ia) for ia in rng.sample(I.tolist(), 6)] + [int(I[0]), int(I[-1])]
    got = counting._top_block_sums(tables, I, a_idx)
    assert got == definition_sums(V, 5, int(V[ih]), V[a_idx])


def test_top_block_budget_estimate_covers_the_peak(base5):
    # the top block (m = 7,581) for a few a: tracemalloc sees every numpy
    # buffer the call allocates
    layer, _ = base5
    V = layer.values
    ih = len(V) - 1
    I = dual_intervals(V, 5, [ih])[ih]
    tables = counting._k4_tables(layer, None)
    a_idx = I[::1500]
    tracemalloc.start()
    try:
        counting._top_block_sums(tables, I, a_idx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    need = counting._top_block_bytes(intervals.key_count(5), len(I), len(a_idx))
    assert need / 2 < peak <= need, f"estimate {need / 1e6:.2f} MB, peak {peak / 1e6:.2f} MB"


@pytest.mark.parametrize("m", [7_581, 7_246])
def test_plus3_sums_match_the_subset_formula_base5(base5, m, monkeypatch):
    # the orbit representatives of the top block (210, so its blocks of 64
    # end with one of 18) and of the block of 7,246 elements (561, ending
    # with one of 49), in gather blocks of 5 rows that end short in the
    # prefixes
    monkeypatch.setattr(intervals, "_GATHER_BLOCK", 5 * counting._PLUS3_BLOCK)
    layer, cl = base5
    V = layer.values
    hs = [c.representative.bits for c in cl]
    tops = np.searchsorted(V, [h for h in hs if slow_dual(5, h) & ~h == 0])
    [(ih, I)] = [(ih, I) for ih, I in dual_intervals(V, 5, tops).items() if len(I) == m]
    reps = orbits.stabilizer_orbits(int(V[ih]), V[I], 5)[0]
    assert len(reps) % counting._PLUS3_BLOCK in (18, 49)
    tables = counting._k4_tables(layer, None)
    assert counting._plus3_sums(tables, I, reps) == slow_plus3_sums(V[I], 5, reps)


# the largest [h*, h] whose plus3 class task is checked against the
# definition, which is cubic in m: 62 of the 80 base-5 tasks, about 1.5 s
PLUS3_DEFINITION_MAX_M = 1_296


def test_plus3_classes_match_the_definition_base5(base5):
    # the tasks of the summed classes h (dual(h) <= h, weight(h) > 2^4)
    # with the smallest [h*, h]
    layer, cl = base5
    V = layer.values
    closed = self_dual_brute(5)
    checked = 0
    for c in cl:
        h = c.representative.bits
        if slow_dual(5, h) & ~h or 2 * h.bit_count() <= 32:
            continue
        ih = int(np.searchsorted(V, h))
        if len(dual_intervals(V, 5, [ih])[ih]) > PLUS3_DEFINITION_MAX_M:
            continue
        assert lambda_plus3(layer, [c]).value - closed == c.gamma * _plus3_definition(V, 5, h), hex(h)
        checked += 1
    assert checked == 62


def test_plus3_budget_estimate_covers_the_peak(base5):
    # the top block (m = 7,581): its 210 orbit representatives, and the
    # lowest b, whose prefixes reach the top, in full blocks; tracemalloc
    # sees every numpy buffer the call allocates
    layer, _ = base5
    V = layer.values
    ih = len(V) - 1
    I = dual_intervals(V, 5, [ih])[ih]
    tables = counting._k4_tables(layer, None)
    peaks = []
    for reps in (orbits.stabilizer_orbits(int(V[ih]), V[I], 5)[0], np.arange(3 * counting._PLUS3_BLOCK)):
        tracemalloc.start()
        try:
            counting._plus3_sums(tables, I, reps)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    need = counting._plus3_bytes(intervals.key_count(5), len(I))
    assert need / 2 < max(peaks) <= need, f"estimate {need / 1e6:.2f} MB, peaks {[p / 1e6 for p in peaks]} MB"


def test_plus4_pruned_base5_class_and_its_dual(base5, monkeypatch):
    # partial sums from perfbench/lambda9_sample.json, with no interval-matrix row
    monkeypatch.setattr(counting, "build_full_table", _never_the_matrix)
    layer, cl = base5
    by_rep = {c.representative.bits: c for c in cl}
    bottom, top = by_rep[0x00000000], by_rep[0xFFFFFFFF]
    partial = 2_414_682_040_998
    assert lambda_plus4_direct(layer, [bottom], strategy="pruned").value == partial
    assert lambda_plus4_direct(layer, [bottom, top], strategy="pruned").value == 2 * partial


def test_plus4_pruned_base5_sample_middle_classes(base5):
    # partial sums from perfbench/lambda9_sample.json; these two classes
    # reach the three largest top blocks (|[h*, h]| = 7,581, 7,579, 7,246)
    layer, cl = base5
    by_rep = {c.representative.bits: c for c in cl}
    middle = [by_rep[0x80000000], by_rep[0x80008000]]
    assert lambda_plus4_direct(layer, middle).value == 12_035_307_926_839 + 161_314_983_723_895


def test_exact_product_bound_at_the_edge():
    counting._require_exact_products(7581)  # the widest interval at n=5
    counting._require_exact_products(8191)
    with pytest.raises(VerificationError, match="2\\^52"):
        counting._require_exact_products(8192)  # 8192^4 = 2^52


class _InflatedLayer(Layer):
    # the n = 2 layer, claiming 8192 elements: an interval count can reach
    # the layer's size, so its four-way products could reach 8192^4 = 2^52
    size = 8192

    def __len__(self):
        return self.size


@pytest.mark.parametrize("route", ["dense", "pruned", "plus4c"])
def test_plus4_refuses_counts_beyond_exact_range(route, classes, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a table was built or a task was submitted")

    for module, name in [(counting, "build_full_table"), (counting, "_join_index_table"), (parallel, "run_tasks")]:
        monkeypatch.setattr(module, name, never)
    layer, cl = setup(2, classes)
    layer = _InflatedLayer(layer.n, layer.values)
    with pytest.raises(VerificationError, match="2\\^52"):
        if route == "plus4c":
            lambda_plus4_classes(layer, cl)
        else:
            lambda_plus4_direct(layer, cl, strategy=route)


def test_dense_plus4_refuses_products_beyond_uint16(classes, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a table was built or a task was submitted")

    for module, name in [
        (counting, "build_full_table"), (counting, "_join_index_table"), (counting, "join_keys"), (parallel, "run_tasks"),
    ]:
        monkeypatch.setattr(module, name, never)
    layer, cl = setup(2, classes)
    # at 256 elements four-way products stay below 2^52, but a product of
    # two reaches 2^16; 255^2 < 2^16, so the first table is built
    layer = _InflatedLayer(layer.n, layer.values)
    monkeypatch.setattr(_InflatedLayer, "size", 256)
    with pytest.raises(VerificationError, match="2\\^16"):
        lambda_plus4_direct(layer, cl, strategy="dense")
    monkeypatch.setattr(_InflatedLayer, "size", 255)
    with pytest.raises(AssertionError, match="a table was built"):
        lambda_plus4_direct(layer, cl, strategy="dense")


def test_plus4_pruned_refuses_chunks_beyond_exact_sums(classes, monkeypatch):
    counting._require_exact_chunk_sums(2048)  # 2^11 * 2^52 = 2^63
    monkeypatch.setattr(counting, "_PRUNED_CHUNK", 4096)

    def never(*args, **kwargs):
        raise AssertionError("a task was submitted")

    monkeypatch.setattr(parallel, "run_tasks", never)
    layer, cl = setup(2, classes)
    with pytest.raises(VerificationError, match="2\\^63"):
        lambda_plus4_direct(layer, cl, strategy="pruned")
    with pytest.raises(VerificationError, match="2\\^63"):
        lambda_plus4_classes(layer, cl)


def test_plus4_pruned_term_count_matches_direct_loop(classes):
    for n in range(3):
        layer, cl = setup(n, classes)
        V = layer.values
        duals = vecbits.dual_array(V, n)
        total = 0
        for c in cl:
            u = c.representative.bits | c.representative.dual().bits
            for hi, h in enumerate(V):
                if int(duals[hi]) & ~int(h) or u & ~int(h):
                    continue
                size = sum(
                    1
                    for z in V
                    if int(duals[hi]) & ~int(z) == 0 and int(z) & ~int(h) == 0
                )
                total += size * size
        assert plus4_pruned_term_count(layer, cl) == total


def test_cross_method_agreement_small(classes):
    for target in (4, 5, 6):
        values = {lambda_brute(target).value}
        values.add(lambda_plus2(*setup(target - 2, classes)).value)
        if target - 3 >= 0:
            values.add(lambda_plus3(*setup(target - 3, classes)).value)
        if target - 4 >= 0:
            values.add(lambda_plus4_direct(*setup(target - 4, classes)).value)
            values.add(lambda_plus4_classes(*setup(target - 4, classes)).value)
        assert len(values) == 1


def partials_and_value(run, stabilizer_orbits):
    """The per-class partial sums and the value of run(), with the given
    orbit helper in place of orbits.stabilizer_orbits."""
    real = parallel.run_tasks
    parts = []

    def recording(*args, **kwargs):
        out = real(*args, **kwargs)
        parts.extend(out)
        return out

    with pytest.MonkeyPatch.context() as m:
        m.setattr(parallel, "run_tasks", recording)
        m.setattr(orbits, "stabilizer_orbits", stabilizer_orbits)
        return parts, run().value


@pytest.mark.parametrize("n", range(5))
def test_orbit_reduction_equals_the_unreduced_sum(n, classes):
    # the trivial partition, every value its own orbit of size 1, turns each
    # reduced loop back into the plain loop over every element
    calls = []

    def trivial(fixed, values, n):
        calls.append(fixed)
        k = len(values)
        return np.arange(k), np.arange(k), np.ones(k, dtype=np.int64)

    layer, cl = setup(n, classes)
    runs = {
        n + 3: lambda: lambda_plus3(layer, cl),
        n + 4: lambda: lambda_plus4_classes(layer, cl),
    }
    for target, run in runs.items():
        calls.clear()
        reduced = partials_and_value(run, orbits.stabilizer_orbits)
        unreduced = partials_and_value(run, trivial)
        assert len(calls) == len(unreduced[0])  # one walk per class task
        # each walk fixes the top block h of its task, h >= dual(h)
        duals = vecbits.dual_array(np.array(calls, dtype=np.uint64), n).tolist()
        assert all(hd & ~h == 0 for h, hd in zip(calls, duals))
        assert reduced == unreduced
        assert reduced[1] == LAMBDA_KNOWN[target]


def test_partial_sums_order_independent(classes):
    # per-class contributions merged in any order give the same exact value
    layer, cl = setup(4, classes)
    parts, reference = partials_and_value(lambda: lambda_plus3(layer, cl), orbits.stabilizer_orbits)
    assert len(parts) > 1
    base = counting.self_dual_brute(4)
    assert base + sum(parts) == reference == LAMBDA_KNOWN[7]
    rng = random.Random(5)
    for _ in range(10):
        shuffled = parts[:]
        rng.shuffle(shuffled)
        assert base + sum(shuffled) == reference


def test_workers_do_not_change_values(classes):
    layer, cl = setup(4, classes)
    for fn in (lambda_plus2, lambda_plus3, lambda_plus4_direct):
        assert fn(layer, cl, workers=1).value == fn(layer, cl, workers=2).value
    dense = [lambda_plus4_direct(layer, cl, workers=w, strategy="dense") for w in (1, 2)]
    assert [r.value for r in dense] == [LAMBDA_KNOWN[8]] * 2
    assert (
        lambda_plus4_classes(layer, cl, workers=1).value
        == lambda_plus4_classes(layer, cl, workers=2).value
    )
    pruned = [lambda_plus4_direct(layer, cl, workers=w, strategy="pruned") for w in (1, 2)]
    assert [r.value for r in pruned] == [LAMBDA_KNOWN[8]] * 2


def test_exact_sum():
    rng = np.random.default_rng(17)
    a = rng.integers(0, 1 << 52, size=4321, dtype=np.int64)
    assert exact_sum(a) == sum(int(v) for v in a)
    assert exact_sum(np.array([], dtype=np.int64)) == 0
    big = np.full(10_000, (1 << 52) - 1, dtype=np.int64)
    assert exact_sum(big) == 10_000 * ((1 << 52) - 1)
    # the pruned kernel's chunk sums: up to 2^11 products below 2^52 each
    chunk_sums = np.full(7_581, (1 << 63) - 1, dtype=np.int64)
    assert exact_sum(chunk_sums) == 7_581 * ((1 << 63) - 1)


def test_record_format():
    r = LambdaResult(8, "plus4", 229809982112, 4, 1.23456)
    assert r.record() == "lambda n=8 method=plus4 value=229809982112 base_n=4 seconds=1.235"


def test_lambda_any_dispatch():
    assert lambda_any(0, "brute").value == 0
    assert lambda_any(6, "brute").value == 2646
    assert lambda_any(4, "plus4").value == 12
    got = lambda_any(5, "plus4c")
    assert got.value == 81 and got.base_n == 1 and got.n_target == 5


def test_lambda_any_unsupported_combinations():
    with pytest.raises(UnsupportedCombinationError):
        lambda_any(1, "plus2")
    with pytest.raises(UnsupportedCombinationError):
        lambda_any(9, "plus2")  # would need the n=7 classes
    with pytest.raises(UnsupportedCombinationError):
        lambda_any(9, "plus4c")
    with pytest.raises(UnsupportedCombinationError):
        lambda_any(10, "plus4")
    with pytest.raises(UnsupportedCombinationError):
        lambda_any(7, "brute")
    with pytest.raises(UnsupportedCombinationError):
        lambda_any(4, "magic")


def test_method_budget_refusals(classes):
    layer5, cl5 = setup(5, classes)
    with pytest.raises(BudgetError, match="needs ~11 MB"):
        lambda_plus4_direct(layer5, cl5, budget_mb=10)  # the n=5 key tables and kernel refused
    with pytest.raises(BudgetError, match="needs ~21 MB"):
        lambda_plus4_direct(layer5, cl5, workers=2, budget_mb=10)  # and a second worker's kernel
    with pytest.raises(BudgetError, match="needs ~8 MB"):
        lambda_plus3(layer5, cl5, budget_mb=7)  # the n=5 key tables and plus3's buffers
    with pytest.raises(BudgetError, match="needs ~15 MB"):
        lambda_plus3(layer5, cl5, workers=2, budget_mb=7)
    with pytest.raises(BudgetError, match="per b"):
        lambda_plus4_direct(layer5, cl5, strategy="dense")
    with pytest.raises(BudgetError):
        lambda_plus4_classes(layer5, cl5)
    with pytest.raises(BudgetError):
        lambda_plus3(generate_layer(6), [])


def test_k4_tables_refuse_the_matrix_and_join_index_together(classes, monkeypatch):
    # the dense reference's matrix and J each fit the budget at n=4, but
    # not together; at n=5 the key tables fit, but not with the pruned
    # kernel's buffers.  Both are refused before any table is built
    def never(*args, **kwargs):
        raise AssertionError("a table was built")

    monkeypatch.setattr(counting, "build_full_table", never)
    monkeypatch.setattr(counting, "_join_index_table", never)
    monkeypatch.setattr(counting, "join_keys", never)
    layer4, cl4 = setup(4, classes)
    matrix, join = intervals.full_table_bytes(len(layer4)) / 1e6, intervals.join_index_bytes(len(layer4)) / 1e6
    budget_mb = 0.5
    assert max(matrix, join) <= budget_mb < matrix + join
    with pytest.raises(BudgetError, match="k = 4 tables"):
        lambda_plus4_direct(layer4, cl4, budget_mb=budget_mb, strategy="dense")
    layer5, cl5 = setup(5, classes)
    budget_mb = 10
    assert intervals.k4_table_bytes(len(layer5)) / 1e6 <= budget_mb
    with pytest.raises(BudgetError, match="k = 4 tables"):
        lambda_plus4_direct(layer5, cl5, budget_mb=budget_mb)


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_k4_tables_estimate_covers_the_measured_peak():
    # a fresh process, so ru_maxrss grows only by the n=5 tables' build.  A
    # process inherits its parent's peak RSS through exec, so the build
    # runs in a child of a small launcher, not of this process
    code = (
        "import resource\n"
        "from mbfcount import counting\n"
        "from mbfcount.layers import generate_layer\n"
        "layer = generate_layer(5)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "counting._k4_tables(layer, None)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
    )
    launch = (
        "import subprocess, sys\n"
        f"sys.exit(subprocess.run([sys.executable, '-c', {code!r}]).returncode)\n"
    )
    src = str(Path(counting.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", launch], env=env, capture_output=True, text=True, check=True)
    grown = int(out.stdout) * 1024  # ru_maxrss is in KiB on Linux
    need = intervals.k4_table_bytes(len(generate_layer(5)))
    assert grown <= need <= 1.5 * grown, f"estimate {need / 1e6:.1f} MB, peak RSS grew {grown / 1e6:.1f} MB"


def test_verify_result():
    verify_result(LambdaResult(4, "brute", 12, 4, 0.0))
    with pytest.raises(VerificationError):
        verify_result(LambdaResult(4, "brute", 13, 4, 0.0))
    # unknown targets pass through unchecked
    verify_result(LambdaResult(10, "plus4", 1, 6, 0.0))


def test_lambda_any_verify_flag(monkeypatch):
    monkeypatch.setitem(LAMBDA_KNOWN, 3, 5)
    with pytest.raises(VerificationError):
        lambda_any(3, "brute")
    assert lambda_any(3, "brute", verify=False).value == 4

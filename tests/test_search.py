import tracemalloc
from functools import cache
from itertools import permutations
from math import factorial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qlsmub import search
from qlsmub.search import (
    EquivalenceReport,
    count_latin,
    count_latin_by_columns,
    count_orthogonal_pairs,
    cross_validate_lemma16,
)
from qlsmub.squares import LatinSquare, are_orthogonal

from helpers import (
    assert_is_the_oracle, every_latin_cells, field_square, force_the_perm_route,
    reference_enumerate_latin, reference_lemma16, reference_orthogonal_pairs, reference_squares,
    representative_pairs,
)

KNOWN_COUNTS = {1: 1, 2: 2, 3: 12, 4: 576}


def test_latin_counts_from_the_reduced_table():
    assert [count_latin(n) for n in (1, 2, 3, 4, 5, 6)] == [1, 2, 12, 576, 161280, 812851200]
    assert [count_latin_by_columns(n) for n in (1, 2, 3, 4)] == [1, 2, 12, 576]


SEARCHES = [count_latin, count_latin_by_columns, count_orthogonal_pairs, cross_validate_lemma16]


@pytest.mark.parametrize(
    "count, bad",
    [(count, bad) for count in SEARCHES for bad in (0, -2, 7, 2**63)]
    + [(cross_validate_lemma16, 6)],
)
def test_searches_refuse_an_order_out_of_range(count, bad):
    # refused before any arithmetic on the order (math.factorial overflows at
    # 2**63), and lemma16 at order 6 before it grows a table
    with pytest.raises(ValueError, match="out of range"):
        count(bad)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_the_reduced_table_is_the_reduced_rows_of_the_reference(n):
    table = search._latin_cells(n)
    full = reference_enumerate_latin(n)
    reduced = (full[:, 0] == np.arange(n)).all(axis=1) & (full[:, :, 0] == np.arange(n)).all(axis=1)
    assert table.shape == (reduced.sum(), n, n)
    assert table.dtype == np.int8 and not table.flags.writeable
    assert np.array_equal(table, full[reduced])


def test_order_five_reduced_table_is_strictly_increasing_and_small():
    # no oracle reaches order 5: the 56 reduced squares must be Latin, in
    # strictly increasing cell order.  numpy reports its buffers to
    # tracemalloc: growing them peaks at 0.03-0.04 MiB, against 0.66 MiB for
    # the 1,344 squares with first row 0..4
    tracemalloc.start()
    try:
        cells = search._latin_cells(5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16
    assert cells.shape == (56, 5, 5)
    assert (cells[:, 0] == np.arange(5)).all() and (cells[:, :, 0] == np.arange(5)).all()
    assert (np.sort(cells, axis=1) == np.arange(5)[:, None]).all()
    assert (np.sort(cells, axis=2) == np.arange(5)).all()
    flat = cells.reshape(len(cells), -1).astype(np.int64)
    diff = flat[1:] - flat[:-1]
    first = np.argmax(diff != 0, axis=1)  # the first cell in which neighbours differ
    assert (diff[np.arange(len(diff)), first] > 0).all()


def test_the_order_five_squares_the_tests_draw_are_every_latin_square():
    # the reduced table's relabellings with rows 1..4 permuted: the squares
    # drawn at order 5, where no reference fill runs, vary in first row and
    # first column, and none is missed or repeated
    cells = every_latin_cells(5)
    assert cells.shape == (count_latin(5), 5, 5)
    assert (np.sort(cells, axis=1) == np.arange(5)[:, None]).all()
    assert (np.sort(cells, axis=2) == np.arange(5)).all()
    assert len(np.unique(cells.reshape(len(cells), -1), axis=0)) == len(cells)


def test_a_table_that_is_not_latin_is_refused(monkeypatch):
    def with_a_repeated_symbol(symbols):
        yield from permutations(symbols)
        yield (0, 0, 2)

    monkeypatch.setattr(search, "permutations", with_a_repeated_symbol)
    # an empty table cache for this test alone, which builds the bad table
    monkeypatch.setattr(search, "_permutations", cache(search._permutations.__wrapped__))
    with pytest.raises(RuntimeError, match="not Latin"):
        search._latin_cells(3)


def test_orthogonal_pairs_small_orders():
    # order 1 has its one trivial self-pair, order 2 none
    assert [count_orthogonal_pairs(n) for n in (1, 2, 3, 4)] == [1, 0, 72, 6912]


def test_orthogonal_pairs_are_orthogonal_and_symmetric():
    squares = reference_squares(3)
    keyed = {
        (ia, ib)
        for ia, a in enumerate(squares)
        for ib, b in enumerate(squares)
        if are_orthogonal(a, b)
    }
    assert all((ib, ia) in keyed for ia, ib in keyed)
    assert count_orthogonal_pairs(3) == len(keyed)


def test_orthogonal_pairs_contain_the_two_cyclic_twists(monkeypatch):
    # on a reduced table of the cyclic square alone, its one mate with first
    # row 0..2 is the twist, its rows 1 and 2 swapped, weighted by the 3! 2!
    # squares of its orbit and the 3! relabellings of the twist.  The cyclic
    # square of order 4 has no transversal, so no mate.
    cyclic = [[(r + c) % 3 for c in range(3)] for r in range(3)]
    twisted = [cyclic[0], cyclic[2], cyclic[1]]
    assert twisted == [[(2 * r + c) % 3 for c in range(3)] for r in range(3)]
    assert are_orthogonal(LatinSquare(cyclic), LatinSquare(twisted))
    cyclic4 = [[(r + c) % 4 for c in range(4)] for r in range(4)]
    for n, table, mates in ((3, [cyclic], 1), (4, [cyclic4], 0)):
        cells = np.array(table, dtype=np.int8)
        monkeypatch.setattr(search, "_latin_cells", lambda n, cells=cells: cells)
        assert count_orthogonal_pairs(n) == mates * factorial(n) * factorial(n) * factorial(n - 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_orthogonal_pairs_counted_on_reduced_squares_are_the_listed_ones(n):
    assert count_orthogonal_pairs(n) == len(reference_orthogonal_pairs(n))


def test_order_six_has_no_orthogonal_pair_and_a_small_count():
    # Tarry (1900).  numpy reports its buffers to tracemalloc: the 9,408
    # reduced squares against the 720 permutations make a 6.5 MiB int8 table
    # of the symbols each meets and a bool transversal table as large; with
    # both alive the partial covers take the count to a peak of 15.4 MiB
    tracemalloc.start()
    try:
        count = count_orthogonal_pairs(6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 0
    assert peak < 24 * 2**20


def test_order_six_squares_are_counted_in_a_small_peak():
    # numpy reports its buffers to tracemalloc: growing the 9,408 reduced
    # squares peaks at about 1.3 MiB in blocks of 2**15 tests, against
    # 7.1 MiB for one (6,552, 120) int64 table of the last grown row's tests
    tracemalloc.start()
    try:
        count = count_latin(6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 812_851_200
    assert peak < 2 * 2**20


@cache
def first_row_squares(n: int) -> list[LatinSquare]:
    cells = every_latin_cells(n)
    return [LatinSquare(b) for b in cells[(cells[:, 0] == np.arange(n)).all(axis=1)]]


@settings(max_examples=30, deadline=None, database=None)
@given(index=st.integers(0, count_latin(5) - 1))
@example(index=44698)  # (2r + c + 1) mod 5, not reduced; most draws have no mate
def test_each_square_counts_its_partitions_into_transversals(index):
    # on a table of one square, reduced or not, the count is n! n! (n-1)!
    # times its partitions into transversals, which are its mates with first
    # row 0..n-1 (the transversal through cell (0, c) holds symbol c)
    a = every_latin_cells(5)[index]
    mates = sum(are_orthogonal(LatinSquare(a), b) for b in first_row_squares(5))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, "_latin_cells", lambda n: a[None])
        assert count_orthogonal_pairs(5) == mates * factorial(5) ** 2 * factorial(4)


@pytest.mark.parametrize(
    "n, positives", [(1, 1), (2, 0), (3, 72), (4, 6912)]
)
def test_cross_validation_agrees(n, positives):
    report = cross_validate_lemma16(n)
    assert isinstance(report, EquivalenceReport)
    assert report.ok
    assert report.disagreements == []
    assert report.pairs_checked == KNOWN_COUNTS[n] ** 2
    assert report.positives == positives
    # reduced squares (McKay and Wanless) times squares with first column 0..n-1
    assert report.representatives == {1: 1, 2: 1, 3: 1 * 2, 4: 4 * 24}[n]


# ----------------------------------------------- the loops they replaced


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_orthogonal_pairs_are_the_per_square_loop(n):
    # each reduced square's mates, one are_orthogonal call per square, times
    # the n! (n-1)! squares of its orbit
    squares = reference_squares(n)
    target = list(range(n))
    reduced = [a for a in squares if a.cells[0].tolist() == target and a.cells[:, 0].tolist() == target]
    mates = sum(are_orthogonal(a, b) for a in reduced for b in squares)
    assert count_orthogonal_pairs(n) == mates * factorial(n) * factorial(n - 1)


# Each disagreement test also runs with the perm route forced to one verdict
# on every pair (helpers.force_the_perm_route, perm=False or True), so that
# the routes disagree on each orthogonal pair or on each other pair, and the
# records, their indices and weights are checked.
PERM_ROUTES = [None, False, True]


@pytest.mark.parametrize("perm", PERM_ROUTES)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_cross_validation_is_the_per_pair_loop(monkeypatch, n, perm):
    if perm is not None:
        force_the_perm_route(monkeypatch, perm)
    assert_is_the_oracle(cross_validate_lemma16(n), reference_lemma16(n))


@pytest.mark.parametrize("perm", PERM_ROUTES)
@pytest.mark.parametrize("pair_block", [1, 5, 25, 72, 96])
def test_block_boundaries_leave_the_searches_unchanged(monkeypatch, pair_block, perm):
    # blocks of one partner, a partial last block, and at order 4 (24
    # partners per reduced square) blocks that hold all of a square's partners
    if perm is not None:
        force_the_perm_route(monkeypatch, perm)
    default = cross_validate_lemma16(4)
    monkeypatch.setattr(search, "_PAIR_BLOCK", pair_block)
    assert_is_the_oracle(cross_validate_lemma16(3), reference_lemma16(3))
    assert cross_validate_lemma16(4) == default


@pytest.mark.parametrize(
    "perm, disagreements", [(None, 0), (False, 6912), (True, 331776 - 6912)]
)
def test_cross_validation_at_order_four_is_the_loop_on_the_reduced_rows(
    monkeypatch, perm, disagreements
):
    if perm is not None:
        force_the_perm_route(monkeypatch, perm)
    report = cross_validate_lemma16(4)
    assert (report.pairs_checked, report.positives) == (331776, 6912)
    assert report.disagreeing == disagreements
    # permuting L1's rows and relabelling both squares keeps every verdict,
    # and n of these n!^2 maps take each square to a reduced one, so the
    # oracle over the reduced rows, times n! (n-1)! = 144, counts every pair
    reduced, _ = representative_pairs(4)
    oracle = reference_lemma16(4, sorted(reduced))
    assert_is_the_oracle(report, oracle, factorial(4) * factorial(3))


@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data(), n=st.integers(3, 5), perm=st.sampled_from(PERM_ROUTES))
def test_each_route_keeps_its_verdict_under_the_lemma16_symmetry(data, n, perm):
    # a row permutation of L1, one of L2 and one relabelling of both symbols
    if data.draw(st.booleans(), label="orthogonal"):  # few enumerated pairs are
        k1, k2 = data.draw(st.permutations(range(1, n)), label="slopes")[:2]
        l1, l2 = field_square(n, k1).cells, field_square(n, k2).cells
    else:
        cells = every_latin_cells(n)
        l1, l2 = (cells[data.draw(st.integers(0, len(cells) - 1))] for _ in range(2))
    rows1, rows2, symbols = (
        np.array(data.draw(st.permutations(range(n)), label=name))
        for name in ("rows1", "rows2", "symbols")
    )
    with pytest.MonkeyPatch.context() as patch:
        if perm is not None:
            force_the_perm_route(patch, perm)
        before = search._routes(l1, l2[None])
        after = search._routes(symbols[l1[rows1]], symbols[l2[rows2]][None])
    assert [bool(v[0]) for v in after] == [bool(v[0]) for v in before]

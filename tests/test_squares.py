import numpy as np
import pytest
from numpy.testing import assert_allclose

from qlsmub.fixtures import fixture
from qlsmub.numerics import is_permutation_matrix
from qlsmub.search import enumerate_latin
from qlsmub.squares import (
    GridViolation,
    LatinSquare,
    QuantumLatinSquare,
    VectorGrid,
    WeakOrthFailure,
    WeakOrthWitness,
    are_left_orthogonal,
    are_orthogonal,
    computational_grid,
    is_moqls,
    left_conjugate,
    orthogonality_map,
    transpose,
    validate_qls,
    weak_orth_witness,
)

from helpers import as_latin_square, reference_computational_grid, reference_left_conjugate

CYCLIC3 = LatinSquare([[(r + c) % 3 for c in range(3)] for r in range(3)])
TWISTED3 = LatinSquare([[(r + 2 * c) % 3 for c in range(3)] for r in range(3)])


def phased_grid(n: int, seed: int) -> VectorGrid:
    # computational grid of a cyclic square with random unimodular phases
    rng = np.random.default_rng(seed)
    arr = computational_grid(
        LatinSquare([[(r + c) % n for c in range(n)] for r in range(n)])
    ).array.copy()
    return VectorGrid(arr * np.exp(2j * np.pi * rng.random((n, n, 1))))


# ------------------------------------------------------------------ types


def test_vector_grid_shape_checks():
    with pytest.raises(ValueError):
        VectorGrid(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        VectorGrid(np.zeros((2, 2, 3), dtype=complex))
    with pytest.raises(ValueError):
        VectorGrid(np.full((2, 2, 2), np.nan))


def test_latin_square_rejects_non_latin():
    with pytest.raises(ValueError):
        LatinSquare([[0, 1], [0, 1]])
    with pytest.raises(ValueError):
        LatinSquare([[0, 0], [1, 1]])
    with pytest.raises(ValueError):
        LatinSquare([[0, 2], [2, 0]])


def test_computational_grid_round_trip():
    grid = computational_grid(CYCLIC3)
    assert as_latin_square(grid) == CYCLIC3


# ------------------------------------------------------------- validate_qls


def test_validate_order_one():
    grid = VectorGrid(np.ones((1, 1, 1), dtype=complex))
    assert isinstance(validate_qls(grid), QuantumLatinSquare)


def test_validate_cyclic_grid():
    result = validate_qls(computational_grid(CYCLIC3))
    assert isinstance(result, QuantumLatinSquare)
    assert result.n == 3


def test_validate_reports_first_row_defect():
    arr = computational_grid(CYCLIC3).array.copy()
    arr[1, 2] = arr[1, 0]  # duplicate vector inside row 1
    v = validate_qls(VectorGrid(arr))
    assert isinstance(v, GridViolation)
    assert (v.line, v.index, v.pair) == ("row", 1, (0, 2))
    assert_allclose(v.value, 1.0)


def test_validate_reports_column_defect():
    arr = computational_grid(CYCLIC3).array.copy()
    # swap two entries inside one row: rows stay orthonormal, columns break
    arr[0, [0, 1]] = arr[0, [1, 0]]
    v = validate_qls(VectorGrid(arr))
    assert isinstance(v, GridViolation)
    assert v.line == "column"
    assert v.index == 0


def test_validate_reports_norm_defect_on_diagonal_pair():
    arr = computational_grid(CYCLIC3).array.copy()
    arr[2, 1] = arr[2, 1] * 0.5
    v = validate_qls(VectorGrid(arr))
    assert isinstance(v, GridViolation)
    assert v.line == "row" and v.index == 2
    assert v.pair == (1, 1)


def test_validate_printed_fixture_values():
    vp = validate_qls(fixture("paper-P-printed"))
    assert isinstance(vp, GridViolation)
    assert (vp.line, vp.index, vp.pair) == ("row", 6, (0, 1))
    assert_allclose(vp.value, -6j / np.sqrt(42))  # <a|c>
    vq = validate_qls(fixture("paper-Q-printed"))
    assert isinstance(vq, GridViolation)
    assert (vq.line, vq.index, vq.pair) == ("row", 3, (0, 1))
    assert_allclose(vq.value, 2 / np.sqrt(18))  # <a|b>


# ------------------------------------------------------------- conjugation


def test_left_conjugate_cyclic_formula():
    expected = [[(r - c) % 3 for c in range(3)] for r in range(3)]
    assert left_conjugate(CYCLIC3).cells.tolist() == expected


def test_left_conjugate_identity_order_one():
    one = LatinSquare([[0]])
    assert left_conjugate(one) == one


@pytest.mark.parametrize("n", [1, 2, 3])
def test_left_conjugate_involution_small(n):
    for sq in enumerate_latin(n).squares:
        assert left_conjugate(left_conjugate(sq)) == sq


def test_left_conjugate_involution_sampled_order_five():
    rng = np.random.default_rng(8)
    base = LatinSquare([[(r + c) % 5 for c in range(5)] for r in range(5)])
    for _ in range(10):
        rows, cols, syms = (rng.permutation(5) for _ in range(3))
        sq = LatinSquare(syms[base.cells[rows][:, cols]])
        assert left_conjugate(left_conjugate(sq)) == sq


def test_transpose():
    assert transpose(transpose(TWISTED3)) == TWISTED3
    assert transpose(CYCLIC3) == CYCLIC3  # cyclic table is symmetric


# ------------------------------------------------------------ orthogonality


def test_orthogonality_map_of_orthogonal_pair_is_permutation():
    assert is_permutation_matrix(orthogonality_map(CYCLIC3, TWISTED3))


def test_orthogonality_map_of_self_pair_is_not_permutation():
    assert not is_permutation_matrix(orthogonality_map(CYCLIC3, CYCLIC3))


def test_are_orthogonal():
    assert are_orthogonal(CYCLIC3, TWISTED3)
    assert are_orthogonal(TWISTED3, CYCLIC3)
    assert not are_orthogonal(CYCLIC3, CYCLIC3)
    one = LatinSquare([[0]])
    assert are_orthogonal(one, one)
    with pytest.raises(ValueError):
        are_orthogonal(one, CYCLIC3)


def test_are_orthogonal_agrees_with_permutation_route():
    squares = enumerate_latin(3).squares
    for a in squares:
        for b in squares:
            assert are_orthogonal(a, b) == is_permutation_matrix(
                orthogonality_map(a, b)
            )


def test_no_orthogonal_pairs_at_order_two():
    squares = enumerate_latin(2).squares
    assert not any(are_orthogonal(a, b) for a in squares for b in squares)
    assert not any(are_left_orthogonal(a, b) for a in squares for b in squares)


def test_left_orthogonality_of_conjugate_preimages():
    # conjugation is an involution, so the conjugates of an orthogonal pair
    # are left orthogonal
    assert are_left_orthogonal(left_conjugate(CYCLIC3), left_conjugate(TWISTED3))
    assert not are_left_orthogonal(CYCLIC3, CYCLIC3)


# ---------------------------------------------------------------- weak orth


def test_witness_direction_matches_fixture_rows():
    w = weak_orth_witness(fixture("paper-Q"), fixture("paper-P"))
    assert isinstance(w, WeakOrthWitness)
    assert w.table[3][6] == 0  # row 3 of Q and row 6 of P share only <a|a>


def test_witness_symmetry_of_existence():
    p, q = fixture("paper-P"), fixture("paper-Q")
    assert isinstance(weak_orth_witness(p, q), WeakOrthWitness)
    assert isinstance(weak_orth_witness(q, p), WeakOrthWitness)
    g = computational_grid(CYCLIC3)
    assert isinstance(weak_orth_witness(g, g), WeakOrthFailure)
    assert isinstance(weak_orth_witness(g, g), WeakOrthFailure)


def test_witness_tables_of_fixture_pairs_are_latin():
    # per fixed column the unit products pair rows off uniquely, so every
    # witness table row and column is a permutation
    p, q, blk = fixture("paper-P"), fixture("paper-Q"), fixture("block-square")
    for x, y in ((q, p), (p, blk), (q, blk)):
        t = weak_orth_witness(x, y).table
        for line in list(t) + list(t.T):
            assert sorted(line.tolist()) == list(range(len(line)))


def test_witness_self_pair_fails_with_duplicate_unit():
    g = computational_grid(CYCLIC3)
    f = weak_orth_witness(g, g)
    assert isinstance(f, WeakOrthFailure)
    assert (f.q_row, f.p_row, f.kind) == (0, 0, "non-unique-unit")
    assert f.column == 1
    assert_allclose(f.value, 1.0)


def test_witness_missing_unit():
    a = computational_grid(LatinSquare([[0, 1], [1, 0]]))
    b = computational_grid(LatinSquare([[1, 0], [0, 1]]))
    f = weak_orth_witness(a, b)
    assert isinstance(f, WeakOrthFailure)
    assert (f.q_row, f.p_row, f.kind) == (0, 0, "missing-unit")
    assert f.column is None and f.value is None
    assert str(f) == "rows (0, 0): no columnwise inner product equals 1 (off by 1.000e+00)"


def test_witness_stray_value():
    arr = np.zeros((2, 2, 2), dtype=complex)
    arr[:, :, :] = 1 / np.sqrt(2)
    arr[:, 1, 1] *= -1
    g = VectorGrid(arr)  # rows (+,-) twice: unit vectors
    f = weak_orth_witness(computational_grid(LatinSquare([[0, 1], [1, 0]])), g)
    assert isinstance(f, WeakOrthFailure)
    assert f.kind == "stray-value"
    assert (f.q_row, f.p_row, f.column) == (0, 0, 0)
    assert_allclose(f.value, 1 / np.sqrt(2))


def test_witness_requires_exact_unit_phase():
    base = computational_grid(CYCLIC3)
    flipped = VectorGrid(-base.array)
    # every columnwise product is 0 or -1, never +1
    f = weak_orth_witness(base, flipped)
    assert isinstance(f, WeakOrthFailure)
    assert f.kind == "stray-value"
    assert_allclose(f.value, -1.0)


def test_witness_order_one_needs_a_product_of_one():
    one = VectorGrid(np.ones((1, 1, 1), dtype=complex))
    w = weak_orth_witness(one, one)
    assert isinstance(w, WeakOrthWitness)
    assert w.table.tolist() == [[0]]
    # a phase or a scale off 1 is a stray value, as it is at every larger order
    f = weak_orth_witness(VectorGrid(np.full((1, 1, 1), 1j)), one)
    assert (f.kind, f.column, f.off_by) == ("stray-value", 0, 1.0)
    f = weak_orth_witness(VectorGrid(np.full((1, 1, 1), 0.5 + 0j)), one)
    assert (f.kind, f.column) == ("stray-value", 0)


def test_witness_order_one_fails_on_an_overflowed_product():
    big = VectorGrid(np.full((1, 1, 1), 1e200, dtype=complex))
    f = weak_orth_witness(big, big)
    assert isinstance(f, WeakOrthFailure)
    assert (f.kind, f.column, f.value, f.off_by) == ("stray-value", 0, complex(np.inf, 0), np.inf)


def test_witness_margin_is_the_deviation_it_was_judged_on():
    # Python's abs of z is one ulp below numpy's: judged against tol = abs(z),
    # the product is near neither 0 nor 1, and its margin must exceed tol
    z = -0.11355392122558595 + 0.011131792185154497j
    tol = abs(z)
    assert tol == 0.1140982463623348
    f = weak_orth_witness(VectorGrid(np.ones((1, 1, 1))), VectorGrid(np.full((1, 1, 1), z)), tol)
    assert (f.kind, f.column, f.value) == ("stray-value", 0, z)
    assert f.off_by > tol and f.off_by == np.abs(z) == 0.11409824636233482


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_grid_and_conjugate_are_the_scatter_references_byte_for_byte(n):
    cells = enumerate_latin(n).cells
    for latin in map(LatinSquare, cells if n < 5 else cells[::97]):
        pairs = (
            (computational_grid(latin).array, reference_computational_grid(latin).array),
            (left_conjugate(latin).cells, reference_left_conjugate(latin).cells),
        )
        for got, expected in pairs:
            assert (got.dtype, got.shape) == (expected.dtype, expected.shape)
            assert got.tobytes() == expected.tobytes()


def test_witness_agrees_with_left_orthogonality_on_latin_squares():
    squares = enumerate_latin(3).squares
    for a in squares:
        for b in squares:
            by_witness = isinstance(
                weak_orth_witness(computational_grid(a), computational_grid(b)),
                WeakOrthWitness,
            )
            assert by_witness == are_left_orthogonal(a, b)


def test_witness_self_pair_fails_for_phased_grid():
    g1 = phased_grid(3, 21)
    assert isinstance(weak_orth_witness(g1, g1), WeakOrthFailure)


def test_witness_order_mismatch():
    with pytest.raises(ValueError):
        weak_orth_witness(
            computational_grid(CYCLIC3),
            computational_grid(LatinSquare([[0, 1], [1, 0]])),
        )


# ------------------------------------------------------------------- moqls


def test_is_moqls_fixture_family():
    family = [fixture("paper-P"), fixture("paper-Q"), fixture("block-square")]
    assert is_moqls(family)


def test_is_moqls_rejects_small_family():
    with pytest.raises(ValueError):
        is_moqls([fixture("paper-P")])


def test_is_moqls_false_with_repeated_member():
    g = computational_grid(CYCLIC3)
    assert not is_moqls([g, g])


def test_is_moqls_accepts_latin_and_qls_inputs():
    a = left_conjugate(CYCLIC3)
    b = left_conjugate(TWISTED3)
    assert is_moqls([a, b])

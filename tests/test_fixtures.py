import numpy as np
import pytest
from numpy.testing import assert_allclose

from qlsmub.fixtures import (
    _BLOCK_ROWS,
    _Q_ROWS,
    FIXTURE_NAMES,
    block_square_grid,
    fixture,
    hadamard_9_corrected,
    paper_p_grid,
    paper_q_grid,
)
from qlsmub.hadamard import HadamardMatrix, HadamardViolation, fourier, validate_hadamard
from qlsmub.squares import (
    GridViolation,
    LatinSquare,
    QuantumLatinSquare,
    VectorGrid,
    is_moqls,
    validate_qls,
    weak_orth_witness,
)

from helpers import as_latin_square, random_orthonormal_triple


def test_catalog_is_complete():
    assert len(FIXTURE_NAMES) == 10
    for name in FIXTURE_NAMES:
        assert fixture(name) is not None


def test_unknown_name_lists_catalog():
    with pytest.raises(KeyError, match="paper-P"):
        fixture("no-such-thing")


# ----------------------------------------------------------------- triples


def test_printed_triple_values():
    a, b, c = fixture("printed-triple")
    assert_allclose(a[3:6], np.array([1, 1, 1j]) / np.sqrt(3))
    assert_allclose(b[3:6], np.array([2, -1, 1j]) / np.sqrt(6))
    assert_allclose(c[3:6], np.array([-2j, -1j, 3]) / np.sqrt(14))
    for v in (a, b, c):
        assert_allclose(np.linalg.norm(v), 1.0)
        assert_allclose(v[:3], 0)
        assert_allclose(v[6:], 0)


def test_printed_triple_is_bilinear_but_not_sesquilinear_orthogonal():
    a, b, c = fixture("printed-triple")
    # unconjugated products vanish
    assert_allclose(a @ b, 0, atol=1e-15)
    assert_allclose(a @ c, 0, atol=1e-15)
    assert_allclose(c @ b, 0, atol=1e-15)
    # conjugated products do not
    assert_allclose(np.vdot(a, b), 2 / np.sqrt(18))
    assert_allclose(np.vdot(a, c), -6j / np.sqrt(42))
    assert_allclose(np.vdot(c, b), 6j / np.sqrt(84))


def test_corrected_triple_is_orthonormal_in_the_same_span():
    triple = fixture("corrected-triple")
    stack = np.array(triple)
    assert_allclose(stack.conj() @ stack.T, np.eye(3), atol=1e-12)
    assert_allclose(stack[:, :3], 0)
    assert_allclose(stack[:, 6:], 0)
    # Gram-Schmidt keeps the first vector
    assert_allclose(triple[0], fixture("printed-triple")[0])


def test_fourier_triple():
    triple = fixture("fourier-triple")
    stack = np.array(triple)
    assert_allclose(stack.conj() @ stack.T, np.eye(3), atol=1e-12)
    assert_allclose(stack[:, 3:], 0)
    w = np.exp(2j * np.pi / 3)
    assert_allclose(triple[1][:3], np.array([1, w, w * w]) / np.sqrt(3), atol=1e-12)


# ------------------------------------------------------------------- grids


def test_grid_entries_match_symbol_tables():
    vector = dict(zip("abcABC", (*fixture("corrected-triple"), *fixture("fourier-triple"))))
    vector.update(zip("012345678", np.eye(9)))
    p = paper_p_grid()
    for (i, j), symbol in {(0, 0): "0", (0, 1): "2", (3, 0): "6", (6, 0): "a", (6, 6): "A"}.items():
        assert_allclose(p.array[i, j], vector[symbol])
    # one cell in each 3 x 3 block of Q and of the block grid, as the paper's
    # symbol tables for those grids give it: a wrong re-rowing square fails here
    cells = [(0, 0), (1, 4), (2, 8), (4, 1), (5, 5), (3, 7), (8, 2), (6, 3), (7, 6)]
    for grid, symbols in ((paper_q_grid(), "063a0763C"), (block_square_grid(), "01Cb53867")):
        for (i, j), symbol in zip(cells, symbols):
            assert_allclose(grid.array[i, j], vector[symbol])


def test_default_grids_validate():
    for name in ("paper-P", "paper-Q"):
        assert isinstance(validate_qls(fixture(name)), QuantumLatinSquare)


def test_printed_grids_fail_validation():
    assert isinstance(validate_qls(fixture("paper-P-printed")), GridViolation)
    assert isinstance(validate_qls(fixture("paper-Q-printed")), GridViolation)


def test_grids_are_genuinely_quantum():
    assert as_latin_square(fixture("paper-P")) is None
    assert as_latin_square(fixture("paper-Q")) is None


def test_block_square_is_not_a_qls():
    v = validate_qls(fixture("block-square"))
    assert isinstance(v, GridViolation)
    assert v.line == "row" and v.index == 0
    assert v.pair == (0, 1)
    assert_allclose(v.value, 1.0)  # repeated |0> within the row


def test_fixture_family_is_mutually_weakly_orthogonal():
    family = [fixture("paper-P"), fixture("paper-Q"), fixture("block-square")]
    assert is_moqls(family)


def test_expected_witness_entry():
    w = weak_orth_witness(fixture("paper-Q"), fixture("paper-P"))
    assert w.table[3][6] == 0


@pytest.mark.parametrize("name, rows", [("paper-Q", _Q_ROWS), ("block-square", _BLOCK_ROWS)])
def test_the_witness_of_p_and_a_re_rowed_grid_reads_off_its_latin_square(name, rows):
    LatinSquare(rows)  # raises unless every row and column is a permutation
    table = weak_orth_witness(fixture("paper-P"), fixture(name)).table
    # row i of P meets row j of the re-rowed grid where rows[j, c] == i
    assert table.tolist() == [[list(rows[j]).index(i) for j in range(9)] for i in range(9)]


def test_grids_accept_replacement_triples():
    rng = np.random.default_rng(41)
    for _ in range(3):
        triple = random_orthonormal_triple(rng)
        p = paper_p_grid(triple)
        q = paper_q_grid(triple)
        blk = block_square_grid(triple)
        assert isinstance(validate_qls(p), QuantumLatinSquare)
        assert isinstance(validate_qls(q), QuantumLatinSquare)
        assert is_moqls([p, q, blk])


# ---------------------------------------------------------------- hadamard


def test_corrected_hadamard_is_fourier_square():
    h = hadamard_9_corrected()
    assert isinstance(h, HadamardMatrix)
    assert_allclose(h.mat, np.kron(fourier(3).mat, fourier(3).mat))


def test_printed_hadamard_defect():
    mat = fixture("hadamard-9-printed")
    assert isinstance(mat, np.ndarray)
    assert_allclose(mat[4], mat[3])
    v = validate_hadamard(mat)
    assert isinstance(v, HadamardViolation)
    assert v.constraint == "row-orthogonality"
    assert v.indices == (3, 4)
    assert_allclose(v.value, 9.0)
    # every other row agrees with the corrected matrix
    good = hadamard_9_corrected().mat
    rows = [r for r in range(9) if r != 4]
    assert_allclose(mat[rows], good[rows])


def test_fixture_types():
    assert isinstance(fixture("paper-P"), VectorGrid)
    assert isinstance(fixture("corrected-triple"), tuple)
    assert isinstance(fixture("hadamard-9-corrected"), HadamardMatrix)
    assert isinstance(fixture("hadamard-9-printed"), np.ndarray)

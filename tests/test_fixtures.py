import numpy as np
import pytest
from numpy.testing import assert_allclose

from qlsmub.fixtures import (
    FIXTURE_NAMES,
    block_square_grid,
    corrected_triple,
    fixture,
    fourier_triple,
    hadamard_9_corrected,
    hadamard_9_printed,
    paper_p_grid,
    paper_q_grid,
    printed_triple,
    random_orthonormal_triple,
)
from qlsmub.hadamard import HadamardMatrix, HadamardViolation, fourier, validate_hadamard
from qlsmub.squares import (
    GridViolation,
    QuantumLatinSquare,
    VectorGrid,
    is_moqls,
    validate_qls,
    weak_orth_witness,
)

from helpers import as_latin_square


def test_catalog_is_complete():
    assert len(FIXTURE_NAMES) == 10
    for name in FIXTURE_NAMES:
        assert fixture(name) is not None


def test_unknown_name_lists_catalog():
    with pytest.raises(KeyError, match="paper-P"):
        fixture("no-such-thing")


# ----------------------------------------------------------------- triples


def test_printed_triple_values():
    a, b, c = printed_triple()
    assert_allclose(a[3:6], np.array([1, 1, 1j]) / np.sqrt(3))
    assert_allclose(b[3:6], np.array([2, -1, 1j]) / np.sqrt(6))
    assert_allclose(c[3:6], np.array([-2j, -1j, 3]) / np.sqrt(14))
    for v in (a, b, c):
        assert_allclose(np.linalg.norm(v), 1.0)
        assert_allclose(v[:3], 0)
        assert_allclose(v[6:], 0)


def test_printed_triple_is_bilinear_but_not_sesquilinear_orthogonal():
    a, b, c = printed_triple()
    # unconjugated products vanish
    assert_allclose(a @ b, 0, atol=1e-15)
    assert_allclose(a @ c, 0, atol=1e-15)
    assert_allclose(c @ b, 0, atol=1e-15)
    # conjugated products do not
    assert_allclose(np.vdot(a, b), 2 / np.sqrt(18))
    assert_allclose(np.vdot(a, c), -6j / np.sqrt(42))
    assert_allclose(np.vdot(c, b), 6j / np.sqrt(84))


def test_corrected_triple_is_orthonormal_in_the_same_span():
    triple = corrected_triple()
    stack = np.array(triple)
    assert_allclose(stack.conj() @ stack.T, np.eye(3), atol=1e-12)
    assert_allclose(stack[:, :3], 0)
    assert_allclose(stack[:, 6:], 0)
    # Gram-Schmidt keeps the first vector
    assert_allclose(triple[0], printed_triple()[0])


def test_fourier_triple():
    triple = fourier_triple()
    stack = np.array(triple)
    assert_allclose(stack.conj() @ stack.T, np.eye(3), atol=1e-12)
    assert_allclose(stack[:, 3:], 0)
    w = np.exp(2j * np.pi / 3)
    assert_allclose(triple[1][:3], np.array([1, w, w * w]) / np.sqrt(3), atol=1e-12)


def test_random_triple_spans_middle_block():
    rng = np.random.default_rng(2)
    triple = random_orthonormal_triple(rng)
    stack = np.array(triple)
    assert_allclose(stack.conj() @ stack.T, np.eye(3), atol=1e-12)
    assert_allclose(stack[:, :3], 0)
    assert_allclose(stack[:, 6:], 0)


# ------------------------------------------------------------------- grids


def test_grid_entries_match_symbol_tables():
    p = paper_p_grid()
    eye = np.eye(9)
    assert_allclose(p.entry(0, 0), eye[0])
    assert_allclose(p.entry(0, 1), eye[2])
    assert_allclose(p.entry(3, 0), eye[6])
    assert_allclose(p.entry(6, 0), corrected_triple()[0])
    assert_allclose(p.entry(6, 6), fourier_triple()[0])
    q = paper_q_grid()
    assert_allclose(q.entry(3, 0), corrected_triple()[0])
    assert_allclose(q.entry(6, 6), fourier_triple()[0])
    blk = block_square_grid()
    assert_allclose(blk.entry(6, 0), eye[6])
    assert_allclose(blk.entry(8, 8), eye[8])


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
    mat = hadamard_9_printed()
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

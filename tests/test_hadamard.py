import numpy as np
import pytest
from numpy.testing import assert_allclose

from qlsmub.fixtures import fixture, hadamard_9_corrected
from qlsmub.hadamard import (
    HadamardMatrix,
    HadamardViolation,
    constant_family,
    fourier,
    hadamard_family,
    random_hadamard,
    tensor_hadamard,
    validate_hadamard,
)

from helpers import raises_exactly

OMEGA = np.exp(2j * np.pi / 3)


def _gram_residual(mat: np.ndarray) -> float:
    n = mat.shape[0]
    rows = np.abs(mat @ mat.conj().T - n * np.eye(n)).max()
    cols = np.abs(mat.conj().T @ mat - n * np.eye(n)).max()
    return max(rows, cols)


def test_fourier_small_orders():
    assert_allclose(fourier(1).mat, [[1.0]])
    assert_allclose(fourier(2).mat, [[1, 1], [1, -1]], atol=1e-15)
    assert_allclose(fourier(3).mat[1], [1, OMEGA, OMEGA**2], atol=1e-15)


def test_fourier_refuses_order_zero():
    with raises_exactly(ValueError, "order must be positive, got 0"):
        fourier(0)


def test_a_tensor_product_is_revalidated_at_the_factors_tol():
    # rows (1 + s, 1 - s) and (1 - s, -(1 + s)) stay orthogonal, and each
    # modulus is s = 0.09 inside tol 0.1; the product's corner is (1 + s)^2
    s = 0.09
    h = validate_hadamard([[1 + s, 1 - s], [1 - s, -(1 + s)]], tol=0.1)
    assert isinstance(h, HadamardMatrix)
    message = (
        "tensor product failed validation: entry (0, 0) has modulus 1.1881, "
        "expected 1 (off by 1.881e-01)"
    )
    with raises_exactly(ValueError, message):
        tensor_hadamard(h, h)


@pytest.mark.parametrize("n", range(1, 17))
def test_fourier_residual_tiny(n):
    assert _gram_residual(fourier(n).mat) <= 1e-12


def test_validate_accepts_real_hadamard():
    h = validate_hadamard(np.array([[1, 1], [1, -1]], dtype=complex))
    assert isinstance(h, HadamardMatrix)


def test_validate_rejects_non_unimodular():
    v = validate_hadamard(np.array([[1, 1], [1, -0.5]], dtype=complex))
    assert isinstance(v, HadamardViolation)
    assert v.constraint == "unimodular"
    assert v.indices == (1, 1)


@pytest.mark.parametrize("bad", [np.nan, complex(np.nan, 1.0), np.inf])
def test_validate_reports_a_non_finite_entry_as_non_unimodular(bad):
    # the NaN must not slip past the unimodularity test to the Gram scan
    mat = fourier(3).mat.copy()
    mat[1, 2] = bad
    v = validate_hadamard(mat)
    assert isinstance(v, HadamardViolation)
    assert (v.constraint, v.indices) == ("unimodular", (1, 2))
    assert not v.off_by <= 0


def test_validate_rejects_a_vector():
    with pytest.raises(ValueError, match="expected a matrix, got an array of ndim 1"):
        validate_hadamard(np.ones(4))


@pytest.mark.parametrize(
    "shape, message",
    [((2, 3), "matrix of shape (2, 3) is not square"), ((0, 0), "matrix of shape (0, 0) is empty")],
)
def test_validate_rejects_bad_shape(shape, message):
    v = validate_hadamard(np.ones(shape))
    assert isinstance(v, HadamardViolation)
    assert v.constraint == "shape"
    assert v.indices == shape
    assert str(v) == message


def test_validate_rejects_printed_nine():
    v = validate_hadamard(fixture("hadamard-9-printed"))
    assert isinstance(v, HadamardViolation)
    assert v.constraint == "row-orthogonality"
    assert v.indices == (3, 4)
    assert_allclose(v.value, 9.0)  # duplicated row: full inner product


def test_printed_nine_differs_from_corrected_only_in_row_four():
    printed = fixture("hadamard-9-printed")
    corrected = hadamard_9_corrected().mat
    diff_rows = [r for r in range(9) if np.abs(printed[r] - corrected[r]).max() > 1e-12]
    assert diff_rows == [4]
    assert_allclose(printed[4], printed[3])


def test_tensor_hadamard():
    f2 = fourier(2)
    h4 = tensor_hadamard(f2, f2)
    assert h4.n == 4
    assert _gram_residual(h4.mat) <= 1e-12
    f3 = fourier(3)
    assert_allclose(tensor_hadamard(f3, f3).mat, hadamard_9_corrected().mat)
    assert_allclose(tensor_hadamard(fourier(1), f3).mat, f3.mat)


def test_unnormalized_convention():
    # H/sqrt(n) is unitary for a valid Hadamard
    h = hadamard_9_corrected().mat / 3.0
    assert_allclose(h @ h.conj().T, np.eye(9), atol=1e-12)


def test_row_and_column_conditions_agree():
    # empirical equivalence of the two Gram conditions on a matrix with
    # unimodular entries
    rng = np.random.default_rng(11)
    samples = [fourier(n).mat for n in (2, 3, 4, 6)]
    samples += [random_hadamard(n, rng).mat for n in (3, 4, 9)]
    samples.append(fixture("hadamard-9-printed"))
    phases = np.exp(2j * np.pi * rng.random((3, 3)))
    samples.append(phases)  # random unimodular, almost surely not Hadamard
    for mat in samples:
        n = mat.shape[0]
        rows_ok = np.abs(mat @ mat.conj().T - n * np.eye(n)).max() <= 1e-9
        cols_ok = np.abs(mat.conj().T @ mat - n * np.eye(n)).max() <= 1e-9
        assert rows_ok == cols_ok


def test_constant_family():
    fam = constant_family(fourier(3))
    assert fam.n == 3
    assert len(fam.members) == 3
    assert all(h is fam.members[0] for h in fam.members)


def test_family_members_must_be_validated():
    message = "family members must be validated HadamardMatrix objects"
    with raises_exactly(TypeError, message):
        hadamard_family([fourier(2), fourier(2).mat])


def test_family_length_must_match_order():
    f3 = fourier(3)
    with raises_exactly(ValueError, "a family needs at least one member"):
        hadamard_family(())
    with pytest.raises(ValueError):
        hadamard_family([f3, f3])
    with pytest.raises(ValueError):
        hadamard_family([f3, f3, fourier(2)])


def test_random_hadamard_always_validates():
    rng = np.random.default_rng(12)
    for n in (1, 2, 3, 4, 6, 9):
        for _ in range(3):
            h = random_hadamard(n, rng)
            assert isinstance(h, HadamardMatrix)
            assert h.n == n
            assert _gram_residual(h.mat) <= 1e-9

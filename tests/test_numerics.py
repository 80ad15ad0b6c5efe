import numpy as np
import pytest
from numpy.testing import assert_allclose

from qlsmub.numerics import (
    DEFAULT_TOL,
    first_gram_defect,
    frobenius_norms,
    is_permutation_matrix,
)

from helpers import is_monomial, random_unitary



def test_gram_defect_scan_of_one_matrix():
    gram = 2 * np.eye(3, dtype=complex)
    assert first_gram_defect(gram, 2, 1e-9) is None
    gram[2, 1] = 1e-6
    gram[1, 1] = 2 + 1e-6
    assert first_gram_defect(gram, 2, 1e-9) == ((1, 1), 2 + 1e-6, (2 + 1e-6) - 2)
    assert first_gram_defect(gram, 2, 1e-3) is None


def test_gram_defect_scan_of_a_stack_returns_the_earlier_matrix():
    grams = np.stack([np.eye(3, dtype=complex)] * 4)
    grams[3, 0, 0] = 0.5
    grams[1, 2, 0] = 1e-6
    index, value, off_by = first_gram_defect(grams, 1.0, 1e-9)
    assert (index, value, off_by) == ((1, 2, 0), 1e-6, 1e-6)
    assert all(type(i) is int for i in index)
    assert type(value) is complex and type(off_by) is float


def test_gram_defect_scan_counts_nan_as_a_defect():
    gram = np.eye(2, dtype=complex)
    gram[0, 1] = np.nan
    index, value, off_by = first_gram_defect(gram, 1.0, 1e-9)
    assert index == (0, 1) and np.isnan(value) and np.isnan(off_by)


def test_gram_defect_margin_is_the_deviation_it_was_judged_on():
    # numpy's array abs and the scalar abs differ in the last bit here: a
    # margin re-measured with the scalar would read exactly tol
    rng = np.random.default_rng(3)
    z = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    k = next(k for k in range(64) if np.abs(z)[k] > abs(z[k]))
    gram = np.zeros(64, dtype=complex)
    gram[k] = z[k]
    tol = abs(z[k])
    index, value, off_by = first_gram_defect(gram.reshape(8, 8), 0.0, tol)
    assert (index, value) == (divmod(k, 8), z[k])
    assert off_by > tol and off_by == np.abs(z)[k]


def test_is_permutation_matrix():
    assert is_permutation_matrix(np.eye(3))
    assert not is_permutation_matrix(np.array([[1, 1], [0, 0]], dtype=complex))
    assert not is_permutation_matrix(np.diag([1, -1]).astype(complex))  # phase matters
    perm = np.zeros((4, 4), dtype=complex)
    for k, p in enumerate([2, 0, 3, 1]):
        perm[p, k] = 1
    assert is_permutation_matrix(perm)
    assert is_permutation_matrix(perm + 1e-12)
    assert not is_permutation_matrix(perm + 1e-6)


def test_permutation_implies_monomial():
    rng = np.random.default_rng(6)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        perm = np.zeros((n, n), dtype=complex)
        perm[rng.permutation(n), np.arange(n)] = 1
        assert is_permutation_matrix(perm)
        assert is_monomial(perm)


def test_random_unitary_is_unitary():
    rng = np.random.default_rng(7)
    u = random_unitary(6, rng)
    assert_allclose(u @ u.conj().T, np.eye(6), atol=1e-12)


@pytest.mark.parametrize("shape", [(1, 1, 1), (5, 3, 3), (4, 2, 6)])
def test_frobenius_norms_are_np_linalg_norm_bit_for_bit(shape):
    rng = np.random.default_rng(8)
    stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    assert frobenius_norms(stack).tolist() == [float(np.linalg.norm(m)) for m in stack]

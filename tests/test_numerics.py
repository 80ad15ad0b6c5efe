from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qlsmub.numerics import (
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
    assert not is_permutation_matrix(perm + 1e-12)  # entries are compared exactly


@pytest.mark.parametrize("unit", [1, -1, 2])
@pytest.mark.parametrize("n", [1, 3])
def test_a_permutation_verdict_is_the_same_in_every_dtype(n, unit):
    rng = np.random.default_rng(9)
    stack = rng.integers(0, 2, (60, n, n)).astype(bool)  # 0/1 matrices, some permutations
    for m in stack[::3]:
        m[...] = np.eye(n, dtype=bool)[rng.permutation(n)]
    verdicts = is_permutation_matrix(stack)
    assert 0 < verdicts.sum() < len(stack)
    # with each 1 made -1 or 2 (255 or 2 in uint8), no matrix has a unit entry
    expected = verdicts if unit == 1 else np.zeros_like(verdicts)
    for dtype in (np.int8, np.int64, np.uint8, np.float32, np.float64, np.complex64, np.complex128):
        assert np.array_equal(is_permutation_matrix((stack * unit).astype(dtype)), expected), dtype


@pytest.mark.parametrize("m, verdict", [
    (np.array([[1, -128], [-128, 1]], dtype=np.int8), False),  # abs(-128) is -128 in int8
    (np.array([[1, 1e-9], [1e-9, 1]], dtype=np.float32), False),  # 1e-9 is not 0 in float32
    ([["0", "1"], ["1", "0"]], False),  # a string is not the number 1
    ([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]], True),
    (np.array([[1.0, 0.0], [0.0, np.nan]]), False),  # a NaN is neither 0 nor 1
])
def test_a_permutation_verdict_compares_each_entry_exactly(m, verdict):
    assert is_permutation_matrix(m) is verdict


def test_a_permutation_test_refuses_what_is_not_a_matrix():
    assert not is_permutation_matrix(np.ones((2, 3), dtype=bool))
    assert np.array_equal(is_permutation_matrix(np.zeros((4, 2, 3))), np.zeros(4, dtype=bool))
    for arr in (np.ones(3, dtype=bool), np.float64(1.0)):
        with pytest.raises(ValueError, match="expected a matrix"):
            is_permutation_matrix(arr)


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

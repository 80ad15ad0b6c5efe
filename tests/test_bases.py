import numpy as np
import pytest
from numpy.testing import assert_allclose

from qlsmub.bases import (
    BipartiteBasis,
    MubReport,
    check_mub,
    extract_unitaries,
    is_maximally_entangled,
    is_orthonormal_basis,
    lbw_meb,
    qls_meb,
)
from qlsmub.fixtures import fixture, hadamard_9_corrected
from qlsmub.hadamard import (
    HadamardMatrix,
    constant_family,
    fourier,
    hadamard_family,
    random_hadamard,
    validate_hadamard,
)
from qlsmub.squares import (
    LatinSquare,
    computational_grid,
    left_conjugate,
    validate_qls,
)

from helpers import (
    CYCLIC3, TWISTED3, match_up_to_phase, raises_exactly, random_unitary, reference_squares,
)

CYCLIC2 = LatinSquare([[0, 1], [1, 0]])

BELL = np.array(
    [
        [1, 0, 0, 1],  # (0,0)
        [0, 1, 1, 0],  # (0,1)
        [1, 0, 0, -1],  # (1,0)
        [0, 1, -1, 0],  # (1,1)
    ],
    dtype=complex,
) / np.sqrt(2)


def qls_of(latin: LatinSquare):
    return validate_qls(computational_grid(latin))


def asymmetric_hadamard_3() -> HadamardMatrix:
    # scaling one row of the third-order Fourier matrix breaks the symmetry
    # H = H^T while keeping rows and columns unimodular-orthogonal
    return validate_hadamard(np.diag([1, 1j, 1]) @ fourier(3).mat)


# --------------------------------------------------------------- container


def test_bipartite_basis_indexing():
    b = BipartiteBasis(2, BELL)
    assert_allclose(b.states[2], BELL[2])  # label (1, 0)
    with pytest.raises(ValueError):
        BipartiteBasis(2, BELL[:3])
    with pytest.raises(ValueError):
        BipartiteBasis(2, np.full((4, 4), np.nan))


# ------------------------------------------------------------ construction


def test_qls_meb_bell_states():
    basis = qls_meb(qls_of(CYCLIC2), constant_family(fourier(2)))
    assert_allclose(basis.states, BELL, atol=1e-15)


def test_lbw_meb_bell_states():
    basis = lbw_meb(CYCLIC2, fourier(2))
    assert_allclose(basis.states, BELL, atol=1e-15)


def test_meb_order_one():
    basis = qls_meb(qls_of(LatinSquare([[0]])), constant_family(fourier(1)))
    assert_allclose(basis.states, [[1.0]])
    assert is_orthonormal_basis(basis)


def test_meb_order_mismatch():
    with pytest.raises(ValueError):
        qls_meb(qls_of(CYCLIC2), constant_family(fourier(3)))
    with pytest.raises(ValueError):
        lbw_meb(CYCLIC3, fourier(2))


def test_qls_meb_uses_one_family_member_per_second_label():
    # states (i, 0) depend only on family member 0; replacing member 1 must
    # leave them untouched
    rng = np.random.default_rng(5)
    fam_a = hadamard_family([fourier(3), random_hadamard(3, rng), fourier(3)])
    fam_b = hadamard_family([fourier(3), random_hadamard(3, rng), fourier(3)])
    q = qls_of(CYCLIC3)
    a, b = qls_meb(q, fam_a), qls_meb(q, fam_b)
    for i in range(3):
        assert_allclose(a.states[i * 3], b.states[i * 3])
        assert_allclose(a.states[i * 3 + 2], b.states[i * 3 + 2])


def test_fixture_mebs_are_orthonormal():
    family = constant_family(hadamard_9_corrected())
    for name in ("paper-P", "paper-Q"):
        basis = qls_meb(validate_qls(fixture(name)), family)
        assert is_orthonormal_basis(basis)
        for s in basis.states:
            assert is_maximally_entangled(s)


def test_random_order_three_mebs_are_orthonormal_and_entangled():
    rng = np.random.default_rng(11)
    for latin in (CYCLIC3, TWISTED3):
        fam = hadamard_family([random_hadamard(3, rng) for _ in range(3)])
        basis = qls_meb(qls_of(latin), fam)
        assert is_orthonormal_basis(basis)
        assert all(is_maximally_entangled(s) for s in basis.states)


def test_lbw_meb_orthonormal_for_every_order_three_square():
    h = fourier(3)
    for latin in reference_squares(3):
        basis = lbw_meb(latin, h)
        assert is_orthonormal_basis(basis)
        assert all(is_maximally_entangled(s) for s in basis.states)


# ------------------------------------------------------------ entanglement


def test_is_maximally_entangled():
    assert is_maximally_entangled(BELL[0])
    product = np.zeros(4, dtype=complex)
    product[0] = 1.0  # |0,0>
    assert not is_maximally_entangled(product)


def test_is_maximally_entangled_rejects_an_empty_state():
    with raises_exactly(ValueError, "empty state vector"):
        is_maximally_entangled([])


def test_is_maximally_entangled_rejects_non_square_dimension():
    with pytest.raises(ValueError):
        is_maximally_entangled(np.ones(5) / np.sqrt(5))


def test_extract_unitary_bell_members():
    eye = np.eye(2)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.diag([1.0, -1.0]).astype(complex)
    expected = [eye, x, z, x @ z]
    assert_allclose(extract_unitaries(BELL), expected, atol=1e-15)


def test_extract_unitary_round_trip_random():
    rng = np.random.default_rng(3)
    n = 4
    for _ in range(5):
        u = random_unitary(n, rng)
        state = np.zeros(n * n, dtype=complex)
        for k in range(n):
            state[k * n : (k + 1) * n] += u[:, k]
        state /= np.sqrt(n)
        assert_allclose(extract_unitaries(state[None])[0], u, atol=1e-12)
        assert is_maximally_entangled(state)


def test_extract_unitary_rejects_product_state():
    product = np.zeros(4, dtype=complex)
    product[0] = 1.0
    with pytest.raises(ValueError, match="partial-trace residual"):
        extract_unitaries(product[None])


def test_bell_state_reduces_to_maximally_mixed():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    assert is_maximally_entangled(bell, tol=1e-15)
    assert_allclose(extract_unitaries(bell[None], tol=1e-15)[0], np.eye(2), atol=1e-15)


def test_product_state_residual_is_that_of_a_pure_reduced_state():
    # |0>|0> reduces to |0><0|, at Frobenius distance sqrt(1/2) from I/2
    product = np.zeros(4, dtype=complex)
    product[0] = 1.0
    assert not is_maximally_entangled(product, tol=0.707)
    assert is_maximally_entangled(product, tol=0.708)
    with pytest.raises(ValueError, match="residual 7.071e-01"):
        extract_unitaries(product[None])


def test_reduced_state_keeps_the_schmidt_weights():
    # sum_k sqrt(w_k) A|k> (x) B|k> reduces to A diag(w) A*, whose trace is 1
    # and whose distance from I/n is |w - 1/n|
    rng = np.random.default_rng(1)
    n = 3
    w = rng.random(n)
    w /= w.sum()
    a, b = random_unitary(n, rng), random_unitary(n, rng)
    state = sum(np.sqrt(w[k]) * np.kron(a[:, k], b[:, k]) for k in range(n))
    residual = np.linalg.norm(w - 1 / n)
    assert is_maximally_entangled(state, tol=residual + 1e-12)
    assert not is_maximally_entangled(state, tol=residual - 1e-12)


def test_extract_unitary_rejects_non_square_dimension():
    with pytest.raises(ValueError, match="not a perfect square"):
        extract_unitaries(np.ones((1, 6)) / np.sqrt(6))


def test_extract_unitaries_names_the_first_failing_state():
    # sqrt(w)|00> + sqrt(1-w)|11> is |w - 1/2| * sqrt(2) from I/2, and |00> is
    # sqrt(1/2) from it: the error names the earlier of the two in the stack
    uneven = np.array([np.sqrt(0.9), 0, 0, np.sqrt(0.1)], dtype=complex)
    product = np.array([1, 0, 0, 0], dtype=complex)
    with pytest.raises(ValueError, match="residual 5.657e-01"):
        extract_unitaries(np.stack([BELL[0], uneven, product]))
    with pytest.raises(ValueError, match="residual 7.071e-01"):
        extract_unitaries(np.stack([BELL[0], product, uneven]))


def test_spread_unitary_state_is_maximally_entangled_at_order_five():
    # (1/sqrt(n)) sum_k |k> (x) U|k> always reduces to I/n
    rng = np.random.default_rng(2)
    n = 5
    u = random_unitary(n, rng)
    state = (u.T / np.sqrt(n)).reshape(-1)
    assert is_maximally_entangled(state, tol=1e-12)
    assert_allclose(extract_unitaries(state[None], tol=1e-12)[0], u, atol=1e-12)


# ------------------------------------------------------------ orthonormality


def test_is_orthonormal_basis():
    assert is_orthonormal_basis(np.eye(4))
    dup = np.eye(4)
    dup[1] = dup[0]
    assert not is_orthonormal_basis(dup)
    assert not is_orthonormal_basis(np.eye(4)[:3])  # incomplete set


# --------------------------------------------------------------------- mub


def test_check_mub_fourier_vs_computational():
    f = fourier(3).mat / np.sqrt(3)
    report = check_mub(np.eye(3), f)
    assert isinstance(report, MubReport)
    assert report.ok
    assert report.dim == 3
    assert_allclose([report.min_sq, report.max_sq], [1 / 3, 1 / 3], atol=1e-12)


def test_check_mub_fails_on_identical_bases():
    report = check_mub(np.eye(3), np.eye(3))
    assert not report.ok
    assert_allclose(report.max_sq, 1.0)
    assert_allclose(report.min_sq, 0.0)


def test_check_mub_mean_is_inverse_dimension_for_orthonormal_pairs():
    # rows of each Gram column sum to 1, so the mean squared overlap of two
    # orthonormal bases is exactly 1/dim whether or not they are unbiased
    rng = np.random.default_rng(7)
    a = random_unitary(5, rng)
    b = random_unitary(5, rng)
    assert_allclose(check_mub(a, b).mean_sq, 1 / 5, atol=1e-12)
    assert_allclose(check_mub(a, a).mean_sq, 1 / 5, atol=1e-12)


def test_check_mub_dimension_mismatch():
    with pytest.raises(ValueError):
        check_mub(np.eye(3), np.eye(4))


def test_weakly_orthogonal_squares_give_unbiased_bases():
    # left conjugates of an orthogonal pair are weakly orthogonal, and the
    # resulting bases are mutually unbiased for any Hadamard families
    rng = np.random.default_rng(19)
    qa = qls_of(left_conjugate(CYCLIC3))
    qb = qls_of(left_conjugate(TWISTED3))
    for _ in range(3):
        fam_a = hadamard_family([random_hadamard(3, rng) for _ in range(3)])
        fam_b = hadamard_family([random_hadamard(3, rng) for _ in range(3)])
        report = check_mub(qls_meb(qa, fam_a).states, qls_meb(qb, fam_b).states)
        assert report.ok
        assert abs(report.max_sq - 1 / 9) <= 1e-12


def test_same_square_does_not_give_unbiased_bases():
    fam = constant_family(fourier(3))
    basis = qls_meb(qls_of(CYCLIC3), fam)
    assert not check_mub(basis.states, basis.states).ok


# ------------------------------------------------------------- phase match


def test_phase_match_identity():
    assert match_up_to_phase(BELL, BELL)
    # each state pairs with itself, with factor 1
    assert_allclose(BELL.conj() @ BELL.T, np.eye(4), atol=1e-12)


def test_phase_match_reconstruction():
    rng = np.random.default_rng(23)
    a = random_unitary(4, rng)
    perm = rng.permutation(4)
    factors = np.exp(2j * np.pi * rng.random(4))
    b = np.empty_like(a)
    # state s of a equals factors[s] times state perm[s] of b
    for s in range(4):
        b[perm[s]] = a[s] / factors[s]
    assert match_up_to_phase(a, b)
    # <a_s|b_t> = conj(factor), one unit entry per row at the paired state
    overlaps = a.conj() @ b.T
    pairing = np.abs(overlaps).argmax(axis=1)
    assert pairing.tolist() == perm.tolist()
    assert_allclose(overlaps[np.arange(4), pairing].conj(), factors, atol=1e-12)


def test_phase_match_rejects_unbiased_pair():
    assert not match_up_to_phase(BELL, np.eye(4))


def test_phase_match_shape_mismatch():
    with pytest.raises(ValueError):
        match_up_to_phase(np.eye(4), np.eye(3))


# ------------------------------------------------- single-square duality


def test_single_square_constructions_agree_up_to_phase():
    # the one-square basis of a Latin square equals the one of its left
    # conjugate built from the transposed Hadamard, bit for bit
    for h in (fourier(3), asymmetric_hadamard_3()):
        ht = validate_hadamard(h.mat.T)
        for latin in reference_squares(3):
            via_qls = qls_meb(qls_of(latin), constant_family(h))
            via_lbw = lbw_meb(left_conjugate(latin), ht)
            np.testing.assert_array_equal(via_qls.states, via_lbw.states)


def test_single_square_correspondence_needs_the_transpose():
    # with an asymmetric Hadamard the untransposed pairing must not even
    # match up to phase
    h = asymmetric_hadamard_3()
    for latin in reference_squares(3)[:4]:
        via_qls = qls_meb(qls_of(latin), constant_family(h))
        via_lbw = lbw_meb(left_conjugate(latin), h)
        assert not match_up_to_phase(via_qls.states, via_lbw.states)

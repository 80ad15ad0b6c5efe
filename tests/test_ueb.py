import dataclasses
import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qlsmub import ueb
from qlsmub.bases import BipartiteBasis, check_mub, is_orthonormal_basis, qls_meb
from qlsmub.fixtures import fixture, hadamard_9_corrected
from qlsmub.hadamard import (
    constant_family,
    fourier,
    hadamard_family,
    random_hadamard,
    validate_hadamard,
)
from qlsmub.squares import (
    LatinSquare,
    VectorGrid,
    computational_grid,
    left_conjugate,
    validate_qls,
    weak_orth_witness,
)
from qlsmub.ueb import (
    ObstructionReport,
    UebViolation,
    UnitaryErrorBasis,
    check_mu_ueb,
    meb_to_ueb,
    monomial_obstruction,
    shift_multiply_ueb,
    ueb_to_meb,
    validate_ueb,
)

from helpers import (
    CYCLIC3,
    PAPER_P_WORST_NORM,
    PAPER_P_WORST_PAIR,
    TWISTED3,
    assert_the_screen_brackets_every_norm,
    is_monomial,
    member_first,
    monomial_equivalent_ueb,
    order_18_product_ueb,
    paper_ueb,
    reference_obstruction,
    reference_screen,
)

EYE2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


def pauli_basis() -> UnitaryErrorBasis:
    return validate_ueb([EYE2, X, Z, X @ Z])


def qls_of(latin: LatinSquare):
    return validate_qls(computational_grid(latin))


# -------------------------------------------------------------- validation


def test_validate_pauli():
    u = pauli_basis()
    assert isinstance(u, UnitaryErrorBasis)
    assert u.n == 2 and len(u) == 4
    assert_allclose(u.members[1], X)  # label (0, 1)


def test_validate_rejects_wrong_count():
    v = validate_ueb([EYE2, X, Z])
    assert isinstance(v, UebViolation) and v.kind == "count"
    v = validate_ueb(np.ones((4, 2, 3)))
    assert isinstance(v, UebViolation) and v.kind == "count"
    v = validate_ueb([EYE2, X, Z, np.eye(3)])  # ragged: no one array holds them
    assert isinstance(v, UebViolation) and v.kind == "count"
    v = validate_ueb(np.zeros((0, 0, 0)))  # order 0
    assert isinstance(v, UebViolation) and v.kind == "count"
    with pytest.raises(ValueError, match=r"expected 4 matrices of size 2x2, got shape \(3, 2, 2\)"):
        UnitaryErrorBasis(2, [EYE2, X, Z])


@pytest.mark.parametrize(
    "build",
    [
        lambda: VectorGrid(np.zeros((0, 0, 0))),
        lambda: BipartiteBasis(0, np.zeros((0, 0))),
        lambda: UnitaryErrorBasis(0, np.zeros((0, 0, 0))),
        lambda: is_orthonormal_basis(np.zeros((0, 0))),
        lambda: check_mub(np.zeros((0, 0)), np.zeros((0, 0))),
    ],
    ids=["grid", "basis", "ueb", "orthonormal", "mub"],
)
def test_an_order_zero_value_is_refused(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
def test_validate_names_the_first_non_finite_member(bad):
    members = np.stack([EYE2, X, Z, X @ Z])
    members[2, 1, 0] = bad
    members[3, 0, 0] = bad
    v = validate_ueb(members)
    assert isinstance(v, UebViolation)
    assert (v.kind, v.index, v.pair, v.value, v.off_by) == ("non-finite", 2, None, None, None)
    assert str(v) == "member 2 has a NaN or Inf entry"


def test_validate_rejects_non_unitary_member():
    v = validate_ueb([EYE2, X, Z, 0.5 * (X @ Z)])
    assert isinstance(v, UebViolation)
    assert v.kind == "non-unitary" and v.index == 3


def test_validate_rejects_trace_overlap():
    v = validate_ueb([EYE2, X, X, Z])
    assert isinstance(v, UebViolation)
    assert v.kind == "trace-orthogonality"
    assert v.pair == (1, 2)
    assert_allclose(v.value, 2.0)


def test_validate_accepts_existing_instance():
    u = pauli_basis()
    again = validate_ueb(u)
    assert isinstance(again, UnitaryErrorBasis)
    assert_allclose(again.members, u.members)


# ------------------------------------------------------------- ownership

# Every value type that holds an array: its input, how it is built from it,
# the attribute path to the array it holds, and its repr.
OWNERS = {
    "VectorGrid": (
        computational_grid(CYCLIC3).array, VectorGrid, "array", "VectorGrid(n=3)"
    ),
    "LatinSquare": (
        CYCLIC3.cells, LatinSquare, "cells", "LatinSquare([[0, 1, 2], [1, 2, 0], [2, 0, 1]])"
    ),
    "BipartiteBasis": (
        np.eye(4, dtype=complex), lambda a: BipartiteBasis(2, a), "states", "BipartiteBasis(n=2)"
    ),
    "UnitaryErrorBasis": (
        np.stack([EYE2, X, Z, X @ Z]),
        lambda a: UnitaryErrorBasis(2, a),
        "members",
        "UnitaryErrorBasis(n=2)",
    ),
    "HadamardMatrix": (
        np.array([[1, 1], [1, -1]], dtype=complex),
        validate_hadamard,
        "mat",
        "HadamardMatrix(mat=array([[ 1.+0.j,  1.+0.j],\n       [ 1.+0.j, -1.+0.j]]), tol=1e-09)",
    ),
    "QuantumLatinSquare": (
        computational_grid(CYCLIC3).array,
        lambda a: validate_qls(VectorGrid(a)),
        "grid.array",
        "QuantumLatinSquare(grid=VectorGrid(n=3), tol=1e-09)",
    ),
    "WeakOrthWitness": (
        computational_grid(left_conjugate(CYCLIC3)).array,
        lambda a: weak_orth_witness(VectorGrid(a), computational_grid(left_conjugate(TWISTED3))),
        "table",
        "WeakOrthWitness(n=3, table=array([[0, 1, 2],\n       [2, 0, 1],\n       [1, 2, 0]]))",
    ),
}


@pytest.mark.parametrize("name", sorted(OWNERS))
def test_a_value_holds_a_read_only_copy_of_its_input(name):
    source, build, path, text = OWNERS[name]
    given = np.array(source, order="F")  # a writable array the caller keeps
    value = build(given)
    *outer, attr = path.split(".")
    holder = functools.reduce(getattr, outer, value)
    held = getattr(holder, attr)
    kept = held.copy()
    given[...] = 0  # the caller's array stays the caller's
    assert np.array_equal(held, kept)
    assert held.flags.c_contiguous
    with pytest.raises(ValueError, match="read-only"):
        held[(0,) * held.ndim] = 5
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(holder, attr, kept)
    assert repr(value) == text


# ----------------------------------------------------------------- duality


def test_bell_dual_members():
    bell = qls_meb(
        qls_of(LatinSquare([[0, 1], [1, 0]])), constant_family(fourier(2))
    )
    u = meb_to_ueb(bell)
    expected = [EYE2, X, Z, X @ Z]
    for s in range(4):
        assert_allclose(u.members[s], expected[s], atol=1e-15)


def test_dual_round_trips():
    u = pauli_basis()
    assert_allclose(meb_to_ueb(ueb_to_meb(u)).members, u.members, atol=1e-12)
    basis = ueb_to_meb(u)
    assert_allclose(ueb_to_meb(meb_to_ueb(basis)).states, basis.states, atol=1e-12)


def test_dual_round_trip_fixture():
    u = paper_ueb()
    assert_allclose(meb_to_ueb(ueb_to_meb(u)).members, u.members, atol=1e-12)


def test_meb_to_ueb_rejects_product_states():
    with pytest.raises(ValueError, match="partial-trace residual"):
        meb_to_ueb(BipartiteBasis(2, np.eye(4)))


def test_dual_of_entangled_basis_validates():
    rng = np.random.default_rng(31)
    fam = hadamard_family([random_hadamard(3, rng) for _ in range(3)])
    u = meb_to_ueb(qls_meb(qls_of(CYCLIC3), fam))
    assert isinstance(validate_ueb(u.members), UnitaryErrorBasis)


# ------------------------------------------------------- shift and multiply


def test_shift_multiply_equals_dual_of_constructed_basis():
    rng = np.random.default_rng(13)
    fam = hadamard_family([random_hadamard(3, rng) for _ in range(3)])
    q = qls_of(CYCLIC3)
    direct = shift_multiply_ueb(q, fam)
    via_basis = meb_to_ueb(qls_meb(q, fam))
    assert_allclose(direct.members, via_basis.members, atol=1e-12)


def test_shift_multiply_fixture_equals_dual_of_basis():
    q = validate_qls(fixture("paper-P"))
    fam = constant_family(hadamard_9_corrected())
    direct = shift_multiply_ueb(q, fam)
    via_basis = meb_to_ueb(qls_meb(q, fam))
    assert_allclose(direct.members, via_basis.members, atol=1e-12)


def test_shift_multiply_fixture_first_member_is_a_permutation():
    u = paper_ueb()
    first = u.members[0]
    assert is_monomial(first)
    assert_allclose(np.abs(first), (np.abs(first) > 0.5).astype(float), atol=1e-12)
    # column k holds the grid vector of row 0 at column k
    grid = fixture("paper-P")
    for k in range(9):
        assert_allclose(first[:, k], grid.array[0, k], atol=1e-12)


def test_shift_multiply_validates_as_ueb():
    u = paper_ueb()
    assert isinstance(validate_ueb(u.members), UnitaryErrorBasis)


def test_shift_multiply_order_mismatch():
    with pytest.raises(ValueError):
        shift_multiply_ueb(qls_of(CYCLIC3), constant_family(fourier(2)))


# --------------------------------------------------------- mutual unbiased


def test_mu_ueb_of_dual_unbiased_pair():
    rng = np.random.default_rng(17)
    twisted = LatinSquare([[(r + 2 * c) % 3 for c in range(3)] for r in range(3)])
    from qlsmub.squares import left_conjugate

    fam_a = hadamard_family([random_hadamard(3, rng) for _ in range(3)])
    fam_b = hadamard_family([random_hadamard(3, rng) for _ in range(3)])
    ua = shift_multiply_ueb(qls_of(left_conjugate(CYCLIC3)), fam_a)
    ub = shift_multiply_ueb(qls_of(left_conjugate(twisted)), fam_b)
    report = check_mu_ueb(ua, ub)
    assert report.ok
    assert report.dim == 9
    # raw squared trace moduli sit near 1, not near 1/n
    assert_allclose([report.raw_trace_sq_min, report.raw_trace_sq_max], [1, 1], atol=1e-9)


def test_mu_ueb_fails_on_self():
    u = pauli_basis()
    report = check_mu_ueb(u, u)
    assert not report.ok
    assert_allclose(report.max_sq, 1.0)


def test_mu_ueb_order_mismatch():
    with pytest.raises(ValueError):
        check_mu_ueb(pauli_basis(), paper_ueb())


# ------------------------------------------------------------- obstruction


def test_obstruction_clean_for_pauli():
    report = monomial_obstruction(pauli_basis())
    assert isinstance(report, ObstructionReport)
    assert report.mu == 2
    assert not report.obstructed
    assert report.worst_norm <= 1e-10


def test_obstruction_clean_for_computational_shift_multiply():
    u = shift_multiply_ueb(qls_of(CYCLIC3), constant_family(fourier(3)))
    report = monomial_obstruction(u)
    assert report.mu == 6
    assert not report.obstructed
    assert report.worst_norm <= 1e-10


def test_obstruction_detects_fixture_basis():
    report = monomial_obstruction(paper_ueb())
    assert report.mu == 2520
    assert report.obstructed
    assert report.worst_pair == PAPER_P_WORST_PAIR
    assert_allclose(report.worst_norm, PAPER_P_WORST_NORM, atol=1e-6)
    assert_allclose(
        report.sample_entry,
        -0.39313616793866807 - 1.3422555533689478j,
        atol=1e-6,
    )


def test_an_obstruction_report_is_ok_when_nothing_is_proved():
    clean, obstructed = monomial_obstruction(pauli_basis()), monomial_obstruction(paper_ueb())
    assert (clean.obstructed, clean.ok) == (False, True)
    assert (obstructed.obstructed, obstructed.ok) == (True, False)


def test_obstruction_all_zero_norms_give_the_first_pair():
    # the powers of these untranslated bases are exactly +-I, so every
    # commutator norm is 0.0 and the tie goes to pair (0, 1)
    tensor_pauli = [np.kron(a, b) for a in (EYE2, X, Z, X @ Z) for b in (EYE2, X, Z, X @ Z)]
    for members in ([EYE2, X, Z, X @ Z], tensor_pauli):
        report = monomial_obstruction(validate_ueb(members))
        assert (report.worst_pair, report.worst_norm, report.sample_entry) == ((0, 1), 0.0, 0j)


def test_obstruction_equal_maxima_give_the_lexicographically_first_pair():
    # not a UEB, but the sweep only needs n^2 unitaries; mu = 2 and member 0
    # is I, so the powers are I, S^2, S^2, R^2 or I, S^2, R^2, R^2, and
    # equal members give bitwise equal commutator norms
    s = np.diag([1.0, 1j])
    r = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]], dtype=complex)
    across_rows = monomial_obstruction(UnitaryErrorBasis(2, [EYE2, s, s, r]))
    assert across_rows.worst_pair == (1, 3)  # ties with (2, 3)
    within_row = monomial_obstruction(UnitaryErrorBasis(2, [EYE2, s, r, r]))
    assert within_row.worst_pair == (1, 2)  # ties with (1, 3)
    assert across_rows.worst_norm == within_row.worst_norm > 1.0


def test_obstruction_normalizer_choices_stay_clean_on_monomial_bases():
    u = pauli_basis()
    for idx in range(4):
        assert not monomial_obstruction(member_first(u, idx)).obstructed


def test_obstruction_needs_order_two():
    order_one = validate_ueb(np.ones((1, 1, 1), dtype=complex))
    assert isinstance(order_one, UnitaryErrorBasis)
    with pytest.raises(ValueError, match="order >= 2"):
        monomial_obstruction(order_one)


def test_obstruction_noise_bound_overflows_to_inf():
    # 2U is far from unitary: (1 + delta)^mu overflows, so the powers, which
    # would overflow to NaN, are not taken
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = monomial_obstruction(UnitaryErrorBasis(9, 2 * paper_ueb().members))
    assert report.noise_bound == math.inf
    assert not report.obstructed
    assert (report.worst_pair, report.worst_norm, report.sample_entry) == (None, None, None)


def test_obstruction_order_twenty_monomial_equivalent_is_not_obstructed():
    # rounding alone leaves a worst norm of about 1.3e-6 here
    cyclic = LatinSquare(np.add.outer(np.arange(20), np.arange(20)) % 20)
    report = monomial_obstruction(monomial_equivalent_ueb(cyclic, np.random.default_rng(0)))
    assert 1e-7 < report.worst_norm <= report.noise_bound
    assert not report.obstructed


@pytest.mark.parametrize("n,mu", [(5, 60), (6, 60), (7, 420), (8, 840), (16, 720720)])
def test_obstruction_powers_to_the_lcm_of_one_to_n(n, mu):
    cyclic = LatinSquare(np.add.outer(np.arange(n), np.arange(n)) % n)
    report = monomial_obstruction(monomial_equivalent_ueb(cyclic, np.random.default_rng(n)))
    assert report.mu == mu
    assert report.worst_norm <= report.noise_bound < math.inf
    assert not report.obstructed


@pytest.mark.parametrize("n", [9, 16])
def test_matrix_power_of_a_stack_is_bitwise_the_per_member_power(n):
    # the batched sweep powers the whole translated stack at once and the
    # per-member reference powers one member at a time; they agree bit for
    # bit only if numpy powers every matrix of a stack alike
    cyclic = LatinSquare(np.add.outer(np.arange(n), np.arange(n)) % n)
    u = monomial_equivalent_ueb(cyclic, np.random.default_rng(6))
    translated = u.members @ u.members[0].conj().T
    mu = monomial_obstruction(u).mu
    single = np.stack([np.linalg.matrix_power(t, mu) for t in translated])
    assert np.linalg.matrix_power(translated, mu).tobytes() == single.tobytes()


def test_obstruction_powers_drift_from_unitary_by_less_than_the_noise_bound():
    # the bound's induction keeps every computed power within e of a unitary,
    # so the measured defect of the powers, about 2 sqrt(n) e, stays under
    # noise_bound, about 4 sqrt(n) e
    u = paper_ueb()
    report = monomial_obstruction(u)
    translated = u.members @ u.members[0].conj().T
    powers = np.linalg.matrix_power(translated, report.mu)
    gram = powers.conj().transpose(0, 2, 1) @ powers
    drift = np.linalg.norm(gram - np.eye(u.n), axis=(1, 2)).max()
    assert 0 < drift <= report.noise_bound < 1e-6


def test_obstruction_of_the_fixture_basis_is_the_per_pair_loop_bit_for_bit():
    # the property test compares clean bases; this one compares the
    # obstructed paper-P basis, whose worst pair is far above the noise
    report = monomial_obstruction(paper_ueb())
    expected = reference_obstruction(paper_ueb())
    assert report.obstructed and expected.obstructed
    assert_allclose(report.noise_bound, expected.noise_bound, rtol=1e-9)
    assert report == dataclasses.replace(expected, noise_bound=report.noise_bound)


@pytest.mark.parametrize(
    "build",
    [
        paper_ueb,
        lambda: paper_ueb("paper-Q"),
        order_18_product_ueb,
    ],
    ids=["paper-P", "paper-Q", "order-18"],
)
def test_the_obstruction_screen_brackets_every_norm_of_an_obstructed_basis(build):
    assert_the_screen_brackets_every_norm(build())


@pytest.mark.parametrize("n", [10, 12, 16])
def test_a_pruned_obstruction_sweep_is_the_per_pair_loop_bit_for_bit(n):
    # the screen leaves under 1% of the pairs of these bases live, so the
    # sweep multiplies out pruned rows; the report must not move
    cyclic = LatinSquare(np.add.outer(np.arange(n), np.arange(n)) % n)
    u = monomial_equivalent_ueb(cyclic, np.random.default_rng(n))
    report, expected = monomial_obstruction(u), reference_obstruction(u)
    assert_allclose(report.noise_bound, expected.noise_bound, rtol=1e-9)
    assert report == dataclasses.replace(expected, noise_bound=report.noise_bound)
    _, first, margin = reference_screen(u)
    live = np.count_nonzero(np.triu(first + margin >= np.max(first - margin), 1))
    assert 0 < live < 0.01 * (n**4 - n**2) / 2


@pytest.mark.parametrize("failure", ["eigh raises", "NaN margins"])
def test_an_obstruction_screen_that_bounds_nothing_prunes_nothing(monkeypatch, failure):
    def broken(powers, growth, eta):
        if failure == "eigh raises":
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return np.zeros((len(powers),) * 2), np.full((len(powers),) * 2, np.nan)

    cyclic = LatinSquare(np.add.outer(np.arange(8), np.arange(8)) % 8)
    u = monomial_equivalent_ueb(cyclic, np.random.default_rng(8))
    expected = monomial_obstruction(u)
    monkeypatch.setattr(ueb, "_screen", broken)
    assert monomial_obstruction(u) == expected


def test_the_screened_obstruction_peaks_below_the_unscreened_sweep():
    # numpy reports its buffers to tracemalloc: at order 16 the sweep without
    # the screen, which kept the translates and their Gram beside the powers,
    # peaked at 5.99 MiB; the screen's (count, count) arrays take 0.5 MiB each
    cyclic = LatinSquare(np.add.outer(np.arange(16), np.arange(16)) % 16)
    u = monomial_equivalent_ueb(cyclic, np.random.default_rng(0))
    monomial_obstruction(u)  # numpy's lazy set-up is not the sweep's
    tracemalloc.start()
    try:
        monomial_obstruction(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5.99 * 2**20


def test_obstruction_tensor_pauli_clean():
    members = [np.kron(a, b) for a in (EYE2, X, Z, X @ Z) for b in (EYE2, X, Z, X @ Z)]
    u = validate_ueb(members)
    assert isinstance(u, UnitaryErrorBasis)
    report = monomial_obstruction(u)
    assert report.mu == 12
    assert not report.obstructed

"""Property tests over permuted cyclic Latin squares of orders 1..8."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qlsmub.bases import check_mub, extract_unitary, qls_meb
from qlsmub.hadamard import hadamard_family, random_hadamard
from qlsmub.squares import (
    GridViolation,
    LatinSquare,
    QuantumLatinSquare,
    VectorGrid,
    computational_grid,
    validate_qls,
)
from qlsmub.ueb import (
    UebViolation,
    UnitaryErrorBasis,
    meb_to_ueb,
    monomial_obstruction,
    shift_multiply_ueb,
    ueb_to_meb,
    validate_ueb,
)

from helpers import random_unitary, reference_obstruction

PROPERTY = settings(max_examples=50, deadline=None, database=None)
SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def latin_squares(draw, min_order=1, max_order=8):
    """The cyclic square of a random order with rows, columns and symbols permuted."""
    n = draw(st.integers(min_order, max_order))
    rows, cols, symbols = (np.array(draw(st.permutations(range(n)))) for _ in range(3))
    cyclic = (rows[:, None] + cols[None, :]) % n
    return LatinSquare(symbols[cyclic])


def rotated_grid(latin: LatinSquare, seed: int) -> VectorGrid:
    """The computational grid with one Haar unitary applied to every entry."""
    u = random_unitary(latin.n, np.random.default_rng(seed))
    return VectorGrid(computational_grid(latin).array @ u.T)


def random_family(n: int, rng: np.random.Generator):
    return hadamard_family([random_hadamard(n, rng) for _ in range(n)])


def random_ueb(latin: LatinSquare, seed: int):
    family = random_family(latin.n, np.random.default_rng(seed))
    return shift_multiply_ueb(validate_qls(rotated_grid(latin, seed)), family)


@PROPERTY
@given(latin_squares(), SEEDS)
def test_computational_and_rotated_grids_are_quantum_latin_squares(latin, seed):
    assert isinstance(validate_qls(computational_grid(latin)), QuantumLatinSquare)
    assert isinstance(validate_qls(rotated_grid(latin, seed)), QuantumLatinSquare)


@PROPERTY
@given(latin_squares(), SEEDS, st.floats(1e-6, 1.0), st.data())
def test_scaled_entry_is_reported_at_its_row_and_diagonal_pair(latin, seed, delta, data):
    r = data.draw(st.integers(0, latin.n - 1), label="row")
    c = data.draw(st.integers(0, latin.n - 1), label="column")
    arr = rotated_grid(latin, seed).array.copy()
    arr[r, c] *= 1 + delta
    result = validate_qls(VectorGrid(arr))
    assert isinstance(result, GridViolation)
    assert (result.line, result.index, result.pair) == ("row", r, (c, c))
    assert abs(result.value - (1 + delta) ** 2) < 1e-12
    assert result.off_by == abs(result.value - 1)


@PROPERTY
@given(latin_squares(min_order=2), st.data())
def test_broken_latin_line_names_the_first_bad_line(latin, data):
    n = latin.n
    r = data.draw(st.integers(0, n - 1), label="row")
    c, other = data.draw(st.permutations(range(n)), label="columns")[:2]

    repeated = latin.cells.copy()
    repeated[r, c] = repeated[r, other]  # row r repeats a symbol; earlier rows are intact
    with pytest.raises(ValueError, match=f"^row {r} is not a permutation"):
        LatinSquare(repeated)

    swapped = latin.cells.copy()  # every row stays a permutation
    swapped[r, [c, other]] = swapped[r, [other, c]]
    with pytest.raises(ValueError, match=f"^column {min(c, other)} is not a permutation"):
        LatinSquare(swapped)


@PROPERTY
@given(latin_squares(), SEEDS, st.floats(1e-6, 1.0), st.data())
def test_scaled_member_is_non_unitary_at_its_index(latin, seed, delta, data):
    members = random_ueb(latin, seed).members.copy()
    index = data.draw(st.integers(0, len(members) - 1), label="member")
    members[index] *= 1 + delta
    result = validate_ueb(members)
    assert isinstance(result, UebViolation)
    assert (result.kind, result.index) == ("non-unitary", index)


@PROPERTY
@given(latin_squares(), SEEDS)
def test_extract_unitary_inverts_ueb_to_meb(latin, seed):
    u = random_ueb(latin, seed)
    for state, member in zip(ueb_to_meb(u).states, u.members):
        assert_allclose(extract_unitary(state), member, atol=1e-12)


@PROPERTY
@given(latin_squares(), SEEDS)
def test_shift_multiply_ueb_is_the_dual_of_the_qls_basis(latin, seed):
    qls = validate_qls(rotated_grid(latin, seed))
    family = random_family(latin.n, np.random.default_rng(seed))
    dual = meb_to_ueb(qls_meb(qls, family))
    assert_allclose(shift_multiply_ueb(qls, family).members, dual.members, atol=1e-12)


@PROPERTY
@given(latin_squares(), SEEDS, st.floats(-16.0, 0.0))
def test_check_mub_passes_exactly_when_every_overlap_is_within_tol(latin, seed, log_tol):
    rng = np.random.default_rng(seed)
    a = qls_meb(validate_qls(computational_grid(latin)), random_family(latin.n, rng))
    b = qls_meb(validate_qls(rotated_grid(latin, seed)), random_family(latin.n, rng))
    tol = 10.0**log_tol
    report = check_mub(a, b, tol)
    target = 1.0 / report.dim
    assert report.passed == (report.max_dev <= tol)
    assert report.max_dev == max(abs(report.min_sq - target), abs(report.max_sq - target))
    overlaps = np.abs(a.states.conj() @ b.states.T) ** 2
    assert report.passed == bool(np.all(np.abs(overlaps - target) <= tol))


@PROPERTY
@given(latin_squares(min_order=2, max_order=6), SEEDS, st.data())
def test_obstruction_sweep_is_the_per_pair_loop_bit_for_bit(latin, seed, data):
    # A @ M @ B for a monomial M: every commutator is zero up to rounding, so
    # the worst pair is decided by noise-level norms and near-ties
    rng = np.random.default_rng(seed)
    n = latin.n
    monomial = shift_multiply_ueb(validate_qls(computational_grid(latin)), random_family(n, rng))
    u = UnitaryErrorBasis(n, random_unitary(n, rng) @ monomial.members @ random_unitary(n, rng))
    normalizer = data.draw(st.integers(0, n * n - 1), label="normalizer")
    report = monomial_obstruction(u, normalizer=normalizer)
    expected = reference_obstruction(u, normalizer=normalizer)
    assert report.worst_pair == expected.worst_pair
    assert report.worst_norm == expected.worst_norm
    assert report.sample_entry == expected.sample_entry
    assert report == expected

"""Property tests over permuted cyclic Latin squares of orders 1..8 (7..12 for
the obstruction's noise bound), over broken inputs of orders 1..5, over the
paper's linear grids at the prime powers up to 13, and over product grids at
orders 18 and 27."""

from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qlsmub.bases import (
    BipartiteBasis,
    MubReport,
    check_mub,
    extract_unitary,
    is_maximally_entangled,
    is_orthonormal_basis,
    lbw_meb,
    qls_meb,
)
from qlsmub.fixtures import fixture
from qlsmub.hadamard import (
    HadamardMatrix,
    HadamardViolation,
    hadamard_family,
    random_hadamard,
    validate_hadamard,
)
from qlsmub.numerics import DEFAULT_TOL, first_gram_defect, is_permutation_matrix
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
    validate_qls,
    weak_orth_defects,
    weak_orth_witness,
)
from qlsmub.ueb import (
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
    GF_MUL,
    assert_the_screen_brackets_every_norm,
    field_square,
    field_tables,
    linear_grid,
    member_first,
    monomial_equivalent_ueb,
    order_18_product_ueb,
    product_grid,
    random_unitary,
    reference_lbw_meb,
    reference_meb_to_ueb,
    reference_obstruction,
    reference_qls_meb,
    reference_residual,
    reference_shift_multiply_ueb,
    reference_trace_gram,
    reference_weak_orth,
)

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


def rotated_ueb(latin: LatinSquare, seed: int) -> UnitaryErrorBasis:
    """A random UEB with a Haar unitary on each side: not a monomial one."""
    rng = np.random.default_rng(seed)
    n = latin.n
    members = random_unitary(n, rng) @ random_ueb(latin, seed).members @ random_unitary(n, rng)
    return UnitaryErrorBasis(n, members)


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
def test_meb_to_ueb_inverts_ueb_to_meb(latin, seed):
    """On A U B for Haar A, B: still a unitary error basis, but not a monomial one."""
    members = rotated_ueb(latin, seed).members
    u = validate_ueb(members)
    assert isinstance(u, UnitaryErrorBasis)
    assert_allclose(meb_to_ueb(ueb_to_meb(u)).members, members, rtol=0, atol=1e-12)


@PROPERTY
@given(latin_squares(), SEEDS)
def test_shift_multiply_ueb_is_the_dual_of_the_qls_basis(latin, seed):
    qls = validate_qls(rotated_grid(latin, seed))
    family = random_family(latin.n, np.random.default_rng(seed))
    dual = meb_to_ueb(qls_meb(qls, family))
    assert_allclose(shift_multiply_ueb(qls, family).members, dual.members, atol=1e-12)


@PROPERTY
@given(latin_squares(), SEEDS)
def test_constructions_are_the_per_label_loops_bit_for_bit(latin, seed):
    rng = np.random.default_rng(seed)
    qls = validate_qls(rotated_grid(latin, seed))
    family = random_family(latin.n, rng)
    h = random_hadamard(latin.n, rng)
    pairs = [
        (qls_meb(qls, family).states, reference_qls_meb(qls, family).states),
        (lbw_meb(latin, h).states, reference_lbw_meb(latin, h).states),
        (shift_multiply_ueb(qls, family).members, reference_shift_multiply_ueb(qls, family).members),
    ]
    for built, expected in pairs:
        assert built.shape == expected.shape and built.tobytes() == expected.tobytes()


@PROPERTY
@given(latin_squares(), SEEDS, st.floats(-16.0, 0.0))
def test_check_mub_passes_exactly_when_every_overlap_is_within_tol(latin, seed, log_tol):
    rng = np.random.default_rng(seed)
    a = qls_meb(validate_qls(computational_grid(latin)), random_family(latin.n, rng))
    b = qls_meb(validate_qls(rotated_grid(latin, seed)), random_family(latin.n, rng))
    tol = 10.0**log_tol
    report = check_mub(a, b, tol)
    target = 1.0 / report.dim
    assert report.ok == (report.max_dev <= tol)
    assert report.max_dev == max(abs(report.min_sq - target), abs(report.max_sq - target))
    overlaps = np.abs(a.states.conj() @ b.states.T) ** 2
    assert report.ok == bool(np.all(np.abs(overlaps - target) <= tol))


@PROPERTY
@given(latin_squares(), SEEDS, st.data())
def test_trace_grams_are_the_einsum_contraction(latin, seed, data):
    n = latin.n
    u, v = random_ueb(latin, seed), rotated_ueb(latin, seed + 1)
    atol = 1e-12 * n

    # |tr|^2 extremes: max and min of |t| move by at most the largest entry error
    traces = np.abs(reference_trace_gram(u.members, v.members))
    report = check_mu_ueb(u, v)
    assert_allclose(np.sqrt(report.raw_trace_sq_max), traces.max(), rtol=0, atol=atol)
    assert_allclose(np.sqrt(report.raw_trace_sq_min), traces.min(), rtol=0, atol=atol)

    # a member of v in place of one of u stays unitary but breaks the trace Gram
    members = u.members.copy()
    members[data.draw(st.integers(0, n * n - 1), label="member")] = v.members[0]
    gram = reference_trace_gram(members, members)
    result = validate_ueb(members)
    hit = first_gram_defect(gram, n, 1e-9)
    if hit is None:
        assert isinstance(result, UnitaryErrorBasis)
    else:
        assert (result.kind, result.pair) == ("trace-orthogonality", hit[0])
        assert_allclose(result.value, hit[1], rtol=0, atol=atol)


@PROPERTY
@given(latin_squares(), SEEDS, st.data())
def test_meb_to_ueb_is_the_per_state_loop_bit_for_bit(latin, seed, data):
    n = latin.n
    states = ueb_to_meb(rotated_ueb(latin, seed)).states.copy()
    # scaled states fail from a factor of about 1 + 1e-9 on, so the first
    # failure may be either one, or none
    for label in ("first", "second"):
        index = data.draw(st.integers(0, n * n - 1), label=f"{label} state")
        states[index] *= 1 + data.draw(st.floats(0.0, 1e-6), label=f"{label} excess")
    # a tol at a state's own residual, or one ulp below it, is decided by the last bit
    edge_state = states[data.draw(st.integers(0, n * n - 1), label="edge state")]
    edge = reference_residual(edge_state)
    assert is_maximally_entangled(edge_state, edge)
    assert is_maximally_entangled(edge_state, np.nextafter(edge, 0)) == (edge == 0)
    tol = data.draw(st.sampled_from([DEFAULT_TOL, edge, np.nextafter(edge, 0)]), label="tol")
    basis = BipartiteBasis(n, states)
    try:
        expected = reference_meb_to_ueb(basis, tol)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            meb_to_ueb(basis, tol)
        assert str(raised.value) == str(exc)
    else:
        assert np.array_equal(meb_to_ueb(basis, tol).members, expected.members)


@PROPERTY
@given(latin_squares(), SEEDS, st.floats(-16.0, 0.0))
def test_unbiased_uebs_are_unbiased_dual_bases(latin, seed, log_tol):
    # |tr(U_i* V_j) / n|^2 = |<psi_i|phi_j>|^2 for the dual states
    u, v = random_ueb(latin, seed), rotated_ueb(latin, seed + 1)
    tol = 10.0**log_tol
    by_traces = check_mu_ueb(u, v, tol)
    by_states = check_mub(ueb_to_meb(u), ueb_to_meb(v), tol)
    assert_allclose(by_traces.min_sq, by_states.min_sq, rtol=0, atol=1e-15)
    assert_allclose(by_traces.max_sq, by_states.max_sq, rtol=0, atol=1e-15)
    assert by_traces.ok == by_states.ok


@PROPERTY
@given(latin_squares(min_order=2, max_order=6), SEEDS, st.data())
def test_obstruction_sweep_is_the_per_pair_loop_bit_for_bit(latin, seed, data):
    # A @ M @ B for a monomial M: every commutator is zero up to rounding, so
    # the worst pair is decided by noise-level norms and near-ties
    u = monomial_equivalent_ueb(latin, np.random.default_rng(seed))
    u = member_first(u, data.draw(st.integers(0, latin.n**2 - 1), label="normalizer"))
    report = monomial_obstruction(u)
    expected = reference_obstruction(u)
    assert report.worst_pair == expected.worst_pair
    assert report.worst_norm == expected.worst_norm
    assert report.sample_entry == expected.sample_entry
    assert_allclose(report.noise_bound, expected.noise_bound, rtol=1e-9)
    assert report == replace(expected, noise_bound=report.noise_bound)
    assert report.worst_norm <= report.noise_bound and not report.obstructed


@PROPERTY
@given(latin_squares(min_order=2, max_order=8), SEEDS, st.data())
def test_the_obstruction_screen_brackets_every_commutator_norm(latin, seed, data):
    u = monomial_equivalent_ueb(latin, np.random.default_rng(seed))
    u = member_first(u, data.draw(st.integers(0, latin.n**2 - 1), label="normalizer"))
    assert_the_screen_brackets_every_norm(u)


@settings(max_examples=12, deadline=None, database=None)
@given(latin_squares(min_order=7, max_order=12), SEEDS)
def test_noise_bound_covers_monomial_equivalent_bases(latin, seed):
    u = monomial_equivalent_ueb(latin, np.random.default_rng(seed))
    report = monomial_obstruction(member_first(u, seed % latin.n**2))
    assert 0 < report.noise_bound < 1e-6
    assert report.worst_norm <= report.noise_bound and not report.obstructed


@PROPERTY
@given(st.integers(1, 3), st.integers(1, 5), SEEDS, st.floats(-2.0, 2.0), st.data())
def test_margins_are_the_deviations_the_checks_decided_on(count, n, seed, scale, data):
    # a tol drawn at an entry's own deviation, or one ulp below it, puts the
    # decision at the last bit; the margin must be the entry that was judged
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    checks = [
        (lambda tol: first_gram_defect(z, scale, tol), np.abs(z - scale * np.eye(n))),
        (lambda tol: validate_hadamard(z[0], tol), np.abs(np.abs(z[0]) - 1.0)),
    ]
    for check, dev in checks:
        edge = data.draw(st.sampled_from(sorted(dev.ravel())), label="edge deviation")
        tol = data.draw(st.sampled_from([edge, np.nextafter(edge, 0)]), label="tol")
        if not (dev > tol).any():
            continue
        result = check(tol)
        if isinstance(result, HadamardViolation):
            assert result.constraint == "unimodular"
            index, off_by = result.indices, result.off_by
        else:
            index, _, off_by = result
        assert off_by > tol and off_by == dev[index]


@PROPERTY
@given(st.integers(1, 5), SEEDS, st.data())
def test_weak_orth_margins_exceed_tol(n, seed, data):
    # products scattered around 0 and 1, and a tol drawn at one product's own
    # deviation from the nearer of them, or one ulp below it, put the decision
    # at the last bit.  Below 1/2 no product is near both, so a stray value or
    # a second unit is more than tol from 0 and a stray value from 1 as well.
    rng = np.random.default_rng(seed)
    centre = rng.integers(0, 2, (n, n))
    q = np.zeros((n, n, n), dtype=complex)
    q[..., 0] = 1.0
    p = np.zeros((n, n, n), dtype=complex)  # <q[i,k]|p[j,k]> = p[j, k, 0]
    p[..., 0] = centre + 0.3 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    prods = np.einsum("ikc,jkc->ijk", q.conj(), p)
    near = np.minimum(np.abs(prods), np.abs(prods - 1.0))
    edges = sorted(near[near < 0.5])
    assume(edges)
    edge = data.draw(st.sampled_from(edges), label="edge deviation")
    tol = data.draw(st.sampled_from([edge, np.nextafter(edge, 0)]), label="tol")
    f = weak_orth_witness(VectorGrid(q), VectorGrid(p), tol)
    if isinstance(f, WeakOrthFailure) and f.kind != "missing-unit":
        dev = np.abs(prods) if f.kind == "non-unique-unit" else near
        assert f.off_by > tol and f.off_by == dev[f.q_row, f.p_row, f.column]


# Entry edits that break weak orthogonality in each way: a factor moves a
# product off 0 or 1 (stray), onto 0 (missing unit) or near 1; a copied
# vector from another row of the column makes a second unit or removes one.
EDITS = st.tuples(
    st.integers(0, 5),
    st.integers(0, 5),
    st.one_of(
        st.sampled_from([0.0, 0.5, 1 + 1e-6, 1.4, 1j, "copy"]),
        st.complex_numbers(max_magnitude=2.0),
    ),
)


@PROPERTY
@given(latin_squares(min_order=2, max_order=6), SEEDS, st.data())
def test_weak_orth_witness_is_the_scan_over_row_pairs(latin, seed, data):
    n = latin.n
    other = data.draw(latin_squares(min_order=n, max_order=n), label="other")
    u = random_unitary(n, np.random.default_rng(seed))
    q = computational_grid(latin).array @ u.T
    p = computational_grid(other).array @ u.T
    for row, col, edit in data.draw(st.lists(EDITS, max_size=3), label="edits"):
        row, col = row % n, col % n
        p[row, col] = p[(row + 1) % n, col] if edit == "copy" else p[row, col] * edit
    tol = data.draw(st.sampled_from([1e-9, 1e-3, 0.3, 0.6]), label="tol")
    got = weak_orth_witness(VectorGrid(q), VectorGrid(p), tol)
    expected = reference_weak_orth(VectorGrid(q), VectorGrid(p), tol)
    assert type(got) is type(expected)
    if isinstance(expected, WeakOrthFailure):
        assert repr(got) == repr(expected)  # Python ints, not numpy scalars
    else:
        assert got.table.dtype == np.int64
        assert np.array_equal(got.table, expected.table)


@PROPERTY
@given(latin_squares(min_order=2, max_order=5), SEEDS, st.data())
def test_stacked_decisions_are_the_single_pair_calls_slice_by_slice(latin, seed, data):
    n = latin.n
    u = random_unitary(n, np.random.default_rng(seed))
    q = computational_grid(latin).array @ u.T
    ps, maps = [], []
    for _ in range(data.draw(st.integers(1, 4), label="stack size")):
        other = data.draw(latin_squares(min_order=n, max_order=n), label="other")
        p = computational_grid(other).array @ u.T
        m = orthogonality_map(left_conjugate(latin), left_conjugate(other)).astype(complex)
        for row, col, edit in data.draw(st.lists(EDITS, max_size=3), label="edits"):
            row, col = row % n, col % n
            p[row, col] = p[(row + 1) % n, col] if edit == "copy" else p[row, col] * edit
            # the same edit on the map: a copied row or a scaled unit entry
            unit = m[row * n + col].argmax()
            if edit == "copy":
                m[row * n + col] = m[((row + 1) % n) * n + col]
            else:
                m[row * n + col, unit] *= edit
        ps.append(p)
        maps.append(m)
    tol = data.draw(st.sampled_from([1e-9, 1e-3, 0.3, 0.6]), label="tol")

    prods = np.einsum("ikc,bjkc->bijk", q.conj(), np.stack(ps))
    near_one, defect = weak_orth_defects(prods, tol)
    verdicts = is_permutation_matrix(np.stack(maps))
    for b, (p, m) in enumerate(zip(ps, maps)):
        single_one, single_defect = weak_orth_defects(np.einsum("ikc,jkc->ijk", q.conj(), p), tol)
        assert np.array_equal(near_one[b], single_one)
        assert np.array_equal(defect[b], single_defect)
        expected = reference_weak_orth(VectorGrid(q), VectorGrid(p), tol)
        assert (not defect[b].any()) == isinstance(expected, WeakOrthWitness)
        assert verdicts[b] == is_permutation_matrix(m)


# how one entry of a valid input is broken: set to NaN or an infinity, or, if
# its modulus is at least 0.1, scaled by 1e200 so that its square overflows;
# or the whole input is scaled
BREAKS = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf, "imaginary nan": complex(0, np.nan)}
SCALINGS = ("entry scaled", "all scaled")


def broken(arr, data, label: str, ways) -> np.ndarray:
    """A copy of ``arr`` broken in one of ``ways``, as ``data`` draws it."""
    arr = np.array(arr, dtype=np.complex128, order="C")
    flat = arr.reshape(-1)  # a view, as arr is C-ordered
    how = data.draw(st.sampled_from(ways), label=f"{label}: how")
    if how == "all scaled":
        return arr * 1e200
    if how == "entry scaled":
        large = np.flatnonzero(np.abs(flat) >= 0.1).tolist()
        flat[data.draw(st.sampled_from(large), label=f"{label}: entry")] *= 1e200
    else:
        flat[data.draw(st.integers(0, flat.size - 1), label=f"{label}: entry")] = BREAKS[how]
    return arr


def passes(check, *args) -> bool:
    """Whether ``check(*args)`` returns a pass; a ValueError is none."""
    try:
        with np.errstate(all="ignore"):  # the overflow is the point
            result = check(*args)
    except ValueError:
        return False
    if isinstance(result, MubReport):
        return result.ok
    return result is True or isinstance(
        result, (HadamardMatrix, UnitaryErrorBasis, QuantumLatinSquare, WeakOrthWitness)
    )


@PROPERTY
@given(st.integers(1, 5), SEEDS, st.data())
def test_no_check_passes_on_non_finite_arithmetic(n, seed, data):
    rng = np.random.default_rng(seed)
    u = random_unitary(n, rng)
    r = np.arange(n)
    q, p = (linear_grid(LatinSquare(np.add.outer(r, k * r) % n), u) for k in (1, 2 if n % 2 else 1))
    qls, family, h = validate_qls(q), random_family(n, rng), random_hadamard(n, rng).mat
    states = qls_meb(qls, family).states
    partner = np.kron(h, h) @ states / n  # <states[s]|partner[t]> = kron(h, h)[t, s] / n: unbiased
    state = states[data.draw(st.integers(0, n * n - 1), label="state")]
    everything = (*BREAKS, *SCALINGS)
    checks = {  # each check, its valid inputs, and the ways to break each of them
        "validate_hadamard": (validate_hadamard, (h,), everything),
        "validate_ueb": (validate_ueb, (shift_multiply_ueb(qls, family).members,), everything),
        "check_mub": (check_mub, (states, partner), everything),
        "is_orthonormal_basis": (is_orthonormal_basis, (states,), everything),
        "is_maximally_entangled": (is_maximally_entangled, (state,), everything),
        "validate_qls": (lambda g: validate_qls(VectorGrid(g)), (q.array,), SCALINGS),
        "weak_orth_witness": (
            lambda a, b: weak_orth_witness(VectorGrid(a), VectorGrid(b)), (q.array, p.array), SCALINGS
        ),
    }
    for name, (check, args, ways) in checks.items():
        # these grids are weakly orthogonal only at odd orders
        assert passes(check, *args) or (name == "weak_orth_witness" and n % 2 == 0), name
        args = [broken(arg, data, f"{name} {i}", ways) for i, arg in enumerate(args)]
        assert not passes(check, *args), name


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13])
def test_field_tables_satisfy_the_field_axioms(q):
    add, mul = field_tables(q)
    r = np.arange(q)
    a, b, c = np.ix_(r, r, r)
    for op in (add, mul):
        assert np.array_equal(op, op.T)
        assert np.array_equal(op[op[a, b], c], op[a, op[b, c]])
    assert np.array_equal(mul[a, add[b, c]], add[mul[a, b], mul[a, c]])
    assert np.array_equal(add[0], r) and np.array_equal(mul[1], r)
    assert ((add == 0).sum(axis=1) == 1).all()  # every element has a negative
    assert ((mul[1:, 1:] == 1).sum(axis=1) == 1).all()  # every nonzero one an inverse
    if q in GF_MUL:  # x, the base-p number 10, is a root of its polynomial
        x, coefficients = {4: (2, (1, 1, 1)), 8: (2, (1, 0, 1, 1)), 9: (3, (1, 0, 1))}[q]
        value = 0
        for coefficient in coefficients:  # Horner's rule
            value = add[mul[value, x], coefficient]
        assert value == 0


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_field_squares_are_orthogonal_and_left_orthogonal(q):
    squares = [field_square(q, k) for k in range(1, q)]
    for a, b in combinations(squares, 2):
        assert are_orthogonal(a, b) and are_left_orthogonal(a, b)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 8, 9, 11, 13])
def test_linear_grids_give_n_minus_one_mubs_at_prime_orders(n):
    """The paper's construction at a prime power n: the grids of the squares
    r + k*c over GF(n), k = 1..n-1, over one Haar unitary are quantum Latin
    squares, weakly orthogonal in pairs, and with any Hadamard families they
    give n - 1 pairwise unbiased, orthonormal bases of maximally entangled
    states."""
    rng = np.random.default_rng(n)
    u = random_unitary(n, rng)
    squares = [validate_qls(linear_grid(field_square(n, k), u)) for k in range(1, n)]
    assert all(isinstance(q, QuantumLatinSquare) for q in squares)
    assert n < 3 or is_moqls(squares)
    bases = [qls_meb(q, hadamard_family([random_hadamard(n, rng) for _ in range(n)]))
             for q in squares]
    for basis in bases:
        assert is_orthonormal_basis(basis)
        assert all(is_maximally_entangled(state) for state in basis.states)
    for a, b in combinations(bases, 2):
        assert check_mub(a, b).ok


def test_product_grids_give_mubs_at_order_27():
    """paper-P (x) L1 and paper-Q (x) L2, with L_k(r, c) = r + k*c mod 3: genuinely
    quantum grids of order 27 that are quantum Latin squares, weakly
    orthogonal both ways, and give two unbiased, orthonormal bases of
    maximally entangled states."""
    rng = np.random.default_rng(27)
    grids = [product_grid(fixture(name), field_square(3, k))
             for name, k in (("paper-P", 1), ("paper-Q", 2))]
    squares = [validate_qls(grid) for grid in grids]
    assert all(isinstance(q, QuantumLatinSquare) for q in squares)
    assert isinstance(weak_orth_witness(*grids), WeakOrthWitness)
    assert isinstance(weak_orth_witness(*grids[::-1]), WeakOrthWitness)
    a, b = (qls_meb(q, random_family(27, rng)) for q in squares)
    for basis in (a, b):
        assert is_orthonormal_basis(basis)
        assert len(basis.states) == 729
        assert all(is_maximally_entangled(state) for state in basis.states)
    assert check_mub(a, b).ok


def test_product_grids_give_mubs_at_order_36():
    """paper-P (x) L1 and paper-Q (x) L2, with L_k over GF(4): quantum Latin
    squares of order 36, weakly orthogonal both ways, whose bases are
    orthonormal, maximally entangled and mutually unbiased."""
    rng = np.random.default_rng(36)
    grids = [product_grid(fixture(name), field_square(4, k))
             for name, k in (("paper-P", 1), ("paper-Q", 2))]
    squares = [validate_qls(grid) for grid in grids]
    assert all(isinstance(q, QuantumLatinSquare) for q in squares)
    assert isinstance(weak_orth_witness(*grids), WeakOrthWitness)
    assert isinstance(weak_orth_witness(*grids[::-1]), WeakOrthWitness)
    a, b = (qls_meb(q, random_family(36, rng)) for q in squares)
    for basis in (a, b):
        assert is_orthonormal_basis(basis)
        assert len(basis.states) == 1296
        assert all(is_maximally_entangled(state) for state in basis.states)
    assert check_mub(a, b).ok


def test_the_order_18_product_is_obstructed():
    """paper-P and paper-Q (x) the order-2 Latin square, genuinely quantum
    grids of order 18: their shift-and-multiply bases are proved
    non-monomial, and stay so after Haar unitaries on both sides."""
    rng = np.random.default_rng(18)
    for name in ("paper-P", "paper-Q"):
        u = order_18_product_ueb(name)
        rotated = UnitaryErrorBasis(18, random_unitary(18, rng) @ u.members @ random_unitary(18, rng))
        for basis in (u, rotated):
            report = monomial_obstruction(basis)
            assert report.obstructed and report.worst_norm > report.noise_bound


@PROPERTY
@given(latin_squares(min_order=2, max_order=7), SEEDS)
def test_lbw_bases_are_never_obstructed(latin, seed):
    h = random_hadamard(latin.n, np.random.default_rng(seed))
    report = monomial_obstruction(meb_to_ueb(lbw_meb(latin, h)))
    assert not report.obstructed and report.worst_norm <= report.noise_bound

"""Acceptance gate: the eleven end-to-end criteria the package must meet.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.  Expected numeric values marked as frozen below were produced
by an independent oracle run (numpy matrix_power, separate code path) before
this suite was written and are pinned here.
"""

import time

import numpy as np

from qlsmub.bases import (
    check_mub,
    is_maximally_entangled,
    is_orthonormal_basis,
    lbw_meb,
    qls_meb,
)
from qlsmub.fixtures import (
    block_square_grid,
    fixture,
    hadamard_9_corrected,
    paper_p_grid,
    paper_q_grid,
)
from qlsmub.hadamard import (
    HadamardMatrix,
    HadamardViolation,
    constant_family,
    fourier,
    hadamard_family,
    random_hadamard,
    validate_hadamard,
)
from qlsmub.search import (
    count_latin,
    count_latin_by_columns,
    count_orthogonal_pairs,
    cross_validate_lemma16,
)
from qlsmub.squares import (
    LatinSquare,
    computational_grid,
    left_conjugate,
    validate_qls,
    weak_orth_witness,
)
from qlsmub.ueb import (
    UnitaryErrorBasis,
    meb_to_ueb,
    monomial_obstruction,
    shift_multiply_ueb,
    ueb_to_meb,
    validate_ueb,
)

from helpers import (
    PAPER_P_WORST_NORM,
    PAPER_P_WORST_PAIR,
    match_up_to_phase,
    paper_ueb,
    random_orthonormal_triple,
    reference_orthogonal_pairs,
    reference_squares,
    weakly_orthogonal_family,
)

# Frozen oracle value for criterion 8 (commutator sweep of the fixture
# basis) beside the worst pair and norm that helpers pins: the (0, 0) entry
# of the worst commutator.
FROZEN_SAMPLE_ENTRY = -0.39313616793866807 - 1.3422555533689478j

_cache = {}


def _criterion(num: int, desc: str, ok: bool, elapsed: float | None = None) -> None:
    status = "PASS" if ok else "FAIL"
    suffix = "" if elapsed is None else f" ({elapsed:.2f}s)"
    print(f"[{status}] criterion {num}: {desc}{suffix}")
    assert ok, f"criterion {num} failed: {desc}"


def fixture_bases():
    if "bases" not in _cache:
        family = constant_family(hadamard_9_corrected())
        a = qls_meb(validate_qls(paper_p_grid()), family)
        b = qls_meb(validate_qls(paper_q_grid()), family)
        _cache["bases"] = (a, b)
    return _cache["bases"]


def test_criterion_01_order_nine_reproduction():
    start = time.perf_counter()
    a, b = fixture_bases()
    report = check_mub(a, b, tol=1e-9)
    elapsed = time.perf_counter() - start
    worst = max(abs(report.min_sq - 1 / 81), abs(report.max_sq - 1 / 81))
    ok = (
        report.ok
        and report.dim == 81
        and worst <= 1e-9
        and elapsed <= 10.0
    )
    _criterion(
        1,
        f"all 6561 squared overlaps within {worst:.2e} of 1/81",
        ok,
        elapsed,
    )


def test_criterion_02_meb_validity():
    a, b = fixture_bases()
    gram_residuals = []
    trace_residuals = []
    for basis in (a, b):
        gram = basis.states.conj() @ basis.states.T
        gram_residuals.append(float(np.abs(gram - np.eye(81)).max()))
        for s in basis.states:
            rho = np.outer(s, s.conj())
            reduced = np.einsum("kplp->kl", rho.reshape(9, 9, 9, 9))
            trace_residuals.append(
                float(np.linalg.norm(reduced - np.eye(9) / 9))
            )
        assert is_orthonormal_basis(basis, tol=1e-9)
        assert all(is_maximally_entangled(s, tol=1e-9) for s in basis.states)
    ok = max(gram_residuals) <= 1e-9 and max(trace_residuals) <= 1e-9
    _criterion(
        2,
        "both 81-state bases orthonormal "
        f"(Gram residual {max(gram_residuals):.2e}) and every partial trace "
        f"within {max(trace_residuals):.2e} of I/9",
        ok,
    )


def test_criterion_03_order_three_unbiased_pairs():
    start = time.perf_counter()
    rng = np.random.default_rng(2026)
    pairs = reference_orthogonal_pairs(3)
    squares = reference_squares(3)
    worst = 0.0
    for ia, ib in pairs:
        a, b = squares[ia], squares[ib]
        qa = validate_qls(computational_grid(left_conjugate(a)))
        qb = validate_qls(computational_grid(left_conjugate(b)))
        fam_a = hadamard_family([random_hadamard(3, rng) for _ in range(3)])
        fam_b = hadamard_family([random_hadamard(3, rng) for _ in range(3)])
        report = check_mub(
            qls_meb(qa, fam_a).states, qls_meb(qb, fam_b).states, tol=1e-9
        )
        assert report.ok
        worst = max(
            worst, abs(report.min_sq - 1 / 9), abs(report.max_sq - 1 / 9)
        )
    elapsed = time.perf_counter() - start
    ok = len(pairs) == 72 and worst <= 1e-9 and elapsed <= 5.0
    _criterion(
        3,
        f"{len(pairs)} orthogonal order-3 pairs give unbiased bases with "
        f"random families (worst overlap deviation {worst:.2e})",
        ok,
        elapsed,
    )


def test_criterion_04_orthogonality_route_equivalence():
    start = time.perf_counter()
    r2 = cross_validate_lemma16(2)
    r3 = cross_validate_lemma16(3)
    elapsed = time.perf_counter() - start
    ok = (
        r2.ok
        and r3.ok
        and r2.pairs_checked == 4
        and r3.pairs_checked == 144
        and r3.positives == 72
        and elapsed <= 1.0
    )
    _criterion(
        4,
        "witness, left-conjugate, and permutation routes agree on all "
        f"{r2.pairs_checked} + {r3.pairs_checked} ordered pairs (orders 2, 3)",
        ok,
        elapsed,
    )


def test_criterion_05_conjugation_involution():
    squares = reference_squares(4)
    ok = len(squares) == 576 and all(
        left_conjugate(left_conjugate(sq)) == sq for sq in squares
    )
    _criterion(
        5, f"left conjugation is an involution on all {len(squares)} order-4 squares", ok
    )


def test_criterion_06_hadamard_validator():
    worst_residual = 0.0
    accepted = True
    mats = [fourier(n).mat for n in range(1, 17)]
    mats.append(hadamard_9_corrected().mat)
    for mat in mats:
        n = mat.shape[0]
        result = validate_hadamard(mat, tol=1e-12)
        accepted &= isinstance(result, HadamardMatrix)
        residual = max(
            float(np.abs(mat @ mat.conj().T - n * np.eye(n)).max()),
            float(np.abs(mat.conj().T @ mat - n * np.eye(n)).max()),
        )
        worst_residual = max(worst_residual, residual)
    printed = validate_hadamard(fixture("hadamard-9-printed"))
    rejected = (
        isinstance(printed, HadamardViolation)
        and printed.constraint == "row-orthogonality"
        and printed.indices == (3, 4)
    )
    ok = accepted and worst_residual <= 1e-12 and rejected
    _criterion(
        6,
        "validator accepts Fourier orders 1..16 and the order-9 tensor square "
        f"(residual {worst_residual:.2e}) and rejects the defective matrix "
        "at row pair (3, 4)",
        ok,
    )


def test_criterion_07_duality_round_trips():
    pauli = validate_ueb(
        [
            np.eye(2, dtype=complex),
            np.array([[0, 1], [1, 0]], dtype=complex),
            np.diag([1.0, -1.0]).astype(complex),
            np.array([[0, -1], [1, 0]], dtype=complex),
        ]
    )
    a, b = fixture_bases()
    constructed = [a, b]
    rng = np.random.default_rng(9)
    fam = hadamard_family([random_hadamard(3, rng) for _ in range(3)])
    cyclic = reference_squares(3)[0]
    constructed.append(qls_meb(validate_qls(computational_grid(cyclic)), fam))
    constructed.append(lbw_meb(cyclic, fourier(3)))

    worst = 0.0
    for u in (pauli, paper_ueb()):
        round_u = meb_to_ueb(ueb_to_meb(u))
        worst = max(worst, float(np.abs(round_u.members - u.members).max()))
    every_dual_validates = True
    for basis in constructed:
        u = meb_to_ueb(basis)
        every_dual_validates &= isinstance(
            validate_ueb(u.members), UnitaryErrorBasis
        )
        round_b = ueb_to_meb(u)
        worst = max(worst, float(np.abs(round_b.states - basis.states).max()))
    ok = worst <= 1e-12 and every_dual_validates
    _criterion(
        7,
        f"duality round trips are the identity within {worst:.2e} and every "
        "constructed basis has a valid unitary dual",
        ok,
    )


def _oracle_commutator_sweep(u: UnitaryErrorBasis, mu: int):
    # Independent recomputation: numpy's matrix_power instead of the
    # library's repeated squaring, and a fresh argmax over all pairs.
    translated = u.members @ u.members[0].conj().T
    powers = np.stack(
        [np.linalg.matrix_power(translated[s], mu) for s in range(len(u))]
    )
    worst_pair, worst_norm = (0, 1), -1.0
    count = len(u)
    for i in range(count):
        for j in range(i + 1, count):
            norm = float(
                np.linalg.norm(powers[i] @ powers[j] - powers[j] @ powers[i])
            )
            if norm > worst_norm:
                worst_pair, worst_norm = (i, j), norm
    i, j = worst_pair
    sample = complex((powers[i] @ powers[j] - powers[j] @ powers[i])[0, 0])
    return worst_pair, worst_norm, sample


def test_criterion_08_monomiality_obstruction():
    u = paper_ueb()
    start = time.perf_counter()
    report = monomial_obstruction(u)
    elapsed = time.perf_counter() - start

    oracle_pair, oracle_norm, oracle_sample = _oracle_commutator_sweep(u, report.mu)

    pauli = validate_ueb(
        [
            np.eye(2, dtype=complex),
            np.array([[0, 1], [1, 0]], dtype=complex),
            np.diag([1.0, -1.0]).astype(complex),
            np.array([[0, -1], [1, 0]], dtype=complex),
        ]
    )
    cyclic = reference_squares(3)[0]
    latin_sm = shift_multiply_ueb(
        validate_qls(computational_grid(cyclic)), constant_family(fourier(3))
    )

    ok = (
        report.mu == 2520
        and report.obstructed
        and report.worst_norm > 1e-6
        and report.worst_pair == PAPER_P_WORST_PAIR
        and abs(report.worst_norm - PAPER_P_WORST_NORM) <= 1e-6
        and abs(report.sample_entry - FROZEN_SAMPLE_ENTRY) <= 1e-6
        and oracle_pair == report.worst_pair
        and abs(oracle_norm - report.worst_norm) <= 1e-9
        and abs(oracle_sample - report.sample_entry) <= 1e-9
        and not monomial_obstruction(pauli).obstructed
        and not monomial_obstruction(latin_sm).obstructed
        and elapsed <= 60.0
    )
    _criterion(
        8,
        f"fixture basis obstructed (worst norm {report.worst_norm:.10f} at "
        f"pair {report.worst_pair}, oracle agrees within "
        f"{abs(oracle_norm - report.worst_norm):.1e}); monomial bases clean",
        ok,
        elapsed,
    )


def test_criterion_09_three_member_family():
    default = [fixture("paper-P"), fixture("paper-Q"), fixture("block-square")]
    ok = weakly_orthogonal_family(default)
    names = ("P", "Q", "block")
    for (ia, a), (ib, b) in (((0, default[0]), (1, default[1])),
                             ((0, default[0]), (2, default[2])),
                             ((1, default[1]), (2, default[2]))):
        witness = weak_orth_witness(a, b)
        print(f"witness table {names[ia]} vs {names[ib]}:")
        for row in witness.table:
            print("  " + " ".join(f"{int(x)}" for x in row))

    rng = np.random.default_rng(2027)
    replacements_ok = True
    for _ in range(2):
        triple = random_orthonormal_triple(rng)
        family = [
            paper_p_grid(triple),
            paper_q_grid(triple),
            block_square_grid(triple),
        ]
        replacements_ok &= weakly_orthogonal_family(family)
    ok = ok and replacements_ok
    _criterion(
        9,
        "the bundled three-grid family is mutually weakly orthogonal, "
        "also under two random replacement triples",
        ok,
    )


def test_criterion_10_single_square_correspondence():
    h = fourier(3)
    ht = validate_hadamard(h.mat.T)
    candidates = {
        "identity+H": (lambda s: s, h),
        "identity+HT": (lambda s: s, ht),
        "transpose+H": (lambda s: LatinSquare(s.cells.T), h),
        "transpose+HT": (lambda s: LatinSquare(s.cells.T), ht),
        "left-conjugate+H": (left_conjugate, h),
        "left-conjugate+HT": (left_conjugate, ht),
    }
    surviving = set(candidates)
    exact = True
    for latin in reference_squares(3):
        via_qls = qls_meb(
            validate_qls(computational_grid(latin)), constant_family(h)
        )
        for name in list(surviving):
            square_map, matrix = candidates[name]
            via_lbw = lbw_meb(square_map(latin), matrix)
            if not match_up_to_phase(via_qls.states, via_lbw.states):
                surviving.discard(name)
        # the stable correspondence holds bit for bit, not just up to phase
        exact &= np.array_equal(via_qls.states, lbw_meb(left_conjugate(latin), ht).states)
    print(f"surviving correspondences across all 12 squares: {sorted(surviving)}")
    # the left-conjugate route with the transposed matrix is the stable
    # correspondence; with this symmetric matrix its untransposed twin
    # coincides with it
    ok = surviving == {"left-conjugate+H", "left-conjugate+HT"} and exact
    _criterion(
        10,
        "one correspondence (left conjugate + transposed matrix) matches the "
        "two constructions bit for bit on all 12 order-3 squares",
        ok,
    )


def test_criterion_11_search_results():
    counts = [count_latin(n) for n in range(1, 5)]
    recounts = [count_latin_by_columns(n) for n in range(1, 5)]
    ok = (
        count_orthogonal_pairs(2) == 0
        and counts == [1, 2, 12, 576]
        and recounts == counts
    )
    _criterion(
        11,
        f"no orthogonal pairs at order 2; Latin square counts {counts} match "
        "the column-major recount",
        ok,
    )

"""Sampling and reference helpers, and the table of CLI calls, shared by the tests."""

import json
import math
import re
import reprlib
import sys
from contextlib import contextmanager
from functools import cache
from itertools import chain, combinations, permutations

import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qlsmub import search
from qlsmub.bases import BipartiteBasis, qls_meb
from qlsmub.fixtures import fixture, hadamard_9_corrected
from qlsmub.hadamard import (
    HadamardFamily,
    HadamardMatrix,
    constant_family,
    fourier,
    hadamard_family,
    random_hadamard,
    tensor_hadamard,
)
from qlsmub.numerics import DEFAULT_TOL, is_permutation_matrix
from qlsmub.search import EquivalenceReport, _latin_cells
from qlsmub.serialize import FORMAT, SCHEMAS, SerializeError, save_path, to_doc
from qlsmub.squares import (
    LatinSquare,
    QuantumLatinSquare,
    VectorGrid,
    WeakOrthFailure,
    WeakOrthWitness,
    are_orthogonal,
    computational_grid,
    left_conjugate,
    orthogonality_map,
    validate_qls,
    weak_orth_witness,
)
from qlsmub.ueb import ObstructionReport, UnitaryErrorBasis, _screen, shift_multiply_ueb


# The frozen result of the commutator sweep of paper-P's order-9 UEB (the
# fixture grid with the corrected order-9 Hadamard): its worst pair and norm.
PAPER_P_WORST_PAIR = (25, 26)
PAPER_P_WORST_NORM = 4.4785390072245965


@contextmanager
def raises_exactly(kind: type, message: str):
    """``pytest.raises`` for ``kind`` itself, not a subclass, with ``message``
    as its whole text."""
    with pytest.raises(kind, match=f"^{re.escape(message)}$") as info:
        yield
    assert info.type is kind


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed n x n unitary (QR of a complex Ginibre matrix)."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_orthonormal_triple(rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """A Haar-random orthonormal triple spanning span{|3>, |4>, |5>} of C^9,
    to put in place of the fixture grids' (a, b, c)."""
    out = np.zeros((3, 9), dtype=np.complex128)
    out[:, 3:6] = random_unitary(3, rng).T
    return tuple(out)


def paper_ueb(name: str = "paper-P") -> UnitaryErrorBasis:
    """The shift-and-multiply basis of the order-9 fixture grid ``name`` with
    the constant family of the corrected order-9 Hadamard."""
    return shift_multiply_ueb(validate_qls(fixture(name)), constant_family(hadamard_9_corrected()))


def linear_grid(latin: LatinSquare, u: np.ndarray) -> VectorGrid:
    """Grid whose (r, c) entry is column ``latin[r, c]`` of the unitary u.

    It is a quantum Latin square for every Latin square, and two such grids
    are weakly orthogonal when the left conjugates of their squares are
    orthogonal, since u keeps every inner product of the computational grids.
    """
    return VectorGrid(u.T[latin.cells])


# Multiplication tables of GF(4), GF(8) and GF(9), the finite fields of 4, 8
# and 9 elements.  The element a + b x (+ c x^2) is the base-p number with
# digits (c,) b, a; the products are reduced by x^2 + x + 1 and x^3 + x + 1
# over GF(2) and by x^2 + 1 over GF(3).
GF_MUL = {
    4: [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]],
    8: [[0, 0, 0, 0, 0, 0, 0, 0], [0, 1, 2, 3, 4, 5, 6, 7], [0, 2, 4, 6, 3, 1, 7, 5],
        [0, 3, 6, 5, 7, 4, 1, 2], [0, 4, 3, 7, 6, 2, 5, 1], [0, 5, 1, 4, 2, 7, 3, 6],
        [0, 6, 7, 1, 5, 3, 2, 4], [0, 7, 5, 2, 1, 6, 4, 3]],
    9: [[0, 0, 0, 0, 0, 0, 0, 0, 0], [0, 1, 2, 3, 4, 5, 6, 7, 8], [0, 2, 1, 6, 8, 7, 3, 5, 4],
        [0, 3, 6, 2, 5, 8, 1, 4, 7], [0, 4, 8, 5, 6, 1, 7, 2, 3], [0, 5, 7, 8, 1, 3, 4, 6, 2],
        [0, 6, 3, 1, 7, 4, 2, 8, 5], [0, 7, 5, 4, 2, 6, 8, 3, 1], [0, 8, 4, 7, 3, 2, 5, 1, 6]],
}


def field_tables(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Addition and multiplication tables of GF(q), for q a prime or 4, 8, 9.

    A prime field is the integers mod q.  In GF(4), GF(8) and GF(9) addition
    adds the base-p digits mod p, and multiplication is ``GF_MUL``.
    """
    r = np.arange(q)
    if q not in GF_MUL:
        return np.add.outer(r, r) % q, np.multiply.outer(r, r) % q
    p = next(d for d in range(2, q) if q % d == 0)
    shape = (p,) * round(math.log(q, p))
    digits = np.array(np.unravel_index(r, shape))  # (digit, element)
    add = np.ravel_multi_index(tuple((digits[:, :, None] + digits[:, None, :]) % p), shape)
    return add, np.array(GF_MUL[q])


def field_square(q: int, k: int) -> LatinSquare:
    """The Latin square L_k(r, c) = r + k*c over GF(q), for k != 0.

    The q - 1 squares of k = 1..q-1 are pairwise orthogonal, and so are their
    left conjugates.
    """
    add, mul = field_tables(q)
    return LatinSquare(add[:, mul[k]])


def product_grid(g: VectorGrid, latin: LatinSquare) -> VectorGrid:
    """The grid (G (x) L)[(i,k),(j,l)] = G[i,j] (x) |L[k,l]> of order n*m.

    Each row is a tensor product of a row of G and a row of L, so it is a
    quantum Latin square when G is one; two such grids are weakly orthogonal
    when the G are and the L are orthogonal Latin squares.
    """
    n, m = g.n, latin.n
    basis = np.eye(m)[latin.cells]  # (k, l, m)
    array = np.einsum("ija,klb->ikjlab", g.array, basis)
    return VectorGrid(array.reshape(n * m, n * m, n * m))


def order_18_product_ueb(name: str = "paper-P") -> UnitaryErrorBasis:
    """The shift-and-multiply basis of the order-9 fixture grid ``name`` (x)
    the order-2 Latin square, with the constant family of H_9 (x) F_2: for
    paper-P and paper-Q, a genuinely quantum basis of order 18 that the
    obstruction proves non-monomial."""
    grid = validate_qls(product_grid(fixture(name), LatinSquare([[0, 1], [1, 0]])))
    family = constant_family(tensor_hadamard(hadamard_9_corrected(), fourier(2)))
    return shift_multiply_ueb(grid, family)


def reference_computational_grid(latin: LatinSquare) -> VectorGrid:
    """``computational_grid`` as a scatter of ones into zeros."""
    n = latin.n
    arr = np.zeros((n, n, n), dtype=np.complex128)
    rows, cols = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    arr[rows, cols, latin.cells] = 1.0
    return VectorGrid(arr)


def reference_left_conjugate(latin: LatinSquare) -> LatinSquare:
    """``left_conjugate`` as a scatter of each row index to its symbol's
    place: ``out[cells[b, a], a] = b``."""
    n = latin.n
    out = np.empty((n, n), dtype=np.int64)
    out[latin.cells, np.arange(n)[None, :]] = np.arange(n)[:, None]
    return LatinSquare(out)


def reference_qls_meb(q: QuantumLatinSquare, family: HadamardFamily) -> BipartiteBasis:
    """``qls_meb`` as one block of states per label j, written to rows j::n;
    the array product must match it bit for bit."""
    n = q.n
    states = np.empty((n * n, n * n), dtype=np.complex128)
    scale = 1.0 / math.sqrt(n)
    for j in range(n):
        h = family.members[j].mat
        vecs = q.grid.array[j]  # (k, p)
        block = np.einsum("ki,kp->ikp", h, vecs) * scale
        states[j::n] = block.reshape(n, n * n)
    return BipartiteBasis(n, states)


def reference_lbw_meb(latin: LatinSquare, h: HadamardMatrix) -> BipartiteBasis:
    """``lbw_meb`` as one block of states per symbol j, written to rows j::n."""
    n = latin.n
    states = np.empty((n * n, n * n), dtype=np.complex128)
    scale = 1.0 / math.sqrt(n)
    for j in range(n):
        mask = (latin.cells.T == j).astype(np.complex128)  # (k, p)
        block = np.einsum("ik,kp->ikp", h.mat, mask) * scale
        states[j::n] = block.reshape(n, n * n)
    return BipartiteBasis(n, states)


def reference_shift_multiply_ueb(q: QuantumLatinSquare, family: HadamardFamily) -> UnitaryErrorBasis:
    """``shift_multiply_ueb`` as one block of members per label j, written to
    members j::n."""
    n = q.n
    members = np.empty((n * n, n, n), dtype=np.complex128)
    for j in range(n):
        h = family.members[j].mat
        vecs = q.grid.array[j]  # (k, p)
        members[j::n] = np.einsum("ki,kp->ipk", h, vecs)
    return UnitaryErrorBasis(n, members)


def monomial_equivalent_ueb(latin: LatinSquare, rng: np.random.Generator) -> UnitaryErrorBasis:
    """A @ M @ B for the shift-and-multiply basis M of ``latin`` with a random
    Hadamard family and Haar A, B: monomial up to unitaries, so every
    commutator of the obstruction sweep is zero in exact arithmetic."""
    n = latin.n
    family = hadamard_family([random_hadamard(n, rng) for _ in range(n)])
    monomial = shift_multiply_ueb(validate_qls(computational_grid(latin)), family)
    return UnitaryErrorBasis(n, random_unitary(n, rng) @ monomial.members @ random_unitary(n, rng))


def member_first(u: UnitaryErrorBasis, k: int) -> UnitaryErrorBasis:
    """``u`` with its members rotated so that member k comes first, so
    ``monomial_obstruction`` translates by it."""
    return UnitaryErrorBasis(u.n, np.roll(u.members, -k, axis=0))


def is_monomial(m, tol: float = DEFAULT_TOL) -> bool:
    """True iff the square matrix has one entry of modulus > tol per row and column."""
    support = np.abs(np.asarray(m)) > tol
    return (
        support.shape[0] == support.shape[1]
        and bool((support.sum(axis=0) == 1).all() and (support.sum(axis=1) == 1).all())
    )


def as_latin_square(grid: VectorGrid, tol: float = DEFAULT_TOL) -> LatinSquare | None:
    """The integer table if every entry is within tol of a basis vector |k>
    (phase included) and the table is Latin; None otherwise."""
    cells = np.argmax(np.abs(grid.array), axis=2)
    if np.abs(grid.array - np.eye(grid.n)[cells]).max() > tol:
        return None
    try:
        return LatinSquare(cells)
    except ValueError:
        return None


def reference_dumps(doc: dict) -> str:
    """``serialize.dumps`` as the stdlib writes it, through its indenting
    encoder, with each array as its ``tolist()``."""
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False, default=np.ndarray.tolist) + "\n"


def reference_from_doc(doc, kind: str) -> np.ndarray:
    """``serialize.from_doc`` as a nested ``np.asarray`` followed by a scan of
    the leaf types, every check in the order it reports."""
    if not isinstance(doc, dict):
        raise SerializeError("document is not a JSON object")
    if doc.get("format") != FORMAT:
        tag = reprlib.repr(doc.get("format"))
        raise SerializeError(f"unsupported format tag {tag}, expected {FORMAT!r}")
    if doc.get("kind") != kind:
        raise SerializeError(f"kind {reprlib.repr(doc.get('kind'))}, expected {kind!r}")
    schema = SCHEMAS[kind]
    for key in schema.axes:
        if type(doc.get(key)) is int and doc[key] < 1:
            raise SerializeError(f"{kind} header {key} is {doc[key]}, expected at least 1")
    what, data = f"{kind} {schema.payload}", doc.get(schema.payload)
    bad = f"{what}: entries are not numbers" if schema.pairs else f"{what} are not integers"
    try:
        arr = np.asarray(data, dtype=np.float64 if schema.pairs else np.int64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SerializeError(bad) from exc
    depth = len(schema.axes)
    if schema.pairs and (arr.ndim != depth + 1 or arr.shape[-1] != 2):
        raise SerializeError(f"{what}: expected nesting depth {depth} of [re, im] pairs")
    leaves = data if arr.ndim else [data]
    for _ in range(arr.ndim - 1):
        leaves = chain.from_iterable(leaves)
    if not set(map(type, leaves)) <= ({int, float} if schema.pairs else {int}):
        raise SerializeError(bad)
    if schema.pairs:
        if not np.isfinite(arr).all():
            raise SerializeError(f"{what}: non-finite entries")
        arr = arr.view(np.complex128)[..., 0]
    sizes = [doc.get(key) for key in schema.axes]
    if any(type(v) is not int for v in sizes) or arr.shape != tuple(
        v * v if schema.square else v for v in sizes):
        detail = f"n={reprlib.repr(doc.get('n'))}" if set(schema.axes) == {"n"} else "header"
        raise SerializeError(f"{what} shape {arr.shape} does not match {detail}")
    return arr


def reference_trace_gram(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """tr(A_i* B_j) for every pair of members of two (count, n, n) stacks, as
    one einsum contraction rather than a matrix product."""
    return np.einsum("iab,jab->ij", a.conj(), b)


def reference_residual(state: np.ndarray) -> float:
    """Frobenius distance of the state's reduced density matrix from I/n."""
    n = math.isqrt(state.size)
    m = state.reshape(n, n)
    return float(np.linalg.norm(m @ m.conj().T - np.eye(n) / n))


def reference_meb_to_ueb(basis: BipartiteBasis, tol: float = DEFAULT_TOL) -> UnitaryErrorBasis:
    """``meb_to_ueb`` as one Python iteration per state, each residual taken
    with ``np.linalg.norm``; the batched extraction must match it bit for
    bit, error text included."""
    n = basis.n
    members = np.empty((n * n, n, n), dtype=np.complex128)
    for s, state in enumerate(basis.states):
        residual = reference_residual(state)
        if not residual <= tol:
            raise ValueError(
                f"state is not maximally entangled: partial-trace residual "
                f"{residual:.3e} exceeds tol {tol:.3e}"
            )
        members[s] = math.sqrt(n) * state.reshape(n, n).T
    return UnitaryErrorBasis(n, members)


def reference_growth(n: int, mu: int, delta: float) -> tuple[float, float]:
    """eta and e of the ``monomial_obstruction`` docstring, step by step:
    every computed mu-th power of a translate has norm at most 1 + e."""
    u = 2.0**-53
    eta = math.sqrt(2) * n * (n + 2) * u / (1 - (n + 2) * u)
    beta = (delta + eta) / (1 - eta) ** 2
    return eta, math.expm1(mu * (math.log1p(beta) + math.log1p(eta)))  # ((1+beta)(1+eta))^mu - 1


def reference_noise_bound(n: int, mu: int, delta: float) -> float:
    """The noise bound of ``monomial_obstruction``, step by step as its
    docstring derives it rather than in the library's folded form."""
    eta, e = reference_growth(n, mu, delta)
    spectral = 2 * e * (2 + e) + 2 * eta * (1 + e) ** 2  # 2((1+e)^2 - 1) + 2 eta (1+e)^2
    return math.sqrt(n) * spectral * (1 + eta)


def reference_powers(u) -> tuple[int, np.ndarray, float]:
    """mu, the mu-th powers of the translates, each member powered alone,
    and their unitarity defect delta, measured one member at a time."""
    n = u.n
    mu = math.lcm(*range(1, n + 1))
    translated = u.members @ u.members[0].conj().T
    powers = np.stack([np.linalg.matrix_power(t, mu) for t in translated])
    eye = np.eye(n)
    delta = max(float(np.linalg.norm(t.conj().T @ t - eye)) for t in translated)
    return mu, powers, delta


def reference_commutator_norms(powers: np.ndarray) -> dict[tuple[int, int], float]:
    """||P_i P_j - P_j P_i||_F of every pair i < j, one pair at a time with
    ``np.linalg.norm``, in lexicographic order."""
    return {
        (i, j): float(np.linalg.norm(powers[i] @ powers[j] - powers[j] @ powers[i]))
        for i, j in combinations(range(len(powers)), 2)
    }


def reference_screen(u) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The powers of ``reference_powers`` and the obstruction screen's s and
    eps for them, with the growth and eta of ``reference_growth``."""
    mu, powers, delta = reference_powers(u)
    eta, e = reference_growth(u.n, mu, delta)
    return (powers, *_screen(powers, 1 + e, eta))


def assert_the_screen_brackets_every_norm(u) -> None:
    """The obstruction screen prunes by [s - eps, s + eps]: the interval must
    hold the per-pair loop's norm of every pair, both ways round, and the
    zero of i = j."""
    powers, first, margin = reference_screen(u)
    norms = np.zeros_like(first)
    for (i, j), norm in reference_commutator_norms(powers).items():
        norms[i, j] = norms[j, i] = norm
    assert (np.abs(norms - first) <= margin).all()


def reference_obstruction(u):
    """The obstruction sweep as one Python iteration per member pair.

    Each member is powered alone and each commutator norm is taken with
    ``np.linalg.norm``; the batched ``monomial_obstruction`` must match it
    bit for bit, tie-break included.  The unitarity defect is measured one
    member at a time too, so ``noise_bound`` agrees only to rounding.
    """
    n = u.n
    mu, powers, delta = reference_powers(u)
    worst_pair, worst_norm = None, 0.0
    for pair, norm in reference_commutator_norms(powers).items():
        if worst_pair is None or norm > worst_norm:
            worst_pair, worst_norm = pair, norm
    i, j = worst_pair
    comm = powers[i] @ powers[j] - powers[j] @ powers[i]
    noise_bound = reference_noise_bound(n, mu, delta)
    return ObstructionReport(
        mu=mu,
        normalizer_index=0,
        worst_pair=worst_pair,
        worst_norm=worst_norm,
        sample_entry=complex(comm[0, 0]),
        obstructed=bool(worst_norm > noise_bound),
        noise_bound=noise_bound,
    )


def reference_weak_orth(q: VectorGrid, p: VectorGrid, tol: float = DEFAULT_TOL):
    """``weak_orth_witness`` of two grids of order >= 2 as a scan over row
    pairs (i, j) and columns k.

    The batched witness must return the same record: the first failure in
    this scan order, with a unit near 1 taking precedence over near 0.
    """
    n = q.n
    prods = np.einsum("ikc,jkc->ijk", q.array.conj(), p.array)
    near_one = np.abs(prods - 1.0) <= tol
    near_zero = np.abs(prods) <= tol

    table = np.full((n, n), -1, dtype=np.int64)
    for i in range(n):
        for j in range(n):
            unit_at = -1
            for k in range(n):
                if near_one[i, j, k]:
                    if unit_at >= 0:
                        value = complex(prods[i, j, k])
                        off_by = float(np.abs(value))
                        return WeakOrthFailure(i, j, "non-unique-unit", k, value, off_by)
                    unit_at = k
                elif not near_zero[i, j, k]:
                    value = complex(prods[i, j, k])
                    off_by = float(min(np.abs(value), np.abs(value - 1.0)))
                    return WeakOrthFailure(i, j, "stray-value", k, value, off_by)
            if unit_at < 0:
                off_by = float(np.abs(prods[i, j] - 1.0).min())
                return WeakOrthFailure(i, j, "missing-unit", None, None, off_by)
            table[i, j] = unit_at
    return WeakOrthWitness(n, table)


def reference_enumerate_latin(n: int) -> np.ndarray:
    """All Latin squares of order n as an ``(count, n, n)`` array in
    lexicographic cell order: a recursive fill of the cells in row-major
    order, each trying the symbols in increasing order."""
    grid = np.zeros((n, n), dtype=np.int64)
    row_used = [0] * n  # bitmasks
    col_used = [0] * n
    squares: list[np.ndarray] = []

    def fill(cell: int) -> None:
        if cell == n * n:
            squares.append(grid.copy())
            return
        r, c = divmod(cell, n)
        taken = row_used[r] | col_used[c]
        for v in range(n):
            bit = 1 << v
            if taken & bit:
                continue
            grid[r, c] = v
            row_used[r] |= bit
            col_used[c] |= bit
            fill(cell + 1)
            row_used[r] &= ~bit
            col_used[c] &= ~bit

    fill(0)
    return np.stack(squares)


def reference_squares(n: int) -> list[LatinSquare]:
    """``reference_enumerate_latin(n)`` as validated :class:`LatinSquare` objects."""
    return [LatinSquare(c) for c in reference_enumerate_latin(n)]


@cache
def every_latin_cells(n: int) -> np.ndarray:
    """Every Latin square of order n <= 5 as a ``(count, n, n)`` array: the
    reference fill up to order 4 and, at order 5, where the fill is too
    slow, each of the 56 reduced squares with its symbols relabelled and its
    rows 1..4 permuted, nested in that order (not lexicographic)."""
    if n < 5:
        return reference_enumerate_latin(n)
    perms = np.array(list(permutations(range(n))))
    relabelled = perms.astype(np.int8)[:, _latin_cells(n)]  # [symbols, reduced, r, c]
    return relabelled[:, :, perms[: math.factorial(n - 1)]].reshape(-1, n, n)


def reference_orthogonal_pairs(n: int) -> np.ndarray:
    """The ordered orthogonal pairs of order n, as an ``(m, 2)`` array of
    row-major ``(ia, ib)`` indices into ``reference_enumerate_latin(n)``: one
    distinct-pair-code test of each square against all squares."""
    codes = reference_enumerate_latin(n).reshape(-1, n * n)
    pairs = []
    for ia in range(len(codes)):
        srt = np.sort(codes[ia][None, :] * n + codes, axis=1)
        ok = np.all(srt[:, 1:] != srt[:, :-1], axis=1)
        pairs.extend((ia, int(ib)) for ib in np.flatnonzero(ok))
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def reference_lemma16(n: int, rows=None) -> EquivalenceReport:
    """``cross_validate_lemma16`` as one Python iteration per ordered pair,
    through the single-pair library calls, over the squares ``ia`` in
    ``rows`` (all by default) against every partner, each pair its own
    representative.  Grids and conjugates are the scatter references, not the
    formulas the search shares with the library."""
    squares = reference_squares(n)
    grids = [reference_computational_grid(s) for s in squares]
    conjugates = [reference_left_conjugate(s) for s in squares]
    rows = range(len(squares)) if rows is None else rows
    positives = 0
    disagreements = []
    for ia in rows:
        for ib in range(len(squares)):
            by_witness = isinstance(weak_orth_witness(grids[ia], grids[ib]), WeakOrthWitness)
            by_left = are_orthogonal(conjugates[ia], conjugates[ib])
            by_perm = is_permutation_matrix(orthogonality_map(conjugates[ia], conjugates[ib]))
            positives += by_witness
            if not (by_witness == by_left == by_perm):
                disagreements.append((ia, ib, by_witness, by_left, by_perm))
    pairs = len(rows) * len(squares)
    return EquivalenceReport(n, pairs, positives, pairs, disagreements)


def force_the_perm_route(patch, verdict: bool) -> None:
    """Through ``patch`` (a ``pytest.MonkeyPatch``), make the lemma16 perm
    route return ``verdict`` on every pair, in the search and in
    :func:`reference_lemma16` alike.  False makes the routes disagree on
    each orthogonal pair, as (True, True, False); True on each other pair,
    as (False, False, True)."""

    def forced(m):
        verdicts = np.full(np.shape(m)[:-2], verdict)
        return bool(verdicts) if verdicts.ndim == 0 else verdicts

    for module in (search, sys.modules[__name__]):
        patch.setattr(module, "is_permutation_matrix", forced)


def representative_pairs(n: int) -> tuple[set, set]:
    """The reduced squares and the squares whose first column is 0..n-1, as
    sets of indices into the enumeration."""
    cells = reference_enumerate_latin(n)
    in_order = (cells[:, :, 0] == np.arange(n)).all(axis=1)
    reduced = in_order & (cells[:, 0] == np.arange(n)).all(axis=1)
    return set(np.flatnonzero(reduced).tolist()), set(np.flatnonzero(in_order).tolist())


def assert_is_the_oracle(report, oracle, weight=1):
    """Totals are the oracle's, times ``weight`` when the oracle ran over the
    reduced squares only, and the records are the oracle's at the
    representative pairs.  The report's records, in row-major order of its
    indices into the reduced squares and their partners (each reduced square
    with its columns 1..n-1 permuted, in lexicographic permutation order),
    name the same squares once mapped into the enumeration through their
    cells."""
    n = report.order
    reduced, partners = representative_pairs(n)
    assert report.pairs_checked == oracle.pairs_checked * weight
    assert report.positives == oracle.positives * weight
    assert report.disagreeing == oracle.disagreeing * weight
    assert report.representatives == len(reduced) * len(partners)
    cells = reference_enumerate_latin(n)
    index = {c.tobytes(): i for i, c in enumerate(cells)}
    rows = sorted(reduced)
    columns = [p for p in permutations(range(n)) if p[0] == 0]
    partner_cells = [cells[i][:, p] for i in rows for p in columns]
    mapped = [
        (rows[ia], index[partner_cells[ib].tobytes()], *verdicts)
        for ia, ib, *verdicts in report.disagreements
    ]
    at_representatives = [d for d in oracle.disagreements if d[0] in reduced and d[1] in partners]
    assert sorted(mapped) == at_representatives
    assert report.disagreements == sorted(report.disagreements)
    for record in report.disagreements:  # Python ints and bools, not numpy scalars
        assert [type(v) for v in record] == [int, int, bool, bool, bool]


FLOATS = st.floats(allow_nan=False, allow_infinity=False)


# floats whose repr is an edge case: signed zero, exponent forms, the subnormal
# and largest finite doubles, and integer-valued floats
EDGE_FLOATS = [-0.0, 0.0, 1e16, 1e-05, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
               2.0, -3.0, 1e22, 123456789012345.0]
NUMBERS = st.one_of(FLOATS, st.sampled_from(EDGE_FLOATS), st.integers(-2**60, 2**60).map(float))


@st.composite
def documents(draw, numbers=NUMBERS):
    """A ``to_doc`` document of a random kind and shape, its payload the array
    ``to_doc`` builds, or at times [re, im] leaves in nested lists of a mix of
    Python ints and floats; the floats are drawn from ``numbers``."""
    kind = draw(st.sampled_from(sorted(SCHEMAS)))
    schema = SCHEMAS[kind]
    sizes = {key: draw(st.integers(1, 3)) for key in schema.axes}
    shape = tuple(sizes[key] ** 2 if schema.square else sizes[key] for key in schema.axes)
    if not schema.pairs:
        return to_doc(kind, draw(arrays(np.int64, shape)))
    parts = draw(arrays(np.float64, shape + (2,), elements=numbers))
    doc = to_doc(kind, parts.view(np.complex128)[..., 0])
    if draw(st.booleans()):
        leaves = st.one_of(st.integers(), numbers)
        doc[schema.payload] = draw(arrays(object, shape + (2,), elements=leaves)).tolist()
    return doc


def listed(doc: dict) -> dict:
    """``doc``, its payload made nested lists in place if it is an array, so
    that it can be edited as JSON."""
    key = SCHEMAS[doc["kind"]].payload
    if isinstance(doc.get(key), np.ndarray):
        doc[key] = doc[key].tolist()
    return doc


# leaves no payload may hold, and leaves at the edges of what one may
BAD_LEAVES = ["1.0", True, False, None, 10**400, 2**63, -2**63 - 1, 2**64, float("nan"),
              float("-inf"), 1, -0.0, 0.5]
PAYLOAD_EDITS = {
    "a leaf": lambda value, leaf: leaf,
    "a short list": lambda value, leaf: value[:-1] if type(value) is list else value,
    "a long list": lambda value, leaf: value + value[:1] if type(value) is list else [value, value],
    "one level deeper": lambda value, leaf: [value],
    "one level shallower": lambda value, leaf: value[0] if type(value) is list and value else leaf,
    "a tuple": lambda value, leaf: tuple(value) if type(value) is list else (value,),
    "a dict": lambda value, leaf: {"re": value},
    "an empty list": lambda value, leaf: [],
}
HEADERS = st.sampled_from(["3", "1", 0, 1, 2, 3, 4, 9, True, 2.0, None])


@st.composite
def mutated_documents(draw, docs=documents()):
    """A document of ``docs`` with up to three edits, made in place: a value
    somewhere in its payload replaced by a bad leaf, a list made ragged,
    deeper, shallower, a tuple, a dict or empty; or a header value changed."""
    doc = listed(draw(docs))
    schema = SCHEMAS[doc["kind"]]
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            doc[draw(st.sampled_from(schema.axes))] = draw(HEADERS)
            continue
        owner, key = doc, schema.payload
        for _ in range(draw(st.integers(0, len(schema.axes) + 1))):
            if type(owner[key]) is not list or not owner[key]:
                break
            owner, key = owner[key], draw(st.integers(0, len(owner[key]) - 1))
        edit = PAYLOAD_EDITS[draw(st.sampled_from(sorted(PAYLOAD_EDITS)))]
        owner[key] = edit(owner[key], draw(st.sampled_from(BAD_LEAVES)))
    return doc


# ---------------------------------------------------------------- CLI calls

CYCLIC3 = LatinSquare([[(r + c) % 3 for c in range(3)] for r in range(3)])
TWISTED3 = LatinSquare([[(r + 2 * c) % 3 for c in range(3)] for r in range(3)])


def write(folder, name: str, kind: str, array) -> str:
    """The path of ``array`` saved in the folder ``folder`` as the ``kind``
    document ``name``."""
    path = str(folder / name)
    save_path(path, to_doc(kind, array))
    return path


def files_of_order(folder, n: int) -> dict[str, str]:
    """One well-formed input file of each kind, all of order n."""
    latin = LatinSquare([[(r + c) % n for c in range(n)] for r in range(n)])
    f = fourier(n)
    qls, family = validate_qls(computational_grid(latin)), constant_family(f)
    return {
        "grid": write(folder, f"grid{n}.json", "grid", qls.grid.array),
        "family": write(folder, f"family{n}.json", "matrix-list", [f.mat] * n),
        "latin": write(folder, f"latin{n}.json", "latin", latin.cells),
        "matrix": write(folder, f"matrix{n}.json", "matrix", f.mat),
        "basis": write(folder, f"basis{n}.json", "basis", qls_meb(qls, family).states),
        "ueb": write(
            folder, f"ueb{n}.json", "matrix-list", shift_multiply_ueb(qls, family).members
        ),
    }


def pinned_inputs(folder) -> dict[str, str]:
    """The files ``PINNED_TEXT``'s placeholders name, written to ``folder``:
    order-3 inputs of every kind, the partners that make each check pass, and
    an input on which each check command finds a violation."""
    paths = files_of_order(folder, 3)
    fam = constant_family(fourier(3))
    for key, latin in (("a", left_conjugate(CYCLIC3)), ("b", left_conjugate(TWISTED3))):
        qls = validate_qls(computational_grid(latin))
        paths |= {
            f"grid_{key}": write(folder, f"grid_{key}.json", "grid", qls.grid.array),
            f"left_{key}": write(folder, f"left_{key}.json", "latin", latin.cells),
            f"basis_{key}": write(folder, f"basis_{key}.json", "basis", qls_meb(qls, fam).states),
            f"ueb_{key}": write(
                folder, f"ueb_{key}.json", "matrix-list", shift_multiply_ueb(qls, fam).members
            ),
        }
    f3 = fourier(3).mat
    return paths | {
        "twisted": write(folder, "twisted.json", "latin", TWISTED3.cells),
        "product": write(folder, "product.json", "basis", np.eye(4, dtype=complex)),
        "short": write(folder, "short.json", "matrix-list", [np.eye(2, dtype=complex)] * 3),
        "bad_family": write(folder, "bad_family.json", "matrix-list", [f3, f3, np.eye(3)]),
        "short_family": write(folder, "short_family.json", "matrix-list", [f3, f3]),
        "validate-qls": write(folder, "pp.json", "grid", fixture("paper-P-printed").array),
        "validate-hadamard": write(folder, "eye.json", "matrix", np.eye(3)),
        "check-weak-orth": write(folder, "p.json", "grid", fixture("paper-P").array),
        "check-ueb": write(folder, "eyes.json", "matrix-list", np.stack([np.eye(2)] * 4)),
        "obstructed": write(folder, "obs.json", "matrix-list", paper_ueb().members),
        "out": str(folder / "out.json"),
    }


UEB_COUNT = "member stack is not n^2 square matrices of a single size"
UEB_TRACE = (
    "members (0, 1): tr(U*V) = 2+0j, expected n on the diagonal and 0 off it (off by 2.000e+00)"
)
QLS_ROW6 = "row 6 is not orthonormal: <v0|v1> = 0-0.92582j, expected 0.0 (off by 9.258e-01)"
EYE_ENTRY = "entry (0, 1) has modulus 0, expected 1 (off by 1.000e+00)"
NINTH = "0.111111111111"
MUB_KEYS = "dim max_dev max_sq mean_sq min_sq target tol"
OBSTRUCTION_KEYS = "mu noise_bound normalizer_index obstructed sample_entry worst_norm worst_pair"

# Each command's exact text (argv with {file} placeholders, exit code, stdout)
# for a pass and for its violation or rejection, and the keys of its
# json-report besides "command" and "ok", so that a change to a check record
# cannot add, drop or rename one unseen; "key=value" pins a key's JSON value too.
PINNED_TEXT = {
    "validate-qls pass": (
        ["validate-qls", "{grid}"], 0, "valid quantum Latin square of order 3 (tol 1e-09)\n",
        "n=3 tol",
    ),
    "validate-qls violation": (
        ["validate-qls", "{validate-qls}"], 1, f"INVALID: {QLS_ROW6}\n",
        "index line n off_by pair tol value",
    ),
    "validate-hadamard pass": (
        ["validate-hadamard", "{matrix}"],
        0,
        "valid complex Hadamard matrix of order 3 (tol 1e-09)\n",
        "n tol",
    ),
    "validate-hadamard violation": (
        ["validate-hadamard", "{validate-hadamard}"],
        1,
        f"INVALID: unimodular violated: {EYE_ENTRY}\n",
        "constraint indices n off_by tol value",
    ),
    "check-weak-orth pass": (
        ["check-weak-orth", "{grid_a}", "{grid_b}"],
        0,
        "weakly orthogonal; witness table (rows of first vs rows of second):\n"
        "  0 1 2\n  2 0 1\n  1 2 0\n",
        "n table tol",
    ),
    "check-weak-orth violation": (
        ["check-weak-orth", "{check-weak-orth}", "{check-weak-orth}"],
        1,
        "NOT weakly orthogonal: rows (0, 0): column 1 product 1+0j (non-unique-unit) "
        "(off by 1.000e+00)\n",
        "column kind n off_by p_row q_row tol value",
    ),
    "check-orth pass": (["check-orth", "{latin}", "{twisted}"], 0, "orthogonal\n", "n"),
    "check-orth violation": (
        ["check-orth", "{latin}", "{latin}"], 1, "NOT orthogonal: repeated ordered symbol pair\n",
        "n",
    ),
    "check-left-orth pass": (
        ["check-left-orth", "{left_a}", "{left_b}"], 0, "left orthogonal\n", "n"
    ),
    "check-left-orth violation": (
        ["check-left-orth", "{latin}", "{latin}"], 1, "NOT left orthogonal\n", "n"
    ),
    "left-conj built": (
        ["left-conj", "{latin}", "--out", "{out}"], 0, "left conjugate of order 3 written\n", "n"
    ),
    "build-meb built": (
        ["build-meb", "{grid}", "{family}", "--out", "{out}"], 0, "built 9 states of order 3\n",
        "n states",
    ),
    "build-meb grid rejection": (
        ["build-meb", "{validate-qls}", "{family}"], 1, f"INVALID grid: {QLS_ROW6}\n", "reason"
    ),
    "build-meb member rejection": (
        ["build-meb", "{grid}", "{bad_family}"],
        1,
        f"INVALID family: family member 2: {EYE_ENTRY}\n",
        "reason",
    ),
    "build-meb length rejection": (
        ["build-meb", "{grid}", "{short_family}"],
        1,
        "INVALID family: a family of order 3 needs exactly 3 members, got 2\n",
        "reason",
    ),
    "build-lbw built": (
        ["build-lbw", "{latin}", "{matrix}", "--out", "{out}"], 0, "built 9 states of order 3\n",
        "n states",
    ),
    "build-lbw rejection": (
        ["build-lbw", "{latin}", "{validate-hadamard}"], 1, f"INVALID matrix: {EYE_ENTRY}\n",
        "reason",
    ),
    "check-mub pass": (
        ["check-mub", "{basis_a}", "{basis_b}"],
        0,
        f"dim 9: |overlap|^2 min {NINTH}, max {NINTH}, mean {NINTH}, target {NINTH}\n"
        "mutually unbiased\n",
        "dim max_dev max_sq mean_sq min_sq target tol=1e-09",
    ),
    "check-mub violation": (
        ["check-mub", "{basis}", "{basis}"],
        1,
        f"dim 9: |overlap|^2 min 0, max 1, mean {NINTH}, target {NINTH}\nNOT mutually unbiased\n",
        MUB_KEYS,
    ),
    "dual to-ueb built": (
        ["dual", "--to-ueb", "{basis}", "--out", "{out}"], 0, "extracted 9 unitaries of order 3\n",
        "direction n",
    ),
    "dual to-ueb rejection": (
        ["dual", "--to-ueb", "{product}"],
        1,
        "FAILED: state is not maximally entangled: partial-trace residual 7.071e-01 "
        "exceeds tol 1.000e-09\n",
        "reason",
    ),
    "dual to-meb built": (
        ["dual", "--to-meb", "{ueb}", "--out", "{out}"], 0, "built 9 states of order 3\n",
        "direction n",
    ),
    "dual to-meb rejection": (
        ["dual", "--to-meb", "{short}"], 1, f"INVALID unitary error basis: {UEB_COUNT}\n", "reason"
    ),
    "check-ueb pass": (
        ["check-ueb", "{ueb}"], 0, "valid unitary error basis of order 3 (9 members)\n", "n tol"
    ),
    "check-ueb violation": (
        ["check-ueb", "{check-ueb}"], 1, f"INVALID: {UEB_TRACE}\n",
        "index kind off_by pair tol value",
    ),
    "check-mu-ueb pass": (
        ["check-mu-ueb", "{ueb_a}", "{ueb_b}"],
        0,
        f"dim 9: normalized |tr|^2 min {NINTH}, max {NINTH}, target {NINTH}\n"
        "raw |tr|^2 range [1, 1]\nmutually unbiased\n",
        "dim max_dev max_sq mean_sq min_sq target tol=1e-09 raw_trace_sq_max=1.0 "
        "raw_trace_sq_min",
    ),
    "check-mu-ueb violation": (
        ["check-mu-ueb", "{ueb}", "{ueb}"],
        1,
        f"dim 9: normalized |tr|^2 min 0, max 1, target {NINTH}\nraw |tr|^2 range [0, 9]\n"
        "NOT mutually unbiased\n",
        MUB_KEYS + " raw_trace_sq_max raw_trace_sq_min",
    ),
    "check-mu-ueb rejection": (
        ["check-mu-ueb", "{ueb}", "{check-ueb}"],
        1,
        "INVALID unitary error basis: {check-ueb}: " + UEB_TRACE + "\n",
        "reason",
    ),
    "monomial-obstruction pass": (["monomial-obstruction", "{ueb}"], 0, None, OBSTRUCTION_KEYS),
    "monomial-obstruction violation": (
        ["monomial-obstruction", "{obstructed}"], 1, None,
        "mu noise_bound normalizer_index obstructed=true sample_entry worst_norm "
        "worst_pair=[25,26]",
    ),
    "monomial-obstruction rejection": (
        ["monomial-obstruction", "{check-ueb}"], 1, f"INVALID unitary error basis: {UEB_TRACE}\n",
        "reason",
    ),
    "fixtures built": (
        ["fixtures", "emit", "paper-P", "--out", "{out}"], 0, "fixture paper-P (grid) written\n",
        "kind name",
    ),
    "search latin": (
        ["search", "latin", "3"], 0, "order 3: 12 Latin squares (column-major recount 12)\n",
        "count order recount what",
    ),
    "search orth-pairs": (
        ["search", "orth-pairs", "3"], 0, "order 3: 72 ordered orthogonal pairs\n",
        "count order what",
    ),
    "search lemma16": (
        ["search", "lemma16", "3"],
        0,
        "order 3: 144 ordered pairs, 72 weakly orthogonal, 0 disagreements between the three "
        "routes\n",
        "disagreements=0 order pairs_checked=144 positives=72 representatives what",
    ),
    "reproduce-appendix-c pass": (
        ["reproduce-appendix-c"],
        0,
        "two bases of 81 states each: orthonormal=True, maximally entangled=True\n"
        "6561 cross overlaps: |overlap|^2 min 0.0123456790123, max 0.0123456790123, "
        "target 0.0123456790123\nPASS\n",
        MUB_KEYS + " maximally_entangled orthonormal overlaps=6561",
    ),
}

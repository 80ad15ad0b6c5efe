"""Sampling and reference helpers shared by the tests."""

import json
import math
import reprlib
from itertools import chain, combinations

import numpy as np
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qlsmub.bases import BipartiteBasis
from qlsmub.hadamard import hadamard_family, random_hadamard
from qlsmub.numerics import DEFAULT_TOL, is_permutation_matrix, lcm_up_to, mat_power
from qlsmub.search import EquivalenceReport
from qlsmub.serialize import FORMAT, SCHEMAS, SerializeError, to_doc
from qlsmub.squares import (
    LatinSquare,
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
from qlsmub.ueb import ObstructionReport, UnitaryErrorBasis, shift_multiply_ueb


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed n x n unitary (QR of a complex Ginibre matrix)."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def linear_grid(n: int, k: int, u: np.ndarray) -> VectorGrid:
    """Grid whose (r, c) entry is column (r + k*c) mod n of the unitary u.

    For k = 1 it is a quantum Latin square of any order; for odd n the grids
    of k = 1 and k = 2 are quantum Latin squares and weakly orthogonal.
    """
    r, c = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return VectorGrid(u.T[(r + k * c) % n])


def monomial_equivalent_ueb(latin: LatinSquare, rng: np.random.Generator) -> UnitaryErrorBasis:
    """A @ M @ B for the shift-and-multiply basis M of ``latin`` with a random
    Hadamard family and Haar A, B: monomial up to unitaries, so every
    commutator of the obstruction sweep is zero in exact arithmetic."""
    n = latin.n
    family = hadamard_family([random_hadamard(n, rng) for _ in range(n)])
    monomial = shift_multiply_ueb(validate_qls(computational_grid(latin)), family)
    return UnitaryErrorBasis(n, random_unitary(n, rng) @ monomial.members @ random_unitary(n, rng))


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
    """``serialize.dumps`` as the stdlib writes it, through its indenting encoder."""
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


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


def reference_noise_bound(n: int, mu: int, delta: float) -> float:
    """The noise bound of ``monomial_obstruction``, step by step as its
    docstring derives it rather than in the library's folded form."""
    u = 2.0**-53
    eta = math.sqrt(2) * n * (n + 2) * u / (1 - (n + 2) * u)
    beta = (delta + eta) / (1 - eta) ** 2
    e = math.expm1(mu * (math.log1p(beta) + math.log1p(eta)))  # ((1+beta)(1+eta))^mu - 1
    spectral = 2 * e * (2 + e) + 2 * eta * (1 + e) ** 2  # 2((1+e)^2 - 1) + 2 eta (1+e)^2
    return math.sqrt(n) * spectral * (1 + eta)


def reference_obstruction(u, normalizer: int = 0):
    """The obstruction sweep as one Python iteration per member pair.

    Each member is powered alone and each commutator norm is taken with
    ``np.linalg.norm``; the batched ``monomial_obstruction`` must match it
    bit for bit, tie-break included.  The unitarity defect is measured one
    member at a time too, so ``noise_bound`` agrees only to rounding.
    """
    n, count = u.n, u.n * u.n
    mu = lcm_up_to(n)
    translated = u.members @ u.members[normalizer].conj().T
    powers = np.empty_like(translated)
    for s in range(count):
        powers[s] = mat_power(translated[s], mu)
    eye = np.eye(n)
    delta = max(float(np.linalg.norm(t.conj().T @ t - eye)) for t in translated)

    worst_pair, worst_norm = None, 0.0
    for i, j in combinations(range(count), 2):
        norm = float(np.linalg.norm(powers[i] @ powers[j] - powers[j] @ powers[i]))
        if worst_pair is None or norm > worst_norm:
            worst_pair, worst_norm = (i, j), norm
    i, j = worst_pair
    comm = powers[i] @ powers[j] - powers[j] @ powers[i]
    noise_bound = reference_noise_bound(n, mu, delta)
    return ObstructionReport(
        mu=mu,
        normalizer_index=normalizer,
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
                        return WeakOrthFailure(i, j, "non-unique-unit", k, value, abs(value))
                    unit_at = k
                elif not near_zero[i, j, k]:
                    value = complex(prods[i, j, k])
                    off_by = min(abs(value), abs(value - 1.0))
                    return WeakOrthFailure(i, j, "stray-value", k, value, off_by)
            if unit_at < 0:
                off_by = float(np.abs(prods[i, j] - 1.0).min())
                return WeakOrthFailure(i, j, "missing-unit", None, None, off_by)
            table[i, j] = unit_at
    return WeakOrthWitness(n, table)


def reference_enumerate_latin(n: int) -> np.ndarray:
    """``enumerate_latin(n).cells`` as a recursive fill of the cells in
    row-major order, each trying the symbols in increasing order."""
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


def reference_orthogonal_pairs(n: int) -> np.ndarray:
    """``find_orthogonal_pairs(n)`` as one distinct-pair-code test of each
    square against all squares."""
    codes = reference_enumerate_latin(n).reshape(-1, n * n)
    pairs = []
    for ia in range(len(codes)):
        srt = np.sort(codes[ia][None, :] * n + codes, axis=1)
        ok = np.all(srt[:, 1:] != srt[:, :-1], axis=1)
        pairs.extend((ia, int(ib)) for ib in np.flatnonzero(ok))
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def reference_lemma16(n: int, tol: float = DEFAULT_TOL, rows=None) -> EquivalenceReport:
    """``cross_validate_lemma16`` as one Python iteration per ordered pair,
    through the single-pair library calls, over the squares ``ia`` in
    ``rows`` (all by default) against every partner."""
    squares = [LatinSquare(c) for c in reference_enumerate_latin(n)]
    grids = [computational_grid(s) for s in squares]
    conjugates = [left_conjugate(s) for s in squares]
    rows = range(len(squares)) if rows is None else rows
    positives = 0
    disagreements = []
    for ia in rows:
        for ib in range(len(squares)):
            by_witness = isinstance(weak_orth_witness(grids[ia], grids[ib], tol), WeakOrthWitness)
            by_left = are_orthogonal(conjugates[ia], conjugates[ib])
            by_perm = is_permutation_matrix(orthogonality_map(conjugates[ia], conjugates[ib]), tol)
            positives += by_witness
            if not (by_witness == by_left == by_perm):
                disagreements.append((ia, ib, by_witness, by_left, by_perm))
    return EquivalenceReport(n, len(rows) * len(squares), positives, disagreements)


FLOATS = st.floats(allow_nan=False, allow_infinity=False)


# floats whose repr is an edge case: signed zero, exponent forms, the subnormal
# and largest finite doubles, and integer-valued floats
EDGE_FLOATS = [-0.0, 0.0, 1e16, 1e-05, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
               2.0, -3.0, 1e22, 123456789012345.0]
NUMBERS = st.one_of(FLOATS, st.sampled_from(EDGE_FLOATS), st.integers(-2**60, 2**60).map(float))


@st.composite
def documents(draw):
    """A ``to_doc`` document of a random kind and shape, at times with its
    [re, im] leaves replaced by a mix of Python ints and floats."""
    kind = draw(st.sampled_from(sorted(SCHEMAS)))
    schema = SCHEMAS[kind]
    sizes = {key: draw(st.integers(1, 3)) for key in schema.axes}
    shape = tuple(sizes[key] ** 2 if schema.square else sizes[key] for key in schema.axes)
    if not schema.pairs:
        return to_doc(kind, draw(arrays(np.int64, shape)))
    parts = draw(arrays(np.float64, shape + (2,), elements=NUMBERS))
    doc = to_doc(kind, parts.view(np.complex128)[..., 0])
    if draw(st.booleans()):
        leaves = st.one_of(st.integers(), NUMBERS)
        doc[schema.payload] = draw(arrays(object, shape + (2,), elements=leaves)).tolist()
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
    doc = draw(docs)
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

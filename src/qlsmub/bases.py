"""Maximally entangled bases of C^n (x) C^n and mutual unbiasedness.

A bipartite state over C^n (x) C^n is a length n^2 vector with the composite
index k*n + p (k first factor, p second).  A basis stores its n^2 states as
the rows of an (n^2, n^2) array, the state built from label (i, j) sitting at
row i*n + j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .hadamard import HadamardFamily, HadamardMatrix
from .numerics import DEFAULT_TOL, as_state_vector, first_gram_defect, frobenius_norms, owned
from .squares import LatinSquare, QuantumLatinSquare


@dataclass(frozen=True, eq=False)
class BipartiteBasis:
    """n^2 states of C^n (x) C^n, one per label (i, j), stored row-wise."""

    n: int
    states: np.ndarray = field(repr=False)

    def __post_init__(self):
        n, arr = self.n, owned(self.states, np.complex128)
        if n < 1 or arr.shape != (n * n, n * n):
            raise ValueError(
                f"expected {n * n} states of dimension {n * n}, got shape {arr.shape}"
            )
        if not np.isfinite(arr).all():
            raise ValueError("basis contains NaN or Inf amplitudes")
        object.__setattr__(self, "states", arr)


@dataclass(frozen=True)
class MubReport:
    """Summary of the squared overlaps between two bases.

    ``max_dev`` is the largest distance of a squared overlap from ``target``
    (1/dim); the report is ``ok`` when it is within ``tol``.
    """

    dim: int
    min_sq: float
    max_sq: float
    mean_sq: float
    target: float
    max_dev: float
    tol: float

    @classmethod
    def of(cls, sq: np.ndarray, dim: int, tol: float, **extra) -> MubReport:
        """The report on the squared overlaps ``sq`` of two bases of dimension dim."""
        target = 1.0 / dim
        return cls(
            dim=dim,
            min_sq=float(sq.min()),
            max_sq=float(sq.max()),
            mean_sq=float(sq.mean()),
            target=target,
            max_dev=float(np.abs(sq - target).max()),
            tol=tol,
            **extra,
        )

    @property
    def ok(self) -> bool:
        return self.max_dev <= self.tol

    def __str__(self) -> str:
        verdict = "mutually unbiased" if self.ok else "NOT mutually unbiased"
        return f"dim {self.dim}: {self._overlaps()}\n{verdict}"

    def _overlaps(self) -> str:
        """The summary above the verdict in ``str``; a subclass names its own."""
        return (
            f"|overlap|^2 min {self.min_sq:.12g}, max {self.max_sq:.12g}, "
            f"mean {self.mean_sq:.12g}, target {self.target:.12g}"
        )


@dataclass(frozen=True, eq=False)
class PhaseMatch:
    """Result of matching two bases state-for-state up to phase.

    When ``matched``, state s of the first basis equals
    ``phases[s]`` times state ``pairing[s]`` of the second.
    """

    matched: bool
    pairing: np.ndarray | None = None
    phases: np.ndarray | None = None


def _states_of(b) -> np.ndarray:
    if isinstance(b, BipartiteBasis):
        return b.states
    arr = np.asarray(b, dtype=np.complex128)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError(f"expected a non-empty stack of states, got shape {arr.shape}")
    return arr


def qls_meb(q: QuantumLatinSquare, family: HadamardFamily) -> BipartiteBasis:
    """Maximally entangled basis from a quantum Latin square and a Hadamard family.

    The state with label (i, j) has amplitude at |k, p>:

        (1/sqrt(n)) * H_j[k, i] * <p | grid(j, k)>

    so row j of the grid supplies the vectors and the j-th family member the
    phases.  With the family stacked as h[j, k, i] = H_j[k, i], this is
    einsum("jki,jkp->ijkp"): row i*n + j, column k*n + p.  Requires matching
    orders.
    """
    n = q.n
    if family.n != n:
        raise ValueError(f"order mismatch: square {n}, family {family.n}")
    h = np.stack([member.mat for member in family.members])
    states = np.einsum("jki,jkp->ijkp", h, q.grid.array)
    states *= 1.0 / math.sqrt(n)
    return BipartiteBasis(n, states.reshape(n * n, n * n))


def lbw_meb(latin: LatinSquare, h: HadamardMatrix) -> BipartiteBasis:
    """Maximally entangled basis from one Latin square and one Hadamard.

    The state with label (i, j) has amplitude at |k, p>:

        (1/sqrt(n)) * H[i, k] * [cells[p, k] = j]

    placing the k-th phase of row i of H on the unique |k, p> whose cell in
    column k holds symbol j.  With mask[j, k, p] = [cells[p, k] = j], this is
    einsum("ik,jkp->ijkp"): row i*n + j, column k*n + p.
    """
    n = latin.n
    if h.n != n:
        raise ValueError(f"order mismatch: square {n}, matrix {h.n}")
    mask = (latin.cells.T == np.arange(n)[:, None, None]).astype(np.complex128)
    states = np.einsum("ik,jkp->ijkp", h.mat, mask)
    states *= 1.0 / math.sqrt(n)
    return BipartiteBasis(n, states.reshape(n * n, n * n))


def _residuals(m: np.ndarray) -> np.ndarray:
    # Frobenius distance of M M* to I/n for every n x n matrix M of the stack
    # (count, n, n): the partial trace of the state s with M[k, p] = s[k*n + p].
    n = m.shape[1]
    return frobenius_norms(m @ m.conj().transpose(0, 2, 1) - np.eye(n) / n)


def _square_stack(states: np.ndarray) -> np.ndarray:
    # the (count, n^2) states as their (count, n, n) matrices M
    n = math.isqrt(states.shape[1])
    if n * n != states.shape[1]:
        raise ValueError(f"state dimension {states.shape[1]} is not a perfect square")
    return states.reshape(len(states), n, n)


def is_maximally_entangled(state, tol: float = DEFAULT_TOL) -> bool:
    """True iff tracing out the second factor leaves I/n (Frobenius norm, tol)."""
    return float(_residuals(_square_stack(as_state_vector(state)[None]))[0]) <= tol


def extract_unitary(state, tol: float = DEFAULT_TOL) -> np.ndarray:
    """The unitary U with |s> = (1/sqrt(n)) sum_k |k> (x) U|k>.

    Concretely U[p, k] = sqrt(n) * s[k*n + p].  Raises ValueError when the
    state is not maximally entangled, naming the partial-trace residual.
    """
    return extract_unitaries(as_state_vector(state)[None], tol)[0]


def extract_unitaries(states: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """:func:`extract_unitary` of every row of a finite (count, n^2) stack of
    states, as one (count, n, n) stack computed in one batched step.

    Raises the error of the first state whose residual is not within tol; a
    NaN residual, left by an overflow, is not within any tol.
    """
    m = _square_stack(states)
    residuals = _residuals(m)
    failed = ~(residuals <= tol)
    if failed.any():
        raise ValueError(
            f"state is not maximally entangled: partial-trace residual "
            f"{residuals[np.argmax(failed)]:.3e} exceeds tol {tol:.3e}"
        )
    return math.sqrt(m.shape[1]) * m.transpose(0, 2, 1)


def is_orthonormal_basis(basis, tol: float = DEFAULT_TOL) -> bool:
    """True iff the states form a complete orthonormal set (Gram within tol of I)."""
    states = _states_of(basis)
    count, dim = states.shape
    if count != dim:
        return False
    return first_gram_defect(states.conj() @ states.T, 1.0, tol) is None


def check_mub(a, b, tol: float = DEFAULT_TOL) -> MubReport:
    """Squared-overlap summary of two equal-dimension bases.

    Passes iff every |<a_s|b_t>|^2 is within tol of 1/dim.
    """
    sa, sb = _states_of(a), _states_of(b)
    if sa.shape[1] != sb.shape[1]:
        raise ValueError(f"dimension mismatch: {sa.shape[1]} vs {sb.shape[1]}")
    return MubReport.of(np.abs(sa.conj() @ sb.T) ** 2, sa.shape[1], tol)


def bases_match_up_to_phase(a, b, tol: float = DEFAULT_TOL) -> PhaseMatch:
    """Match states of two bases one-to-one up to unimodular factors.

    Succeeds iff the overlap matrix has exactly one unit-modulus entry per row
    and per column (within tol); the pairing and the unit factors are returned.
    """
    sa, sb = _states_of(a), _states_of(b)
    if sa.shape != sb.shape:
        raise ValueError(f"shape mismatch: {sa.shape} vs {sb.shape}")
    overlaps = sa.conj() @ sb.T
    unit = np.abs(np.abs(overlaps) - 1.0) <= tol
    if not (np.all(unit.sum(axis=1) == 1) and np.all(unit.sum(axis=0) == 1)):
        return PhaseMatch(False)
    pairing = np.argmax(unit, axis=1)
    # overlaps[s, t] = <a_s|b_t> = conj(factor), so conjugate to make
    # a_s = phases[s] * b_t hold as documented
    phases = overlaps[np.arange(len(pairing)), pairing].conj()
    return PhaseMatch(True, pairing, phases)

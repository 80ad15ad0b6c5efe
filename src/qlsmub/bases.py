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
from .squares import LatinSquare, QuantumLatinSquare, computational_grid, left_conjugate


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


def _states_of(b) -> np.ndarray:
    if isinstance(b, BipartiteBasis):
        return b.states
    arr = np.asarray(b, dtype=np.complex128)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError(f"expected a non-empty stack of states, got shape {arr.shape}")
    return arr


def _qls_products(q: QuantumLatinSquare, family: HadamardFamily) -> np.ndarray:
    # products[i, j, k, p] = H_j[k, i] * <p | grid(j, k)>, which every construction lays out
    if family.n != q.n:
        raise ValueError(f"order mismatch: square {q.n}, family {family.n}")
    return np.einsum("jki,jkp->ijkp", np.stack([h.mat for h in family.members]), q.grid.array)


def qls_meb(q: QuantumLatinSquare, family: HadamardFamily) -> BipartiteBasis:
    """Maximally entangled basis from a quantum Latin square and a Hadamard family.

    The state with label (i, j) has amplitude at |k, p>:

        (1/sqrt(n)) * H_j[k, i] * <p | grid(j, k)>

    so row j of the grid supplies the vectors and the j-th family member the
    phases: row i*n + j, column k*n + p.  Requires matching orders.
    """
    n = q.n
    states = _qls_products(q, family)
    states *= 1.0 / math.sqrt(n)
    return BipartiteBasis(n, states.reshape(n * n, n * n))


def lbw_meb(latin: LatinSquare, h: HadamardMatrix) -> BipartiteBasis:
    """Maximally entangled basis from one Latin square and one Hadamard.

    The state with label (i, j) has amplitude at |k, p>:

        (1/sqrt(n)) * H[i, k] * [cells[p, k] = j]

    This is :func:`qls_meb` on the computational grid of the left conjugate,
    whose entry (j, k) is |p> exactly when cells[p, k] = j, with every family
    member H^T: Beth and Wocjan's construction is a case of the QLS one.
    """
    if h.n != latin.n:
        raise ValueError(f"order mismatch: square {latin.n}, matrix {h.n}")
    # a computational grid of a Latin square is a QLS, and H^T a Hadamard
    grid = QuantumLatinSquare(computational_grid(left_conjugate(latin)))
    return qls_meb(grid, HadamardFamily((HadamardMatrix(h.mat.T, h.tol),) * h.n))


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


def extract_unitaries(states: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """The unitaries U with |s> = (1/sqrt(n)) sum_k |k> (x) U|k>, one for
    every row s of a finite (count, n^2) stack of states, as one (count, n, n)
    stack computed in one batched step: U[p, k] = sqrt(n) * s[k*n + p].

    Raises ValueError when a state is not maximally entangled, naming the
    partial-trace residual of the first such state; a NaN residual, left by
    an overflow, is not within any tol.
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

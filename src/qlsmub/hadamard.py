"""Complex Hadamard matrices and fixed-length families of them.

The convention is unnormalized: a valid matrix has unimodular entries and
satisfies H H* = H* H = n I.  (1/sqrt(n)) H is then unitary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import DEFAULT_TOL, first_gram_defect, owned


@dataclass(frozen=True, eq=False)
class HadamardMatrix:
    """A validated complex Hadamard matrix.  Build via :func:`validate_hadamard`."""

    ok = True
    mat: np.ndarray = field(metadata={"report": None})
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        object.__setattr__(self, "mat", owned(self.mat, np.complex128))

    @property
    def n(self) -> int:
        return self.mat.shape[0]

    def __str__(self) -> str:
        return f"valid complex Hadamard matrix of order {self.n} (tol {self.tol:g})"


@dataclass(frozen=True, eq=False)
class HadamardFamily:
    """Exactly n Hadamard matrices of order n, indexed 0..n-1."""

    members: tuple[HadamardMatrix, ...]

    @property
    def n(self) -> int:
        return self.members[0].n

    def __len__(self) -> int:
        return len(self.members)

    def __getitem__(self, j: int) -> HadamardMatrix:
        return self.members[j]


@dataclass(frozen=True)
class HadamardViolation:
    """First failed constraint of a candidate matrix.

    constraint: "shape", "unimodular", "row-orthogonality" or
    "column-orthogonality".  ``indices`` is the shape of a non-square or empty
    matrix, the offending entry (for unimodularity) or the offending
    row/column pair; ``value`` is the measured entry or inner product, and
    ``off_by`` its distance from modulus 1 or from n I (None for "shape",
    which has no measured value to be off).
    """

    ok = False
    constraint: str
    indices: tuple[int, int]
    value: complex
    off_by: float | None = None

    def __str__(self) -> str:
        if self.constraint == "shape":
            rows, cols = self.indices
            return f"matrix of shape {self.indices} is {'empty' if rows == cols else 'not square'}"
        if self.constraint == "unimodular":
            return (
                f"entry {self.indices} has modulus {np.abs(self.value):.6g}, expected 1 "
                f"(off by {self.off_by:.3e})"
            )
        kind = "rows" if self.constraint == "row-orthogonality" else "columns"
        return (
            f"{kind} {self.indices} have Gram entry {self.value:.6g}, "
            f"expected n on the diagonal and 0 off it (off by {self.off_by:.3e})"
        )


def validate_hadamard(m, tol: float = DEFAULT_TOL):
    """Check unimodularity and both Gram conditions.

    Returns a :class:`HadamardMatrix` on success, else a
    :class:`HadamardViolation` naming the first failed constraint in the order
    unimodularity, rows, columns.  A NaN or Inf entry fails unimodularity.
    """
    arr = np.asarray(m, dtype=np.complex128)
    if arr.ndim != 2:
        raise ValueError(f"expected a matrix, got an array of ndim {arr.ndim}")
    n = arr.shape[0]
    if arr.shape[0] != arr.shape[1] or n < 1:
        return HadamardViolation("shape", arr.shape, 0j)

    dev = np.abs(np.abs(arr) - 1.0)
    off = ~(dev <= tol)
    if off.any():
        i, j = divmod(int(np.argmax(off)), n)
        return HadamardViolation("unimodular", (i, j), complex(arr[i, j]), float(dev[i, j]))

    for constraint, gram in (
        ("row-orthogonality", arr @ arr.conj().T),
        ("column-orthogonality", arr.conj().T @ arr),
    ):
        hit = first_gram_defect(gram, n, tol)
        if hit is not None:
            return HadamardViolation(constraint, *hit)

    return HadamardMatrix(arr, tol)


def fourier(n: int) -> HadamardMatrix:
    """Fourier matrix F_n with entries w^(r*c), w = exp(2*pi*i/n)."""
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    r, c = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    mat = roots[(r * c) % n]
    result = validate_hadamard(mat)
    assert isinstance(result, HadamardMatrix)
    return result


def tensor_hadamard(a: HadamardMatrix, b: HadamardMatrix) -> HadamardMatrix:
    """Kronecker product of two Hadamards, revalidated at the joint order."""
    result = validate_hadamard(np.kron(a.mat, b.mat), min(a.tol, b.tol))
    if not result.ok:
        raise ValueError(f"tensor product failed validation: {result}")
    return result


def hadamard_family(members) -> HadamardFamily:
    """Bundle validated Hadamards into a family; length must equal the order."""
    members = tuple(members)
    if not members:
        raise ValueError("a family needs at least one member")
    for h in members:
        if not isinstance(h, HadamardMatrix):
            raise TypeError("family members must be validated HadamardMatrix objects")
    n = members[0].n
    if any(h.n != n for h in members):
        raise ValueError("family members must share one order")
    if len(members) != n:
        raise ValueError(f"a family of order {n} needs exactly {n} members, got {len(members)}")
    return HadamardFamily(members)


def constant_family(h: HadamardMatrix) -> HadamardFamily:
    """The family repeating one Hadamard n times."""
    return hadamard_family((h,) * h.n)


def _random_ordered_factorization(n: int, rng: np.random.Generator) -> list[int]:
    if n == 1:
        return [1]
    factors = []
    m = n
    while m > 1:
        divisors = [d for d in range(2, m + 1) if m % d == 0]
        d = int(rng.choice(divisors))
        factors.append(d)
        m //= d
    return factors


def random_hadamard(n: int, rng: np.random.Generator) -> HadamardMatrix:
    """Random dressed Fourier product.

    Takes a Kronecker product of Fourier matrices over a random ordered
    factorization of n, then applies random row/column permutations and
    unimodular diagonal phases.  Every step preserves the Hadamard axioms
    exactly, so the result always validates.
    """
    mat = np.ones((1, 1), dtype=np.complex128)
    for d in _random_ordered_factorization(n, rng):
        mat = np.kron(mat, fourier(d).mat)
    mat = mat[rng.permutation(n)][:, rng.permutation(n)]
    mat = np.exp(2j * np.pi * rng.random(n))[:, None] * mat
    mat = mat * np.exp(2j * np.pi * rng.random(n))[None, :]
    result = validate_hadamard(mat)
    assert isinstance(result, HadamardMatrix)
    return result

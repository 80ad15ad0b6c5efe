"""Quantum Latin squares, Latin squares, and their orthogonality notions.

Storage convention, used everywhere in this package: a grid is an n x n array
of length-n complex vectors addressed as ``array[row, col]``.  A Latin square
is the special case whose entries are computational basis vectors; it is kept
as an integer table ``cells[row, col]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import DEFAULT_TOL, first_gram_defect, owned


@dataclass(frozen=True, eq=False, repr=False)
class VectorGrid:
    """Square array of complex vectors, shape (n, n, n): (row, col, component)."""

    array: np.ndarray

    def __post_init__(self):
        arr = owned(self.array, np.complex128)
        if arr.ndim != 3 or len(set(arr.shape)) != 1 or arr.size == 0:
            raise ValueError(f"expected an (n, n, n) array with n >= 1, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("grid contains NaN or Inf entries")
        object.__setattr__(self, "array", arr)

    @property
    def n(self) -> int:
        return self.array.shape[0]

    def __repr__(self) -> str:
        return f"VectorGrid(n={self.n})"


@dataclass(frozen=True, eq=False, repr=False)
class LatinSquare:
    """Integer table where every row and column is a permutation of 0..n-1."""

    cells: np.ndarray

    def __post_init__(self):
        dtype = np.asarray(self.cells).dtype
        if not np.issubdtype(dtype, np.integer):
            raise ValueError(f"expected an integer table, got dtype {dtype}")
        arr = owned(self.cells, np.int64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise ValueError(f"expected a square table, got shape {arr.shape}")
        n = arr.shape[0]
        target = np.arange(n)
        for line, lines in (("row", arr), ("column", arr.T)):
            bad = np.flatnonzero((np.sort(lines, axis=1) != target).any(axis=1))
            if bad.size:
                raise ValueError(f"{line} {bad[0]} is not a permutation of 0..{n - 1}")
        object.__setattr__(self, "cells", arr)

    @property
    def n(self) -> int:
        return self.cells.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, LatinSquare):
            return NotImplemented
        return self.cells.shape == other.cells.shape and bool(
            np.array_equal(self.cells, other.cells)
        )

    def __hash__(self) -> int:
        return hash((self.cells.shape[0], self.cells.tobytes()))

    def __repr__(self) -> str:
        return f"LatinSquare({self.cells.tolist()!r})"


def computational_grid(latin: LatinSquare) -> VectorGrid:
    """The vector grid whose entry at (r, c) is the basis vector |cells[r, c]>."""
    return VectorGrid(np.eye(latin.n, dtype=np.complex128)[latin.cells])


@dataclass(frozen=True, eq=False)
class QuantumLatinSquare:
    """A grid whose rows and columns are orthonormal bases of C^n.

    Build via :func:`validate_qls`; ``tol`` records the tolerance it passed at.
    """

    ok = True
    grid: VectorGrid = field(metadata={"report": None})
    tol: float = DEFAULT_TOL

    @property
    def n(self) -> int:
        return self.grid.n

    def __str__(self) -> str:
        return f"valid quantum Latin square of order {self.n} (tol {self.tol:g})"


@dataclass(frozen=True)
class GridViolation:
    """First orthonormality defect found while scanning rows then columns.

    ``pair`` indexes the two vectors of the offending line whose Gram entry
    ``value`` differs from the identity's by ``off_by``.
    """

    ok = False
    line: str  # "row" or "column"
    index: int
    pair: tuple[int, int]
    value: complex
    off_by: float

    def __str__(self) -> str:
        u, v = self.pair
        expected = 1.0 if u == v else 0.0
        return (
            f"{self.line} {self.index} is not orthonormal: "
            f"<v{u}|v{v}> = {self.value:.6g}, expected {expected} "
            f"(off by {self.off_by:.3e})"
        )


def validate_qls(grid: VectorGrid, tol: float = DEFAULT_TOL):
    """Check that every row and column of the grid is an orthonormal basis.

    Returns a :class:`QuantumLatinSquare` on success, else a
    :class:`GridViolation` for the first defect (rows 0..n-1 scanned first,
    then columns).
    """
    for line, lines in (("row", grid.array), ("column", grid.array.transpose(1, 0, 2))):
        # grams[i, u, v] = <v_u|v_v> over the entries of line i
        grams = lines.conj() @ lines.transpose(0, 2, 1)
        hit = first_gram_defect(grams, 1.0, tol)
        if hit is not None:
            (index, u, v), value, off_by = hit
            return GridViolation(line, index, (u, v), value, off_by)
    return QuantumLatinSquare(grid, tol)


def left_conjugate(latin: LatinSquare) -> LatinSquare:
    """Left-division table of the square.

    The constructions in this package consume a grid column-first: the cell at
    (row b, column a) is read as the product a * b.  Left division solves
    a * x = s for x, so the conjugate table holds ``out[s, a] = b`` exactly
    when ``cells[b, a] = s``: each column's row-to-symbol map is inverted.
    Applying the operation twice returns the original square.
    """
    return LatinSquare(np.argsort(latin.cells, axis=0))


def are_orthogonal(a: LatinSquare, b: LatinSquare) -> bool:
    """True iff the n^2 ordered symbol pairs (a[r,c], b[r,c]) are all distinct."""
    if a.n != b.n:
        raise ValueError(f"order mismatch: {a.n} vs {b.n}")
    n = a.n
    codes = a.cells.ravel() * n + b.cells.ravel()
    return len(np.unique(codes)) == n * n


def are_left_orthogonal(a: LatinSquare, b: LatinSquare) -> bool:
    """True iff the left conjugates of a and b are orthogonal."""
    return are_orthogonal(left_conjugate(a), left_conjugate(b))


@dataclass(frozen=True, eq=False)
class WeakOrthWitness:
    """Success record: ``table[i, j]`` is the unique column where row i of the
    first grid and row j of the second have componentwise inner product 1."""

    ok = True
    n: int
    table: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "table", owned(self.table, np.int64))

    def __str__(self) -> str:
        rows = ("  " + " ".join(str(int(x)) for x in row) for row in self.table)
        head = "weakly orthogonal; witness table (rows of first vs rows of second):"
        return "\n".join((head, *rows))


@dataclass(frozen=True)
class WeakOrthFailure:
    """First row pair whose componentwise inner products are not n-1 zeros
    plus a single exact 1.

    kind: "stray-value" (a product near neither 0 nor 1, at ``column``,
    ``off_by`` from the nearer of them), "non-unique-unit" (a second unit
    product, at ``column``, ``off_by`` from 0), or "missing-unit" (all
    products near 0; ``column`` is None, and the product nearest 1 is
    ``off_by`` from it).
    """

    ok = False
    q_row: int
    p_row: int
    kind: str
    column: int | None
    value: complex | None
    off_by: float

    def __str__(self) -> str:
        where = f"rows ({self.q_row}, {self.p_row})"
        if self.kind == "missing-unit":
            found = "no columnwise inner product equals 1"
        else:
            found = f"column {self.column} product {self.value:.6g} ({self.kind})"
        return f"{where}: {found} (off by {self.off_by:.3e})"


def _grid_of(g) -> VectorGrid:
    if isinstance(g, QuantumLatinSquare):
        return g.grid
    if isinstance(g, VectorGrid):
        return g
    if isinstance(g, LatinSquare):
        return computational_grid(g)
    raise TypeError(f"expected a grid, got {type(g).__name__}")


def weak_orth_defects(prods, tol: float = DEFAULT_TOL):
    """The decision rule of :func:`weak_orth_witness`, on the columnwise inner
    products ``prods[..., i, j, k] = <q[i,k] | p[j,k]>`` of one grid pair or a
    stack of them.

    Returns ``(near_one, defect)``.  ``defect[..., i, j, k < n]`` marks a
    second unit (near one wins over near zero) or a stray value at column k,
    ``defect[..., i, j, n]`` a row pair with no unit at all; a pair of grids
    is weakly orthogonal iff its slice holds no True.
    """
    near_one = np.abs(prods - 1.0) <= tol
    near_zero = np.abs(prods) <= tol
    units = near_one.cumsum(axis=-1)
    defect = np.concatenate([np.where(near_one, units > 1, ~near_zero), units[..., -1:] == 0], -1)
    return near_one, defect


def weak_orth_witness(q, p, tol: float = DEFAULT_TOL):
    """Row-pair witness for weak orthogonality of two grids.

    For every pair (row i of q, row j of p) the n columnwise inner products
    <q[i,k]|p[j,k]> must consist of n-1 zeros and a single entry equal to 1,
    phase included.  Returns the table of unit positions as a
    :class:`WeakOrthWitness`, or a :class:`WeakOrthFailure` for the first
    violating (i, j, k) in lexicographic order.  At order 1 the one product
    must be 1.
    """
    qg, pg = _grid_of(q), _grid_of(p)
    if qg.n != pg.n:
        raise ValueError(f"order mismatch: {qg.n} vs {pg.n}")
    n = qg.n

    # prods[i, j, k] = <q[i,k] | p[j,k]>
    prods = np.einsum("ikc,jkc->ijk", qg.array.conj(), pg.array)
    near_one, defect = weak_orth_defects(prods, tol)
    # The first True in row-major order is the first failure of a scan over i, j, k.
    first = int(defect.argmax())
    if not defect.flat[first]:
        return WeakOrthWitness(n, near_one.argmax(axis=2))
    i, j, k = first // (n * (n + 1)), first // (n + 1) % n, first % (n + 1)
    if k == n:
        off_by = float(np.abs(prods[i, j] - 1.0).min())
        return WeakOrthFailure(i, j, "missing-unit", None, None, off_by)
    # numpy's abs, as the decision measured it: Python's abs can be an ulp lower
    value = prods[i, j, k]
    if near_one[i, j, k]:
        return WeakOrthFailure(i, j, "non-unique-unit", k, complex(value), float(np.abs(value)))
    off_by = float(min(np.abs(value), np.abs(value - 1.0)))
    return WeakOrthFailure(i, j, "stray-value", k, complex(value), off_by)

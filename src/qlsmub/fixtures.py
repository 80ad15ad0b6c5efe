"""Bundled order-9 reference objects.

The catalog ships a pair of 9 x 9 vector grids (P and Q), a third grid built
from constant blocks, the vector triples they are assembled from, and a 9 x 9
Hadamard in two variants; :func:`fixture` returns each by name.

Only P is typed in as a symbol table.  Q and the block grid are P with the
rows of each column permuted by a Latin square: cell (i, j) holds P[L[i, j], j].
A pair of grids (q, p) is weakly orthogonal exactly when each column of p is
the same column of q re-rowed by a Latin square, which is why the three grids
are pairwise weakly orthogonal.

Two of the shipped variants are deliberately defective and exist for
validator regression tests:

* The "printed" triple (a, b, c) spans span{|3>, |4>, |5>} but is only
  orthogonal under the bilinear (unconjugated) pairing; sesquilinearly
  <a|b> = 2/sqrt(18).  Grids built from it fail validation.  The default
  grids substitute the triple obtained by Gram-Schmidt in the order a, b, c,
  which is orthonormal in the same span.
* The "printed" Hadamard repeats one row (row 4 equals row 3), so its row
  Gram is singular.  The corrected variant is the Kronecker square of the
  order-3 Fourier matrix, which matches the printed matrix in every other row.
"""

from __future__ import annotations

import numpy as np

from .hadamard import HadamardMatrix, fourier, tensor_hadamard
from .squares import VectorGrid

# Symbol table of P.  Digits are computational basis vectors;
# a, b, c name the span{3,4,5} triple and A, B, C the span{0,1,2} one.
_P_SYMBOLS = [
    "0 2 1 3 5 4 6 8 7",
    "2 1 0 5 4 3 8 7 6",
    "1 0 2 4 3 5 7 6 8",
    "6 8 7 0 2 1 3 5 4",
    "8 7 6 2 1 0 5 4 3",
    "7 6 8 1 0 2 4 3 5",
    "a c b 6 8 7 A C B",
    "c b a 8 7 6 C B A",
    "b a c 7 6 8 B A C",
]

# The Latin squares L over GF(3)^2 that re-row P into Q and into the block
# grid.  With i = 3a + b and j = 3c + d:
#   Q:     L(i, j) = 3 ((-a - c) mod 3) + (b + d) mod 3
#   block: L(i, j) = 3 ((c - a) mod 3) + (-b - d) mod 3
_A, _B = np.divmod(np.arange(9), 3)
_Q_ROWS = 3 * ((-_A[:, None] - _A) % 3) + (_B[:, None] + _B) % 3
_BLOCK_ROWS = 3 * ((_A - _A[:, None]) % 3) + (-_B[:, None] - _B) % 3


def _embedded(columns, start: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The columns of a 3 x 3 block as vectors of C^9 on |start>..|start + 2>."""
    out = np.zeros((3, 9), dtype=np.complex128)
    out[:, start : start + 3] = np.transpose(columns)
    return tuple(out)


def _printed_triple() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The verbatim (a, b, c) vectors in span{|3>, |4>, |5>} of C^9."""
    a = np.array([1, 1, 1j]) / np.sqrt(3)
    b = np.array([2, -1, 1j]) / np.sqrt(6)
    c = np.array([-2j, -1j, 3]) / np.sqrt(14)
    return _embedded(np.column_stack([a, b, c]), 3)


def _corrected_triple() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gram-Schmidt of the printed triple, taken in the order a, b, c."""
    vecs = []
    for v in _printed_triple():
        w = v.copy()
        for u in vecs:
            w -= np.vdot(u, w) * u
        vecs.append(w / np.linalg.norm(w))
    return tuple(vecs)


def _fourier_triple() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The order-3 Fourier vectors in span{|0>, |1>, |2>} of C^9."""
    return _embedded(fourier(3).mat / np.sqrt(3), 0)


def paper_p_grid(triple=None) -> VectorGrid:
    """Grid P; ``triple`` (a 3-tuple of vectors) overrides the corrected
    (a, b, c) block."""
    a, b, c = _corrected_triple() if triple is None else triple
    lookup = dict(zip("abcABC", (a, b, c, *_fourier_triple())))
    lookup.update(zip("012345678", np.eye(9, dtype=np.complex128)))
    return VectorGrid(np.array([[lookup[tok] for tok in row.split()] for row in _P_SYMBOLS],
                               dtype=np.complex128))


def paper_q_grid(triple=None) -> VectorGrid:
    """Grid Q: grid P with the rows of each column permuted by ``_Q_ROWS``."""
    return VectorGrid(paper_p_grid(triple).array[_Q_ROWS, np.arange(9)])


def block_square_grid(triple=None) -> VectorGrid:
    """The constant-block grid that is weakly orthogonal to both P and Q
    without being a quantum Latin square itself (its rows repeat vectors):
    grid P with the rows of each column permuted by ``_BLOCK_ROWS``."""
    return VectorGrid(paper_p_grid(triple).array[_BLOCK_ROWS, np.arange(9)])


def hadamard_9_corrected() -> HadamardMatrix:
    """Kronecker square of the order-3 Fourier matrix."""
    f3 = fourier(3)
    return tensor_hadamard(f3, f3)


def _hadamard_9_printed() -> np.ndarray:
    """The defective order-9 matrix: row 4 repeats row 3."""
    mat = np.kron(fourier(3).mat, fourier(3).mat)
    mat[4] = mat[3]
    return mat


_BUILDERS = {
    "paper-P": paper_p_grid,
    "paper-Q": paper_q_grid,
    "paper-P-printed": lambda: paper_p_grid(_printed_triple()),
    "paper-Q-printed": lambda: paper_q_grid(_printed_triple()),
    "block-square": block_square_grid,
    "corrected-triple": _corrected_triple,
    "printed-triple": _printed_triple,
    "fourier-triple": _fourier_triple,
    "hadamard-9-corrected": hadamard_9_corrected,
    "hadamard-9-printed": _hadamard_9_printed,
}

FIXTURE_NAMES = tuple(_BUILDERS)


def fixture(name: str):
    """Return the catalog object for ``name``.

    Grids come back as :class:`VectorGrid`, triples as 3-tuples of vectors,
    the corrected Hadamard as :class:`HadamardMatrix`, and the printed
    Hadamard as a plain array (it does not validate).
    """
    if name not in _BUILDERS:
        raise KeyError(f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}")
    return _BUILDERS[name]()

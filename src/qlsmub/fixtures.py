"""Bundled order-9 reference objects.

The catalog ships a pair of 9 x 9 vector grids (P and Q), a third grid built
from constant blocks, the vector triples they are assembled from, and a 9 x 9
Hadamard in two variants.

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

# Symbol tables for the three grids.  Digits are computational basis vectors;
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

_Q_SYMBOLS = [
    "0 1 2 6 7 8 3 4 5",
    "2 0 1 8 6 7 5 3 4",
    "1 2 0 7 8 6 4 5 3",
    "a b c 0 1 2 6 7 8",
    "c a b 2 0 1 8 6 7",
    "b c a 1 2 0 7 8 6",
    "6 7 8 3 4 5 A B C",
    "8 6 7 5 3 4 C A B",
    "7 8 6 4 5 3 B C A",
]

_BLOCK_SYMBOLS = [
    "0 0 0 0 0 0 A A A",
    "1 1 1 1 1 1 B B B",
    "2 2 2 2 2 2 C C C",
    "a a a 3 3 3 3 3 3",
    "b b b 4 4 4 4 4 4",
    "c c c 5 5 5 5 5 5",
    "6 6 6 6 6 6 6 6 6",
    "7 7 7 7 7 7 7 7 7",
    "8 8 8 8 8 8 8 8 8",
]


def printed_triple() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The verbatim (a, b, c) vectors in span{|3>, |4>, |5>} of C^9."""
    a = np.zeros(9, dtype=np.complex128)
    b = np.zeros(9, dtype=np.complex128)
    c = np.zeros(9, dtype=np.complex128)
    a[3:6] = np.array([1, 1, 1j]) / np.sqrt(3)
    b[3:6] = np.array([2, -1, 1j]) / np.sqrt(6)
    c[3:6] = np.array([-2j, -1j, 3]) / np.sqrt(14)
    return a, b, c


def corrected_triple() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gram-Schmidt of the printed triple, taken in the order a, b, c."""
    vecs = []
    for v in printed_triple():
        w = v.copy()
        for u in vecs:
            w -= np.vdot(u, w) * u
        vecs.append(w / np.linalg.norm(w))
    return tuple(vecs)


def fourier_triple() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The order-3 Fourier vectors in span{|0>, |1>, |2>} of C^9."""
    f = fourier(3).mat / np.sqrt(3)
    out = []
    for k in range(3):
        v = np.zeros(9, dtype=np.complex128)
        v[:3] = f[:, k]
        out.append(v)
    return tuple(out)


def random_orthonormal_triple(
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A Haar-random orthonormal triple spanning span{|3>, |4>, |5>}."""
    z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    out = []
    for k in range(3):
        v = np.zeros(9, dtype=np.complex128)
        v[3:6] = q[:, k]
        out.append(v)
    return tuple(out)


def _grid_from_symbols(symbols, triple) -> VectorGrid:
    a, b, c = triple
    al, be, ga = fourier_triple()
    lookup = {"a": a, "b": b, "c": c, "A": al, "B": be, "C": ga}
    eye = np.eye(9, dtype=np.complex128)
    for d in range(9):
        lookup[str(d)] = eye[d]
    arr = np.array(
        [[lookup[tok] for tok in row.split()] for row in symbols],
        dtype=np.complex128,
    )
    return VectorGrid(arr)


def paper_p_grid(triple=None) -> VectorGrid:
    """Grid P; ``triple`` (a 3-tuple of vectors) overrides the corrected
    (a, b, c) block."""
    return _grid_from_symbols(_P_SYMBOLS, corrected_triple() if triple is None else triple)


def paper_q_grid(triple=None) -> VectorGrid:
    """Grid Q; ``triple`` (a 3-tuple of vectors) overrides the corrected
    (a, b, c) block."""
    return _grid_from_symbols(_Q_SYMBOLS, corrected_triple() if triple is None else triple)


def block_square_grid(triple=None) -> VectorGrid:
    """The constant-block grid that is weakly orthogonal to both P and Q
    without being a quantum Latin square itself (its rows repeat vectors)."""
    return _grid_from_symbols(_BLOCK_SYMBOLS, corrected_triple() if triple is None else triple)


def hadamard_9_corrected() -> HadamardMatrix:
    """Kronecker square of the order-3 Fourier matrix."""
    f3 = fourier(3)
    return tensor_hadamard(f3, f3)


def hadamard_9_printed() -> np.ndarray:
    """The defective order-9 matrix: row 4 repeats row 3.

    Returned as a plain array because it does not validate.
    """
    mat = np.kron(fourier(3).mat, fourier(3).mat)
    mat[4] = mat[3]
    return mat


_BUILDERS = {
    "paper-P": paper_p_grid,
    "paper-Q": paper_q_grid,
    "paper-P-printed": lambda: paper_p_grid(printed_triple()),
    "paper-Q-printed": lambda: paper_q_grid(printed_triple()),
    "block-square": block_square_grid,
    "corrected-triple": corrected_triple,
    "printed-triple": printed_triple,
    "fourier-triple": fourier_triple,
    "hadamard-9-corrected": hadamard_9_corrected,
    "hadamard-9-printed": hadamard_9_printed,
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

"""The dense complex linear algebra the package shares and numpy lacks.

Where numpy or the stdlib has the routine (``np.kron``,
``np.linalg.matrix_power``, ``math.lcm``), the package calls it directly.
Everything here operates on plain numpy arrays and is pure: inputs are
never mutated.  Tolerances are absolute; :func:`is_permutation_matrix`
compares exactly and takes none.  :func:`owned` makes the read-only copy
that every value type of the package holds in place of its input.
"""

from __future__ import annotations

import numpy as np

# Absolute tolerance for the structural predicates (Gram checks,
# orthonormality, weak orthogonality).
DEFAULT_TOL = 1e-9


def as_state_vector(v) -> np.ndarray:
    """Coerce to a 1-D complex128 array, rejecting non-finite entries."""
    arr = np.asarray(v, dtype=np.complex128).ravel()
    if arr.size == 0:
        raise ValueError("empty state vector")
    if not np.isfinite(arr).all():
        raise ValueError("state vector contains NaN or Inf entries")
    return arr


def owned(array, dtype) -> np.ndarray:
    """A read-only C-order copy of ``array`` as ``dtype``, which no other
    reference can change: a value type validates and holds this copy."""
    arr = np.array(array, dtype=dtype, order="C")
    arr.setflags(write=False)
    return arr


def first_gram_defect(grams, scale: float, tol: float):
    """First entry where a Gram matrix, or a stack of them, leaves ``scale * I``.

    Scans in row-major order (stack index first) and returns ``(index, value,
    off_by)`` for the first entry more than ``tol`` away: its index tuple, the
    entry, and the distance from ``scale * I`` that was judged against
    ``tol``, so a finite one always exceeds it.  None when there is no such
    entry.  NaN counts as a defect.
    """
    grams = np.asarray(grams)
    dev = np.abs(grams - scale * np.eye(grams.shape[-1]))
    defect = ~(dev <= tol)
    if not defect.any():
        return None
    index = tuple(int(i) for i in np.unravel_index(np.argmax(defect), defect.shape))
    return index, complex(grams[index]), float(dev[index])


def frobenius_norms(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of every matrix of a complex (count, rows, cols) stack.

    Each norm is sqrt(re.re + im.im) over the flattened matrix, the sums
    np.linalg.norm takes, so a matrix alone and in a stack agree bit for bit.
    """
    count, rows, cols = stack.shape
    flat = stack.reshape(count, 1, rows * cols)
    re, im = flat.real, flat.imag
    return np.sqrt(re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1)).ravel()


def is_permutation_matrix(m):
    """True iff every row and column holds a single 1 and zeros elsewhere.

    Entries are compared exactly, whatever their dtype: the unit must equal
    +1 (phase included) and every other entry 0, so a NaN is neither, and a
    matrix that is not square never passes.  A stack ``(..., k, l)`` gets
    one verdict per matrix, as a bool array of shape ``(...)``; a single
    matrix gets a bool.
    """
    arr = np.asarray(m)
    if arr.ndim < 2:
        raise ValueError(f"expected a matrix, got an array of ndim {arr.ndim}")
    ones = arr == 1
    verdict = (
        (ones | (arr == 0)).all(axis=(-2, -1))
        & (ones.sum(axis=-2) == 1).all(axis=-1)
        & (ones.sum(axis=-1) == 1).all(axis=-1)
    )
    return bool(verdict) if arr.ndim == 2 else verdict

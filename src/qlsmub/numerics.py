"""Dense complex linear algebra helpers shared by the rest of the package.

Everything operates on plain numpy arrays with ``complex128`` entries and is
pure: inputs are never mutated.  Tolerances are absolute unless stated
otherwise.  :func:`owned` makes the read-only copy that every value type of
the package holds in place of its input.
"""

from __future__ import annotations

import math

import numpy as np

# Absolute tolerance for the structural predicates (Gram checks,
# permutation / monomial tests, orthonormality).
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


def mat_power(u, e: int) -> np.ndarray:
    """e-th power of a square matrix, or of every matrix in a stack
    ``(..., n, n)``, by repeated squaring (e >= 0).

    A stack is powered in one pass that performs, slice by slice, the same
    products in the same order as powering each matrix alone, so both give
    bitwise equal results.
    """
    arr = np.asarray(u, dtype=np.complex128)
    if arr.ndim < 2:
        raise ValueError(f"expected a matrix, got an array of ndim {arr.ndim}")
    if not np.isfinite(arr).all():
        raise ValueError("matrix contains NaN or Inf entries")
    if arr.shape[-1] != arr.shape[-2]:
        raise ValueError(f"matrix must be square, got shape {arr.shape[-2:]}")
    if e < 0:
        raise ValueError(f"exponent must be non-negative, got {e}")
    result = np.broadcast_to(np.eye(arr.shape[-1], dtype=np.complex128), arr.shape).copy()
    base = arr
    while e:
        if e & 1:
            result = result @ base
        e >>= 1
        if e:
            base = base @ base
    return result


def lcm_up_to(n: int) -> int:
    """Least common multiple of 1..n."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return math.lcm(*range(1, n + 1))


def is_permutation_matrix(m, tol: float = DEFAULT_TOL):
    """True iff every row and column holds a single 1 and zeros elsewhere.

    The unit entry must be +1 (phase included), not merely unimodular.  A
    stack ``(..., k, k)`` gets one verdict per matrix, as a bool array of
    shape ``(...)``; a single matrix gets a bool.
    """
    arr = np.asarray(m, dtype=np.complex128)
    if arr.ndim < 2:
        raise ValueError(f"expected a matrix, got an array of ndim {arr.ndim}")
    if not np.isfinite(arr).all():
        raise ValueError("matrix contains NaN or Inf entries")
    if arr.shape[-1] != arr.shape[-2]:
        verdict = np.zeros(arr.shape[:-2], dtype=bool)
    else:
        ones = np.abs(arr - 1.0) <= tol
        zeros = np.abs(arr) <= tol
        verdict = (
            (ones | zeros).all(axis=(-2, -1))
            & (ones.sum(axis=-2) == 1).all(axis=-1)
            & (ones.sum(axis=-1) == 1).all(axis=-1)
        )
    return bool(verdict) if arr.ndim == 2 else verdict

"""Sampling and reference helpers shared by the tests."""

from itertools import combinations

import numpy as np

from qlsmub.numerics import DEFAULT_TOL, OBSTRUCTION_THRESHOLD, lcm_up_to, mat_power
from qlsmub.squares import LatinSquare, VectorGrid
from qlsmub.ueb import ObstructionReport


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed n x n unitary (QR of a complex Ginibre matrix)."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


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


def reference_obstruction(u, threshold: float = OBSTRUCTION_THRESHOLD, normalizer: int = 0):
    """The obstruction sweep as one Python iteration per member pair.

    Each member is powered alone and each commutator norm is taken with
    ``np.linalg.norm``; the batched ``monomial_obstruction`` must match it
    bit for bit, tie-break included.
    """
    n, count = u.n, u.n * u.n
    mu = lcm_up_to(n)
    translated = u.members @ u.members[normalizer].conj().T
    powers = np.empty_like(translated)
    for s in range(count):
        powers[s] = mat_power(translated[s], mu)

    worst_pair, worst_norm = None, 0.0
    for i, j in combinations(range(count), 2):
        norm = float(np.linalg.norm(powers[i] @ powers[j] - powers[j] @ powers[i]))
        if worst_pair is None or norm > worst_norm:
            worst_pair, worst_norm = (i, j), norm
    i, j = worst_pair
    comm = powers[i] @ powers[j] - powers[j] @ powers[i]
    return ObstructionReport(
        mu=mu,
        normalizer_index=normalizer,
        worst_pair=worst_pair,
        worst_norm=worst_norm,
        sample_entry=complex(comm[0, 0]),
        obstructed=bool(worst_norm > threshold),
        threshold=threshold,
    )

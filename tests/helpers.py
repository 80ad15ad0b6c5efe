"""Sampling and reference helpers shared by the tests."""

from itertools import combinations

import numpy as np

from qlsmub.numerics import OBSTRUCTION_THRESHOLD, lcm_up_to, mat_power
from qlsmub.ueb import ObstructionReport


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed n x n unitary (QR of a complex Ginibre matrix)."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


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

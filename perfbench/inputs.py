"""Seeded input files for the benchmark workloads.

Everything here is a pure function of the seed and the sizes: the same seed
writes byte-identical files.  Haar unitaries are drawn here rather than taken
from the library, so the inputs do not depend on helpers the library may drop.
"""

from __future__ import annotations

import os

import numpy as np

from qlsmub import serialize
from qlsmub.fixtures import hadamard_9_corrected, paper_p_grid
from qlsmub.hadamard import constant_family, hadamard_family, random_hadamard
from qlsmub.squares import LatinSquare, VectorGrid, computational_grid, validate_qls
from qlsmub.ueb import shift_multiply_ueb


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Gaussian, phases fixed by R."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def linear_grid(n: int, k: int, u: np.ndarray) -> VectorGrid:
    """Grid whose (r, c) entry is column (r + k*c) mod n of the unitary u.

    For prime n and distinct nonzero k these grids are quantum Latin squares
    and pairwise weakly orthogonal: u preserves every inner product of the
    computational grids of the linear squares r + k*c, whose left conjugates
    are orthogonal.
    """
    r, c = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return VectorGrid(u.T[(r + k * c) % n])


def write_pipeline(out_dir: str, seed: int, n: int) -> None:
    """grid1/grid2: weakly orthogonal order-n grids; family1/family2: Hadamard families."""
    rng = np.random.default_rng(seed)
    u = haar_unitary(n, rng)
    for k in (1, 2):
        grid = serialize.grid_doc(linear_grid(n, k, u))
        serialize.save_path(os.path.join(out_dir, f"grid{k}.json"), grid)
    for k in (1, 2):
        family = serialize.matrix_list_doc([random_hadamard(n, rng).mat for _ in range(n)])
        serialize.save_path(os.path.join(out_dir, f"family{k}.json"), family)


def monomial_equivalent_ueb(n: int, rng: np.random.Generator) -> np.ndarray:
    """A @ U @ B for the shift-and-multiply basis U of the cyclic square.

    U is monomial, so the commutator obstruction must find nothing.
    """
    cyclic = LatinSquare(np.add.outer(np.arange(n), np.arange(n)) % n)
    qls = validate_qls(computational_grid(cyclic))
    family = hadamard_family([random_hadamard(n, rng) for _ in range(n)])
    members = shift_multiply_ueb(qls, family).members
    a, b = haar_unitary(n, rng), haar_unitary(n, rng)
    return a @ members @ b


def paper_p_ueb() -> np.ndarray:
    """The order-9 basis of the bundled paper-P grid; it is obstructed."""
    qls = validate_qls(paper_p_grid())
    return shift_multiply_ueb(qls, constant_family(hadamard_9_corrected())).members


def write_obstruction(out_dir: str, seed: int, n: int, count: int) -> None:
    """clean0..clean{count-1}: monomial-equivalent order-n bases; paper-P: order 9."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        doc = serialize.matrix_list_doc(monomial_equivalent_ueb(n, rng))
        serialize.save_path(os.path.join(out_dir, f"clean{i}.json"), doc)
    doc = serialize.matrix_list_doc(paper_p_ueb())
    serialize.save_path(os.path.join(out_dir, "paper-P.json"), doc)

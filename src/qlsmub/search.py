"""Exhaustive small-order searches.

Enumeration is capped at order 5 and all-pairs work at order 4; beyond that
the counts explode past desk-scale runtimes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import DEFAULT_TOL, is_permutation_matrix
from .squares import (
    LatinSquare,
    WeakOrthWitness,
    are_orthogonal,
    computational_grid,
    left_conjugate,
    orthogonality_map,
    weak_orth_witness,
)

ENUMERATION_CAP = 5
PAIRS_CAP = 4


@dataclass(frozen=True)
class EnumerationResult:
    order: int
    squares: list[LatinSquare]

    @property
    def count(self) -> int:
        return len(self.squares)


def _check_order(n: int, cap: int) -> None:
    if not 1 <= n <= cap:
        raise ValueError(f"order {n} out of range 1..{cap}")


def enumerate_latin(n: int) -> EnumerationResult:
    """All Latin squares of order n in lexicographic cell order (n <= 5)."""
    _check_order(n, ENUMERATION_CAP)
    grid = np.zeros((n, n), dtype=np.int64)
    row_used = [0] * n  # bitmasks
    col_used = [0] * n
    squares: list[LatinSquare] = []

    def fill(cell: int) -> None:
        if cell == n * n:
            squares.append(LatinSquare(grid))
            return
        r, c = divmod(cell, n)
        taken = row_used[r] | col_used[c]
        for v in range(n):
            bit = 1 << v
            if taken & bit:
                continue
            grid[r, c] = v
            row_used[r] |= bit
            col_used[c] |= bit
            fill(cell + 1)
            row_used[r] &= ~bit
            col_used[c] &= ~bit

    fill(0)
    return EnumerationResult(n, squares)


def count_latin_by_columns(n: int) -> int:
    """Independent recount filling column-major instead of row-major.

    Exists purely to cross-check :func:`enumerate_latin`; shares no state
    with it.
    """
    _check_order(n, ENUMERATION_CAP)
    row_used = [0] * n
    col_used = [0] * n

    def fill(cell: int) -> int:
        if cell == n * n:
            return 1
        c, r = divmod(cell, n)  # column-major order
        taken = row_used[r] | col_used[c]
        total = 0
        for v in range(n):
            bit = 1 << v
            if taken & bit:
                continue
            row_used[r] |= bit
            col_used[c] |= bit
            total += fill(cell + 1)
            row_used[r] &= ~bit
            col_used[c] &= ~bit
        return total

    return fill(0)


def find_orthogonal_pairs(n: int) -> list[tuple[LatinSquare, LatinSquare]]:
    """All ordered orthogonal pairs over the full enumeration (n <= 4).

    Order 1 yields the single trivial self-pair; order 2 yields nothing.
    """
    _check_order(n, PAIRS_CAP)
    squares = enumerate_latin(n).squares
    codes = np.stack([s.cells.ravel() for s in squares])
    pairs: list[tuple[LatinSquare, LatinSquare]] = []
    for ia, a in enumerate(squares):
        combined = codes[ia][None, :] * n + codes
        srt = np.sort(combined, axis=1)
        ok = np.all(srt[:, 1:] != srt[:, :-1], axis=1)
        for ib in np.nonzero(ok)[0]:
            pairs.append((a, squares[int(ib)]))
    return pairs


@dataclass(frozen=True)
class EquivalenceReport:
    """Cross-validation of the three orthogonality routes over all ordered
    pairs at one order: the weak-orthogonality witness on computational
    grids, the left-conjugate pair test, and the permutation test on the
    left conjugates' cell-to-symbol-pair map.

    ``disagreements`` lists (index_a, index_b, witness, left, perm) for any
    pair where the three booleans differ; all three agreeing everywhere is
    the expected outcome.
    """

    order: int
    pairs_checked: int
    positives: int
    disagreements: list[tuple] = field(default_factory=list)

    @property
    def consistent(self) -> bool:
        return not self.disagreements


def cross_validate_lemma16(n: int, tol: float = DEFAULT_TOL) -> EquivalenceReport:
    """Check witness/left-conjugate/permutation agreement exhaustively (n <= 4)."""
    _check_order(n, PAIRS_CAP)
    squares = enumerate_latin(n).squares
    grids = [computational_grid(s) for s in squares]
    conjugates = [left_conjugate(s) for s in squares]

    positives = 0
    disagreements: list[tuple] = []
    for ia in range(len(squares)):
        for ib in range(len(squares)):
            by_witness = isinstance(
                weak_orth_witness(grids[ia], grids[ib], tol), WeakOrthWitness
            )
            by_left = are_orthogonal(conjugates[ia], conjugates[ib])
            by_perm = is_permutation_matrix(
                orthogonality_map(conjugates[ia], conjugates[ib]), tol
            )
            if by_witness:
                positives += 1
            if not (by_witness == by_left == by_perm):
                disagreements.append((ia, ib, by_witness, by_left, by_perm))
    return EquivalenceReport(
        order=n,
        pairs_checked=len(squares) ** 2,
        positives=positives,
        disagreements=disagreements,
    )

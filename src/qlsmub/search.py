"""Exhaustive small-order searches.

Enumeration is capped at order 5 and all-pairs work at order 4; beyond that
the counts explode past desk-scale runtimes.  Each search works on the whole
enumeration as one ``(count, n, n)`` array rather than square by square.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from .numerics import DEFAULT_TOL, is_permutation_matrix
from .squares import LatinSquare, weak_orth_defects

ENUMERATION_CAP = 5
PAIRS_CAP = 4

# Partial squares tested against the row permutations in one step; bounds
# the (block, n!) compatibility table that order 5 builds.
_ENUMERATION_BLOCK = 4096
# Squares decided against all partners in one step of find_orthogonal_pairs,
# bounding its (block, count) table; and at most _PAIR_BLOCK ordered pairs per
# step of the lemma16 cross-check, bounding its (pairs, n^2, n^2) complex
# permutation maps.
_PAIR_BLOCK = 96


@dataclass(frozen=True, eq=False)
class EnumerationResult:
    """The Latin squares of one order as a read-only ``(count, n, n)`` int8
    array, in lexicographic cell order."""

    order: int
    cells: np.ndarray

    @property
    def count(self) -> int:
        return len(self.cells)

    @property
    def squares(self) -> list[LatinSquare]:
        """The squares as validated :class:`LatinSquare` objects, built on access."""
        return [LatinSquare(c) for c in self.cells]


def _check_order(n: int, cap: int) -> None:
    if not 1 <= n <= cap:
        raise ValueError(f"order {n} out of range 1..{cap}")


def enumerate_latin(n: int) -> EnumerationResult:
    """All Latin squares of order n in lexicographic cell order (n <= 5).

    Squares grow a row at a time: each partial square, in order, takes every
    row permutation (in ``itertools.permutations`` order, which is
    lexicographic) that repeats no symbol in any column, so the stack stays
    sorted.  A row's key has bit ``n*c + s`` set for symbol s in column c,
    and the OR of a partial square's keys marks the symbols each column has
    used.  The last row is forced: each column's missing symbol.
    """
    _check_order(n, ENUMERATION_CAP)
    perms = np.array(list(permutations(range(n))), dtype=np.int8)
    keys = (1 << (perms + n * np.arange(n))).sum(axis=1)
    rows = np.zeros((1, 0), dtype=np.int64)  # permutation index of each row
    used = np.zeros(1, dtype=np.int64)
    for _ in range(n - 1):
        # flat hit indices, one divmod: 2-D np.nonzero is several times slower
        partial, perm = np.divmod(np.concatenate([
            np.flatnonzero((used[s : s + _ENUMERATION_BLOCK, None] & keys) == 0) + s * len(keys)
            for s in range(0, len(used), _ENUMERATION_BLOCK)
        ]), len(keys))
        rows = np.concatenate([rows[partial], perm[:, None]], axis=1)
        used = used[partial] | keys[perm]
    cells = np.empty((len(rows), n, n), dtype=np.int8)
    cells[:, :-1] = perms[rows]
    cells[:, -1] = n * (n - 1) // 2 - cells[:, :-1].sum(axis=1, dtype=np.int8)

    target = np.arange(n)
    rows_ok = (np.sort(cells, axis=2) == target).all()
    cols_ok = (np.sort(cells, axis=1) == target[:, None]).all()
    if not (rows_ok and cols_ok):
        raise RuntimeError(f"order-{n} enumeration produced a table that is not Latin")
    cells.setflags(write=False)
    return EnumerationResult(n, cells)


def count_latin_by_columns(n: int) -> int:
    """Independent recount filling column-major instead of row-major.

    Exists purely to cross-check :func:`enumerate_latin`; shares no code or
    state with it.  Columns are filled one at a time, each cell taking a
    symbol its row has not used.  How many ways the remaining columns can be
    filled depends only on the set of symbols each row has used, not on the
    order of the rows, so counts are memoised per call under the sorted
    tuple of those sets (as bitmasks).
    """
    _check_order(n, ENUMERATION_CAP)
    full = (1 << n) - 1
    memo: dict[tuple[int, ...], int] = {}

    def columns(used: tuple[int, ...], r: int, taken: int):
        """Row sets after every valid fill of the next column from row r on."""
        if r == n:
            yield ()
            return
        for v in range(n):
            bit = 1 << v
            if not (used[r] | taken) & bit:
                for rest in columns(used, r + 1, taken | bit):
                    yield (used[r] | bit, *rest)

    def completions(used: tuple[int, ...]) -> int:
        if used[0] == full:
            return 1
        if used not in memo:
            memo[used] = sum(completions(tuple(sorted(nxt))) for nxt in columns(used, 0, 0))
        return memo[used]

    return completions((0,) * n)


def find_orthogonal_pairs(n: int) -> np.ndarray:
    """All ordered orthogonal pairs over the full enumeration (n <= 4), as an
    ``(m, 2)`` array of row-major ``(ia, ib)`` indices into
    ``enumerate_latin(n).cells``.

    Two squares are orthogonal iff no two distinct cells agree in both.
    ``agree[a]`` marks the cell pairs x < y where square a repeats a symbol,
    so a and b are orthogonal iff ``agree[a] . agree[b] == 0``: the table is
    ``agree @ agree.T == 0``, taken a block of rows at a time (its entries
    count cell pairs, at most n^2 (n^2 - 1) / 2, exact in float32).

    Order 1 yields the single trivial self-pair; order 2 yields nothing.
    """
    _check_order(n, PAIRS_CAP)
    codes = enumerate_latin(n).cells.reshape(-1, n * n)
    x, y = np.triu_indices(n * n, 1)
    agree = (codes[:, x] == codes[:, y]).astype(np.float32)
    count = len(agree)
    hits = np.concatenate([
        np.flatnonzero(agree[s : s + _PAIR_BLOCK] @ agree.T == 0) + s * count
        for s in range(0, count, _PAIR_BLOCK)
    ])
    return np.stack(np.divmod(hits, count), axis=1)


@dataclass(frozen=True)
class EquivalenceReport:
    """Cross-validation of the three orthogonality routes over all ordered
    pairs at one order: the weak-orthogonality witness on computational
    grids, the left-conjugate pair test, and the permutation test on the
    left conjugates' cell-to-symbol-pair map.

    ``disagreements`` lists (index_a, index_b, witness, left, perm) for any
    pair where the three booleans differ, in row-major pair order; all three
    agreeing everywhere is the expected outcome.  A json-report carries
    their count.
    """

    order: int
    pairs_checked: int
    positives: int
    disagreements: list[tuple] = field(default_factory=list, metadata={"report": len})

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def __str__(self) -> str:
        return (
            f"order {self.order}: {self.pairs_checked} ordered pairs, {self.positives} weakly "
            f"orthogonal, {len(self.disagreements)} disagreements between the three routes"
        )


def cross_validate_lemma16(n: int, tol: float = DEFAULT_TOL) -> EquivalenceReport:
    """Check witness/left-conjugate/permutation agreement exhaustively (n <= 4).

    Each step decides a block of at most ``_PAIR_BLOCK`` ordered pairs: a run
    of ``max(1, _PAIR_BLOCK // count)`` squares against a block of partners
    (all of them once a run holds two or more squares, so blocks follow
    row-major pair order).  Three independent computations decide each pair:
    the :func:`weak_orth_defects` rule on the stacked columnwise products of
    computational grids, distinct sorted pair codes of the left conjugates,
    and :func:`is_permutation_matrix` on the stacked cell-to-symbol-pair maps
    of the left conjugates.
    """
    _check_order(n, PAIRS_CAP)
    cells = enumerate_latin(n).cells
    count = len(cells)
    basis = np.eye(n, dtype=np.complex128)  # basis[cells] are the computational grids
    # left conjugate: out[s, c] = r where cells[r, c] = s, each column inverted
    conj = np.argsort(cells, axis=1).reshape(count, n * n)
    cell = np.arange(n * n)
    rows = max(1, _PAIR_BLOCK // count)

    positives = 0
    disagreements: list[tuple] = []
    for first in range(0, count, rows):
        run = slice(first, first + rows)
        q = basis[cells[run]].conj()
        for start in range(0, count, _PAIR_BLOCK):
            block = slice(start, start + _PAIR_BLOCK)
            partners = basis[cells[block]]
            prods = np.einsum("aikc,bjkc->abijk", q, partners, optimize=True)
            prods = prods.reshape(-1, n, n, n)
            by_witness = ~weak_orth_defects(prods, tol)[1].any(axis=(1, 2, 3))
            codes = (conj[run, None] * n + conj[block]).reshape(-1, n * n)
            srt = np.sort(codes, axis=1)
            by_left = (srt[:, 1:] != srt[:, :-1]).all(axis=1)
            maps = np.zeros((len(codes), n * n, n * n), dtype=np.complex128)
            maps[np.arange(len(codes))[:, None], cell, codes] = 1.0
            by_perm = is_permutation_matrix(maps, tol)

            positives += int(by_witness.sum())
            for k in np.flatnonzero((by_witness != by_left) | (by_left != by_perm)):
                a, b = divmod(int(k), len(partners))
                verdicts = (bool(by_witness[k]), bool(by_left[k]), bool(by_perm[k]))
                disagreements.append((first + a, start + b, *verdicts))
    return EquivalenceReport(
        order=n,
        pairs_checked=count**2,
        positives=positives,
        disagreements=disagreements,
    )

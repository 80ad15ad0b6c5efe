"""Exhaustive small-order searches.

The counts stop at order 6 and the lemma16 cross-check at order 5; beyond
them the work explodes past desk-scale runtimes.  Each search works on a
table of squares as one ``(count, n, n)`` array rather than square by
square, and reads one table: the reduced squares R, whose first row and
first column are 0..n-1 (McKay and Wanless, *On the number of Latin
squares*, 2005).  Each decides one representative per orbit of a symmetry
that keeps every verdict, and weights it by the orbit's size: n! (n-1)!
Latin squares per reduced square, and n! n! (n-1)! ordered pairs per
partition of one into n transversals and per representative pair of the
lemma16 cross-check, which pairs R with R's columns 1..n-1 permuted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import permutations
from math import factorial

import numpy as np

from .numerics import is_permutation_matrix
from .squares import weak_orth_defects

ENUMERATION_CAP = 6
LEMMA16_CAP = 5  # order 6 would take 9,408 x 1,128,960 representative pairs

# (partial square, permutation) tests in one step of the reduced squares'
# growth: bounds its int64 temporary at 256 KiB.
_CELLS_BLOCK = 2**15

# Partners of one reduced square decided in one step of the lemma16
# cross-check: bounds its (pairs, n^2, n^2) bool permutation maps.
_PAIR_BLOCK = 96


def _check_order(n: int, cap: int = ENUMERATION_CAP) -> None:
    if not 1 <= n <= cap:
        raise ValueError(f"order {n} out of range 1..{cap}")


@cache
def _permutations(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The permutations of 0..n-1 (n <= 6) in lexicographic order, as a
    read-only ``(n!, n)`` int8 array, and each one's row key, the int64 with
    bit ``n*c + s`` set for symbol s in column c."""
    _check_order(n)
    perms = np.array(list(permutations(range(n))), dtype=np.int8)
    keys = (1 << (perms + n * np.arange(n))).sum(axis=1)
    perms.setflags(write=False)
    keys.setflags(write=False)
    return perms, keys


def _latin_cells(n: int) -> np.ndarray:
    """The reduced Latin squares of order n (n <= 6), those whose first row
    and first column are 0..n-1, as a read-only ``(count, n, n)`` int8 array
    in lexicographic cell order.

    Squares grow a row at a time from the identity row: at row r each
    partial square, in order, takes every permutation that starts with r
    (one block of the lexicographic ``itertools.permutations`` order) and
    repeats no symbol in any column, so the stack stays sorted.  The OR of a
    partial square's row keys (:func:`_permutations`) marks the symbols each
    column has used.  The last row is forced: each column's missing symbol,
    n-1 in the first.

    The result is checked against what was built rather than re-sorted:
    every row permutation sorts to 0..n-1, each forced row sets n distinct
    bits below bit n (so it too is a permutation), and its symbols' bits fill
    the used marks to all n^2 bits, so each column holds n distinct symbols.
    """
    perms, keys = _permutations(n)
    block = factorial(n - 1)  # the permutations that start with one symbol
    start = min(1, n - 1)  # at order 1 the forced row is the identity
    rows = np.zeros((1, start), dtype=np.int64)  # permutation index of each row
    used = np.full(1, keys[0] if start else 0, dtype=np.int64)
    for r in range(start, n - 1):
        starts_r = keys[r * block : (r + 1) * block]
        step = max(1, _CELLS_BLOCK // block)
        # flat hit indices, one divmod: 2-D np.nonzero is several times slower
        hits = [
            np.flatnonzero((used[k : k + step, None] & starts_r) == 0) + k * block
            for k in range(0, len(used), step)
        ]
        partial, perm = np.divmod(np.concatenate(hits), block)
        perm += r * block
        rows = np.concatenate([rows[partial], perm[:, None]], axis=1)
        used = used[partial] | keys[perm]
    cells = np.empty((len(rows), n, n), dtype=np.int8)
    cells[:, :-1] = perms[rows]
    cells[:, -1] = n * (n - 1) // 2 - cells[:, :-1].sum(axis=1, dtype=np.int8)

    forced = np.zeros_like(used)
    for c in range(n):
        forced |= np.left_shift(1, cells[:, -1, c], dtype=np.int64)
        used |= np.left_shift(1, cells[:, -1, c] + n * c, dtype=np.int64)
    if not (
        (np.sort(perms) == np.arange(n)).all()
        and (forced == (1 << n) - 1).all()
        and (used == (1 << n * n) - 1).all()
    ):
        raise RuntimeError(f"order-{n} enumeration produced a table that is not Latin")
    cells.setflags(write=False)
    return cells


def count_latin(n: int) -> int:
    """The number of Latin squares of order n (n <= 6): n! (n-1)! times the
    number of reduced ones.  Of the n! (n-1)! maps that relabel a square's
    symbols and permute its rows 1..n-1, exactly one makes a given Latin
    square reduced: the relabelling that gives it the first row 0..n-1, then
    the row order that sorts its first column."""
    reduced = len(_latin_cells(n))  # refuses the order before any factorial
    return reduced * factorial(n) * factorial(n - 1)


def count_latin_by_columns(n: int) -> int:
    """Independent recount filling column-major instead of row-major.

    Exists purely to cross-check :func:`count_latin`; shares no code or
    state with it or with the reduced table.  Columns are filled one
    at a time, each cell taking a symbol its row has not used.  How many
    ways the remaining columns can be filled depends only on the set of
    symbols each row has used, not on the order of the rows, so counts are
    memoised per call under the sorted tuple of those sets (as bitmasks).
    """
    _check_order(n)
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


def count_orthogonal_pairs(n: int) -> int:
    """The number of ordered orthogonal pairs at order n (n <= 6).

    b is orthogonal to a iff b's symbol classes (each symbol's cells), which
    partition the cells, are transversals of a: one cell per row and column,
    holding n distinct symbols of a.  Any partition of a's cells into n
    transversals, labelled with the n symbols, is the class partition of a
    Latin square, so a has n! D(a) mates, D(a) its number of such
    partitions.  D keeps its value when a's rows are permuted or its symbols
    relabelled, so by the argument of :func:`count_latin` the pairs number
    n! n! (n-1)! times D summed over R.

    ``transversal[a, c, k]`` is True when the k-th permutation p with
    p[0] = c (row r to column p[r]; lexicographic order) meets n distinct
    symbols of a.  A partition holds one transversal through each cell
    (0, c), so taking at c = 0..n-1 those that miss the cells covered so far
    (bit n*r + p[r] of an int64 mask) grows each partition once.
    """
    cells = _latin_cells(n)
    perms, keys = _permutations(n)
    bits = np.left_shift(1, cells, dtype=np.int8)
    union = bits[:, 0, perms[:, 0]]
    for r in range(1, n):
        union |= bits[:, r, perms[:, r]]
    transversal = (union == (1 << n) - 1).reshape(len(cells), n, -1)
    masks = keys.reshape(n, -1)
    square, covered = np.arange(len(cells)), np.zeros(len(cells), dtype=np.int64)
    for c in range(n):
        partial, perm = np.nonzero(transversal[square, c])
        fits = (covered[partial] & masks[c, perm]) == 0
        square, covered = square[partial[fits]], covered[partial[fits]] | masks[c, perm[fits]]
    return len(square) * factorial(n) ** 2 * factorial(n - 1)


@dataclass(frozen=True)
class EquivalenceReport:
    """Cross-validation of the three orthogonality routes over all ordered
    pairs at one order: the weak-orthogonality witness on computational
    grids, the left-conjugate pair test, and the permutation test on the
    left conjugates' cell-to-symbol-pair map.

    ``pairs_checked``, ``positives`` and the reported ``disagreements`` count
    ordered pairs, each of the ``representatives`` pairs the routes decided
    standing for ``pairs_checked // representatives`` of them.  The
    ``disagreements`` list holds (index_a, index_b, witness, left, perm) for
    each representative pair whose three booleans differ, in row-major
    order; all three agreeing everywhere is the expected outcome.  index_a
    points into the reduced squares in lexicographic order, and index_b into
    their partners: partner b is reduced square ``b // (n-1)!`` with its
    columns 1..n-1 permuted by the ``b % (n-1)!``-th permutation of them in
    lexicographic order.
    """

    order: int
    pairs_checked: int
    positives: int
    representatives: int
    disagreements: list[tuple] = field(
        default_factory=list, metadata={"report": lambda rep: rep.disagreeing}
    )

    @property
    def ok(self) -> bool:
        return not self.disagreements

    @property
    def disagreeing(self) -> int:
        """The ordered pairs on which the routes disagree."""
        return len(self.disagreements) * (self.pairs_checked // self.representatives)

    def __str__(self) -> str:
        return (
            f"order {self.order}: {self.pairs_checked} ordered pairs, {self.positives} weakly "
            f"orthogonal, {self.disagreeing} disagreements between the three routes"
        )


def _routes(first: np.ndarray, partners: np.ndarray):
    """The witness, left and perm verdicts, as bool arrays, of the pairs
    ``(first, partners[b])`` of cells: the :func:`weak_orth_defects` rule,
    at its default tolerance, on the columnwise products of computational
    grids, distinct sorted pair codes of the left conjugates, and
    :func:`is_permutation_matrix` on their cell-to-symbol-pair maps.  Each
    grid entry, product and map entry is 0 or 1, so the grids are real, the
    maps bool, and no tolerance below 1 can change a verdict."""
    n = len(first)
    basis = np.eye(n)  # basis[cells] are the computational grids
    # one product per column k, [k, i, (b, j)]; exact in any summation
    # order, since every term is 0 or 1 and at most one is nonzero
    grid, grids = basis[first.T], basis[partners.transpose(2, 0, 1)].reshape(n, -1, n)
    prods = (grid @ grids.transpose(0, 2, 1)).reshape(n, n, len(partners), n).transpose(2, 1, 3, 0)
    by_witness = ~weak_orth_defects(prods)[1].any(axis=(1, 2, 3))
    # left conjugate: out[s, c] = r where cells[r, c] = s, each column inverted
    codes = (np.argsort(first, axis=0) * n + np.argsort(partners, axis=1)).reshape(-1, n * n)
    srt = np.sort(codes, axis=1)
    by_left = (srt[:, 1:] != srt[:, :-1]).all(axis=1)
    maps = np.zeros((len(codes), n * n, n * n), dtype=bool)
    maps[np.arange(len(codes))[:, None], np.arange(n * n), codes] = True
    return by_witness, by_left, is_permutation_matrix(maps)


def cross_validate_lemma16(n: int) -> EquivalenceReport:
    """Check witness/left-conjugate/permutation agreement on every ordered
    pair (n <= 5), deciding one representative pair per orbit.

    Each route decides (L1, L2) from the incidences L1[r1, c] == L2[r2, c]
    alone, and keeps its verdict under the n!^3 maps that permute L1's rows,
    L2's rows and the symbols of both.  They permute the row pairs of the
    witness's products, which it judges one at a time, and leave each
    product as it is; and they relabel a left conjugate's symbols or permute
    both conjugates' cells, which permutes the pair codes and the columns or
    rows of the map.  Exactly n maps take a pair to a representative, with
    L1 reduced (first row and column 0..n-1) and L2's first column 0..n-1:
    the row of L1 put first fixes the relabelling, and the relabelled first
    columns fix the row orders.  So, counting each pair once per map and
    each representative once per map onto it, the representatives with a
    verdict, each weighted n!^3 / n, count the ordered pairs with it.  The
    partners are the reduced squares with columns 1..n-1 permuted, each
    once: the one order of columns 1..n-1 that sorts a partner's first row
    makes it reduced.  So they are gathered from the reduced squares through
    the (n-1)! permutations that fix 0, the first in lexicographic order.

    Each step decides one reduced square against a block of at most
    ``_PAIR_BLOCK`` partners, so the steps follow row-major pair order.
    """
    _check_order(n, LEMMA16_CAP)
    firsts = _latin_cells(n)
    perms, _ = _permutations(n)
    partners = firsts[:, :, perms[: factorial(n - 1)]].transpose(0, 2, 1, 3).reshape(-1, n, n)
    positives = 0
    disagreements: list[tuple] = []
    for a, first in enumerate(firsts):
        for start in range(0, len(partners), _PAIR_BLOCK):
            verdicts = _routes(first, partners[start : start + _PAIR_BLOCK])
            positives += int(verdicts[0].sum())
            for b in np.flatnonzero((verdicts[0] != verdicts[1]) | (verdicts[1] != verdicts[2])):
                disagreements.append((a, start + int(b), *(bool(v[b]) for v in verdicts)))
    weight = factorial(n) ** 2 * factorial(n - 1)
    return EquivalenceReport(
        order=n,
        pairs_checked=len(firsts) * len(partners) * weight,
        positives=positives * weight,
        representatives=len(firsts) * len(partners),
        disagreements=disagreements,
    )

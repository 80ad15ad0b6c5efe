"""Unitary error bases, their duality with entangled bases, and the
monomiality obstruction.

A unitary error basis of order n is a set of n^2 unitaries that is orthonormal
under the normalized trace inner product: tr(U_i* U_j) = n when i = j and 0
otherwise.  Members are stored as an (n^2, n, n) stack; the member built from
label (i, j) sits at index i*n + j, matching the basis layout in
:mod:`qlsmub.bases`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bases import BipartiteBasis, MubReport, extract_unitaries
from .hadamard import HadamardFamily
from .numerics import DEFAULT_TOL, first_gram_defect, frobenius_norms, lcm_up_to, mat_power, owned
from .squares import QuantumLatinSquare


@dataclass(frozen=True, eq=False)
class UnitaryErrorBasis:
    """A read-only copy of n^2 unitaries of size n x n.  :func:`validate_ueb`
    returns one only for unitary, trace-orthogonal members; :func:`meb_to_ueb`
    and :func:`shift_multiply_ueb` build one without validating it."""

    ok = True
    n: int
    members: np.ndarray = field(repr=False, metadata={"report": None})

    def __post_init__(self):
        n, arr = self.n, owned(self.members, np.complex128)
        if arr.shape != (n * n, n, n):
            raise ValueError(f"expected {n * n} matrices of size {n}x{n}, got shape {arr.shape}")
        object.__setattr__(self, "members", arr)

    def member(self, i: int, j: int) -> np.ndarray:
        return self.members[i * self.n + j]

    def __len__(self) -> int:
        return self.members.shape[0]

    def __str__(self) -> str:
        return f"valid unitary error basis of order {self.n} ({len(self)} members)"


@dataclass(frozen=True)
class UebViolation:
    """First failed axiom of a candidate member stack.

    kind: "count" (not n^2 square matrices of one size), "non-finite"
    (member ``index`` has a NaN or Inf entry), "non-unitary" (member
    ``index``, whose U*U has ``value`` as its entry furthest from I,
    ``off_by`` away), or "trace-orthogonality" (member pair ``pair`` whose
    trace inner product ``value`` is ``off_by`` away from n I).
    """

    ok = False
    kind: str
    index: int | None = None
    pair: tuple[int, int] | None = None
    value: complex | None = None
    off_by: float | None = None

    def __str__(self) -> str:
        if self.kind == "count":
            return "member stack is not n^2 square matrices of a single size"
        if self.kind == "non-finite":
            return f"member {self.index} has a NaN or Inf entry"
        if self.kind == "non-unitary":
            return f"member {self.index}: U*U differs from I by {self.off_by:.3e}"
        return (
            f"members {self.pair}: tr(U*V) = {self.value:.6g}, "
            f"expected n on the diagonal and 0 off it (off by {self.off_by:.3e})"
        )


def validate_ueb(members, tol: float = DEFAULT_TOL):
    """Check member count, unitarity, and trace orthogonality.

    Accepts an (n^2, n, n) array-like or a sequence of n^2 square matrices.
    Returns a :class:`UnitaryErrorBasis` or the first :class:`UebViolation`.
    """
    if isinstance(members, UnitaryErrorBasis):
        members = members.members
    try:
        arr = np.asarray(members, dtype=np.complex128)
    except (ValueError, TypeError):
        return UebViolation("count")
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        return UebViolation("count")
    n = arr.shape[1]
    if arr.shape[0] != n * n:
        return UebViolation("count")
    finite = np.isfinite(arr).all(axis=(1, 2))
    if not finite.all():
        return UebViolation("non-finite", index=int(np.argmin(finite)))

    products = arr.conj().transpose(0, 2, 1) @ arr  # U*U for every member
    hit = first_gram_defect(products, 1.0, tol)
    if hit is not None:
        idx = hit[0][0]
        gap = np.abs(products[idx] - np.eye(n))
        worst = np.unravel_index(np.argmax(gap), gap.shape)
        value, off_by = complex(products[idx][worst]), float(gap[worst])
        return UebViolation("non-unitary", index=idx, value=value, off_by=off_by)

    # Gram of the trace inner product tr(U_i* U_j): one product of the
    # flattened members, as check_mub takes the overlaps of the dual states.
    flat = arr.reshape(n * n, n * n)
    gram = flat.conj() @ flat.T
    hit = first_gram_defect(gram, n, tol)
    if hit is not None:
        pair, value, off_by = hit
        return UebViolation("trace-orthogonality", pair=pair, value=value, off_by=off_by)

    return UnitaryErrorBasis(n, arr)


def meb_to_ueb(basis: BipartiteBasis, tol: float = DEFAULT_TOL) -> UnitaryErrorBasis:
    """Extract the defining unitary of every basis state.

    Propagates the not-maximally-entangled error of :func:`extract_unitaries`
    for the first state that fails.  The resulting stack is trace-orthogonal
    exactly when the states were orthogonal, so the result is returned without
    revalidation.
    """
    return UnitaryErrorBasis(basis.n, extract_unitaries(basis.states, tol))


def ueb_to_meb(u: UnitaryErrorBasis) -> BipartiteBasis:
    """The basis whose state for member U is (1/sqrt(n)) sum_k |k> (x) U|k>."""
    n = u.n
    scale = 1.0 / math.sqrt(n)
    # state[k*n + p] = U[p, k] / sqrt(n)
    states = np.transpose(u.members, (0, 2, 1)).reshape(n * n, n * n) * scale
    return BipartiteBasis(n, states)


def shift_multiply_ueb(
    q: QuantumLatinSquare, family: HadamardFamily
) -> UnitaryErrorBasis:
    """Shift-and-multiply basis: member (i, j) = sum_k H_j[k, i] |grid(j, k)><k|.

    Column k of the member is the grid vector at (row j, column k) scaled by
    the (k, i) phase of the j-th family member.  With the family stacked as
    h[j, k, i] = H_j[k, i], this is einsum("jki,jkp->ijpk"): member i*n + j,
    entry [p, k].  Coincides with meb_to_ueb(qls_meb(q, family)) entry for
    entry.
    """
    n = q.n
    if family.n != n:
        raise ValueError(f"order mismatch: square {n}, family {family.n}")
    h = np.stack([member.mat for member in family.members])
    members = np.einsum("jki,jkp->ijpk", h, q.grid.array)
    return UnitaryErrorBasis(n, members.reshape(n * n, n, n))


@dataclass(frozen=True)
class MuUebReport(MubReport):
    """A :class:`MubReport` that also carries the extremes of the raw
    |tr(U_i* V_j)|^2, for inspection against the stricter normalization some
    conventions use."""

    raw_trace_sq_min: float
    raw_trace_sq_max: float

    def _overlaps(self) -> str:
        return (
            f"normalized |tr|^2 min {self.min_sq:.12g}, max {self.max_sq:.12g}, "
            f"target {self.target:.12g}\n"
            f"raw |tr|^2 range [{self.raw_trace_sq_min:.12g}, {self.raw_trace_sq_max:.12g}]"
        )


def check_mu_ueb(
    u: UnitaryErrorBasis, v: UnitaryErrorBasis, tol: float = DEFAULT_TOL
) -> MuUebReport:
    """Mutual unbiasedness of two unitary error bases.

    Passes iff every |tr(U_i* V_j)/n|^2 is within tol of 1/n^2, the value the
    dual entangled bases give.
    """
    if u.n != v.n:
        raise ValueError(f"order mismatch: {u.n} vs {v.n}")
    n = u.n
    traces = u.members.reshape(n * n, n * n).conj() @ v.members.reshape(n * n, n * n).T
    raw_sq = np.abs(traces) ** 2
    return MuUebReport.of(
        raw_sq / (n * n),
        n * n,
        tol,
        raw_trace_sq_min=float(raw_sq.min()),
        raw_trace_sq_max=float(raw_sq.max()),
    )


@dataclass(frozen=True)
class ObstructionReport:
    """Outcome of the monomiality obstruction sweep.

    The basis is translated so the member at ``normalizer_index`` becomes the
    identity, every translated member is raised to the power ``mu`` (the lcm
    of 1..n), and all pairwise commutators of the powers are measured in
    Frobenius norm.  A monomial basis always yields commuting powers, so
    ``worst_norm`` above ``noise_bound``, the most rounding can leave of a
    zero commutator, proves the basis is not equivalent to a monomial one.
    ``sample_entry`` is the (0, 0) entry of the worst commutator.  Where the
    bound is not finite nothing can be proved, the powers are not taken, and
    ``worst_pair``, ``worst_norm`` and ``sample_entry`` are None.
    """

    mu: int
    normalizer_index: int
    worst_pair: tuple[int, int] | None
    worst_norm: float | None
    sample_entry: complex | None
    obstructed: bool
    noise_bound: float

    @property
    def ok(self) -> bool:
        return not self.obstructed

    def __str__(self) -> str:
        bound = f"noise bound {self.noise_bound:.3e}"
        head = f"mu {self.mu}, normalizer {self.normalizer_index}:"
        if self.worst_pair is None:
            return f"{head} sweep skipped\nno obstruction proved: nothing can exceed the {bound}"
        verdict = (
            f"OBSTRUCTED: not equivalent to a monomial basis ({bound})"
            if self.obstructed
            else f"no obstruction proved: worst norm is within the {bound}"
        )
        return (
            f"{head} worst commutator |[U^mu, V^mu]|_F = {self.worst_norm:.6g} "
            f"at pair {self.worst_pair}\n{verdict}"
        )


def monomial_obstruction(u: UnitaryErrorBasis, normalizer: int = 0) -> ObstructionReport:
    """Sweep all pairwise commutators of mu-th powers of the translated basis.

    ``normalizer`` picks the member whose inverse right-translates the basis
    before powering.  The worst pair is selected by norm; among equal norms
    the lexicographically first pair wins.  Order 1 has a single member and
    no pair to sweep, so it raises ValueError.

    Noise bound (Higham, *Accuracy and Stability of Numerical Algorithms*,
    sec. 3.6 and ch. 18; spectral norms, u = 2^-53, gamma_k = ku / (1 - ku)):
    a computed n x n complex product errs by at most sqrt(2) gamma_{n+2}
    |X||Y| entrywise, so by eta ||X|| ||Y|| with eta = sqrt(2) n gamma_{n+2}.
    The measured delta = max_i ||T_i* T_i - I||_F of the translates, rounded
    as it is, puts each T_i within beta = (delta + eta) / (1 - eta)^2 of a
    unitary W_i (its polar factor).  Each product of the repeated squaring
    rounds once, so by induction over the products ||fl(T_i^mu) - W_i^mu||
    <= e = ((1 + beta)(1 + eta))^mu - 1.  The W_i^mu of a basis monomial up
    to unitaries commute, so a computed commutator is at most
    2 ((1 + e)^2 - 1) + 2 eta (1 + e)^2 in norm, sqrt(n) times that in
    Frobenius norm, and 1 + eta times more for the rounding of the difference
    and of the norm: noise_bound = sqrt(n) (1 + eta) (2 (1 + eta) (1 + e)^2
    - 2), about 4 sqrt(n) mu (delta + 3 eta); inf where it overflows, and
    then the sweep is skipped.
    """
    n = u.n
    count = n * n
    if n < 2:
        raise ValueError(f"the obstruction sweep needs order >= 2, got order {n}")
    if not 0 <= normalizer < count:
        raise ValueError(f"normalizer index {normalizer} out of range 0..{count - 1}")
    mu = lcm_up_to(n)
    anchor = u.members[normalizer].conj().T
    translated = u.members @ anchor
    gram = translated.conj().transpose(0, 2, 1) @ translated
    delta = float(frobenius_norms(gram - np.eye(n)).max())
    eta = math.sqrt(2) * n * (n + 2) * 2.0**-53 / (1 - (n + 2) * 2.0**-53)
    beta = (delta + eta) / (1 - eta) ** 2
    try:
        log_growth = 2 * mu * math.log1p(beta + eta + beta * eta) + math.log1p(eta)
        noise_bound = 2 * math.sqrt(n) * (1 + eta) * math.expm1(log_growth)
    except OverflowError:
        noise_bound = math.inf
    if not noise_bound < math.inf:
        # no commutator can exceed this bound, and the powers would overflow
        return ObstructionReport(mu, normalizer, None, None, None, False, noise_bound)
    powers = mat_power(translated, mu)

    # One batched step per row i against every j > i.  argmax keeps the first
    # maximum of a row and the strict > the first row, so equal norms go to
    # the lexicographically first pair.
    for i in range(count - 1):
        rest = powers[i + 1 :]
        comm = powers[i] @ rest - rest @ powers[i]
        norms = frobenius_norms(comm)
        k = int(np.argmax(norms))
        if i == 0 or norms[k] > worst_norm:
            worst_pair, worst_norm = (i, i + 1 + k), float(norms[k])
            sample_entry = complex(comm[k, 0, 0])

    return ObstructionReport(
        mu=mu,
        normalizer_index=normalizer,
        worst_pair=worst_pair,
        worst_norm=worst_norm,
        sample_entry=sample_entry,
        obstructed=bool(worst_norm > noise_bound),
        noise_bound=noise_bound,
    )

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
from .numerics import DEFAULT_TOL, first_gram_defect, frobenius_norms, owned
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
        if n < 1 or arr.shape != (n * n, n, n):
            raise ValueError(f"expected {n * n} matrices of size {n}x{n}, got shape {arr.shape}")
        object.__setattr__(self, "members", arr)

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
    if n < 1 or arr.shape[0] != n * n:
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

    The basis is translated so member ``normalizer_index``, always 0,
    becomes the identity, every translated member is raised to the power
    ``mu`` (the lcm of 1..n), and all pairwise commutators of the powers
    are measured in Frobenius norm.  A monomial basis always yields commuting powers, so
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


def _screen(powers: np.ndarray, growth: float, eta: float) -> tuple[np.ndarray, np.ndarray]:
    """First-order commutator norms s of every pair of powers, and margins
    eps with |a_ij - s_ij| <= eps_ij, a_ij the norm the sweep of
    :func:`monomial_obstruction` computes for the pair; both (count, count),
    for i >= j too (a_ji = a_ij and a_ii = 0).  ``growth`` bounds every
    ||P_i||, and ``eta`` is the product error; that docstring derives s and
    eps.  Raises numpy.linalg.LinAlgError where eigh does.
    """
    count, n, _ = powers.shape
    u = 2.0**-53

    def gamma(k):
        return k * u / (1 - k * u)

    # the Hermitian part of sum_k c_k P_k, c_k = exp(2 pi i k phi) with phi
    # the golden ratio's fractional part: simple eigenvalues where the powers
    # share an eigenbasis
    coeffs = np.exp(2j * np.pi * 0.6180339887498949 * np.arange(count))
    mix = (coeffs @ powers.reshape(count, n * n)).reshape(n, n)
    basis = np.linalg.eigh(mix + mix.conj().T)[1]
    defect = float(frobenius_norms((basis.conj().T @ basis - np.eye(n))[None])[0])
    sigma = (defect * (1 + 2 * gamma(n * n + 3)) + eta) / (1 - eta)
    # Q_i transposed, as two products of count * n rows; then E_i once its
    # diagonal is split off
    off = (powers.reshape(count * n, n) @ basis).reshape(count, n, n).transpose(0, 2, 1)
    off = (off.reshape(count * n, n) @ basis.conj()).reshape(count, n, n)
    diag = np.diagonal(off, axis1=1, axis2=2).copy()  # lambda_i
    off[:, np.arange(n), np.arange(n)] = 0
    weights = (off.real**2 + off.imag**2).reshape(count, n * n)  # |E_i|^2
    sizes = np.sqrt(weights.sum(axis=1)) / (1 - gamma(n * n + 3))  # >= ||E_i||_F
    gaps = diag[:, :, None] - diag[:, None, :]  # D_i
    cross = (gaps.real**2 + gaps.imag**2).reshape(count, n * n) @ weights.T  # T
    del weights
    np.conjugate(gaps, out=gaps)
    gaps *= off  # U_i = conj(D_i) E_i
    del off
    flat = gaps.view(np.float64).reshape(count, 2 * n * n)
    first = flat @ flat.T  # Re(U U*)
    del gaps, flat
    total = cross + cross.T
    del cross
    first *= -2
    first += total
    np.maximum(first, 0.0, out=first)
    np.sqrt(first, out=first)

    tau = growth * (eta * (1 + sigma) * (2 + eta) + sigma * (2 + sigma))
    kernel = 2 * growth**2 * (1 + u) * (1 + gamma(n * n + 2))
    kernel *= eta + math.sqrt(n) * (u + gamma(n * n + 2))
    margin = total
    margin *= 2 * gamma(3 * n * n + 21)
    np.sqrt(margin, out=margin)
    margin += 2 * np.outer(sizes, sizes)
    margin += 2 * u * first
    margin += kernel + 2 * tau * (2 * growth + tau)
    margin *= 2
    return first, margin


def monomial_obstruction(u: UnitaryErrorBasis) -> ObstructionReport:
    """Sweep all pairwise commutators of mu-th powers of the translated basis.

    The basis is right-translated by the inverse of member 0 before
    powering.  The worst pair is selected by norm; among equal norms
    the lexicographically first pair wins.  Order 1 has a single member and
    no pair to sweep, so it raises ValueError.

    Noise bound (Higham, *Accuracy and Stability of Numerical Algorithms*,
    sec. 3.6 and ch. 18; spectral norms, u = 2^-53, gamma_k = ku / (1 - ku)):
    a computed n x n complex product errs by at most sqrt(2) gamma_{n+2}
    |X||Y| entrywise, so by eta ||X|| ||Y|| with eta = sqrt(2) n gamma_{n+2}.
    The measured delta = max_i ||T_i* T_i - I||_F of the translates, rounded
    as it is, puts each T_i within beta = (delta + eta) / (1 - eta)^2 of a
    unitary W_i (its polar factor).  For any product tree that rounds once
    per product, such as the repeated squaring that ``np.linalg.matrix_power``
    documents, induction over the products gives ||fl(T_i^mu) - W_i^mu||
    <= e = ((1 + beta)(1 + eta))^mu - 1.  The W_i^mu of a basis monomial up
    to unitaries commute, so a computed commutator is at most
    2 ((1 + e)^2 - 1) + 2 eta (1 + e)^2 in norm, sqrt(n) times that in
    Frobenius norm, and 1 + eta times more for the rounding of the difference
    and of the norm: noise_bound = sqrt(n) (1 + eta) (2 (1 + eta) (1 + e)^2
    - 2), about 4 sqrt(n) mu (delta + 3 eta); inf where it overflows, and
    then the sweep is skipped.

    Screen.  Only the pairs that can be the worst are multiplied out.  Let
    P_i be the computed powers, g = 1 + e >= ||P_i||, C_ij = P_i P_j - P_j P_i
    exactly, and a_ij the Frobenius norm the sweep computes for it.  Below,
    Frobenius norms unless marked 2 for spectral; the entrywise error of a
    product gives ||fl(XY) - XY||_F <= sqrt(2) gamma_{n+2} ||X||_F ||Y||_F,
    at most eta ||X||_2 ||Y||_2, and ``frobenius_norms`` (two dot products
    of n^2 squares, a sum and a square root) is within a factor
    1 +- gamma_{n^2+2} of the norm.

    (a) The kernel.  Each product errs by at most eta g^2, the difference
    rounds by u relative, and ||C_ij|| <= 2 sqrt(n) g^2, so |a_ij - ||C_ij||| <=
    kappa = 2 g^2 (1 + u) (1 + gamma_{n^2+2}) (eta + sqrt(n) (u + gamma_{n^2+2})).

    (b) One shared eigenbasis.  S holds the eigenvectors that eigh gives for
    the Hermitian part of sum_k c_k P_k, fixed weights c_k of modulus 1;
    where the powers share an eigenbasis and these eigenvalues are simple, S
    is it.  Its measured defect d = ||fl(S*S) - I||, as computed, bounds
    sigma = ||S*S - I|| <= (d (1 + 2 gamma_{n^2+3}) + eta) / (1 - eta), since
    ||S||_F^2 = tr(S*S) <= n (1 + sigma).  With S = WH its polar form,
    ||S - W|| = ||H - I|| <= sigma and ||S||_2 <= 1 + sigma.  The computed
    Q_i = fl(S* fl(P_i S)) is then within tau = g (eta (1 + sigma) (2 + eta)
    + sigma (2 + sigma)) of W* P_i W, whose commutators have the norms
    ||C_ij|| exactly, so | ||[Q_i, Q_j]|| - ||C_ij|| | <= 2 tau (2 g + tau).
    (Q_i is formed as its transpose fl(fl(P_i S)^T conj(S)); transposing
    every Q_i changes none of the norms below.)

    (c) First order.  Split Q_i = Lambda_i + E_i into its diagonal lambda_i
    and the rest.  The diagonal parts commute, so [Q_i, Q_j] = F_ij +
    [E_i, E_j] with F_ij,rc = D_i,rc E_j,rc - D_j,rc E_i,rc, D_i,rc =
    lambda_i,r - lambda_i,c, and ||[E_i, E_j]|| <= 2 ||E_i|| ||E_j||.  Then
    s_ij = ||F_ij|| has s_ij^2 = T_ij + T_ji - 2 Re(U U*)_ij with T =
    |D|^2 |E|^2^T and U_i = conj(D_i) E_i, flattened to rows: two real GEMMs
    (one a Gram) of O(n^6) flops in all, against the sweep's O(n^7).

    (d) Rounding of (c).  With D, |D|^2, |E|^2 and U formed entrywise, T
    has relative error gamma_{n^2+7} and Re(U U*) absolute error
    gamma_{2n^2+10} sum |U_i||U_j| <= gamma_{2n^2+10} (T_ij + T_ji) / 2, so
    the computed s_ij^2 errs by at most rho_ij = 2 gamma_{3n^2+21} t_ij,
    t_ij the computed T_ij + T_ji.  Then |sqrt(max(x, 0)) - s| <= sqrt(rho)
    and the square root's rounding leave the computed s_ij within
    sqrt(rho_ij) + 2u s_ij of s_ij.  The computed ||E_i||, over n^2 squares,
    is at least (1 - gamma_{n^2+3}) ||E_i||.

    So |a_ij - s_ij| <= kappa + 2 tau (2 g + tau) + 2 ||E_i|| ||E_j|| +
    sqrt(rho_ij) + 2u s_ij, s_ij here as computed, and eps_ij is twice that
    as computed, which covers the rounding of its own dozen nonnegative
    terms and of g.  Every a_ij lies in [s_ij - eps_ij, s_ij + eps_ij], so
    the worst norm is at least floor = max(s - eps), and a pair with
    s_ij + eps_ij < floor is not the worst, nor tied with it: only the other
    pairs are multiplied out, each row by the kernel the full sweep runs
    (the whole row, where nothing in it is pruned), so the report is the
    full sweep's bit for bit.  A floor that is not finite, or an eigh that
    fails, prunes nothing.  Nor does the screen prune where E is large
    (obstructed bases) or where every norm is rounding below the margins
    (powers that are scalars up to rounding, as at prime orders on cyclic
    squares).
    """
    n = u.n
    count = n * n
    if n < 2:
        raise ValueError(f"the obstruction sweep needs order >= 2, got order {n}")
    mu = math.lcm(*range(1, n + 1))
    translated = u.members @ u.members[0].conj().T
    gram = translated.conj().transpose(0, 2, 1) @ translated
    delta = float(frobenius_norms(gram - np.eye(n)).max())
    del gram
    eta = math.sqrt(2) * n * (n + 2) * 2.0**-53 / (1 - (n + 2) * 2.0**-53)
    beta = (delta + eta) / (1 - eta) ** 2
    try:
        log_growth = 2 * mu * math.log1p(beta + eta + beta * eta) + math.log1p(eta)
        noise_bound = 2 * math.sqrt(n) * (1 + eta) * math.expm1(log_growth)
    except OverflowError:
        noise_bound = math.inf
    if not noise_bound < math.inf:
        # no commutator can exceed this bound, and the powers would overflow
        return ObstructionReport(mu, 0, None, None, None, False, noise_bound)
    powers = np.linalg.matrix_power(translated, mu)
    del translated
    growth = math.exp(mu * math.log1p(beta + eta + beta * eta))  # 1 + e
    live = np.ones((count, count), dtype=bool)
    try:
        first, margin = _screen(powers, growth, eta)
    except np.linalg.LinAlgError:
        pass
    else:
        floor = np.max(first - margin)  # NaN if any entry is
        if np.isfinite(floor):
            live = first + margin >= floor
        del first, margin

    # One batched step per row i against every live j > i.  argmax keeps the
    # first maximum of a row and the strict > the first row, so equal norms
    # go to the lexicographically first pair.
    worst_pair = None
    for i, width in enumerate(np.count_nonzero(np.triu(live, 1), axis=1).tolist()):
        if not width:
            continue
        if width == count - 1 - i:  # nothing pruned: the whole row
            cols, rest = range(i + 1, count), powers[i + 1 :]
        else:
            cols = np.flatnonzero(live[i, i + 1 :]) + (i + 1)
            rest = powers[cols]
        comm = powers[i] @ rest - rest @ powers[i]
        norms = frobenius_norms(comm)
        k = int(np.argmax(norms))
        if worst_pair is None or norms[k] > worst_norm:
            worst_pair, worst_norm = (i, int(cols[k])), float(norms[k])
            sample_entry = complex(comm[k, 0, 0])

    return ObstructionReport(
        mu=mu,
        normalizer_index=0,
        worst_pair=worst_pair,
        worst_norm=worst_norm,
        sample_entry=sample_entry,
        obstructed=bool(worst_norm > noise_bound),
        noise_bound=noise_bound,
    )

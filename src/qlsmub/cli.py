"""Command line interface.

Exit codes: 0 when the checked property holds or the artifact was built,
1 when a check finds a violation, 2 for malformed input or usage errors.
Exit 1 from ``monomial-obstruction`` is a proof: the worst commutator norm
exceeds a bound on the rounding noise computed from the input.  Exit 0 there
means only that no obstruction was proved.
Reports print as text by default; ``--format json-report`` emits a canonical
JSON document instead.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, fields
from functools import cache

import numpy as np

from . import serialize
from .bases import (
    BipartiteBasis, check_mub, is_maximally_entangled, is_orthonormal_basis, lbw_meb, qls_meb,
)
from .fixtures import FIXTURE_NAMES, fixture, hadamard_9_corrected, paper_p_grid, paper_q_grid
from .hadamard import HadamardMatrix, constant_family, hadamard_family, validate_hadamard
from .numerics import DEFAULT_TOL
from .search import (
    count_latin_by_columns, cross_validate_lemma16, enumerate_latin, find_orthogonal_pairs,
)
from .squares import (
    QuantumLatinSquare, VectorGrid, WeakOrthWitness, are_left_orthogonal, are_orthogonal,
    left_conjugate, validate_qls, weak_orth_witness,
)
from .ueb import (
    UnitaryErrorBasis, check_mu_ueb, meb_to_ueb, monomial_obstruction, ueb_to_meb, validate_ueb,
)


@dataclass(frozen=True)
class Outcome:
    """What a command found: the verdict, its report fields and its text.

    ``artifact``, when set, is the document the command built.  It goes to
    ``--out`` (the report then goes to stdout) or, without ``--out``, to
    stdout in place of the report.
    """

    ok: bool
    fields: dict
    text: str
    artifact: dict | None = None


class Rejected(Exception):
    """An input that parsed but failed validation.

    Reported on stdout, never at ``--out``, with exit code 1: as the text
    ``prefix: reason`` or the json-report field ``reason``.
    """

    def __init__(self, prefix: str, reason):
        super().__init__(reason)
        self.prefix = prefix
        self.reason = reason


def _valid(result, kind: type, prefix: str, where: str = ""):
    """``result`` if it is a ``kind``, else reject it as ``prefix: [where: ]result``."""
    if not isinstance(result, kind):
        raise Rejected(prefix, f"{where}: {result}" if where else result)
    return result


def _plain(value):
    """A report value as JSON: complex numbers become [re, im], tuples and
    arrays lists, and a non-finite float None."""
    if isinstance(value, complex):
        value = [float(value.real), float(value.imag)]
    elif isinstance(value, (tuple, np.ndarray)):
        value = np.asarray(value).tolist()
    if isinstance(value, list):
        return [_plain(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _fields(record) -> dict:
    """A check record's dataclass fields as report fields; a field's
    ``report`` metadata, if any, maps its value first."""
    return {
        f.name: _plain(f.metadata.get("report", lambda v: v)(getattr(record, f.name)))
        for f in fields(record)
    }


def _reported(record, ok: bool, prefix: str = "", **inputs) -> Outcome:
    """A check record as an Outcome: ``inputs`` and the record's fields are
    the report, ``str(record)`` the text, after ``prefix: `` on a violation."""
    report = {**inputs, **_fields(record)}
    return Outcome(ok, report, f"{prefix}: {record}" if prefix and not ok else str(record))


def _checked(result, kind: type, prefix: str, line: str, **inputs) -> Outcome:
    """A validator's verdict: a ``kind`` passes with the text ``line``, and
    anything else is a violation record, reported as ``prefix: record``."""
    if isinstance(result, kind):
        return Outcome(True, inputs, line)
    return _reported(result, False, prefix, **inputs)


def _built(basis: BipartiteBasis, **inputs) -> Outcome:
    doc = serialize.to_doc("basis", basis.states)
    line = f"built {basis.n ** 2} states of order {basis.n}"
    return Outcome(True, {**inputs, "n": basis.n}, line, doc)


# ---------------------------------------------------------------- commands


def _cmd_validate_qls(args) -> Outcome:
    grid = serialize.read(args.grid, "grid")
    line = f"valid quantum Latin square of order {grid.n} (tol {args.tol:g})"
    return _checked(validate_qls(grid, args.tol), QuantumLatinSquare, "INVALID", line,
                    n=grid.n, tol=args.tol)


def _cmd_validate_hadamard(args) -> Outcome:
    mat = serialize.read(args.matrix, "matrix")
    result = validate_hadamard(mat, args.tol)
    prefix = f"INVALID: {getattr(result, 'constraint', None)} violated"  # read on a violation
    line = f"valid complex Hadamard matrix of order {mat.shape[0]} (tol {args.tol:g})"
    return _checked(result, HadamardMatrix, prefix, line, n=int(mat.shape[0]), tol=args.tol)


def _cmd_check_weak_orth(args) -> Outcome:
    qg, pg = (serialize.read(path, "grid") for path in (args.grid_q, args.grid_p))
    w = weak_orth_witness(qg, pg, args.tol)
    ok = isinstance(w, WeakOrthWitness)
    return _reported(w, ok, "NOT weakly orthogonal", n=qg.n, tol=args.tol)


def _cmd_check_orth(args) -> Outcome:
    """``check-orth`` and ``check-left-orth``: the second compares left conjugates."""
    a = serialize.read(args.latin_a, "latin")
    b = serialize.read(args.latin_b, "latin")
    if args.command == "check-orth":
        ok = are_orthogonal(a, b)
        text = "orthogonal" if ok else "NOT orthogonal: repeated ordered symbol pair"
    else:
        ok = are_left_orthogonal(a, b)
        text = "left orthogonal" if ok else "NOT left orthogonal"
    return Outcome(ok, {"n": a.n}, text)


def _cmd_left_conj(args) -> Outcome:
    latin = serialize.read(args.latin, "latin")
    doc = serialize.to_doc("latin", left_conjugate(latin).cells)
    return Outcome(True, {"n": latin.n}, f"left conjugate of order {latin.n} written", doc)


def _cmd_build_meb(args) -> Outcome:
    grid = serialize.read(args.grid, "grid")
    qls = _valid(validate_qls(grid, args.tol), QuantumLatinSquare, "INVALID grid")
    members = [
        _valid(validate_hadamard(mat, args.tol), HadamardMatrix, "INVALID family",
               f"family member {idx}")
        for idx, mat in enumerate(serialize.read(args.family, "matrix-list"))
    ]
    try:
        family = hadamard_family(members)
    except ValueError as exc:
        raise Rejected("INVALID family", exc) from exc
    basis = qls_meb(qls, family)
    return _built(basis, states=basis.n**2)


def _cmd_build_lbw(args) -> Outcome:
    latin = serialize.read(args.latin, "latin")
    mat = serialize.read(args.matrix, "matrix")
    hadamard = _valid(validate_hadamard(mat, args.tol), HadamardMatrix, "INVALID matrix")
    basis = lbw_meb(latin, hadamard)
    return _built(basis, states=basis.n**2)


def _cmd_check_mub(args) -> Outcome:
    a, b = (serialize.read(path, "basis") for path in (args.basis_a, args.basis_b))
    rep = check_mub(a, b, args.tol)
    return _reported(rep, rep.passed)


def _cmd_dual(args) -> Outcome:
    if args.to_ueb:
        basis = serialize.read(args.to_ueb, "basis")
        try:
            u = meb_to_ueb(basis, args.tol)
        except ValueError as exc:
            raise Rejected("FAILED", exc) from exc
        doc = serialize.to_doc("matrix-list", u.members)
        text = f"extracted {len(u)} unitaries of order {u.n}"
        return Outcome(True, {"direction": "to-ueb", "n": u.n}, text, doc)
    members = serialize.read(args.to_meb, "matrix-list")
    u = _valid(validate_ueb(members, args.tol), UnitaryErrorBasis, "INVALID unitary error basis")
    return _built(ueb_to_meb(u), direction="to-meb")


def _cmd_check_ueb(args) -> Outcome:
    u = validate_ueb(serialize.read(args.ueb, "matrix-list"), args.tol)
    if not isinstance(u, UnitaryErrorBasis):
        return _reported(u, False, "INVALID", tol=args.tol)
    line = f"valid unitary error basis of order {u.n} ({len(u)} members)"
    return Outcome(True, {"tol": args.tol, "n": u.n}, line)


def _cmd_check_mu_ueb(args) -> Outcome:
    u, v = (
        _valid(validate_ueb(serialize.read(path, "matrix-list"), args.tol), UnitaryErrorBasis,
               "INVALID unitary error basis", path)
        for path in (args.ueb_a, args.ueb_b)
    )
    rep = check_mu_ueb(u, v, args.tol)
    return _reported(rep, rep.passed)


def _cmd_monomial_obstruction(args) -> Outcome:
    members = serialize.read(args.ueb, "matrix-list")
    u = _valid(validate_ueb(members, args.tol), UnitaryErrorBasis, "INVALID unitary error basis")
    rep = monomial_obstruction(u)
    return _reported(rep, not rep.obstructed)


def _cmd_fixtures(args) -> Outcome:
    try:
        obj = fixture(args.name)
    except KeyError as exc:
        raise serialize.SerializeError(exc.args[0]) from exc
    if isinstance(obj, VectorGrid):
        doc = serialize.to_doc("grid", obj.array)
    elif isinstance(obj, tuple):
        doc = serialize.to_doc("vector-list", obj)
    else:
        doc = serialize.to_doc("matrix", getattr(obj, "mat", obj))
    line = f"fixture {args.name} ({doc['kind']}) written"
    return Outcome(True, {"name": args.name, "kind": doc["kind"]}, line, doc)


def _cmd_search(args) -> Outcome:
    if args.what == "latin":
        result = enumerate_latin(args.order)
        recount = count_latin_by_columns(args.order)
        return Outcome(
            result.count == recount,
            {"what": "latin", "order": args.order, "count": result.count, "recount": recount},
            f"order {args.order}: {result.count} Latin squares (column-major recount {recount})",
        )
    if args.what == "orth-pairs":
        count = len(find_orthogonal_pairs(args.order))
        text = f"order {args.order}: {count} ordered orthogonal pairs"
        return Outcome(True, {"what": "orth-pairs", "order": args.order, "count": count}, text)
    rep = cross_validate_lemma16(args.order, args.tol)
    return _reported(rep, rep.consistent, what="lemma16")


def _cmd_reproduce_appendix_c(args) -> Outcome:
    tol = args.tol
    family = constant_family(hadamard_9_corrected())
    bases = []
    for name, grid in (("P", paper_p_grid()), ("Q", paper_q_grid())):
        qls = _valid(validate_qls(grid, tol), QuantumLatinSquare, f"grid {name} failed validation")
        bases.append(qls_meb(qls, family))
    a, b = bases
    orthonormal = is_orthonormal_basis(a, tol) and is_orthonormal_basis(b, tol)
    entangled = all(is_maximally_entangled(s, tol) for basis in bases for s in basis.states)
    rep = check_mub(a, b, tol)
    ok = orthonormal and entangled and rep.passed
    text = (
        f"two bases of {rep.dim} states each: orthonormal={orthonormal}, "
        f"maximally entangled={entangled}\n"
        f"{rep.dim * rep.dim} cross overlaps: |overlap|^2 min {rep.min_sq:.12g}, "
        f"max {rep.max_sq:.12g}, target {rep.target:.12g}\n" + ("PASS" if ok else "FAIL")
    )
    checks = {"orthonormal": orthonormal, "maximally_entangled": entangled}
    return Outcome(ok, {**_fields(rep), "overlaps": rep.dim * rep.dim, **checks}, text)


# ---------------------------------------------------------------- parser


def _tolerance(text: str) -> float:
    """The ``--tol`` value: a finite float >= 0, else a usage error."""
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0 <= tol < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
    return tol


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on first use and shared by every later
    call in the process: parsing leaves it unchanged, so do not modify it."""
    parser = argparse.ArgumentParser(prog="qlsmub", description=(
        "Construct and verify maximally entangled bases from quantum Latin "
        "squares and Hadamard families."))
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help, *positionals, tol=True, artifact=False):
        p = sub.add_parser(name, help=help)
        for positional in positionals:
            p.add_argument(positional)
        if tol:
            p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL,
                           help="absolute tolerance, finite and >= 0")
        out_help = "the artifact here; the report goes to stdout" if artifact else "the report here"
        p.add_argument("--out", default=None, help="write " + out_help)
        p.add_argument("--format", choices=("text", "json-report"), default="text",
                       help="report rendering")
        p.set_defaults(fn=fn)
        return p

    command("validate-qls", _cmd_validate_qls, "row/column orthonormality of a grid", "grid")
    command("validate-hadamard", _cmd_validate_hadamard, "Hadamard axioms of a matrix", "matrix")
    command("check-weak-orth", _cmd_check_weak_orth, "weak orthogonality witness of two grids",
            "grid_q", "grid_p")
    command("check-orth", _cmd_check_orth, "orthogonality of two Latin squares",
            "latin_a", "latin_b", tol=False)
    command("check-left-orth", _cmd_check_orth, "orthogonality of the left conjugates",
            "latin_a", "latin_b", tol=False)
    command("left-conj", _cmd_left_conj, "left conjugate of a Latin square",
            "latin", tol=False, artifact=True)
    command("build-meb", _cmd_build_meb, "entangled basis from grid + Hadamard family",
            "grid", "family", artifact=True)
    command("build-lbw", _cmd_build_lbw, "entangled basis from Latin square + Hadamard",
            "latin", "matrix", artifact=True)
    command("check-mub", _cmd_check_mub, "mutual unbiasedness of two bases", "basis_a", "basis_b")
    p = command("dual", _cmd_dual, "convert between entangled bases and unitary error bases",
                artifact=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--to-ueb", metavar="BASIS")
    group.add_argument("--to-meb", metavar="UEB")
    command("check-ueb", _cmd_check_ueb, "unitary error basis axioms", "ueb")
    command("check-mu-ueb", _cmd_check_mu_ueb, "mutual unbiasedness of two unitary error bases",
            "ueb_a", "ueb_b")
    command("monomial-obstruction", _cmd_monomial_obstruction,
            "commutator sweep of lcm powers; exits 1 when an obstruction is proved", "ueb")
    p = command("fixtures", _cmd_fixtures, "emit a bundled reference object",
                tol=False, artifact=True)
    p.add_argument("action", choices=("emit",))
    p.add_argument("name", help=f"one of: {', '.join(FIXTURE_NAMES)}")
    p = command("search", _cmd_search, "exhaustive small-order searches")
    p.add_argument("what", choices=("latin", "orth-pairs", "lemma16"))
    p.add_argument("order", type=int)
    command("reproduce-appendix-c", _cmd_reproduce_appendix_c,
            "rebuild the bundled order-9 pair and verify all cross overlaps")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2  # argparse exits 2 on usage errors already
    out = args.out
    try:
        try:
            with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported, not warned
                outcome = args.fn(args)
        except Rejected as exc:  # reported on stdout, never written to --out
            text = f"{exc.prefix}: {exc.reason}"
            outcome, out = Outcome(False, {"reason": str(exc.reason)}, text), None
        if outcome.artifact is not None and not out:
            payload = serialize.dumps(outcome.artifact)  # in place of the report
        else:
            if outcome.artifact is not None:
                serialize.save_path(out, outcome.artifact)
                out = None  # the report then goes to stdout
            report = {"command": args.command, "ok": outcome.ok, **outcome.fields}
            json_report = args.format == "json-report"
            payload = serialize.dumps(report) if json_report else outcome.text + "\n"
        if out:
            try:
                with open(out, "w", encoding="utf-8") as fh:
                    fh.write(payload)
            except OSError as exc:
                raise ValueError(f"cannot write {out}: {exc}") from exc
        else:
            sys.stdout.write(payload)
        return 0 if outcome.ok else 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark workloads: fixed command sequences and the checks on them.

Every command runs in-process through ``qlsmub.cli.main(argv)`` with
``--format json-report``.  A check reads the exit code and the semantic
fields of the report, never its text, so reports that gain keys (timings,
margins, noise bounds) still pass.  A check returns None on success and a
one-line reason otherwise.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import inputs

# Latin squares of order 1..5 (McKay & Wanless, "On the number of Latin
# squares", 2005).
LATIN_COUNTS = {1: 1, 2: 2, 3: 12, 4: 576, 5: 161280}

# Frozen criterion-08 values of the order-9 paper-P basis.
PAPER_P_WORST_PAIR = [25, 26]
PAPER_P_WORST_NORM = 4.4785390072245965

JSON_REPORT = ("--format", "json-report")

# (exit code, report, earlier reports of the pass by label) -> None or reason
Check = Callable[[int, dict, dict], "str | None"]


@dataclass(frozen=True)
class Command:
    label: str
    argv: tuple[str, ...]
    check: Check


@dataclass(frozen=True)
class Workload:
    """``layers`` are the modules a traced pass must reach through the CLI."""

    layers: tuple[str, ...]
    write_inputs: Callable[[str, int], None]
    commands: Callable[[str], list[Command]]


def expect(code: int, **fields) -> Check:
    def check(rc, report, _earlier):
        if rc != code:
            return f"exit code {rc}, expected {code}"
        for key, want in fields.items():
            if report.get(key) != want:
                return f"{key} = {report.get(key)!r}, expected {want!r}"
        return None

    return check


def unbiased(n: int) -> Check:
    """Passing report whose squared overlaps all lie within tol of 1/n^2."""

    def check(rc, report, earlier):
        reason = expect(0, ok=True, dim=n * n)(rc, report, earlier)
        if reason:
            return reason
        target = 1.0 / (n * n)
        dev = max(abs(report["min_sq"] - target), abs(report["max_sq"] - target))
        if dev > report["tol"]:
            return f"squared overlaps deviate from 1/{n * n} by {dev:.3g}"
        return None

    return check


def _basis_states(path: str) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        return np.asarray(json.load(fh)["states"], dtype=np.float64)


def same_basis(built: str, rebuilt: str) -> Check:
    """Passing report, and the rebuilt basis file matches the built one to 1e-12."""

    def check(rc, report, earlier):
        reason = expect(0, ok=True)(rc, report, earlier)
        if reason:
            return reason
        a, b = _basis_states(built), _basis_states(rebuilt)
        if a.shape != b.shape:
            return f"round trip changed the shape {a.shape} to {b.shape}"
        dev = float(np.abs(a - b).max())
        if dev > 1e-12:
            return f"round trip moved an amplitude by {dev:.3g}"
        return None

    return check


def paper_p_obstructed(rc, report, earlier):
    reason = expect(1, obstructed=True, worst_pair=PAPER_P_WORST_PAIR)(rc, report, earlier)
    if reason:
        return reason
    if abs(report["worst_norm"] - PAPER_P_WORST_NORM) > 1e-6:
        return f"worst norm {report['worst_norm']!r}, expected {PAPER_P_WORST_NORM!r}"
    return None


def lemma16_agrees(n: int) -> Check:
    """All pairs checked, no route disagrees, and the positives match orth-pairs.

    Left conjugation is a bijection on Latin squares, so the left-orthogonal
    pairs are as many as the orthogonal ones.
    """

    def check(rc, report, earlier):
        reason = expect(0, ok=True, pairs_checked=LATIN_COUNTS[n] ** 2, disagreements=0)(
            rc, report, earlier
        )
        if reason:
            return reason
        orth = earlier.get(f"orth-pairs {n}", {}).get("count")
        if report.get("positives") != orth:
            return f"positives {report.get('positives')!r} but orth-pairs count {orth!r}"
        return None

    return check


def pipeline(n: int) -> Workload:
    def commands(d: str) -> list[Command]:
        def p(name):
            return os.path.join(d, name + ".json")

        built = expect(0, ok=True, n=n)
        return [
            Command("validate-qls 1", ("validate-qls", p("grid1")), built),
            Command("validate-qls 2", ("validate-qls", p("grid2")), built),
            Command("check-weak-orth", ("check-weak-orth", p("grid1"), p("grid2")), built),
            Command(
                "build-meb 1",
                ("build-meb", p("grid1"), p("family1"), "--out", p("basis1")),
                expect(0, ok=True, n=n, states=n * n),
            ),
            Command(
                "build-meb 2",
                ("build-meb", p("grid2"), p("family2"), "--out", p("basis2")),
                expect(0, ok=True, n=n, states=n * n),
            ),
            Command("check-mub", ("check-mub", p("basis1"), p("basis2")), unbiased(n)),
            Command(
                "dual --to-ueb 1", ("dual", "--to-ueb", p("basis1"), "--out", p("ueb1")), built
            ),
            Command(
                "dual --to-ueb 2", ("dual", "--to-ueb", p("basis2"), "--out", p("ueb2")), built
            ),
            Command("check-ueb", ("check-ueb", p("ueb1")), built),
            Command("check-mu-ueb", ("check-mu-ueb", p("ueb1"), p("ueb2")), unbiased(n)),
            Command(
                "dual --to-meb",
                ("dual", "--to-meb", p("ueb1"), "--out", p("basis1-back")),
                same_basis(p("basis1"), p("basis1-back")),
            ),
        ]

    return Workload(
        layers=("cli", "serialize", "squares", "hadamard", "bases", "ueb"),
        write_inputs=lambda d, seed: inputs.write_pipeline(d, seed, n),
        commands=commands,
    )


def obstruction(n: int, count: int) -> Workload:
    def commands(d: str) -> list[Command]:
        clean = [
            Command(
                f"monomial-obstruction clean{i}",
                ("monomial-obstruction", os.path.join(d, f"clean{i}.json")),
                expect(0, obstructed=False),
            )
            for i in range(count)
        ]
        paper_p = Command(
            "monomial-obstruction paper-P",
            ("monomial-obstruction", os.path.join(d, "paper-P.json")),
            paper_p_obstructed,
        )
        return clean + [paper_p]

    return Workload(
        layers=("cli", "serialize", "ueb"),
        write_inputs=lambda d, seed: inputs.write_obstruction(d, seed, n, count),
        commands=commands,
    )


def search(latin_order: int, scan_order: int, lemma_order: int) -> Workload:
    count = LATIN_COUNTS[latin_order]

    def commands(_d: str) -> list[Command]:
        latin = Command(
            f"latin {latin_order}",
            ("search", "latin", str(latin_order)),
            expect(0, ok=True, count=count, recount=count),
        )
        orth = [
            Command(f"orth-pairs {n}", ("search", "orth-pairs", str(n)), expect(0, ok=True))
            for n in sorted({scan_order, lemma_order})
        ]
        lemma = Command(
            f"lemma16 {lemma_order}",
            ("search", "lemma16", str(lemma_order)),
            lemma16_agrees(lemma_order),
        )
        return [latin, *orth, lemma]

    return Workload(
        layers=("cli", "search"),
        write_inputs=lambda d, seed: None,
        commands=commands,
    )


WORKLOADS = {
    "pipeline-13": pipeline(13),
    "obstruction-16": obstruction(16, 2),
    "search-exhaustive": search(4, 4, 3),
}

# Tiny sizes of the same sequences, for the benchmark's own tests.
SMOKE = {
    "pipeline-13": pipeline(5),
    "obstruction-16": obstruction(5, 2),
    "search-exhaustive": search(3, 3, 3),
}

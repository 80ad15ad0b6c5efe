import errno
import gc
import io
import json
import os
import re
import shutil
import subprocess
import sys
import threading
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import qlsmub
from qlsmub import serialize
from qlsmub.bases import check_mub
from qlsmub.cli import build_parser, main
from qlsmub.fixtures import fixture, hadamard_9_corrected
from qlsmub.hadamard import constant_family, fourier, validate_hadamard
from qlsmub.numerics import DEFAULT_TOL
from qlsmub.search import cross_validate_lemma16
from qlsmub.squares import (
    LatinSquare,
    computational_grid,
    left_conjugate,
    validate_qls,
    weak_orth_witness,
)
from qlsmub.ueb import check_mu_ueb, monomial_obstruction, shift_multiply_ueb, validate_ueb

from helpers import (
    CYCLIC3,
    PAPER_P_WORST_PAIR,
    PINNED_TEXT,
    TWISTED3,
    assert_is_the_oracle,
    files_of_order,
    force_the_perm_route,
    listed,
    mutated_documents,
    paper_ueb,
    pinned_inputs,
    reference_lemma16,
    write,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -------------------------------------------------------------- validation


def test_validate_qls_pass_and_fail(tmp_path, capsys):
    good = write(tmp_path, "p.json", "grid", fixture("paper-P").array)
    code, out, _ = run(capsys, "validate-qls", good)
    assert code == 0
    assert "valid quantum Latin square of order 9" in out

    bad = write(tmp_path, "pp.json", "grid", fixture("paper-P-printed").array)
    code, out, _ = run(capsys, "validate-qls", bad)
    assert code == 1
    assert "INVALID" in out and "row 6" in out


def test_validate_qls_json_report(tmp_path, capsys):
    good = write(tmp_path, "p.json", "grid", fixture("paper-P").array)
    code, out, _ = run(capsys, "validate-qls", good, "--format", "json-report")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True and doc["n"] == 9
    assert out == serialize.dumps(doc)  # canonical rendering


def test_validate_hadamard(tmp_path, capsys):
    good = write(tmp_path, "h.json", "matrix", hadamard_9_corrected().mat)
    code, out, _ = run(capsys, "validate-hadamard", good)
    assert code == 0 and "valid complex Hadamard" in out

    bad = write(tmp_path, "hp.json", "matrix", fixture("hadamard-9-printed"))
    code, out, _ = run(capsys, "validate-hadamard", bad)
    assert code == 1
    assert "row-orthogonality" in out and "(3, 4)" in out


def test_text_reports_show_the_gram_deviation(tmp_path, capsys):
    # every defect is 2e-8, which the six-digit value alone would hide
    eps = 2e-8
    arr = computational_grid(CYCLIC3).array.copy()
    arr[1, 2] *= np.sqrt(1 + eps)
    grid = write(tmp_path, "g.json", "grid", arr)
    code, out, _ = run(capsys, "validate-qls", grid, "--tol", "1e-30")
    assert (code, out) == (
        1,
        "INVALID: row 1 is not orthonormal: <v2|v2> = 1+0j, expected 1.0 (off by 2.000e-08)\n",
    )
    code, out, _ = run(capsys, "validate-qls", grid, "--tol", "1e-30", "--format", "json-report")
    assert code == 1 and "off by" not in out
    doc = json.loads(out)
    assert set(doc) == {"command", "ok", "n", "tol", "line", "index", "pair", "value", "off_by"}
    assert doc["off_by"] == pytest.approx(eps, abs=1e-15)

    mat = fourier(3).mat.copy()
    mat[0, 1] *= np.exp(1j * eps)
    code, out, _ = run(capsys, "validate-hadamard", write(tmp_path, "h.json", "matrix", mat))
    assert code == 1 and out.startswith("INVALID: row-orthogonality violated: rows (0, 1)")
    assert out.endswith("expected n on the diagonal and 0 off it (off by 2.000e-08)\n")

    x, z = np.array([[0, 1], [1, 0]], dtype=complex), np.diag([1.0, -1.0]).astype(complex)
    pauli = np.stack([np.diag([np.exp(1j * eps), 1]), x, z, x @ z])
    code, out, _ = run(capsys, "check-ueb", write(tmp_path, "u.json", "matrix-list", pauli))
    assert code == 1 and out.startswith("INVALID: members (0, 2): tr(U*V) = ")
    assert out.endswith("(off by 2.000e-08)\n")
    # the json-report carries the measured defect too; tr(U0* Z) = exp(-i eps) - 1
    scaled = np.stack([np.eye(2) * np.sqrt(1 + eps), x, z, x @ z])  # U0* U0 = (1 + eps) I
    for members, value in ((pauli, [0.0, -eps]), (scaled, [1 + eps, 0.0])):
        path = write(tmp_path, "u.json", "matrix-list", members)
        code, out, _ = run(capsys, "check-ueb", path, "--format", "json-report")
        doc = json.loads(out)
        assert code == 1
        assert doc["off_by"] == pytest.approx(eps, abs=1e-15)
        assert doc["value"] == pytest.approx(value, abs=1e-15)

    mat = fourier(3).mat.copy()
    mat[1, 2] *= 1 + eps
    code, out, _ = run(capsys, "validate-hadamard", write(tmp_path, "m.json", "matrix", mat))
    assert (code, out) == (
        1,
        "INVALID: unimodular violated: entry (1, 2) has modulus 1, expected 1 "
        "(off by 2.000e-08)\n",
    )

    arr = computational_grid(left_conjugate(CYCLIC3)).array.copy()
    arr[0, 0] *= 1 + eps
    first = write(tmp_path, "q.json", "grid", arr)
    second = write(tmp_path, "p.json", "grid", computational_grid(left_conjugate(TWISTED3)).array)
    code, out, _ = run(capsys, "check-weak-orth", first, second)
    assert (code, out) == (
        1,
        "NOT weakly orthogonal: rows (0, 0): column 0 product 1+0j (stray-value) "
        "(off by 2.000e-08)\n",
    )


def test_check_weak_orth(tmp_path, capsys):
    q = write(tmp_path, "q.json", "grid", fixture("paper-Q").array)
    p = write(tmp_path, "p.json", "grid", fixture("paper-P").array)
    code, out, _ = run(capsys, "check-weak-orth", q, p)
    assert code == 0
    assert "weakly orthogonal" in out
    assert len([ln for ln in out.splitlines() if ln.startswith("  ")]) == 9

    code, out, _ = run(capsys, "check-weak-orth", p, p)
    assert code == 1
    assert "NOT weakly orthogonal" in out


def test_check_weak_orth_refuses_a_tol_of_one_half_and_above(tmp_path, capsys):
    """At tol >= 1/2 a product can be near both 0 and 1; the (1, 0.5) pair
    would fail as a second unit "off by" 0.5, a margin within tol."""
    first = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]]], dtype=complex)
    second = first.copy()
    second[0, 1] = [np.sqrt(0.75), 0.5]  # its product with first[0, 1] is 0.5
    q, p = write(tmp_path, "q.json", "grid", first), write(tmp_path, "p.json", "grid", second)
    for tol in ("0.5", "0.6", "1"):
        for fmt in ("text", "json-report"):
            code, out, err = run(capsys, "check-weak-orth", q, p, "--tol", tol, "--format", fmt)
            assert_error_exit(code, out, err)
            assert err == f"error: check-weak-orth needs --tol below 0.5, got {float(tol):g}\n"
    assert run(capsys, "check-weak-orth", q, p, "--tol", "0.4999")[0] == 1



def test_check_orth_and_left_orth(pinned_files, capsys):
    a, b, la, lb = (pinned_files[key] for key in ("latin", "twisted", "left_a", "left_b"))
    assert run(capsys, "check-orth", a, b)[0] == 0
    assert run(capsys, "check-orth", a, a)[0] == 1
    assert run(capsys, "check-left-orth", la, lb)[0] == 0
    assert run(capsys, "check-left-orth", a, a)[0] == 1

# --------------------------------------------------------------- artifacts


def test_left_conj_twice_restores_the_file(tmp_path, capsys):
    original = write(tmp_path, "sq.json", "latin", TWISTED3.cells)
    once = str(tmp_path / "once.json")
    twice = str(tmp_path / "twice.json")
    assert run(capsys, "left-conj", original, "--out", once)[0] == 0
    assert run(capsys, "left-conj", once, "--out", twice)[0] == 0
    assert (tmp_path / "twice.json").read_bytes() == (tmp_path / "sq.json").read_bytes()


def test_left_conj_to_stdout(pinned_files, capsys):
    code, out, _ = run(capsys, "left-conj", pinned_files["latin"])
    assert code == 0
    cells = serialize.from_doc(serialize.loads(out), "latin")
    assert LatinSquare(cells) == left_conjugate(CYCLIC3)


def test_fixtures_emit(tmp_path, capsys):
    out_path = str(tmp_path / "p.json")
    code, out, _ = run(capsys, "fixtures", "emit", "paper-P", "--out", out_path)
    assert code == 0
    grid = serialize.read(out_path, "grid")
    assert_allclose(grid.array, fixture("paper-P").array)

    code, out, _ = run(capsys, "fixtures", "emit", "hadamard-9-corrected")
    assert code == 0
    mat = serialize.from_doc(serialize.loads(out), "matrix")
    assert_allclose(mat, hadamard_9_corrected().mat)

    code, out, _ = run(capsys, "fixtures", "emit", "corrected-triple")
    assert code == 0
    vecs = serialize.from_doc(serialize.loads(out), "vector-list")
    assert vecs.shape == (3, 9)


def test_fixtures_unknown_name(capsys):
    code, _, err = run(capsys, "fixtures", "emit", "nope")
    assert code == 2
    assert "unknown fixture" in err


# ------------------------------------------------------------ construction


def test_build_meb_check_mub_flow(pinned_files, tmp_path, capsys):
    basis_a = str(tmp_path / "basis_a.json")
    basis_b = str(tmp_path / "basis_b.json")
    family = pinned_files["family"]
    code, out, _ = run(capsys, "build-meb", pinned_files["grid_a"], family, "--out", basis_a)
    assert code == 0 and "built 9 states" in out
    code, _, _ = run(capsys, "build-meb", pinned_files["grid_b"], family, "--out", basis_b)
    assert code == 0

    code, out, _ = run(
        capsys, "check-mub", basis_a, basis_b, "--format", "json-report"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert abs(doc["max_sq"] - 1 / 9) < 1e-12

    # a basis is never unbiased against itself
    assert run(capsys, "check-mub", basis_a, basis_a)[0] == 1


def test_build_meb_rejects_bad_inputs(tmp_path, capsys):
    printed = write(tmp_path, "pp.json", "grid", fixture("paper-P-printed").array)
    f9 = write(tmp_path, "f9.json", "matrix-list", [hadamard_9_corrected().mat] * 9)
    code, out, _ = run(capsys, "build-meb", printed, f9)
    assert code == 1 and "INVALID grid" in out

    good = write(tmp_path, "p.json", "grid", fixture("paper-P").array)
    bad_family = write(
        tmp_path, "badfam.json", "matrix-list", [hadamard_9_corrected().mat] * 8 + [np.eye(9)]
    )
    code, out, _ = run(capsys, "build-meb", good, bad_family)
    assert code == 1 and "INVALID family" in out


def test_build_lbw(pinned_files, tmp_path, capsys):
    basis = str(tmp_path / "lbw.json")
    latin, matrix = pinned_files["latin"], pinned_files["matrix"]
    code, out, _ = run(capsys, "build-lbw", latin, matrix, "--out", basis)
    assert code == 0 and "built 9 states" in out
    built = serialize.read(basis, "basis")
    assert built.n == 3 and built.states.shape == (9, 9)

    not_square = write(tmp_path, "ns.json", "matrix", np.ones((2, 3)))
    code, out, _ = run(capsys, "build-lbw", latin, not_square)
    assert code == 1
    assert out == "INVALID matrix: matrix of shape (2, 3) is not square\n"

    code, out, _ = run(capsys, "validate-hadamard", not_square, "--format", "json-report")
    assert code == 1
    assert json.loads(out) == {
        "command": "validate-hadamard",
        "ok": False,
        "n": 2,
        "tol": 1e-9,
        "constraint": "shape",
        "indices": [2, 3],
        "value": [0.0, 0.0],
        "off_by": None,
    }


# ----------------------------------------------------------------- duality


def test_dual_round_trip_via_files(pinned_files, tmp_path, capsys):
    basis = str(tmp_path / "basis.json")
    ueb = str(tmp_path / "ueb.json")
    back = str(tmp_path / "back.json")
    run(capsys, "build-meb", pinned_files["grid_a"], pinned_files["family"], "--out", basis)

    assert run(capsys, "dual", "--to-ueb", basis, "--out", ueb)[0] == 0
    assert run(capsys, "check-ueb", ueb)[0] == 0
    assert run(capsys, "dual", "--to-meb", ueb, "--out", back)[0] == 0

    original, returned = (serialize.read(path, "basis").states for path in (basis, back))
    assert_allclose(returned, original, atol=1e-12)


def test_dual_rejects_product_states(tmp_path, capsys):
    path = str(tmp_path / "comp.json")
    serialize.save_path(path, serialize.to_doc("basis", np.eye(4, dtype=complex)))
    code, out, _ = run(capsys, "dual", "--to-ueb", path)
    assert code == 1
    assert "partial-trace residual" in out


def test_dual_rejects_a_state_whose_residual_overflows_to_nan(tmp_path, capsys):
    # M M* of 7.5e307 overflows, and the residual becomes NaN: not within tol
    path = str(tmp_path / "huge.json")
    out_path = tmp_path / "ueb.json"
    serialize.save_path(path, serialize.to_doc("basis", 7.5e307 * np.eye(4, dtype=complex)))
    code, out, err = run(capsys, "dual", "--to-ueb", path, "--out", str(out_path))
    assert (code, err) == (1, "")
    assert out == (
        "FAILED: state is not maximally entangled: partial-trace residual nan "
        "exceeds tol 1.000e-09\n"
    )
    assert not out_path.exists()



def test_check_ueb_rejects_wrong_count(tmp_path, capsys):
    members = np.stack([np.eye(2, dtype=complex)] * 3)
    path = write(tmp_path, "short.json", "matrix-list", members)
    code, out, _ = run(capsys, "check-ueb", path)
    assert code == 1 and "INVALID" in out


def test_check_mu_ueb(pinned_files, capsys):
    pa, pb = pinned_files["ueb_a"], pinned_files["ueb_b"]
    code, out, _ = run(capsys, "check-mu-ueb", pa, pb, "--format", "json-report")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert abs(doc["raw_trace_sq_max"] - 1.0) < 1e-9

    assert run(capsys, "check-mu-ueb", pa, pa)[0] == 1

# ------------------------------------------------------------- obstruction


def test_monomial_obstruction_exit_codes(tmp_path, capsys):
    obstructed = write(tmp_path, "obs.json", "matrix-list", paper_ueb().members)
    code, out, _ = run(capsys, "monomial-obstruction", obstructed)
    assert code == 1
    assert str(PAPER_P_WORST_PAIR) in out
    verdict = r"\nOBSTRUCTED: not equivalent to a monomial basis \(noise bound \d\.\d{3}e-\d+\)\n$"
    assert re.search(verdict, out)

    clean = shift_multiply_ueb(
        validate_qls(computational_grid(CYCLIC3)), constant_family(fourier(3))
    )
    clean_path = write(tmp_path, "clean.json", "matrix-list", clean.members)
    code, out, _ = run(capsys, "monomial-obstruction", clean_path)
    assert code == 0
    verdict = r"\nno obstruction proved: worst norm is within the noise bound \d\.\d{3}e-\d+\n$"
    assert re.search(verdict, out)


def test_monomial_obstruction_with_an_infinite_noise_bound_skips_the_sweep(tmp_path, capsys):
    members = 1.5 * paper_ueb().members
    path = write(tmp_path, "scaled.json", "matrix-list", members)  # valid only at a loose tol
    code, out, _ = run(capsys, "monomial-obstruction", path, "--tol", "20")
    assert code == 0
    assert out == (
        "mu 2520, normalizer 0: sweep skipped\n"
        "no obstruction proved: nothing can exceed the noise bound inf\n"
    )
    code, out, _ = run(capsys, "monomial-obstruction", path, "--tol", "20", "--format", "json-report")
    doc = strict_json(out)
    assert code == 0 and doc["ok"] is True and doc["obstructed"] is False
    assert doc["worst_pair"] is doc["worst_norm"] is doc["sample_entry"] is None
    assert doc["noise_bound"] is None  # the bound overflowed; the text above prints inf


def strict_json(text):
    """``text`` parsed as RFC 8259 JSON, which has no NaN or Infinity tokens."""

    def reject(token):
        raise ValueError(f"non-JSON token {token}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.filterwarnings("error")  # the overflow is reported, never warned
def test_overflowed_overlaps_report_null(tmp_path, capsys):
    path = str(tmp_path / "big.json")
    serialize.save_path(path, serialize.to_doc("basis", 1e200 * np.eye(4, dtype=complex)))
    code, out, err = run(capsys, "check-mub", path, path)
    assert code == 1 and err == ""
    assert out.startswith("dim 4: |overlap|^2 min 0, max inf, mean inf, target 0.25\n")
    code, out, err = run(capsys, "check-mub", path, path, "--format", "json-report")
    doc = strict_json(out)
    assert code == 1 and err == "" and doc["ok"] is False and doc["min_sq"] == 0.0
    assert doc["max_sq"] is doc["mean_sq"] is doc["max_dev"] is None
    ueb = write(tmp_path, "big-ueb.json", "matrix-list", 1e200 * np.ones((4, 2, 2), dtype=complex))
    code, out, err = run(capsys, "check-ueb", ueb)
    assert (code, out, err) == (1, "INVALID: member 0: U*U differs from I by inf\n", "")


BIG = 1.3e308 + 1.3e308j  # finite parts, a modulus beyond the doubles
E = np.eye(2, dtype=complex)
# inputs whose first defect is a finite complex value that Python's abs
# cannot measure, and the text each command prints for it
OVERFLOWED_MODULUS = {
    "validate-hadamard": (
        [("matrix", [[BIG]])],
        "INVALID: unimodular violated: entry (0, 0) has modulus inf, expected 1 (off by inf)\n"),
    "validate-qls": (
        [("grid", [[E[0], BIG * E[0]], [E[1], E[0]]])],
        "INVALID: row 0 is not orthonormal: <v0|v1> = 1.3e+308+1.3e+308j, expected 0.0 "
        "(off by inf)\n"),
    "check-weak-orth": (
        [("grid", [[BIG * E[0], E[1]], [E[1], E[0]]]), ("grid", [[E[0], E[1]], [E[1], E[0]]])],
        "NOT weakly orthogonal: rows (0, 0): column 0 product 1.3e+308-1.3e+308j (stray-value) "
        "(off by inf)\n"),
}


@pytest.mark.filterwarnings("error")  # the overflow is reported, never warned
@pytest.mark.parametrize("command", sorted(OVERFLOWED_MODULUS))
def test_a_modulus_beyond_the_doubles_is_a_violation(tmp_path, capsys, command):
    inputs, text = OVERFLOWED_MODULUS[command]
    paths = []
    for i, (kind, array) in enumerate(inputs):
        paths.append(str(tmp_path / f"{i}.json"))
        serialize.save_path(paths[-1], serialize.to_doc(kind, array))
    assert run(capsys, command, *paths) == (1, text, "")
    code, out, err = run(capsys, command, *paths, "--format", "json-report")
    assert (code, err) == (1, "") and strict_json(out)["off_by"] is None


def test_a_weak_orth_margin_exceeds_tol_in_the_last_bit(tmp_path, capsys):
    # Python's abs of z is one ulp below numpy's, and tol is Python's abs
    z = -0.11355392122558595 + 0.011131792185154497j
    one = write(tmp_path, "one.json", "grid", np.ones((1, 1, 1)))
    stray = write(tmp_path, "z.json", "grid", np.full((1, 1, 1), z))
    argv = ("check-weak-orth", one, stray, "--tol", "0.1140982463623348")
    code, out, err = run(capsys, *argv, "--format", "json-report")
    doc = strict_json(out)
    assert (code, err, doc["kind"], doc["tol"]) == (1, "", "stray-value", 0.1140982463623348)
    assert doc["off_by"] == 0.11409824636233482
    assert run(capsys, *argv)[:2] == (
        1,
        "NOT weakly orthogonal: rows (0, 0): column 0 product -0.113554+0.0111318j (stray-value) "
        "(off by 1.141e-01)\n",
    )


def test_dumps_writes_no_non_json_token(tmp_path):
    for value in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError):
            serialize.dumps({"value": value})
    path = tmp_path / "doc.json"
    with pytest.raises(ValueError):
        serialize.save_path(str(path), {"value": np.inf})
    assert not path.exists()


def test_monomial_obstruction_rejects_order_one(tmp_path, capsys):
    path = write(tmp_path, "one.json", "matrix-list", np.ones((1, 1, 1), dtype=complex))
    assert run(capsys, "check-ueb", path)[0] == 0  # a valid basis, just too small
    code, out, err = run(capsys, "monomial-obstruction", path)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "order >= 2" in err


# ---------------------------------------------------------------- searches


def test_search_commands(capsys):
    code, out, _ = run(capsys, "search", "latin", "3")
    assert code == 0 and "12 Latin squares" in out and "recount 12" in out

    code, out, _ = run(capsys, "search", "orth-pairs", "3")
    assert code == 0 and "72 ordered orthogonal pairs" in out

    code, out, _ = run(capsys, "search", "lemma16", "3", "--format", "json-report")
    assert code == 0
    doc = json.loads(out)
    assert doc["pairs_checked"] == 144
    assert doc["positives"] == 72
    assert doc["disagreements"] == 0

    code, _, err = run(capsys, "search", "latin", "9")
    assert code == 2 and "out of range" in err

    code, out, _ = run(capsys, "search", "--help")  # the range, before any exit 2
    assert code == 0 and "1..6; 1..5 for lemma16" in out


def test_search_refuses_a_huge_order_before_any_arithmetic():
    # as its own process, so nothing but the command's handling decides the
    # exit status and what reaches stderr; math.factorial overflows at 2**63
    src = os.path.dirname(os.path.dirname(qlsmub.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "qlsmub.cli", "search", "latin", str(2**63)],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 2 and done.stdout == ""
    assert "out of range" in done.stderr and "Traceback" not in done.stderr


def test_search_latin_five_matches_its_recount(capsys):
    code, out, _ = run(capsys, "search", "latin", "5", "--format", "json-report")
    assert code == 0
    assert json.loads(out) == {
        "command": "search",
        "ok": True,
        "what": "latin",
        "order": 5,
        "count": 161280,
        "recount": 161280,
    }


def test_search_lemma16_disagreement_exits_one(capsys, monkeypatch):
    # with the perm route failing every pair, the 72 orthogonal pairs still
    # pass the witness and the left-conjugate test
    force_the_perm_route(monkeypatch, False)
    code, out, _ = run(capsys, "search", "lemma16", "3", "--format", "json-report")
    assert code == 1
    assert out == serialize.dumps(
        {
            "command": "search",
            "ok": False,
            "what": "lemma16",
            "order": 3,
            "pairs_checked": 144,
            "positives": 72,
            "disagreements": 72,
            "representatives": 2,
        }
    )
    code, out, _ = run(capsys, "search", "lemma16", "3")
    assert code == 1
    assert out == (
        "order 3: 144 ordered pairs, 72 weakly orthogonal, 72 disagreements between the three routes\n"
    )
    rep = cross_validate_lemma16(3)
    assert_is_the_oracle(rep, reference_lemma16(3))
    assert {d[2:] for d in rep.disagreements} == {(True, True, False)}


# ------------------------------------------------------------ reproduction


def test_reproduce_appendix_c(capsys):
    code, out, _ = run(capsys, "reproduce-appendix-c")
    assert code == 0
    assert out.strip().splitlines()[-1] == "PASS"
    assert "6561 cross overlaps" in out


def test_reproduce_appendix_c_json(capsys, tmp_path):
    out_path = str(tmp_path / "report.json")
    code, out, _ = run(
        capsys, "reproduce-appendix-c", "--format", "json-report", "--out", out_path
    )
    assert code == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["ok"] is True
    assert doc["overlaps"] == 6561
    assert abs(doc["max_sq"] - 1 / 81) < 1e-9
    assert doc["orthonormal"] is True and doc["maximally_entangled"] is True


# ----------------------------------------------------------- input hygiene


def test_malformed_inputs_exit_two(tmp_path, capsys):
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert run(capsys, "validate-qls", str(garbled))[0] == 2

    wrong_kind = write(tmp_path, "latin.json", "latin", CYCLIC3.cells)
    code, _, err = run(capsys, "validate-qls", wrong_kind)
    assert code == 2 and "kind" in err

    assert run(capsys, "validate-qls", str(tmp_path / "missing.json"))[0] == 2


def assert_error_exit(code, stdout, err):
    """Exit 2 with one ``error:`` line on stderr and nothing on stdout."""
    assert (code, stdout) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


# a 1 x 1 matrix document with its one real part spelled as given
ONE_BY_ONE = (
    '{"cols": 1, "entries": [[[%s, 0.0]]], "format": "qlsmub/1", "kind": "matrix", "rows": 1}'
)

# texts that are not RFC 8259 JSON, or hold a number no double can carry
NOT_JSON = {
    "NaN token": (ONE_BY_ONE % "NaN").encode(),
    "Infinity token": (ONE_BY_ONE % "Infinity").encode(),
    "-Infinity token": (ONE_BY_ONE % "-Infinity").encode(),
    "truncated": (ONE_BY_ONE % "1.0")[:-9].encode(),
    "trailing data": (ONE_BY_ONE % "1.0" + " {}").encode(),
    "BOM": ("\ufeff" + ONE_BY_ONE % "1.0").encode(),
    "invalid UTF-8": (ONE_BY_ONE % "1.0").replace("matrix", "ma\udcfftrix").encode(
        "utf-8", "surrogateescape"),
    "lone surrogate escape": (ONE_BY_ONE % "1.0").replace("matrix", "ma\\ud800trix").encode(),
    "1e400": (ONE_BY_ONE % "1e400").encode(),
    "400-digit integer": (ONE_BY_ONE % ("9" * 400)).encode(),
}


def test_the_one_by_one_document_is_read(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(ONE_BY_ONE % "1.0")
    code, out, _ = run(capsys, "validate-hadamard", str(path))
    assert code == 0 and "valid complex Hadamard matrix of order 1" in out


@pytest.mark.parametrize("case", sorted(NOT_JSON))
def test_text_that_is_not_json_exits_two(tmp_path, capsys, case):
    path = tmp_path / "doc.json"
    path.write_bytes(NOT_JSON[case])
    code, out, err = run(capsys, "validate-hadamard", str(path))
    assert_error_exit(code, out, err)
    assert err.startswith("error: not valid JSON: ")


DEPTH = 100_000
DEEP = "[" * DEPTH + "]" * DEPTH

# nesting far beyond Python's recursion limit, where a parse, a message or a
# conversion that recursed would crash with a traceback and exit 1
DEEP_DOCS = {
    "document": ("validate-hadamard", DEEP),
    "format tag": ("validate-hadamard", '{"format": %s, "kind": "matrix"}' % DEEP),
    "kind": ("validate-hadamard", '{"format": "qlsmub/1", "kind": %s}' % DEEP),
    "payload": ("validate-hadamard", ONE_BY_ONE.replace("[[[%s, 0.0]]]", DEEP)),
    "n header": (
        "validate-qls",
        '{"entries": [[[[1.0, 0.0]]]], "format": "qlsmub/1", "kind": "grid", "n": %s}' % DEEP,
    ),
}


@pytest.mark.parametrize("case", sorted(DEEP_DOCS))
def test_a_deeply_nested_document_exits_two(tmp_path, capsys, case):
    command, text = DEEP_DOCS[case]
    path = tmp_path / "deep.json"
    path.write_text(text)
    assert_error_exit(*run(capsys, command, str(path)))


def test_an_empty_file_is_not_valid_json(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_bytes(b"")
    code, out, err = run(capsys, "validate-qls", str(path))
    assert_error_exit(code, out, err)
    assert err.startswith("error: not valid JSON: ")


def test_an_input_read_from_a_pipe(tmp_path, capsys):
    text = serialize.dumps(serialize.to_doc("grid", fixture("paper-P").array)).encode()
    read_fd, write_fd = os.pipe()

    def feed():
        with os.fdopen(write_fd, "wb") as fh:
            fh.write(text)

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        code, out, _ = run(capsys, "validate-qls", f"/dev/fd/{read_fd}")
    finally:
        os.close(read_fd)  # a writer the command left blocked then fails
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert code == 0 and "valid quantum Latin square of order 9" in out


def _order_two_latin(cells):
    return {**serialize.to_doc("latin", [[0, 1], [1, 0]]), "cells": cells}


def _fourier2_with_leaves(leaf):
    doc = serialize.to_doc("matrix", fourier(2).mat)
    doc["entries"] = [[[leaf(x) for x in pair] for pair in row] for row in doc["entries"].tolist()]
    return doc


# Documents that were once read as something else or could not be read back:
# truncated or parsed cells, a bool order, a float size, parsed or bool [re, im]
# leaves, an empty member list.
NON_INTEGER_DOCS = {
    "float cells": ("left-conj", _order_two_latin([[0, 1.7], [1, 0.2]])),
    "string cells": ("left-conj", _order_two_latin([["0", "1"], ["1", "0"]])),
    "bool order": ("validate-qls", {**serialize.to_doc("grid", np.ones((1, 1, 1))), "n": True}),
    "float rows": ("validate-hadamard", {**serialize.to_doc("matrix", fourier(2).mat), "rows": 2.0}),
    "string leaves": ("validate-hadamard", _fourier2_with_leaves(str)),
    "bool leaves": ("validate-hadamard", _fourier2_with_leaves(lambda x: x > 0)),
    "bools among floats": (
        "validate-hadamard", _fourier2_with_leaves(lambda x: x > 0 if x == 1.0 else x)
    ),
    "zero count": (
        "check-ueb",
        {**serialize.to_doc("matrix-list", np.ones((1, 2, 2))), "count": 0, "members": []},
    ),
}


@pytest.mark.parametrize("out", [False, True])
@pytest.mark.parametrize("fmt", ["text", "json-report"])
@pytest.mark.parametrize("case", sorted(NON_INTEGER_DOCS))
def test_non_integer_headers_and_cells_exit_two(tmp_path, capsys, case, fmt, out):
    command, doc = NON_INTEGER_DOCS[case]
    path = str(tmp_path / "doc.json")
    serialize.save_path(path, doc)
    out_path = tmp_path / "out.json"
    argv = [command, path, "--format", fmt] + (["--out", str(out_path)] if out else [])
    code, stdout, err = run(capsys, *argv)
    assert (code, stdout) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out_path.exists()


def test_usage_errors_exit_two(capsys):
    assert run(capsys)[0] == 2
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys, "dual")[0] == 2  # missing required direction


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


# ----------------------------------------------------------------- routing

# Positional arguments that parse for each command; the files need not exist.
PARSED_ARGV = {
    "validate-qls": ["g.json"],
    "validate-hadamard": ["h.json"],
    "check-weak-orth": ["q.json", "p.json"],
    "check-orth": ["a.json", "b.json"],
    "check-left-orth": ["a.json", "b.json"],
    "left-conj": ["a.json"],
    "build-meb": ["g.json", "f.json"],
    "build-lbw": ["a.json", "h.json"],
    "check-mub": ["a.json", "b.json"],
    "dual": ["--to-ueb", "b.json"],
    "check-ueb": ["u.json"],
    "check-mu-ueb": ["u.json", "v.json"],
    "monomial-obstruction": ["u.json"],
    "fixtures": ["emit", "paper-P"],
    "search": ["latin", "3"],
    "reproduce-appendix-c": [],
}
WITHOUT_TOL = ("check-orth", "check-left-orth", "left-conj", "fixtures", "search")
# The commutator sweep's thread count, removed with its thread pool.
REMOVED_OPTION = "--jobs"


@pytest.mark.parametrize("fmt", ["text", "json-report"])
@pytest.mark.parametrize(
    "case", ["build-meb grid rejection", "build-lbw rejection", "dual to-meb rejection"]
)
def test_rejected_artifact_reports_on_stdout_and_writes_no_file(
    pinned_files, tmp_path, capsys, case, fmt
):
    argv, code, text, _ = pinned(case, pinned_files)
    out_path = tmp_path / "artifact.json"
    got, out, _ = run(capsys, *argv, "--out", str(out_path), "--format", fmt)
    assert (got, out_path.exists()) == (code, False)
    if fmt == "text":
        assert out == text
    else:
        doc = json.loads(out)
        assert set(doc) == {"command", "ok", "reason"}
        assert doc["command"] == argv[0] and doc["ok"] is False
        assert out == serialize.dumps(doc)


@pytest.mark.parametrize("fmt", ["text", "json-report"])
@pytest.mark.parametrize("case", ["check-orth pass", "check-orth violation"])
def test_report_goes_to_out_and_nothing_to_stdout(pinned_files, tmp_path, capsys, case, fmt):
    argv, code, text, _ = pinned(case, pinned_files)
    out_path = tmp_path / "report.txt"
    assert run(capsys, *argv, "--out", str(out_path), "--format", fmt) == (code, "", "")
    if fmt == "json-report":
        text = serialize.dumps({"command": "check-orth", "ok": code == 0, "n": 3})
    assert out_path.read_text() == text


@pytest.mark.parametrize("argv, target", [
    (["fixtures", "emit", "paper-P"], "missing/x.json"),  # the artifact's write
    (["reproduce-appendix-c"], "folder"),  # the report's write
])
def test_an_out_path_that_cannot_be_written_exits_two(tmp_path, capsys, argv, target):
    (tmp_path / "folder").mkdir()
    before = sorted(tmp_path.rglob("*"))
    path = str(tmp_path / target)
    code, out, err = run(capsys, *argv, "--out", path)
    assert_error_exit(code, out, err)
    assert err.startswith(f"error: cannot write {path}: ")
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("cause", [errno.ENOSPC, errno.EPIPE], ids=["full disk", "closed pipe"])
@pytest.mark.parametrize("failing", ["write", "flush"])
@pytest.mark.parametrize("argv", [["search", "latin", "3"], ["fixtures", "emit", "paper-P"]])
def test_a_stdout_that_cannot_be_written_exits_two(monkeypatch, argv, failing, cause):
    """A full disk or a closed pipe at stdout, for a report and for an artifact."""

    def broken(*_):
        raise OSError(cause, os.strerror(cause))  # a closed pipe is a BrokenPipeError

    stdout, err = type("Stdout", (io.StringIO,), {})(), io.StringIO()
    monkeypatch.setattr(stdout, failing, broken)
    with redirect_stdout(stdout), redirect_stderr(err):
        code = main(argv)
    assert code == 2
    assert err.getvalue() == f"error: cannot write stdout: [Errno {cause}] {os.strerror(cause)}\n"


# The two input kinds of every command that reads two objects of one order.
PAIRED_INPUTS = {
    "build-meb": ("grid", "family"),
    "build-lbw": ("latin", "matrix"),
    "check-mub": ("basis", "basis"),
    "check-mu-ueb": ("ueb", "ueb"),
    "check-weak-orth": ("grid", "grid"),
    "check-orth": ("latin", "latin"),
}


@pytest.mark.parametrize("fmt", ["text", "json-report"])
@pytest.mark.parametrize("command", sorted(PAIRED_INPUTS))
def test_order_mismatch_of_two_valid_inputs_exits_two(tmp_path, capsys, command, fmt):
    first, second = PAIRED_INPUTS[command]
    order3, order2 = files_of_order(tmp_path, 3), files_of_order(tmp_path, 2)
    # the same files at one order parse and reach a verdict
    assert run(capsys, command, order3[first], order3[second])[0] in (0, 1)
    code, out, err = run(capsys, command, order3[first], order2[second], "--format", fmt)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "mismatch" in err and err.count("\n") == 1


@pytest.mark.parametrize("command", sorted(PARSED_ARGV))
def test_thread_count_option_is_gone(capsys, command):
    code, out, err = run(capsys, command, *PARSED_ARGV[command], REMOVED_OPTION, "2")
    assert code == 2 and out == ""
    assert f"unrecognized arguments: {REMOVED_OPTION} 2" in err


@pytest.mark.parametrize("command", sorted(PARSED_ARGV))
def test_tol_only_where_a_command_reads_it(capsys, command):
    given = PARSED_ARGV[command]
    argv = [command, *given, "--tol", "0.5"]
    if command in WITHOUT_TOL:
        # every search compares integer tables, lemma16's 0/1 products too
        searches = [["search", what, "3"] for what in ("latin", "orth-pairs", "lemma16")]
        for refused in searches if command == "search" else [[command, *given]]:
            code, out, err = run(capsys, *refused, "--tol", "0.5")
            assert code == 2 and out == ""
            assert err.endswith("error: unrecognized arguments: --tol 0.5\n")
        return
    assert build_parser().parse_args(argv).tol == 0.5
    assert build_parser().parse_args([*argv[:-1], "0"]).tol == 0.0
    # a NaN, negative or infinite tolerance is a usage error, never a verdict
    for bad in ("nan", "-1", "inf"):
        code, out, err = run(capsys, command, *given, "--tol", bad)
        assert code == 2 and out == ""
        assert f"argument --tol: must be finite and >= 0, got '{bad}'" in err
    code, out, err = run(capsys, command, *given, "--tol", "abc")
    assert code == 2 and out == ""
    assert "argument --tol: invalid float value: 'abc'" in err


# ------------------------------------------------------------ pinned texts


@pytest.fixture(scope="module")
def pinned_files(tmp_path_factory):
    return pinned_inputs(tmp_path_factory.mktemp("pinned"))


def pinned(case, paths):
    """``PINNED_TEXT[case]`` with the placeholders of its argv filled from ``paths``."""
    template, *rest = PINNED_TEXT[case]
    return [arg.format_map(paths) for arg in template], *rest


def obstruction_text(path):
    """``monomial-obstruction``'s text on the UEB at ``path``, from the library's report."""
    rep = monomial_obstruction(validate_ueb(serialize.read(path, "matrix-list")))
    bound = f"noise bound {rep.noise_bound:.3e}"
    verdict = (
        f"OBSTRUCTED: not equivalent to a monomial basis ({bound})"
        if rep.obstructed
        else f"no obstruction proved: worst norm is within the {bound}"
    )
    return (
        f"mu {rep.mu}, normalizer {rep.normalizer_index}: worst commutator "
        f"|[U^mu, V^mu]|_F = {rep.worst_norm:.6g} at pair {rep.worst_pair}\n{verdict}\n"
    )


def test_every_command_has_a_pinned_row():
    (commands,) = (a.choices for a in build_parser()._actions if a.dest == "command")
    assert set(commands) == {template[0] for template, *_ in PINNED_TEXT.values()}


@pytest.mark.parametrize("case", sorted(PINNED_TEXT))
def test_text_rendering_is_pinned(pinned_files, capsys, case):
    argv, code, text, _ = pinned(case, pinned_files)
    if text is None:  # the obstruction's numbers come from the library's own report
        text = obstruction_text(argv[1])
    assert run(capsys, *argv) == (code, text.format_map(pinned_files), "")


@pytest.mark.parametrize("case", sorted(PINNED_TEXT))
def test_a_json_report_has_its_pinned_keys(pinned_files, capsys, case):
    argv, code, _, keys = pinned(case, pinned_files)
    got, out, err = run(capsys, *argv, "--format", "json-report")
    doc = json.loads(out)
    assert (got, err, doc["command"], doc["ok"]) == (code, "", argv[0], code == 0)
    keys = dict(key.partition("=")[::2] for key in keys.split())
    assert sorted(doc) == sorted(["command", "ok", *keys])
    values = {key: json.loads(value) for key, value in keys.items() if value}
    assert {key: doc[key] for key in values} == values
    assert out == json.dumps(doc, sort_keys=True, indent=2) + "\n"


# json-reports on inputs no pinned row reads, each with a piece of its text
# that shows how the stdlib spells it: a null, and an escaped non-ASCII character
JSON_REPORTS = {
    "monomial-obstruction overflowed bound": (
        ["monomial-obstruction", "{scaled}", "--tol", "20"], '"noise_bound": null,'
    ),
    "a rejection naming a non-ASCII path": (
        ["check-mu-ueb", "{short_é}", "{ueb_a}"], 'short_\\u00e9.json: member stack'
    ),
}


@pytest.mark.parametrize("case", sorted(JSON_REPORTS))
def test_a_json_report_is_the_stdlib_text(pinned_files, tmp_path, capsys, case):
    template, piece = JSON_REPORTS[case]
    paths = dict(pinned_files)
    members = serialize.read(paths["obstructed"], "matrix-list")
    # valid only at a loose tol
    paths["scaled"] = write(tmp_path, "scaled.json", "matrix-list", 1.5 * members)
    paths["short_é"] = shutil.copy(paths["short"], tmp_path / "short_é.json")
    code, out, err = run(capsys, *[arg.format_map(paths) for arg in template], "--format", "json-report")
    assert code in (0, 1) and err == "" and piece in out
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


def read_ueb(path):
    return validate_ueb(serialize.read(path, "matrix-list"))


# The library call behind each check command, on the command's arguments
CHECK_CALLS = {
    "validate-qls": lambda path: validate_qls(serialize.read(path, "grid")),
    "validate-hadamard": lambda path: validate_hadamard(serialize.read(path, "matrix")),
    "check-weak-orth": lambda q, p: weak_orth_witness(*(serialize.read(x, "grid") for x in (q, p))),
    "check-ueb": read_ueb,
    "check-mub": lambda a, b: check_mub(*(serialize.read(x, "basis") for x in (a, b))),
    "check-mu-ueb": lambda a, b: check_mu_ueb(read_ueb(a), read_ueb(b)),
    "monomial-obstruction": lambda path: monomial_obstruction(read_ueb(path)),
    "search": lambda what, order: cross_validate_lemma16(int(order)),
}
# The inputs each failing check command's json-report holds beside its record's fields
FAILING_INPUTS = {
    "validate-qls": "n tol",
    "validate-hadamard": "n tol",
    "check-weak-orth": "n tol",
    "check-ueb": "tol",
    "check-mub": "",
    "check-mu-ueb": "",
    "monomial-obstruction": "",
}
PAYLOADS = {"grid", "mat", "members"}  # record fields a json-report leaves out
# The PINNED_TEXT cases a check result reports, pass and violation
CHECK_RESULT_CASES = ["search lemma16"] + [
    case for case in sorted(PINNED_TEXT)
    if case.split()[0] in CHECK_CALLS and case.split()[-1] in ("pass", "violation")
]


@pytest.mark.parametrize("case", CHECK_RESULT_CASES)
def test_a_check_result_judges_and_renders_itself(pinned_files, case):
    argv, code, text, _ = pinned(case, pinned_files)
    result = CHECK_CALLS[argv[0]](*argv[1:])
    assert result.ok is (code == 0)
    assert "ok" not in {f.name for f in fields(result)}  # a verdict, never a report field
    text = obstruction_text(argv[1]) if text is None else text
    assert text == f"{result}\n" or text.endswith(f": {result}\n")  # after a prefix


@pytest.mark.parametrize("command", sorted(FAILING_INPUTS))
def test_failing_json_report_is_the_command_keys_and_the_record_fields(
    pinned_files, capsys, command
):
    argv = pinned(f"{command} violation", pinned_files)[0]
    doc = json.loads(run(capsys, *argv, "--format", "json-report")[1])
    # the report keys are the command's inputs and every field of the record but a payload
    record = {f.name for f in fields(CHECK_CALLS[command](*argv[1:]))} - PAYLOADS
    assert set(doc) == {"command", "ok", *FAILING_INPUTS[command].split()} | record


# ------------------------------------------------------------ parser reuse


@pytest.mark.parametrize("argv", [
    ["search", "latin", "3"],
    ["fixtures", "emit", "paper-P"],
    ["reproduce-appendix-c", "--format", "json-report"],
])
def test_a_call_leaves_no_argparse_object_to_the_cyclic_collector(capsys, argv):
    run(capsys, *argv)  # builds the shared parser
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert run(capsys, *argv)[0] == 0
        gc.collect()
        left = {type(obj).__qualname__ for obj in gc.garbage if type(obj).__module__ == "argparse"}
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert not left


@pytest.fixture(scope="module")
def null_bearing_files(tmp_path_factory):
    """A matrix-list failing the UEB axioms, and paper-P's UEB scaled by 1.5:
    its noise bound overflows at --tol 20, so its sweep is skipped."""
    tmp_path = tmp_path_factory.mktemp("nulls")
    x, z = np.array([[0, 1], [1, 0]]), np.diag([1, -1])
    members = paper_ueb().members
    return {
        "non-unitary": write(
            tmp_path, "non-unitary.json", "matrix-list", [np.eye(2), x, z, 0.5 * x @ z]
        ),
        "scaled": write(tmp_path, "scaled.json", "matrix-list", 1.5 * members),
    }


@pytest.mark.parametrize("argv", [
    ["reproduce-appendix-c"],
    ["search", "lemma16", "3"],
    ["check-ueb", "{non-unitary}"],  # "pair": null
    ["monomial-obstruction", "{scaled}", "--tol", "20"],  # the skipped sweep's nulls
])
def test_a_json_report_leaves_nothing_to_the_cyclic_collector(null_bearing_files, capsys, argv):
    argv = [arg.format_map(null_bearing_files) for arg in argv] + ["--format", "json-report"]
    run(capsys, *argv)  # builds the shared parser
    gc.collect()
    flags, before = gc.get_debug(), len(gc.garbage)
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        code, out, err = run(capsys, *argv)
        gc.collect()
        left = [type(obj).__qualname__ for obj in gc.garbage[before:]]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert code in (0, 1) and err == "" and left == []
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


def test_a_tolerance_does_not_outlive_its_call(capsys):
    report = ["reproduce-appendix-c", "--format", "json-report"]
    assert json.loads(run(capsys, *report, "--tol", "0.5")[1])["tol"] == 0.5
    assert json.loads(run(capsys, *report)[1])["tol"] == DEFAULT_TOL


# calls, each with its exit code and a piece of its stdout or stderr, in the
# order they run; each must give what it gives on a parser of its own
CALL_SEQUENCES = {
    "dual both ways": [
        (["dual", "--to-ueb", "{basis}", "--out", "{out}"], 0, "extracted 9 unitaries of order 3\n"),
        (["dual", "--to-meb", "{ueb}"], 0, '"kind": "basis"'),
        (["dual", "--to-ueb", "{product}"], 1, "FAILED: state is not maximally entangled"),
    ],
    "usage errors, help, then a command": [
        ([], 2, "error: the following arguments are required: command\n"),
        (["no-such-command"], 2, "invalid choice: 'no-such-command'"),
        (["dual"], 2, "error: one of the arguments --to-ueb --to-meb is required\n"),
        (["check-mub", "{basis_a}"], 2, "error: the following arguments are required: basis_b\n"),
        (["dual", "--to-ueb", "{basis}", "--to-meb", "{ueb}"], 2, "not allowed with argument"),
        (["check-mub", "{basis_a}", "{basis_b}", "--tol", "nan"], 2, "must be finite and >= 0"),
        (["search", "latin", "9"], 2, "error: order 9 out of range 1..6\n"),
        (["--help"], 0, "usage: qlsmub [-h]"),
        (["dual", "--help"], 0, "usage: qlsmub dual [-h]"),
        (["search", "--help"], 0, "1..6; 1..5 for lemma16"),
        (["search", "orth-pairs", "3"], 0, "order 3: 72 ordered orthogonal pairs\n"),
    ],
}


@pytest.mark.parametrize("case", sorted(CALL_SEQUENCES))
def test_calls_on_the_shared_parser_match_calls_on_fresh_ones(pinned_files, capsys, case):
    calls = [[arg.format_map(pinned_files) for arg in argv] for argv, _, _ in CALL_SEQUENCES[case]]
    shared = [run(capsys, *argv) for argv in calls]
    for (code, out, err), (_, expected, piece) in zip(shared, CALL_SEQUENCES[case]):
        assert code == expected and piece in out + err
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert shared == fresh


# every command that reads input files, with the input each argument names
READERS = {
    "validate-qls": ["grid"],
    "validate-hadamard": ["matrix"],
    "check-weak-orth": ["grid", "grid"],
    "check-orth": ["latin", "latin"],
    "check-left-orth": ["latin", "latin"],
    "left-conj": ["latin"],
    "build-meb": ["grid", "family"],
    "build-lbw": ["latin", "matrix"],
    "check-mub": ["basis", "basis"],
    "dual --to-ueb": ["basis"],
    "dual --to-meb": ["ueb"],
    "check-ueb": ["ueb"],
    "check-mu-ueb": ["ueb", "ueb"],
    "monomial-obstruction": ["ueb"],
}
DAMAGES = ["edited", "another document", "truncated", "empty", "wrong kind", "huge header",
           "scaled"]


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """The folder for a damaged input, and ``files_of_order`` for orders 1..4."""
    folder = tmp_path_factory.mktemp("inputs")
    return folder, {n: files_of_order(folder, n) for n in range(1, 5)}


def damaged(data, path) -> bytes:
    """The text of the valid document at ``path``, damaged one way."""
    with open(path, "rb") as fh:
        text = fh.read()
    doc = listed(serialize.load_path(path))
    schema = serialize.SCHEMAS[doc["kind"]]
    damage = data.draw(st.sampled_from(DAMAGES))
    if damage == "edited":
        doc = data.draw(mutated_documents(st.just(doc)))
    elif damage == "another document":
        doc = data.draw(mutated_documents())
    elif damage == "truncated":
        return text[:data.draw(st.integers(1, len(text) - 1))]
    elif damage == "empty":
        return b""
    elif damage == "wrong kind":
        doc["kind"] = data.draw(st.sampled_from(sorted(set(serialize.SCHEMAS) - {doc["kind"]})))
    elif damage == "huge header":
        doc[data.draw(st.sampled_from(schema.axes))] = data.draw(st.sampled_from([10**6, 2**70]))
    else:
        scale = data.draw(st.sampled_from([1e200, 1e-320, 1.7976931348623157e308]))
        with np.errstate(over="ignore"):  # latin cells of 2 and up overflow to inf
            doc[schema.payload] = (np.array(doc[schema.payload]) * scale).tolist()
    return json.dumps(doc).encode()  # NaN and Infinity tokens too, which must be refused


def call(argv):
    """``main(argv)``'s exit code, stdout and stderr, captured without
    ``capsys``, which a hypothesis test cannot take."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.filterwarnings("error::RuntimeWarning")  # numpy's warnings would reach stderr
@settings(max_examples=200, deadline=None, database=None)
@given(data=st.data())
def test_a_damaged_input_never_crashes_the_cli(valid_inputs, data):
    """Every reading command, given one damaged input beside valid ones of
    order n <= 4, exits 0 or 1 with nothing on stderr and a strict
    json-report, or 2 with one error line and nothing on stdout."""
    folder, files = valid_inputs
    command = data.draw(st.sampled_from(sorted(READERS)))
    n = data.draw(st.integers(1, 4))
    paths = [files[n][name] for name in READERS[command]]
    bad = data.draw(st.integers(0, len(paths) - 1))
    paths[bad] = str(folder / "damaged.json")
    with open(paths[bad], "wb") as fh:
        fh.write(damaged(data, files[n][READERS[command][bad]]))
    for fmt in ("text", "json-report"):
        code, out, err = call([*command.split(), *paths, "--format", fmt])
        if code == 2:
            assert_error_exit(code, out, err)
        else:
            assert code in (0, 1) and err == ""
            if fmt == "json-report":
                strict_json(out)

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
from qlsmub.bases import check_mub, qls_meb
from qlsmub.cli import build_parser, main
from qlsmub.fixtures import fixture, hadamard_9_corrected
from qlsmub.hadamard import constant_family, fourier, validate_hadamard
from qlsmub.numerics import DEFAULT_TOL
from qlsmub.search import cross_validate_lemma16
from qlsmub.squares import (
    LatinSquare,
    VectorGrid,
    computational_grid,
    left_conjugate,
    validate_qls,
    weak_orth_witness,
)
from qlsmub.ueb import (
    check_mu_ueb,
    monomial_obstruction,
    shift_multiply_ueb,
    validate_ueb,
)

from helpers import (
    PAPER_P_WORST_PAIR,
    assert_is_the_oracle,
    force_the_perm_route,
    listed,
    mutated_documents,
    paper_ueb,
    reference_lemma16,
)

CYCLIC3 = LatinSquare([[(r + c) % 3 for c in range(3)] for r in range(3)])
TWISTED3 = LatinSquare([[(r + 2 * c) % 3 for c in range(3)] for r in range(3)])


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_latin(tmp_path, name, latin):
    path = str(tmp_path / name)
    serialize.save_path(path, serialize.to_doc("latin", latin.cells))
    return path


def write_grid(tmp_path, name, grid):
    path = str(tmp_path / name)
    serialize.save_path(path, serialize.to_doc("grid", grid.array))
    return path


def write_matrix(tmp_path, name, mat):
    path = str(tmp_path / name)
    serialize.save_path(path, serialize.to_doc("matrix", mat))
    return path


def write_family(tmp_path, name, mats):
    path = str(tmp_path / name)
    serialize.save_path(path, serialize.to_doc("matrix-list", mats))
    return path


def write_ueb(tmp_path, name, members):
    path = str(tmp_path / name)
    serialize.save_path(path, serialize.to_doc("matrix-list", members))
    return path


@pytest.fixture
def order3(tmp_path):
    """File bundle for the order-3 weakly orthogonal pair."""
    f3 = fourier(3).mat
    names = {
        "grid_a": write_grid(
            tmp_path, "ga.json", computational_grid(left_conjugate(CYCLIC3))
        ),
        "grid_b": write_grid(
            tmp_path, "gb.json", computational_grid(left_conjugate(TWISTED3))
        ),
        "family": write_family(tmp_path, "fam.json", [f3, f3, f3]),
        "latin": write_latin(tmp_path, "latin.json", CYCLIC3),
        "matrix": write_matrix(tmp_path, "f3.json", f3),
        "dir": tmp_path,
    }
    return names


# -------------------------------------------------------------- validation


def test_validate_qls_pass_and_fail(tmp_path, capsys):
    good = write_grid(tmp_path, "p.json", fixture("paper-P"))
    code, out, _ = run(capsys, "validate-qls", good)
    assert code == 0
    assert "valid quantum Latin square of order 9" in out

    bad = write_grid(tmp_path, "pp.json", fixture("paper-P-printed"))
    code, out, _ = run(capsys, "validate-qls", bad)
    assert code == 1
    assert "INVALID" in out and "row 6" in out


def test_validate_qls_json_report(tmp_path, capsys):
    good = write_grid(tmp_path, "p.json", fixture("paper-P"))
    code, out, _ = run(capsys, "validate-qls", good, "--format", "json-report")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True and doc["n"] == 9
    assert out == serialize.dumps(doc)  # canonical rendering


def test_validate_hadamard(tmp_path, capsys):
    good = write_matrix(tmp_path, "h.json", hadamard_9_corrected().mat)
    code, out, _ = run(capsys, "validate-hadamard", good)
    assert code == 0 and "valid complex Hadamard" in out

    bad = write_matrix(tmp_path, "hp.json", fixture("hadamard-9-printed"))
    code, out, _ = run(capsys, "validate-hadamard", bad)
    assert code == 1
    assert "row-orthogonality" in out and "(3, 4)" in out


def test_text_reports_show_the_gram_deviation(tmp_path, capsys):
    # every defect is 2e-8, which the six-digit value alone would hide
    eps = 2e-8
    arr = computational_grid(CYCLIC3).array.copy()
    arr[1, 2] *= np.sqrt(1 + eps)
    grid = write_grid(tmp_path, "g.json", VectorGrid(arr))
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
    code, out, _ = run(capsys, "validate-hadamard", write_matrix(tmp_path, "h.json", mat))
    assert code == 1 and out.startswith("INVALID: row-orthogonality violated: rows (0, 1)")
    assert out.endswith("expected n on the diagonal and 0 off it (off by 2.000e-08)\n")

    x, z = np.array([[0, 1], [1, 0]], dtype=complex), np.diag([1.0, -1.0]).astype(complex)
    pauli = np.stack([np.diag([np.exp(1j * eps), 1]), x, z, x @ z])
    code, out, _ = run(capsys, "check-ueb", write_ueb(tmp_path, "u.json", pauli))
    assert code == 1 and out.startswith("INVALID: members (0, 2): tr(U*V) = ")
    assert out.endswith("(off by 2.000e-08)\n")
    # the json-report carries the measured defect too; tr(U0* Z) = exp(-i eps) - 1
    scaled = np.stack([np.eye(2) * np.sqrt(1 + eps), x, z, x @ z])  # U0* U0 = (1 + eps) I
    for members, value in ((pauli, [0.0, -eps]), (scaled, [1 + eps, 0.0])):
        path = write_ueb(tmp_path, "u.json", members)
        code, out, _ = run(capsys, "check-ueb", path, "--format", "json-report")
        doc = json.loads(out)
        assert code == 1
        assert doc["off_by"] == pytest.approx(eps, abs=1e-15)
        assert doc["value"] == pytest.approx(value, abs=1e-15)

    mat = fourier(3).mat.copy()
    mat[1, 2] *= 1 + eps
    code, out, _ = run(capsys, "validate-hadamard", write_matrix(tmp_path, "m.json", mat))
    assert (code, out) == (
        1,
        "INVALID: unimodular violated: entry (1, 2) has modulus 1, expected 1 "
        "(off by 2.000e-08)\n",
    )

    arr = computational_grid(left_conjugate(CYCLIC3)).array.copy()
    arr[0, 0] *= 1 + eps
    first = write_grid(tmp_path, "q.json", VectorGrid(arr))
    second = write_grid(tmp_path, "p.json", computational_grid(left_conjugate(TWISTED3)))
    code, out, _ = run(capsys, "check-weak-orth", first, second)
    assert (code, out) == (
        1,
        "NOT weakly orthogonal: rows (0, 0): column 0 product 1+0j (stray-value) "
        "(off by 2.000e-08)\n",
    )


def test_check_weak_orth(tmp_path, capsys):
    q = write_grid(tmp_path, "q.json", fixture("paper-Q"))
    p = write_grid(tmp_path, "p.json", fixture("paper-P"))
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
    q = write_grid(tmp_path, "q.json", VectorGrid(first))
    p = write_grid(tmp_path, "p.json", VectorGrid(second))
    for tol in ("0.5", "0.6", "1"):
        for fmt in ("text", "json-report"):
            code, out, err = run(capsys, "check-weak-orth", q, p, "--tol", tol, "--format", fmt)
            assert_error_exit(code, out, err)
            assert err == f"error: check-weak-orth needs --tol below 0.5, got {float(tol):g}\n"
    assert run(capsys, "check-weak-orth", q, p, "--tol", "0.4999")[0] == 1


def test_check_orth_and_left_orth(tmp_path, capsys):
    a = write_latin(tmp_path, "a.json", CYCLIC3)
    b = write_latin(tmp_path, "b.json", TWISTED3)
    la = write_latin(tmp_path, "la.json", left_conjugate(CYCLIC3))
    lb = write_latin(tmp_path, "lb.json", left_conjugate(TWISTED3))

    assert run(capsys, "check-orth", a, b)[0] == 0
    assert run(capsys, "check-orth", a, a)[0] == 1
    assert run(capsys, "check-left-orth", la, lb)[0] == 0
    assert run(capsys, "check-left-orth", a, a)[0] == 1


# --------------------------------------------------------------- artifacts


def test_left_conj_twice_restores_the_file(tmp_path, capsys):
    original = write_latin(tmp_path, "sq.json", TWISTED3)
    once = str(tmp_path / "once.json")
    twice = str(tmp_path / "twice.json")
    assert run(capsys, "left-conj", original, "--out", once)[0] == 0
    assert run(capsys, "left-conj", once, "--out", twice)[0] == 0
    assert (tmp_path / "twice.json").read_bytes() == (tmp_path / "sq.json").read_bytes()


def test_left_conj_to_stdout(tmp_path, capsys):
    original = write_latin(tmp_path, "sq.json", CYCLIC3)
    code, out, _ = run(capsys, "left-conj", original)
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


def test_build_meb_check_mub_flow(order3, capsys):
    tmp = order3["dir"]
    basis_a = str(tmp / "basis_a.json")
    basis_b = str(tmp / "basis_b.json")
    code, out, _ = run(
        capsys, "build-meb", order3["grid_a"], order3["family"], "--out", basis_a
    )
    assert code == 0 and "built 9 states" in out
    code, _, _ = run(
        capsys, "build-meb", order3["grid_b"], order3["family"], "--out", basis_b
    )
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
    printed = write_grid(tmp_path, "pp.json", fixture("paper-P-printed"))
    f9 = write_family(tmp_path, "f9.json", [hadamard_9_corrected().mat] * 9)
    code, out, _ = run(capsys, "build-meb", printed, f9)
    assert code == 1 and "INVALID grid" in out

    good = write_grid(tmp_path, "p.json", fixture("paper-P"))
    bad_family = write_family(
        tmp_path, "badfam.json", [hadamard_9_corrected().mat] * 8 + [np.eye(9)]
    )
    code, out, _ = run(capsys, "build-meb", good, bad_family)
    assert code == 1 and "INVALID family" in out


def test_build_lbw(order3, capsys):
    tmp = order3["dir"]
    basis = str(tmp / "lbw.json")
    code, out, _ = run(
        capsys, "build-lbw", order3["latin"], order3["matrix"], "--out", basis
    )
    assert code == 0 and "built 9 states" in out
    built = serialize.read(basis, "basis")
    assert built.n == 3 and built.states.shape == (9, 9)

    not_hadamard = write_matrix(tmp, "nh.json", np.eye(3))
    code, out, _ = run(capsys, "build-lbw", order3["latin"], not_hadamard)
    assert code == 1 and "INVALID matrix" in out

    not_square = write_matrix(tmp, "ns.json", np.ones((2, 3)))
    code, out, _ = run(capsys, "build-lbw", order3["latin"], not_square)
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


def test_dual_round_trip_via_files(order3, capsys):
    tmp = order3["dir"]
    basis = str(tmp / "basis.json")
    ueb = str(tmp / "ueb.json")
    back = str(tmp / "back.json")
    run(capsys, "build-meb", order3["grid_a"], order3["family"], "--out", basis)

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
    path = write_ueb(tmp_path, "short.json", members)
    code, out, _ = run(capsys, "check-ueb", path)
    assert code == 1 and "INVALID" in out


def test_check_mu_ueb(order3, capsys):
    tmp = order3["dir"]
    f3 = fourier(3)
    fam = constant_family(f3)
    ua = shift_multiply_ueb(
        validate_qls(computational_grid(left_conjugate(CYCLIC3))), fam
    )
    ub = shift_multiply_ueb(
        validate_qls(computational_grid(left_conjugate(TWISTED3))), fam
    )
    pa = write_ueb(tmp, "ua.json", ua.members)
    pb = write_ueb(tmp, "ub.json", ub.members)

    code, out, _ = run(capsys, "check-mu-ueb", pa, pb, "--format", "json-report")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert abs(doc["raw_trace_sq_max"] - 1.0) < 1e-9

    assert run(capsys, "check-mu-ueb", pa, pa)[0] == 1


# ------------------------------------------------------------- obstruction


def test_monomial_obstruction_exit_codes(tmp_path, capsys):
    obstructed = write_ueb(tmp_path, "obs.json", paper_ueb().members)
    code, out, _ = run(capsys, "monomial-obstruction", obstructed)
    assert code == 1
    assert str(PAPER_P_WORST_PAIR) in out
    verdict = r"\nOBSTRUCTED: not equivalent to a monomial basis \(noise bound \d\.\d{3}e-\d+\)\n$"
    assert re.search(verdict, out)

    clean = shift_multiply_ueb(
        validate_qls(computational_grid(CYCLIC3)), constant_family(fourier(3))
    )
    clean_path = write_ueb(tmp_path, "clean.json", clean.members)
    code, out, _ = run(capsys, "monomial-obstruction", clean_path)
    assert code == 0
    verdict = r"\nno obstruction proved: worst norm is within the noise bound \d\.\d{3}e-\d+\n$"
    assert re.search(verdict, out)


def test_monomial_obstruction_with_an_infinite_noise_bound_skips_the_sweep(tmp_path, capsys):
    members = 1.5 * paper_ueb().members
    path = write_ueb(tmp_path, "scaled.json", members)  # valid only at a loose tol
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
    ueb = write_ueb(tmp_path, "big-ueb.json", 1e200 * np.ones((4, 2, 2), dtype=complex))
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
    one = write_grid(tmp_path, "one.json", VectorGrid(np.ones((1, 1, 1))))
    stray = write_grid(tmp_path, "z.json", VectorGrid(np.full((1, 1, 1), z)))
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
    path = write_ueb(tmp_path, "one.json", np.ones((1, 1, 1), dtype=complex))
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

    wrong_kind = write_latin(tmp_path, "latin.json", CYCLIC3)
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
    "command, label",
    [
        ("build-meb", "INVALID grid"),
        ("build-lbw", "INVALID matrix"),
        ("dual", "INVALID unitary error basis"),
    ],
)
def test_rejected_artifact_reports_on_stdout_and_writes_no_file(
    order3, capsys, command, label, fmt
):
    tmp = order3["dir"]
    if command == "build-meb":
        argv = [write_grid(tmp, "pp.json", fixture("paper-P-printed")), order3["family"]]
    elif command == "build-lbw":
        argv = [order3["latin"], write_matrix(tmp, "nh.json", np.eye(3))]
    else:
        short = np.stack([np.eye(2, dtype=complex)] * 3)
        argv = ["--to-meb", write_ueb(tmp, "short.json", short)]
    out_path = tmp / "artifact.json"
    code, out, _ = run(capsys, command, *argv, "--out", str(out_path), "--format", fmt)
    assert code == 1
    assert not out_path.exists()
    if fmt == "text":
        assert out.startswith(label + ": ") and out.count("\n") == 1
    else:
        doc = json.loads(out)
        assert set(doc) == {"command", "ok", "reason"}
        assert doc["command"] == command and doc["ok"] is False
        assert out == serialize.dumps(doc)


@pytest.mark.parametrize("fmt", ["text", "json-report"])
@pytest.mark.parametrize("second, code", [(TWISTED3, 0), (CYCLIC3, 1)])
def test_report_goes_to_out_and_nothing_to_stdout(tmp_path, capsys, second, code, fmt):
    a = write_latin(tmp_path, "a.json", CYCLIC3)
    b = write_latin(tmp_path, "b.json", second)
    out_path = tmp_path / "report.txt"
    result = run(capsys, "check-orth", a, b, "--out", str(out_path), "--format", fmt)
    assert result == (code, "", "")
    if fmt == "text":
        expected = "orthogonal\n" if code == 0 else "NOT orthogonal: repeated ordered symbol pair\n"
    else:
        expected = serialize.dumps({"command": "check-orth", "ok": code == 0, "n": 3})
    assert out_path.read_text() == expected


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


def files_of_order(tmp_path, n):
    """One well-formed input file of each kind, all of order n."""
    latin = LatinSquare([[(r + c) % n for c in range(n)] for r in range(n)])
    f = fourier(n)
    qls, family = validate_qls(computational_grid(latin)), constant_family(f)
    basis = str(tmp_path / f"basis{n}.json")
    serialize.save_path(basis, serialize.to_doc("basis", qls_meb(qls, family).states))
    return {
        "grid": write_grid(tmp_path, f"grid{n}.json", qls.grid),
        "family": write_family(tmp_path, f"family{n}.json", [f.mat] * n),
        "latin": write_latin(tmp_path, f"latin{n}.json", latin),
        "matrix": write_matrix(tmp_path, f"matrix{n}.json", f.mat),
        "basis": basis,
        "ueb": write_ueb(tmp_path, f"ueb{n}.json", shift_multiply_ueb(qls, family).members),
    }


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
    """Order-3 inputs of every kind, plus the partners that make each check pass."""
    tmp_path = tmp_path_factory.mktemp("pinned")
    paths = files_of_order(tmp_path, 3)
    fam = constant_family(fourier(3))
    conj = {"a": left_conjugate(CYCLIC3), "b": left_conjugate(TWISTED3)}
    for key, latin in conj.items():
        qls = validate_qls(computational_grid(latin))
        paths[f"grid_{key}"] = write_grid(tmp_path, f"grid_{key}.json", qls.grid)
        paths[f"left_{key}"] = write_latin(tmp_path, f"left_{key}.json", latin)
        paths[f"basis_{key}"] = str(tmp_path / f"basis_{key}.json")
        states, members = qls_meb(qls, fam).states, shift_multiply_ueb(qls, fam).members
        serialize.save_path(paths[f"basis_{key}"], serialize.to_doc("basis", states))
        paths[f"ueb_{key}"] = write_ueb(tmp_path, f"ueb_{key}.json", members)
    paths["twisted"] = write_latin(tmp_path, "twisted.json", TWISTED3)
    paths["product"] = str(tmp_path / "product.json")
    serialize.save_path(paths["product"], serialize.to_doc("basis", np.eye(4, dtype=complex)))
    paths["short"] = write_ueb(tmp_path, "short.json", np.stack([np.eye(2, dtype=complex)] * 3))
    f3 = fourier(3).mat
    paths["bad_family"] = write_family(tmp_path, "bad_family.json", [f3, f3, np.eye(3)])
    paths["short_family"] = write_family(tmp_path, "short_family.json", [f3, f3])
    # an input on which each check command finds a violation
    paths["validate-qls"] = write_grid(tmp_path, "pp.json", fixture("paper-P-printed"))
    paths["validate-hadamard"] = write_matrix(tmp_path, "eye.json", np.eye(3))
    paths["check-weak-orth"] = write_grid(tmp_path, "p.json", fixture("paper-P"))
    paths["check-ueb"] = write_ueb(tmp_path, "eyes.json", np.stack([np.eye(2)] * 4))
    paths["obstructed"] = write_ueb(tmp_path, "obs.json", paper_ueb().members)
    paths["out"] = str(tmp_path / "out.json")
    return paths


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


UEB_COUNT = "member stack is not n^2 square matrices of a single size"
UEB_TRACE = (
    "members (0, 1): tr(U*V) = 2+0j, expected n on the diagonal and 0 off it (off by 2.000e+00)"
)
QLS_ROW6 = "row 6 is not orthonormal: <v0|v1> = 0-0.92582j, expected 0.0 (off by 9.258e-01)"
EYE_ENTRY = "entry (0, 1) has modulus 0, expected 1 (off by 1.000e+00)"
NINTH = "0.111111111111"
MUB_KEYS = "dim max_dev max_sq mean_sq min_sq target tol"
OBSTRUCTION_KEYS = "mu noise_bound normalizer_index obstructed sample_entry worst_norm worst_pair"

# Each command's exact text (argv with {file} placeholders, exit code, stdout)
# for a pass and for its violation or rejection, and the keys of its
# json-report besides "command" and "ok", so that a change to a check record
# cannot add, drop or rename one unseen.
PINNED_TEXT = {
    "validate-qls pass": (
        ["validate-qls", "{grid}"], 0, "valid quantum Latin square of order 3 (tol 1e-09)\n",
        "n tol",
    ),
    "validate-qls violation": (
        ["validate-qls", "{validate-qls}"], 1, f"INVALID: {QLS_ROW6}\n",
        "index line n off_by pair tol value",
    ),
    "validate-hadamard pass": (
        ["validate-hadamard", "{matrix}"],
        0,
        "valid complex Hadamard matrix of order 3 (tol 1e-09)\n",
        "n tol",
    ),
    "validate-hadamard violation": (
        ["validate-hadamard", "{validate-hadamard}"],
        1,
        f"INVALID: unimodular violated: {EYE_ENTRY}\n",
        "constraint indices n off_by tol value",
    ),
    "check-weak-orth pass": (
        ["check-weak-orth", "{grid_a}", "{grid_b}"],
        0,
        "weakly orthogonal; witness table (rows of first vs rows of second):\n"
        "  0 1 2\n  2 0 1\n  1 2 0\n",
        "n table tol",
    ),
    "check-weak-orth violation": (
        ["check-weak-orth", "{check-weak-orth}", "{check-weak-orth}"],
        1,
        "NOT weakly orthogonal: rows (0, 0): column 1 product 1+0j (non-unique-unit) "
        "(off by 1.000e+00)\n",
        "column kind n off_by p_row q_row tol value",
    ),
    "check-orth pass": (["check-orth", "{latin}", "{twisted}"], 0, "orthogonal\n", "n"),
    "check-orth violation": (
        ["check-orth", "{latin}", "{latin}"], 1, "NOT orthogonal: repeated ordered symbol pair\n",
        "n",
    ),
    "check-left-orth pass": (
        ["check-left-orth", "{left_a}", "{left_b}"], 0, "left orthogonal\n", "n"
    ),
    "check-left-orth violation": (
        ["check-left-orth", "{latin}", "{latin}"], 1, "NOT left orthogonal\n", "n"
    ),
    "left-conj built": (
        ["left-conj", "{latin}", "--out", "{out}"], 0, "left conjugate of order 3 written\n", "n"
    ),
    "build-meb built": (
        ["build-meb", "{grid}", "{family}", "--out", "{out}"], 0, "built 9 states of order 3\n",
        "n states",
    ),
    "build-meb grid rejection": (
        ["build-meb", "{validate-qls}", "{family}"], 1, f"INVALID grid: {QLS_ROW6}\n", "reason"
    ),
    "build-meb member rejection": (
        ["build-meb", "{grid}", "{bad_family}"],
        1,
        f"INVALID family: family member 2: {EYE_ENTRY}\n",
        "reason",
    ),
    "build-meb length rejection": (
        ["build-meb", "{grid}", "{short_family}"],
        1,
        "INVALID family: a family of order 3 needs exactly 3 members, got 2\n",
        "reason",
    ),
    "build-lbw built": (
        ["build-lbw", "{latin}", "{matrix}", "--out", "{out}"], 0, "built 9 states of order 3\n",
        "n states",
    ),
    "build-lbw rejection": (
        ["build-lbw", "{latin}", "{validate-hadamard}"], 1, f"INVALID matrix: {EYE_ENTRY}\n",
        "reason",
    ),
    "check-mub pass": (
        ["check-mub", "{basis_a}", "{basis_b}"],
        0,
        f"dim 9: |overlap|^2 min {NINTH}, max {NINTH}, mean {NINTH}, target {NINTH}\n"
        "mutually unbiased\n",
        MUB_KEYS,
    ),
    "check-mub violation": (
        ["check-mub", "{basis}", "{basis}"],
        1,
        f"dim 9: |overlap|^2 min 0, max 1, mean {NINTH}, target {NINTH}\nNOT mutually unbiased\n",
        MUB_KEYS,
    ),
    "dual to-ueb built": (
        ["dual", "--to-ueb", "{basis}", "--out", "{out}"], 0, "extracted 9 unitaries of order 3\n",
        "direction n",
    ),
    "dual to-ueb rejection": (
        ["dual", "--to-ueb", "{product}"],
        1,
        "FAILED: state is not maximally entangled: partial-trace residual 7.071e-01 "
        "exceeds tol 1.000e-09\n",
        "reason",
    ),
    "dual to-meb built": (
        ["dual", "--to-meb", "{ueb}", "--out", "{out}"], 0, "built 9 states of order 3\n",
        "direction n",
    ),
    "dual to-meb rejection": (
        ["dual", "--to-meb", "{short}"], 1, f"INVALID unitary error basis: {UEB_COUNT}\n", "reason"
    ),
    "check-ueb pass": (
        ["check-ueb", "{ueb}"], 0, "valid unitary error basis of order 3 (9 members)\n", "n tol"
    ),
    "check-ueb violation": (
        ["check-ueb", "{check-ueb}"], 1, f"INVALID: {UEB_TRACE}\n",
        "index kind off_by pair tol value",
    ),
    "check-mu-ueb pass": (
        ["check-mu-ueb", "{ueb_a}", "{ueb_b}"],
        0,
        f"dim 9: normalized |tr|^2 min {NINTH}, max {NINTH}, target {NINTH}\n"
        "raw |tr|^2 range [1, 1]\nmutually unbiased\n",
        MUB_KEYS + " raw_trace_sq_max raw_trace_sq_min",
    ),
    "check-mu-ueb violation": (
        ["check-mu-ueb", "{ueb}", "{ueb}"],
        1,
        f"dim 9: normalized |tr|^2 min 0, max 1, target {NINTH}\nraw |tr|^2 range [0, 9]\n"
        "NOT mutually unbiased\n",
        MUB_KEYS + " raw_trace_sq_max raw_trace_sq_min",
    ),
    "check-mu-ueb rejection": (
        ["check-mu-ueb", "{ueb}", "{check-ueb}"],
        1,
        "INVALID unitary error basis: {check-ueb}: " + UEB_TRACE + "\n",
        "reason",
    ),
    "monomial-obstruction pass": (["monomial-obstruction", "{ueb}"], 0, None, OBSTRUCTION_KEYS),
    "monomial-obstruction violation": (
        ["monomial-obstruction", "{obstructed}"], 1, None, OBSTRUCTION_KEYS
    ),
    "monomial-obstruction rejection": (
        ["monomial-obstruction", "{check-ueb}"], 1, f"INVALID unitary error basis: {UEB_TRACE}\n",
        "reason",
    ),
    "fixtures built": (
        ["fixtures", "emit", "paper-P", "--out", "{out}"], 0, "fixture paper-P (grid) written\n",
        "kind name",
    ),
    "search latin": (
        ["search", "latin", "3"], 0, "order 3: 12 Latin squares (column-major recount 12)\n",
        "count order recount what",
    ),
    "search orth-pairs": (
        ["search", "orth-pairs", "3"], 0, "order 3: 72 ordered orthogonal pairs\n",
        "count order what",
    ),
    "search lemma16": (
        ["search", "lemma16", "3"],
        0,
        "order 3: 144 ordered pairs, 72 weakly orthogonal, 0 disagreements between the three "
        "routes\n",
        "disagreements order pairs_checked positives representatives what",
    ),
    "reproduce-appendix-c pass": (
        ["reproduce-appendix-c"],
        0,
        "two bases of 81 states each: orthonormal=True, maximally entangled=True\n"
        "6561 cross overlaps: |overlap|^2 min 0.0123456790123, max 0.0123456790123, "
        "target 0.0123456790123\nPASS\n",
        MUB_KEYS + " maximally_entangled orthonormal overlaps",
    ),
}


def test_every_command_has_a_pinned_row():
    (commands,) = (a.choices for a in build_parser()._actions if a.dest == "command")
    assert set(commands) == {template[0] for template, *_ in PINNED_TEXT.values()}


@pytest.mark.parametrize("case", sorted(PINNED_TEXT))
def test_text_rendering_is_pinned(pinned_files, capsys, case):
    template, code, text, _ = PINNED_TEXT[case]
    argv = [arg.format_map(pinned_files) for arg in template]
    if text is None:  # the obstruction's numbers come from the library's own report
        text = obstruction_text(argv[1])
    assert run(capsys, *argv) == (code, text.format_map(pinned_files), "")


@pytest.mark.parametrize("case", sorted(PINNED_TEXT))
def test_a_json_report_has_its_pinned_keys(pinned_files, capsys, case):
    template, code, _, keys = PINNED_TEXT[case]
    argv = [arg.format_map(pinned_files) for arg in template]
    got, out, err = run(capsys, *argv, "--format", "json-report")
    assert (got, err) == (code, "")
    assert sorted(json.loads(out)) == sorted(["command", "ok", *keys.split()])


# json-reports holding what the stdlib spells its own way (a key with an "e"
# over an int, tol 1e-09, a complex value, nulls, an escaped non-ASCII
# character), each with a piece of its text that shows it
JSON_REPORTS = {
    "search lemma16": (["search", "lemma16", "3"], '"pairs_checked": 144,'),
    "check-mub": (["check-mub", "{basis_a}", "{basis_b}"], '"tol": 1e-09'),
    "check-mu-ueb": (["check-mu-ueb", "{ueb_a}", "{ueb_b}"], '"tol": 1e-09'),
    "monomial-obstruction paper-P": (["monomial-obstruction", "{obstructed}"], '"obstructed": true,'),
    "monomial-obstruction overflowed bound": (
        ["monomial-obstruction", "{scaled}", "--tol", "20"], '"noise_bound": null,'
    ),
    "validate-qls violation": (["validate-qls", "{validate-qls}"], '"value": [\n    0.0,\n'),
    "reproduce-appendix-c": (["reproduce-appendix-c"], '"overlaps": 6561,'),
    "a rejection naming a non-ASCII path": (
        ["check-mu-ueb", "{short_é}", "{ueb_a}"], 'short_\\u00e9.json: member stack'
    ),
}


@pytest.mark.parametrize("case", sorted(JSON_REPORTS))
def test_a_json_report_is_the_stdlib_text(pinned_files, tmp_path, capsys, case):
    template, piece = JSON_REPORTS[case]
    paths = dict(pinned_files)
    members = serialize.read(paths["obstructed"], "matrix-list")
    paths["scaled"] = write_ueb(tmp_path, "scaled.json", 1.5 * members)  # valid only at a loose tol
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
def test_a_check_result_judges_and_renders_itself(pinned_files, capsys, case):
    template, code, text, _ = PINNED_TEXT[case]
    argv = [arg.format_map(pinned_files) for arg in template]
    result = CHECK_CALLS[argv[0]](*argv[1:])
    assert result.ok is (code == 0)
    assert "ok" not in {f.name for f in fields(result)}  # a verdict, never a report field
    text = obstruction_text(argv[1]) if text is None else text
    assert text == f"{result}\n" or text.endswith(f": {result}\n")  # after a prefix
    got, out, _ = run(capsys, *argv, "--format", "json-report")
    doc = json.loads(out)
    assert got == code and doc["ok"] is result.ok
    assert not PAYLOADS & set(doc)  # a payload is never reported


@pytest.mark.parametrize("command", sorted(FAILING_INPUTS))
def test_failing_json_report_is_the_command_keys_and_the_record_fields(
    pinned_files, capsys, command
):
    argv = [arg.format_map(pinned_files) for arg in PINNED_TEXT[f"{command} violation"][0]]
    code, out, _ = run(capsys, *argv, "--format", "json-report")
    doc = json.loads(out)
    assert code == 1 and doc["ok"] is False
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
        "non-unitary": write_ueb(tmp_path, "non-unitary.json", np.array([np.eye(2), x, z, 0.5 * x @ z])),
        "scaled": write_ueb(tmp_path, "scaled.json", 1.5 * members),
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


# calls and their exit codes, in the order they run; each must give what it
# gives on a parser of its own
CALL_SEQUENCES = {
    "dual both ways": [
        (["dual", "--to-ueb", "{basis}", "--out", "{out}"], 0),
        (["dual", "--to-meb", "{ueb}"], 0),
        (["dual", "--to-ueb", "{product}"], 1),
    ],
    "a usage error, help, then a command": [
        (["check-mub", "{basis_a}"], 2),
        (["dual", "--to-ueb", "{basis}", "--to-meb", "{ueb}"], 2),
        (["check-mub", "{basis_a}", "{basis_b}", "--tol", "nan"], 2),
        (["--help"], 0),
        (["dual", "--help"], 0),
        (["search", "orth-pairs", "3"], 0),
    ],
}


@pytest.mark.parametrize("case", sorted(CALL_SEQUENCES))
def test_calls_on_the_shared_parser_match_calls_on_fresh_ones(pinned_files, capsys, case):
    calls = [[arg.format_map(pinned_files) for arg in argv] for argv, _ in CALL_SEQUENCES[case]]
    shared = [run(capsys, *argv) for argv in calls]
    assert [code for code, _, _ in shared] == [code for _, code in CALL_SEQUENCES[case]]
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

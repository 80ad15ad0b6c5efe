"""Tests of the benchmark itself.  Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import filecmp
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from qlsmub import serialize  # noqa: E402
from qlsmub.squares import QuantumLatinSquare, WeakOrthWitness, validate_qls  # noqa: E402
from qlsmub.squares import weak_orth_witness  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, installed  # noqa: E402

RUN = os.path.join(HERE, "run.py")


def _bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, RUN, *args], capture_output=True, text=True, cwd=cwd, timeout=170
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", ["pipeline-13", "obstruction-16"])
def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path, name):
    workload = workloads.SMOKE[name]
    dirs = {}
    for label, seed in (("a", 7), ("b", 7), ("c", 8)):
        dirs[label] = tmp_path / label
        dirs[label].mkdir()
        workload.write_inputs(str(dirs[label]), seed)
    names = sorted(os.listdir(dirs["a"]))
    assert names
    same = filecmp.cmpfiles(dirs["a"], dirs["b"], names, shallow=False)
    assert same[0] == names
    other = filecmp.cmpfiles(dirs["a"], dirs["c"], names, shallow=False)
    # paper-P does not depend on the seed; every seeded file does
    assert [n for n in other[1]] == [n for n in names if n != "paper-P.json"]


@pytest.mark.parametrize("n", [5, 13])
def test_generated_grids_are_weakly_orthogonal_quantum_latin_squares(tmp_path, n):
    workloads.pipeline(n).write_inputs(str(tmp_path), 3)
    grids = [
        serialize.grid_from_doc(serialize.load_path(str(tmp_path / f"grid{k}.json")))
        for k in (1, 2)
    ]
    for grid in grids:
        assert isinstance(validate_qls(grid), QuantumLatinSquare)
    assert isinstance(weak_orth_witness(*grids), WeakOrthWitness)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_smoke_pass_of_every_workload_is_correct(name):
    result = _result(_bench("--workload", name, "--seed", "1", "--seconds", "0", "--smoke"))
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


EXACT = ("ueb.pairs", "search.pairs", "search.squares", "ueb.sweep_gflop")


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_counts_repeat_across_runs_and_seeds(name):
    first, again, other_seed = (
        _result(_bench("--workload", name, "--seed", seed, "--seconds", "0", "--trace", "1", "--smoke"))
        for seed in ("1", "1", "2")
    )
    for layer in workloads.SMOKE[name].layers:
        assert first["metrics"][f"{layer}.calls"]["value"] > 0
    exact = [k for k in first["metrics"] if k.endswith(".calls") or k in EXACT]
    for key in exact:
        assert first["metrics"][key] == again["metrics"][key] == other_seed["metrics"][key]
    # byte counts depend on the digits of the seeded floats, so only a rerun
    # of the same seed must repeat them
    for key in ("serialize.bytes_read", "serialize.bytes_written"):
        assert first["metrics"][key] == again["metrics"][key]
    assert "trace.overhead_s" in first["metrics"]


def test_unreached_listed_layer_fails_loudly(tmp_path):
    workload = workloads.SMOKE["search-exhaustive"]
    listing_more = workloads.Workload(
        layers=(*workload.layers, "ueb"),
        write_inputs=workload.write_inputs,
        commands=workload.commands,
    )
    commands = workload.commands(str(tmp_path))
    tracer = Tracer()
    with installed(tracer):
        traced = run.run_pass(commands, tracer)
    untraced = run.run_pass(commands)
    assert not traced.failures and not untraced.failures
    report = {
        "import_s": 0.1,
        "warm": [untraced.summary()],
        "traced": [{"wall": traced.wall, "layers": tracer.layer_totals(), "counts": tracer.counts}],
    }
    run.per_layer(workload, [report])
    with pytest.raises(run.BenchError, match="ueb"):
        run.per_layer(listing_more, [report])


def test_a_uniformly_slower_host_gives_the_same_scaled_times():
    ref = run.REFERENCE_S
    quiet = run.Pass(times=[0.2, 0.5], cpu=0.7, reference=[(ref, ref)] * 3)
    slow = run.Pass(times=[0.3, 0.75], cpu=1.05, reference=[(1.5 * ref, 1.5 * ref)] * 3)
    assert quiet.summary()["raw"] != slow.summary()["raw"]
    for key in ("wall", "cpu", "commands"):
        assert quiet.summary()[key] == pytest.approx(slow.summary()[key])


def test_tracing_is_removed_after_the_pass():
    from qlsmub import cli

    before = (cli.validate_qls, serialize.load_path)
    with installed(Tracer()):
        assert (cli.validate_qls, serialize.load_path) != before
    assert (cli.validate_qls, serialize.load_path) == before


def test_checks_reject_wrong_outcomes():
    check = workloads.paper_p_obstructed
    good = {"obstructed": True, "worst_pair": [25, 26], "worst_norm": 4.4785390072245965}
    assert check(1, good, {}) is None
    assert check(0, good, {}) is not None
    assert check(1, {**good, "worst_pair": [0, 1]}, {}) is not None
    assert check(1, {**good, "worst_norm": 4.5}, {}) is not None

    lemma = workloads.lemma16_agrees(3)
    report = {"ok": True, "pairs_checked": 144, "disagreements": 0, "positives": 72}
    assert lemma(0, report, {"orth-pairs 3": {"count": 72}}) is None
    assert lemma(0, report, {"orth-pairs 3": {"count": 71}}) is not None
    assert lemma(0, {**report, "disagreements": 1}, {"orth-pairs 3": {"count": 72}}) is not None

    unbiased = workloads.unbiased(3)
    mub = {"ok": True, "dim": 9, "min_sq": 1 / 9, "max_sq": 1 / 9, "tol": 1e-9}
    assert unbiased(0, mub, {}) is None
    assert unbiased(0, {**mub, "max_sq": 1 / 9 + 1e-6}, {}) is not None
    # added report keys are tolerated
    assert unbiased(0, {**mub, "timings": {}, "max_dev": 0.0}, {}) is None


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search-exhaustive", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

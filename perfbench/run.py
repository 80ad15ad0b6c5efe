"""Benchmark of the qlsmub command line.

    python3 perfbench/run.py --workload pipeline-13 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

A closed loop with one client: each CLI command runs in-process through
``qlsmub.cli.main(argv)`` as soon as the previous one returns.  The work is
spread over several fresh processes, one after another.  Each starts the
interpreter, imports ``qlsmub``, writes the seeded input files, runs one cold
pass over the workload's commands and then warm passes for its share of
``--seconds``.  Every command's exit code and report are checked.  BLAS runs
one thread, so a command never waits for a BLAS thread that the host has
descheduled.

Other tenants of the shared host slow every instruction by 20-40% for
minutes at a time, which no statistic over one run removes.  So a fixed
reference task (``calibrate.py``) runs before each pass and, for about a
tenth of each command's time, after every command.  Each pass is scaled by
``REFERENCE_S`` over the mean time of its reference tasks: the
reported times are those of a host on which the task takes ``REFERENCE_S``.
The task does not use the program, so a change to the program moves scaled
times as much as raw ones.  Pass metrics are medians over the warm passes of
all processes (``slowest_cmd_s`` is the largest per-command median); cold
and set-up times are medians over the processes.  The summary lines also
print the raw, unscaled median pass.

With ``--trace 0`` the last line carries the end-to-end metrics; with
``--trace 1`` traced and untraced warm passes alternate and the last line
carries the per-layer metrics.  ``--workload all`` runs every workload in its
own process and prints one table.  The program is imported from ``src/`` next
to this directory, never from an installed copy.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

# One BLAS thread, set before anything imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from calibrate import REFERENCE_S, timed_unit  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
WORKLOAD_NAMES = ("pipeline-13", "obstruction-16", "search-exhaustive")

PROCESSES = 7
SETUP_UNITS = 9  # reference tasks that scale a process's set-up time
REFERENCE_SHARE = 0.1  # reference task time after each command, as a share of it
RUN_TIMEOUT_S = 170  # the whole run, all processes together

END_TO_END_UNITS = {
    "wall_s": "s",
    "cold_s": "s",
    "cpu_s": "s",
    "slowest_cmd_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny orders, for tests")
    parser.add_argument("--child", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------- machine


def _blas_threads():
    import numpy as np

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, name):
                return int(getattr(lib, name)())
    return None


def machine(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "seed": seed,
    }


# ---------------------------------------------------------------- one process


@dataclass
class Pass:
    times: list[float] = field(default_factory=list)  # seconds per command
    cpu: float = 0.0  # process CPU seconds over the commands
    reference: list[tuple[float, float]] = field(default_factory=list)  # (wall, CPU) per task
    failures: list[str] = field(default_factory=list)
    tracer: object = None

    @property
    def wall(self) -> float:
        return sum(self.times)

    @property
    def scale(self) -> float:
        """Factor that turns this pass's wall seconds into reference seconds."""
        return REFERENCE_S * len(self.reference) / sum(w for w, _ in self.reference)

    @property
    def cpu_scale(self) -> float:
        return REFERENCE_S * len(self.reference) / sum(c for _, c in self.reference)

    def summary(self) -> dict:
        return {
            "wall": self.wall * self.scale,
            "cpu": self.cpu * self.cpu_scale,
            "commands": [t * self.scale for t in self.times],
            "raw": self.wall,
        }


def _judge(cmd, rc, stdout: str, error: str | None, earlier: dict) -> str | None:
    if error is not None:
        return f"raised\n{error}"
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return f"exit code {rc} without a JSON report"
    if not isinstance(report, dict):
        return "report is not a JSON object"
    earlier[cmd.label] = report
    try:
        return cmd.check(rc, report, earlier)
    except (KeyError, TypeError, ValueError, OSError) as exc:
        return f"report could not be checked: {exc!r}"


def run_pass(commands, tracer=None) -> Pass:
    from qlsmub import cli
    from workloads import JSON_REPORT

    result = Pass(tracer=tracer)
    earlier: dict = {}
    result.reference.append(timed_unit())
    for cmd in commands:
        argv = [*cmd.argv, *JSON_REPORT]
        out, err = io.StringIO(), io.StringIO()
        rc, error = None, None
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = cli.main(argv) if tracer is None else tracer.call("cli", cli.main, argv)
        except Exception:  # a command that raises is counted as failed
            error = traceback.format_exc()
        result.times.append(time.perf_counter() - t0)
        result.cpu += time.process_time() - cpu0
        units = max(1, round(REFERENCE_SHARE * result.times[-1] / REFERENCE_S))
        result.reference += [timed_unit() for _ in range(units)]
        reason = _judge(cmd, rc, out.getvalue(), error, earlier)
        if reason:
            result.failures.append(f"{cmd.label}: {reason}")
    return result


def measure(commands, seconds: float, trace: bool) -> tuple[list[Pass], list[Pass]]:
    """Warm passes, alternating with traced ones, for ``seconds`` (one at least).

    A round of passes starts only if at least half of it should fit in
    ``seconds``, going by the time of the round before, so that runs last
    ``seconds`` on average.
    """
    from spans import Tracer, installed

    deadline = time.perf_counter() + seconds
    warm: list[Pass] = []
    traced: list[Pass] = []
    last = 0.0
    while not warm or time.perf_counter() + last / 2 < deadline:
        order = [False, True] if trace else [False]
        if len(warm) % 2:
            order.reverse()
        round_start = time.perf_counter()
        for with_trace in order:
            if with_trace:
                tracer = Tracer()
                with installed(tracer):
                    traced.append(run_pass(commands, tracer))
            else:
                warm.append(run_pass(commands))
        last = time.perf_counter() - round_start
    return warm, traced


def child(args, import_s: float) -> int:
    """One fresh process: write the inputs, one cold pass, then warm passes."""
    from workloads import SMOKE, WORKLOADS

    workload = (SMOKE if args.smoke else WORKLOADS)[args.workload]
    workload.write_inputs(args.child, args.seed)
    ready = time.monotonic()
    timed_unit()  # warm the reference task's own code paths
    setup_scale = REFERENCE_S / statistics.median(timed_unit()[0] for _ in range(SETUP_UNITS))
    hashes = {}
    for name in sorted(os.listdir(args.child)):
        with open(os.path.join(args.child, name), "rb") as fh:
            hashes[name] = hashlib.sha256(fh.read()).hexdigest()
    commands = workload.commands(args.child)
    start = time.perf_counter()
    cold = run_pass(commands)
    warm, traced = measure(commands, args.seconds - (time.perf_counter() - start), bool(args.trace))
    passes = [cold, *warm, *traced]
    report = {
        "ready": ready,
        "setup_scale": setup_scale,
        "import_s": import_s * setup_scale,
        "hashes": hashes,
        "cold_s": cold.wall * cold.scale,
        "warm": [p.summary() for p in warm],
        "traced": [
            {
                "wall": p.wall * p.scale,
                "layers": {k: (n, s * p.scale) for k, (n, s) in p.tracer.layer_totals().items()},
                "counts": p.tracer.counts,
            }
            for p in traced
        ],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(commands) * len(passes),
        "failures": [f for p in passes for f in p.failures],
    }
    print(json.dumps(report))
    return 0


# ---------------------------------------------------------------- the run


def run_children(args, work: str) -> tuple[list[dict], list[float]]:
    """The fresh processes' reports, and each one's set-up seconds.

    Set-up runs from the spawn to the moment the child's inputs are written.
    Every child writes the inputs anew, so the children also check that one
    seed gives the same bytes.
    """
    reports, setups = [], []
    deadline = time.monotonic() + RUN_TIMEOUT_S
    for i in range(PROCESSES):
        out = os.path.join(work, f"process{i}")
        os.makedirs(out)
        argv = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds / PROCESSES), "--trace", str(args.trace)]
        argv += ["--child", out] + (["--smoke"] if args.smoke else [])
        spawned = time.monotonic()  # one clock for all processes on Linux
        timeout = max(1.0, deadline - spawned)
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=timeout)
        if proc.returncode != 0:
            raise BenchError(f"benchmark process failed:\n{proc.stderr}")
        report = json.loads(proc.stdout.splitlines()[-1])
        setups.append(report["ready"] - spawned)
        reports.append(report)
        shutil.rmtree(out)
    if any(r["hashes"] != reports[0]["hashes"] for r in reports):
        raise BenchError(f"seed {args.seed} gave different input files in fresh processes")
    return reports, setups


def end_to_end(reports: list[dict], setups: list[float]) -> dict[str, float]:
    warm = [p for r in reports for p in r["warm"]]
    return {
        "wall_s": statistics.median(p["wall"] for p in warm),
        "cold_s": statistics.median(r["cold_s"] for r in reports),
        "cpu_s": statistics.median(p["cpu"] for p in warm),
        "slowest_cmd_s": max(map(statistics.median, zip(*(p["commands"] for p in warm)))),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
        "setup_s": statistics.median(s * r["setup_scale"] for s, r in zip(setups, reports)),
    }


def per_layer(workload, reports: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced passes, as name -> (value, unit).

    Raises BenchError when a layer the workload lists was never reached, or
    when calls or work counts differ between passes.
    """
    from spans import LAYERS

    traced = [t for r in reports for t in r["traced"]]
    calls = {layer: traced[0]["layers"][layer][0] for layer in LAYERS}
    counts = traced[0]["counts"]
    for t in traced[1:]:
        if {layer: t["layers"][layer][0] for layer in LAYERS} != calls or t["counts"] != counts:
            raise BenchError("span calls or work counts differ between traced passes")
    missing = [layer for layer in workload.layers if calls[layer] == 0]
    if missing:
        raise BenchError(f"traced pass recorded no calls into listed layers {missing}")

    wall = statistics.median(t["wall"] for t in traced)
    warm = statistics.median(p["wall"] for r in reports for p in r["warm"])
    import_s = statistics.median(r["import_s"] for r in reports)
    metrics: dict[str, tuple[float, str]] = {"import.s": (import_s, "s")}
    self_s = {}
    for layer in LAYERS:
        self_s[layer] = statistics.median(t["layers"][layer][1] for t in traced)
        metrics[f"{layer}.calls"] = (calls[layer], "count")
        metrics[f"{layer}.self_s"] = (self_s[layer], "s")
        metrics[f"{layer}.share"] = (self_s[layer] / wall, "fraction")

    def rate(work: float, seconds: float) -> float:
        return work / seconds if seconds > 0 else 0.0

    n_read = counts.get("serialize.bytes_read", 0)
    n_written = counts.get("serialize.bytes_written", 0)
    ueb_pairs = counts.get("ueb.pairs", 0)
    gflop = counts.get("ueb.sweep_flop", 0) / 1e9
    items = counts.get("search.squares", 0) + counts.get("search.pairs", 0)
    metrics.update(
        {
            "serialize.bytes_read": (n_read, "B"),
            "serialize.bytes_written": (n_written, "B"),
            "serialize.mb_per_s": (rate((n_read + n_written) / 1e6, self_s["serialize"]), "MB/s"),
            "ueb.pairs": (ueb_pairs, "count"),
            "ueb.pairs_per_s": (rate(ueb_pairs, self_s["ueb"]), "1/s"),
            "ueb.sweep_gflop": (gflop, "GFLOP-computed"),
            "ueb.gflops": (rate(gflop, self_s["ueb"]), "GFLOP/s"),
            "search.pairs": (counts.get("search.pairs", 0), "count"),
            "search.squares": (counts.get("search.squares", 0), "count"),
            "search.items_per_s": (rate(items, self_s["search"]), "1/s"),
            "trace.overhead_s": (wall - warm, "s"),
        }
    )
    return metrics


def run_workload(args) -> int:
    from workloads import SMOKE, WORKLOADS

    workload = (SMOKE if args.smoke else WORKLOADS)[args.workload]
    work = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    try:
        reports, setups = run_children(args, work)
        if args.trace:
            metrics = per_layer(workload, reports)
        else:
            units = END_TO_END_UNITS
            metrics = {k: (v, units[k]) for k, v in end_to_end(reports, setups).items()}
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if os.path.isdir(WORK) and not os.listdir(WORK):
            os.rmdir(WORK)

    failures = [f for r in reports for f in r["failures"]]
    attempted = sum(r["attempted"] for r in reports)
    for line in sorted(set(failures)):
        print(f"FAILED {line}", file=sys.stderr)
    warm = [p for r in reports for p in r["warm"]]
    print(json.dumps({"machine": machine(args.seed)}))
    print(
        f"{args.workload}: {PROCESSES} processes, {len(warm)} warm passes "
        f"(raw median {statistics.median(p['raw'] for p in warm):.6g} s, scaled median "
        f"{statistics.median(p['wall'] for p in warm):.6g} s), "
        f"{sum(len(r['traced']) for r in reports)} traced"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:<26} {value:>14.6g} {unit}")
    print(f"  {'fail_frac':<26} {len(failures) / attempted:>14.6g} fraction")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one table of all metrics."""
    status = 0
    rows = []
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        argv += ["--smoke"] if args.smoke else []
        proc = subprocess.run(argv, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}")
            status = 1
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        fail_frac = result["failed"] / result["attempted"]
        rows.append((name, "fail_frac", fail_frac, "fraction"))
        for metric, entry in result["metrics"].items():
            rows.append((name, metric, entry["value"], entry["unit"]))
        status = status or int(not result["correct"])
    for name, metric, value, unit in rows:
        print(f"{name:<18} {metric:<26} {value:>14.6g} {unit}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.pop("QLSMUB_JOBS", None)
    if not os.path.isfile(os.path.join(SRC, "qlsmub", "__init__.py")):
        print(f"error: no qlsmub sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import qlsmub

    import_s = time.perf_counter() - start
    if os.path.dirname(os.path.abspath(qlsmub.__file__)) != os.path.join(SRC, "qlsmub"):
        print(f"error: imported qlsmub from {qlsmub.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.child:
        return child(args, import_s)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

"""Check that the CLI gives the same results in one process as in many.

Runs every row of ``PINNED_TEXT`` twice, as text and as json-report, after a
few calls that no pinned row can hold, all on the files ``pinned_inputs``
writes.  Each call runs as its own ``python -m qlsmub.cli`` process, two at a
time, then all of them in this process through ``qlsmub.cli.main``, which
reuses one parser for every call.  Exits 1 and names every (subcommand,
--format) pair that no call runs, or prints the first call whose exit code,
stdout, stderr or written files differ between the two runs, or the first
json-report or written file that is not the text of ``json.dumps(doc,
sort_keys=True, indent=2)`` plus a newline.

Usage: PYTHONPATH=src python tests/cli_parity.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from qlsmub import cli

from helpers import PINNED_TEXT, pinned_inputs

FORMATS = ("text", "json-report")

# What no pinned row can hold, run in this order: help and usage errors, inputs
# that exit 2, and a chain through --out files.  {run} is a folder of each
# run's own, {out} a file there of each call's own.
OWN_CALLS = [
    [],
    ["--help"],
    ["dual", "--help"],
    ["search", "--help"],
    ["no-such-command"],
    ["dual"],
    ["dual", "--to-ueb", "{basis}", "--to-meb", "{ueb}"],
    ["validate-qls", "{grid}", "--tol", "nan"],
    ["check-orth", "{latin}", "{twisted}", "--tol", "0.5"],
    ["search", "lemma16", "3", "--tol", "0.5"],
    ["search", "latin", "9"],
    ["fixtures", "emit", "no-such-fixture"],
    ["validate-hadamard", __file__],  # not JSON
    ["validate-qls", "{latin}"],  # another kind
    ["check-mub", "{basis}", "{product}"],  # orders 3 and 2
    ["fixtures", "emit", "paper-P", "--out", "{run}/paper-P.json"],
    ["validate-qls", "{run}/paper-P.json"],
    ["build-meb", "{grid_a}", "{family}", "--out", "{run}/basis.json"],
    ["dual", "--to-ueb", "{run}/basis.json", "--out", "{run}/ueb.json"],
    ["dual", "--to-meb", "{run}/ueb.json"],
    ["monomial-obstruction", "{run}/ueb.json", "--format", "json-report", "--out", "{out}"],
]
CALLS = OWN_CALLS + [
    [*argv, *fmt] for argv, *_ in PINNED_TEXT.values() for fmt in ([], ["--format", "json-report"])
]


def in_processes(calls: list[list[str]]) -> list[tuple[int, str, str]]:
    env = {**os.environ, "PYTHONIOENCODING": "utf-8"}

    def run(argv):
        proc = subprocess.run([sys.executable, "-m", "qlsmub.cli", *argv],
                              capture_output=True, env=env)
        return proc.returncode, proc.stdout.decode(), proc.stderr.decode()

    own = len(OWN_CALLS)  # a chain through files: in order, on one worker
    with ThreadPoolExecutor(2) as pool:
        chain = pool.submit(lambda: [run(argv) for argv in calls[:own]])
        rest = list(pool.map(run, calls[own:]))
        return chain.result() + rest


def in_this_process(calls: list[list[str]]) -> list[tuple[int, str, str]]:
    results = []
    for argv in calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        results.append((code, out.getvalue(), err.getvalue()))
    return results


def main() -> int:
    (commands,) = (a.choices for a in cli.build_parser()._actions if a.dest == "command")
    ran = {(argv[0], argv[argv.index("--format") + 1] if "--format" in argv else "text")
           for argv in CALLS if argv}
    unrun = [f"{command} --format {fmt}" for command in commands for fmt in FORMATS
             if (command, fmt) not in ran]
    if unrun:
        print(f"no call runs: {', '.join(unrun)}")
        return 1
    os.environ["COLUMNS"] = "80"  # --help wraps at the terminal's width
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "in").mkdir()
        paths = pinned_inputs(Path(tmp, "in"))
        runs = {}
        for name, runner in (("separate processes", in_processes),
                             ("one process", in_this_process)):
            run = Path(tmp, name)
            run.mkdir()
            calls = [[arg.format_map({**paths, "run": run, "out": run / f"{i}.json"})
                      for arg in argv] for i, argv in enumerate(CALLS)]
            results = runner(calls)
            files = {path.name: path.read_bytes() for path in sorted(run.iterdir())}
            runs[name] = results, files
        (many, many_files), (one, one_files) = runs.values()
    for argv, ours, theirs in zip(CALLS, one, many):
        if ours != theirs:
            print(f"qlsmub {' '.join(argv)}:\n  separate processes: {theirs!r}\n"
                  f"  one process: {ours!r}")
            return 1
    if one_files != many_files:
        differ = sorted(set(one_files) ^ set(many_files) | {
            name for name in one_files if one_files[name] != many_files.get(name)})
        print(f"written files differ: {', '.join(differ)}")
        return 1
    texts = [(f"qlsmub {' '.join(argv)}", out) for argv, (_, out, _) in zip(CALLS, one)
             if "json-report" in argv and out]
    texts += [(f"written file {name}", text.decode()) for name, text in one_files.items()]
    for what, text in texts:
        if text != json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n":
            print(f"{what}: not the stdlib's indented JSON text")
            return 1
    codes = sorted({code for code, _, _ in one})
    print(f"{len(CALLS)} calls and {len(one_files)} written files agree; exit codes {codes}; "
          f"{len(texts)} json-reports and files are the stdlib's text")
    return 0


if __name__ == "__main__":
    sys.exit(main())

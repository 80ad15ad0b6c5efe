"""Check that the CLI gives the same results in one process as in many.

Runs a fixed list of commands twice: each as its own ``python -m qlsmub.cli``
process, then all of them in this process through ``qlsmub.cli.main``, which
reuses one parser for every call.  Exits 1 and names every subcommand that no
command of the list runs, or prints the first command whose exit code, stdout,
stderr or written files differ between the two runs, or the first json-report
or written file that is not the text of ``json.dumps(doc, sort_keys=True,
indent=2)`` plus a newline.

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
from pathlib import Path

import numpy as np

from qlsmub import cli, serialize
from qlsmub.fixtures import fixture, hadamard_9_corrected
from qlsmub.hadamard import constant_family

from helpers import paper_ueb

# {in} holds the inputs both runs share; {out} is a directory of each run's own
COMMANDS = [
    [],
    ["--help"],
    ["dual", "--help"],
    ["search", "--help"],
    ["no-such-command"],
    ["dual"],
    ["dual", "--to-ueb", "{in}/basis.json", "--to-meb", "{in}/ueb.json"],
    ["validate-qls", "{in}/paper-Q.json", "--tol", "nan"],
    ["validate-qls", "{in}/paper-Q.json", "--tol", "-1"],
    ["check-orth", "{in}/latin.json", "{in}/latin.json", "--tol", "0.5"],
    ["search", "latin", "4"],
    ["search", "orth-pairs", "3", "--format", "json-report"],
    ["search", "lemma16", "3", "--tol", "0.5"],
    ["search", "lemma16", "3", "--format", "json-report"],
    ["fixtures", "emit", "paper-Q"],
    ["fixtures", "emit", "paper-P", "--out", "{out}/paper-P.json"],
    ["fixtures", "emit", "no-such-fixture"],
    ["validate-qls", "{out}/paper-P.json"],
    ["validate-qls", "{out}/paper-P.json", "--format", "json-report"],
    ["validate-qls", "{in}/paper-P-printed.json"],
    ["validate-hadamard", "{in}/hadamard-9-printed.json", "--format", "json-report"],
    ["validate-hadamard", "{in}/not-json.json"],
    ["validate-hadamard", "{in}/absent.json"],
    ["check-weak-orth", "{out}/paper-P.json", "{in}/paper-Q.json"],
    ["check-orth", "{in}/latin.json", "{in}/latin.json"],
    ["check-left-orth", "{in}/latin.json", "{in}/latin.json"],
    ["check-left-orth", "{in}/latin.json", "{in}/latin-2.json", "--format", "json-report"],
    ["check-left-orth", "{in}/latin.json", "{in}/latin-2.json"],
    ["check-left-orth", "{in}/latin.json", "{in}/latin.json", "--format", "json-report"],
    ["fixtures", "emit", "hadamard-9-corrected", "--out", "{out}/hadamard.json"],
    ["build-lbw", "{in}/latin.json", "{out}/hadamard.json", "--out", "{out}/lbw.json"],
    ["build-lbw", "{in}/latin.json", "{out}/hadamard.json", "--format", "json-report"],
    ["build-lbw", "{in}/latin.json", "{in}/hadamard-9-printed.json"],
    ["build-lbw", "{in}/latin.json", "{in}/hadamard-9-printed.json", "--format", "json-report"],
    ["left-conj", "{in}/latin.json", "--out", "{out}/left.json", "--format", "json-report"],
    ["build-meb", "{out}/paper-P.json", "{in}/family.json", "--out", "{out}/basis.json"],
    ["dual", "--to-ueb", "{out}/basis.json", "--out", "{out}/ueb.json"],
    ["dual", "--to-meb", "{out}/ueb.json", "--out", "{out}/back.json"],
    ["check-ueb", "{out}/ueb.json", "--format", "json-report"],
    ["check-mub", "{out}/basis.json", "{out}/back.json"],
    ["check-mu-ueb", "{out}/ueb.json", "{in}/ueb-Q.json"],
    ["check-mu-ueb", "{out}/ueb.json", "{in}/ueb-Q.json", "--format", "json-report"],
    ["check-mu-ueb", "{out}/ueb.json", "{out}/ueb.json"],
    ["check-mu-ueb", "{out}/ueb.json", "{out}/ueb.json", "--format", "json-report"],
    ["monomial-obstruction", "{out}/ueb.json"],
    ["monomial-obstruction", "{out}/ueb.json", "--format", "json-report", "--out", "{out}/ob.json"],
    ["reproduce-appendix-c", "--tol", "1e-30"],
    ["reproduce-appendix-c", "--format", "json-report"],
]


def write_inputs(folder: Path) -> None:
    folder.mkdir()
    family = constant_family(hadamard_9_corrected())
    docs = {
        "paper-Q": serialize.to_doc("grid", fixture("paper-Q").array),
        "paper-P-printed": serialize.to_doc("grid", fixture("paper-P-printed").array),
        "hadamard-9-printed": serialize.to_doc("matrix", fixture("hadamard-9-printed")),
        "family": serialize.to_doc("matrix-list", [h.mat for h in family.members]),
        "latin": serialize.to_doc("latin", [[(r + c) % 9 for c in range(9)] for r in range(9)]),
        "latin-2": serialize.to_doc("latin", [[(r + 2 * c) % 9 for c in range(9)] for r in range(9)]),
        "basis": serialize.to_doc("basis", np.eye(81)),
        "ueb": serialize.to_doc("matrix-list", paper_ueb().members),
        "ueb-Q": serialize.to_doc("matrix-list", paper_ueb("paper-Q").members),
    }
    for name, doc in docs.items():
        serialize.save_path(str(folder / f"{name}.json"), doc)
    (folder / "not-json.json").write_text("{nope")


def in_processes(calls: list[list[str]]) -> list[tuple[int, str, str]]:
    env = {**os.environ, "PYTHONIOENCODING": "utf-8"}
    results = []
    for argv in calls:
        proc = subprocess.run([sys.executable, "-m", "qlsmub.cli", *argv],
                              capture_output=True, env=env)
        results.append((proc.returncode, proc.stdout.decode(), proc.stderr.decode()))
    return results


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
    unrun = sorted(set(commands) - {argv[0] for argv in COMMANDS if argv})
    if unrun:
        print(f"no command of the list runs: {', '.join(unrun)}")
        return 1
    os.environ["COLUMNS"] = "80"  # --help wraps at the terminal's width
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp, "in"))
        runs = {}
        for name, runner in (("separate processes", in_processes),
                             ("one process", in_this_process)):
            out = Path(tmp, name)
            out.mkdir()
            calls = [[arg.replace("{in}", str(Path(tmp, "in"))).replace("{out}", str(out))
                      for arg in argv] for argv in COMMANDS]
            results = runner(calls)
            files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
            runs[name] = results, files
        (many, many_files), (one, one_files) = runs.values()
    for argv, ours, theirs in zip(COMMANDS, one, many):
        if ours != theirs:
            print(f"qlsmub {' '.join(argv)}:\n  separate processes: {theirs!r}\n"
                  f"  one process: {ours!r}")
            return 1
    if one_files != many_files:
        differ = sorted(set(one_files) ^ set(many_files) | {
            name for name in one_files if one_files[name] != many_files.get(name)})
        print(f"written files differ: {', '.join(differ)}")
        return 1
    texts = [(f"qlsmub {' '.join(argv)}", out) for argv, (_, out, _) in zip(COMMANDS, one)
             if "json-report" in argv and out]
    texts += [(f"written file {name}", text.decode()) for name, text in one_files.items()]
    for what, text in texts:
        if text != json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n":
            print(f"{what}: not the stdlib's indented JSON text")
            return 1
    codes = sorted({code for code, _, _ in one})
    print(f"{len(COMMANDS)} commands and {len(one_files)} written files agree; exit codes {codes}; "
          f"{len(texts)} json-reports and files are the stdlib's text")
    return 0


if __name__ == "__main__":
    sys.exit(main())

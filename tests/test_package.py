import os
import re
import subprocess
import sys
import types
from pathlib import Path

import qlsmub

# The public API, sorted: a name added to or removed from the package shows
# up here as a diff.
PUBLIC = (
    "BipartiteBasis",
    "DEFAULT_TOL",
    "EquivalenceReport",
    "FIXTURE_NAMES",
    "GridViolation",
    "HadamardFamily",
    "HadamardMatrix",
    "HadamardViolation",
    "LatinSquare",
    "MuUebReport",
    "MubReport",
    "ObstructionReport",
    "QuantumLatinSquare",
    "UebViolation",
    "UnitaryErrorBasis",
    "VectorGrid",
    "WeakOrthFailure",
    "WeakOrthWitness",
    "are_left_orthogonal",
    "are_orthogonal",
    "block_square_grid",
    "check_mu_ueb",
    "check_mub",
    "computational_grid",
    "constant_family",
    "count_latin",
    "count_orthogonal_pairs",
    "cross_validate_lemma16",
    "fixture",
    "fourier",
    "hadamard_9_corrected",
    "hadamard_family",
    "is_maximally_entangled",
    "is_orthonormal_basis",
    "is_permutation_matrix",
    "lbw_meb",
    "left_conjugate",
    "meb_to_ueb",
    "monomial_obstruction",
    "paper_p_grid",
    "paper_q_grid",
    "qls_meb",
    "random_hadamard",
    "shift_multiply_ueb",
    "tensor_hadamard",
    "ueb_to_meb",
    "validate_hadamard",
    "validate_qls",
    "validate_ueb",
    "weak_orth_witness",
)


def test_all_lists_exactly_the_public_names_and_each_resolves():
    public = {
        name
        for name, value in vars(qlsmub).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(qlsmub.__all__) == sorted(public)
    for name in qlsmub.__all__:
        assert getattr(qlsmub, name) is not None


def test_the_public_api_is_the_pinned_sorted_list():
    assert PUBLIC == tuple(sorted(PUBLIC)) == tuple(sorted(qlsmub.__all__))


def test_readme_library_example_prints_its_documented_lines(tmp_path):
    # README's first python block, run as its own process on the package
    # alone: the two comment lines under print(check_mub(...)) are its output
    src = Path(qlsmub.__file__).parents[1]
    readme = (src.parent / "README.md").read_text()
    example = re.search(r"^```python\n(.*?)^```$", readme, re.M | re.S).group(1)
    lines = example.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("print(check_mub("))
    expected = [line.removeprefix("# ") for line in lines[at + 1 : at + 3]]
    done = subprocess.run(
        [sys.executable, "-c", example], capture_output=True, text=True, timeout=120,
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.returncode == 0 and done.stderr == ""
    out = done.stdout.splitlines()
    assert len(out) == 3 and out[:2] == expected and out[2].startswith("True 4.4785"), out

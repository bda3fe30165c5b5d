"""Golden reports: every byte of stdout, of the --out file, and the exit
status of a fixed set of CLI runs, against files in ``tests/golden/``.

The cases are the README presets (with ``kuznetsov-geom`` at a cheaper
truncation and ``verify`` at its default range) plus csv and json
variants of four of them.  The files were written once by running this
module as a script; a change that alters a report must explain why
before it rewrites them.
"""

from __future__ import annotations

import functools
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import gisieve
from gisieve.cli import run

GOLDEN = Path(__file__).parent / "golden"

#: name -> argv; the name is the golden file's stem.
CASES = {
    "kloosterman": ["kloosterman", "--m", "1", "--n", "1", "--c", "2+i"],
    "kloosterman-csv": ["kloosterman", "--m", "1", "--n", "1", "--c", "2+i", "--format", "csv"],
    "kloosterman-json": ["kloosterman", "--m", "1", "--n", "1", "--c", "2+i", "--format", "json"],
    "fsum-json": ["fsum", "--w", "1", "--c", "2", "--format", "json"],
    "charsum": ["charsum", "--c", "3+3i"],
    "charsum-csv": ["charsum", "--c", "3+3i", "--format", "csv"],
    "charsum-json": ["charsum", "--c", "3+3i", "--format", "json"],
    "bessel-compare": ["bessel", "--z", "1+i", "--T", "2", "--P", "2", "--compare"],
    "plancherel": ["plancherel", "--T", "1", "--P", "1"],
    "zeta-smoothed": ["zeta", "--s", "2", "--smoothed"],
    "kuznetsov-geom": ["kuznetsov-geom", "--m", "1", "--n", "2+i", "--T", "2", "--c-norm-max", "20"],
    "quadform": ["quadform", "--C", "5", "--M", "5", "--N", "5"],
    "hybrid": ["hybrid", "--C", "4", "--T", "2", "--N", "20"],
    "eisenstein": ["eisenstein", "--T", "2", "--P", "1", "--N", "30"],
    "verify": ["verify"],
    "verify-charsum-csv": ["verify", "charsum", "--format", "csv"],
    "verify-charsum-json": ["verify", "charsum", "--format", "json"],
    "lemma-check": ["lemma-check", "--max-norm", "64"],
    "lemma-check-csv": ["lemma-check", "--max-norm", "64", "--format", "csv"],
    "lemma-check-json": ["lemma-check", "--max-norm", "64", "--format", "json"],
}


def _run(argv: list[str], out_path: Path) -> tuple[int, bytes, bytes]:
    """Exit status, stdout bytes and --out file bytes of one run."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run([*argv, "--out", str(out_path)])
    return code, buf.getvalue().encode(), out_path.read_bytes()


def _exit_codes() -> dict[str, int]:
    return json.loads((GOLDEN / "exit_codes.json").read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name, tmp_path):
    code, stdout, out_file = _run(CASES[name], tmp_path / "report")
    want = (GOLDEN / f"{name}.out").read_bytes()
    assert code == _exit_codes()[name]
    assert stdout == want
    assert out_file == want


def _clear_package_caches() -> int:
    cleared = 0
    for modname, module in list(sys.modules.items()):
        if not modname.startswith("gisieve"):
            continue
        for value in vars(module).values():
            if isinstance(value, functools._lru_cache_wrapper):
                value.cache_clear()
                cleared += 1
    return cleared


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "charsum", "lemma", "--max-norm", "30", "--format", "csv"],
        ["kuznetsov-geom", "--m", "1", "--n", "2+i", "--T", "2", "--c-norm-max", "10"],
        ["eisenstein", "--T", "2", "--P", "1", "--N", "10", "--trials", "3", "--format", "json"],
    ],
    ids=["verify", "kuznetsov-geom", "eisenstein"],
)
def test_reports_do_not_depend_on_cache_state(argv, tmp_path):
    warm = _run(argv, tmp_path / "warm")
    assert _clear_package_caches() > 0
    cold = _run(argv, tmp_path / "cold")
    assert cold == warm


@pytest.mark.parametrize(
    "name", ["kuznetsov-geom", "bessel-compare", "quadform", "hybrid", "eisenstein"]
)
def test_reports_do_not_depend_on_blas_threads(name):
    # the geometric forms reach BLAS through their (orders x nodes) matrix
    # product, the quad form and the hybrid sieve through their coefficient
    # rows times one matrix, and NumPy may link a threaded OpenBLAS: one and
    # two threads must print the same bytes, the golden ones.  The Eisenstein
    # sieve's factored lattice sum contracts its tables by np.einsum, which
    # does not reach BLAS
    src = str(Path(gisieve.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outs = [
        subprocess.run(
            [sys.executable, "-m", "gisieve.cli", *CASES[name]],
            env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads},
            capture_output=True,
            check=True,
        ).stdout
        for threads in ("1", "2")
    ]
    assert outs[0] == outs[1] == (GOLDEN / f"{name}.out").read_bytes()


if __name__ == "__main__":
    # Write the golden files from the checkout on sys.path.
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in CASES.items():
            code, stdout, out_file = _run(argv, Path(tmp) / "report")
            assert stdout == out_file, name
            (GOLDEN / f"{name}.out").write_bytes(stdout)
            codes[name] = code
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")

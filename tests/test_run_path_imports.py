"""qgelab runs on numpy alone: `import qgelab`, `simulate`, `sweep`, `cost`,
`verify` and the reference read load no scipy.

Each case runs in a fresh interpreter, since this test process has long
since imported scipy.  An `Observable` holds its entries as numpy arrays,
so the benchmark's reference read, `statevector.expectations` of
`Problem.observables` on `Problem.state`, and `encode` on an `Observable`
run on numpy alone.  Only `Observable.matrix`, `sum_squares_sector_norm`
and `encode` on a scipy input load scipy, on first use; `verify` reads the
k-body stack's entries and never builds a scipy matrix of them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

HEAVY = """
import contextlib, io, json, sys

def heavy():
    return sorted(m for m in sys.modules if m.partition(".")[0] in ("scipy", "multiprocessing"))

"""

CLI = """
import qgelab

report = {"import": heavy(), "codes": {}}
from qgelab import cli

for name, argv in json.loads(sys.argv[1]).items():
    with contextlib.redirect_stdout(io.StringIO()):
        report["codes"][name] = cli.main(argv)
report["after"] = heavy()
print(json.dumps(report))
"""

SIMULATE = "simulate --N 4 --k 2 --eta 2 --eps 0.25 --trials 3 --seed 1 --jobs 1".split()


def _child(code: str, cwd: Path, *args: str):
    """Run `code` after HEAVY in a fresh interpreter; its last stdout line, as JSON."""
    proc = subprocess.run(
        [sys.executable, "-c", HEAVY + code, *args],
        cwd=cwd, env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


def _run(commands: dict[str, list[str]], cwd: Path) -> dict:
    return _child(CLI, cwd, json.dumps(commands))


def test_run_commands_load_no_scipy(tmp_path):
    commands = {
        f"simulate {m}": SIMULATE + ["--method", m, "--out", str(tmp_path / m)]
        for m in ("prior-qge", "method-1", "method-2")
    }
    commands["sweep"] = ["sweep", "--method", "method-1", "--out", str(tmp_path / "sweep")]
    commands["cost"] = ["cost", "--preset", "femoco", "--out", str(tmp_path / "cost")]
    report = _run(commands, tmp_path)
    assert report["import"] == [], "import qgelab loaded scipy or multiprocessing"
    assert report["codes"] == {name: 0 for name in commands}
    assert report["after"] == [], "a --jobs 1 run command loaded scipy or multiprocessing"


def test_verify_still_loads_its_suites(tmp_path):
    report = _run({"verify": ["verify", "--quick"]}, tmp_path)
    assert report["codes"] == {"verify": 0}
    assert report["after"] == [], "verify --quick loaded scipy or multiprocessing"


def test_verify_module_imports_no_scipy(tmp_path):
    loaded = _child("import qgelab.verify\nprint(json.dumps(heavy()))", tmp_path)
    assert loaded == [], "import qgelab.verify loaded scipy or multiprocessing"


REFERENCE = """
import numpy as np
from qgelab import encode, engine, statevector

problem = engine.krdm_problem(4, 2, 2, np.random.default_rng(1))
reference = statevector.expectations(problem.observables, problem.state)
encode.block_encode(problem.observables[0], 1.0)
print(json.dumps({"gap": float(np.abs(reference - problem.exact).max()), "after": heavy()}))
"""


def test_reference_read_loads_no_scipy(tmp_path):
    # The benchmark's reference read of contract-m66's shape, and a block
    # encoding of one of its observables.
    report = _child(REFERENCE, tmp_path)
    assert report["after"] == [], "the reference read or encode loaded scipy or multiprocessing"
    assert report["gap"] <= 1e-12

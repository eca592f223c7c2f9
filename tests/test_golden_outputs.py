"""Golden outputs: `simulate`, `sweep` and `cost` CSVs and `verify --quick` keep their bytes.

Each simulate run below writes a summary and a trace CSV, each sweep a sweep
CSV (the priced totals of the sector-aware methods at three shapes), and each
cost run a table CSV (every method's aleph and total: the three presets, one
shape, and one shape with typed prefactors).
Their SHA-256 digests, taken without the `# provenance` line (it names the
package version), must equal the digests recorded here, and so must the
digests of the `verify --quick` and full `verify` reports (each suite's
cases and max error).
A change that claims to leave the random stream and the arithmetic alone is
held to this; before this file the same check was made by hand with `cmp`
against the parent commit's outputs.

The digests are the bits of numpy 2.4.6 with its bundled OpenBLAS on x86-64
Linux.  Another numpy or BLAS may round the readout law differently and move
a sampled readout, so on another platform a mismatch is a prompt to compare
against the parent commit, not proof of a fault.  A change that alters the
stream on purpose (a new sampler, a new schedule) re-records the digests
with `python tests/test_golden_outputs.py` and says so in its description.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

import pytest

from qgelab import cli

BASE = ["simulate", "--N", "4", "--k", "2", "--eta", "2", "--eps", "0.02",
        "--trials", "20", "--seed", "1"]
RUNS = {
    "prior-qge": BASE + ["--method", "prior-qge"],
    "method-1": BASE + ["--method", "method-1"],
    "method-2": BASE + ["--method", "method-2"],
    "noisy": BASE + ["--method", "method-1", "--phase-jitter", "0.2", "--fail-prob", "0.01"],
    "sine-p4": BASE + ["--method", "method-1", "--window", "sine", "--p", "4"],
}

# SHA-256 of (summary CSV, trace CSV) without the provenance line, per run.
DIGESTS = {
    "prior-qge": (
        "68a359db6ef321ffd5dd498ab913ee3254dffc23f3fec094e0cb9d7159e4d8e7",
        "febc93144832560969b64a342d39bbe78c6dc79181008e38451477e884e73b56",
    ),
    "method-1": (
        "254e99f275b7d5b908811854e54ab6de09f07363ba7cb1b16ed4f827f153a11e",
        "7c0738a2e3124ccc577d40b078c59617452c89a6dae87aa4b152a4e76c93d573",
    ),
    "method-2": (
        "b9e74b0f057af4def3983803af21c33385f1d58ab93b61624892dffcce415bd9",
        "6e26489a47d7c23b00afc2b8070b29a447d94b4a28ee9da423c55d84e99e63df",
    ),
    "noisy": (
        "254e99f275b7d5b908811854e54ab6de09f07363ba7cb1b16ed4f827f153a11e",
        "52a8f9541e5672fc649c810f66d89f6bf2863094c317f0566aab6b5c5b68944e",
    ),
    "sine-p4": (
        "3e638d54b45578c8716fec0c10f498777f63bb213c2e9fc9ac992ddcb8f18e1d",
        "06a8d7590193e60093dcaaca687c6f0a7089658c4a4fadfd20351d4d54672609",
    ),
}


SWEEPS = {
    f"{method}-{N}-{k}-{eta}": ["sweep", "--method", method, "--N", str(N), "--k", str(k),
                                "--eta", str(eta)]
    for method in ("method-1", "method-2")
    for N, k, eta in ((4, 2, 2), (8, 2, 4), (12, 3, 6))
}

# SHA-256 of the sweep CSV without the provenance line, per sweep.
SWEEP_DIGESTS = {
    "method-1-4-2-2": "5356d5adfde81f7240132431dcfcb2505413fa8003bd12b72bb2b8479dd8e5ec",
    "method-1-8-2-4": "705971d1ebe755a79c86cf0446dd8e1a1f371d6bef72cc0c2e0191b2d192fd54",
    "method-1-12-3-6": "960b031fca05cac3cdb28c890295d80212ad3b9c2cde70bbe34d0d649e7092e5",
    "method-2-4-2-2": "7b7dbdceca78f8f5b0a71ece1d968e409a872817acceae41c8fee137ca5aba84",
    "method-2-8-2-4": "515e777317982ae2e5d3da5df3c6d00ad6353ccc7f42e1d179328709885b971e",
    "method-2-12-3-6": "9e5f2ee286ed6574ce0d385c9ea24b5592ca5c1bb1bf9d60a66d5ae18a4de0d2",
}


TABLES = {
    **{preset: ["cost", "--preset", preset] for preset in ("filling-sweep", "femoco", "hubbard")},
    "4-2-2": ["cost", "--N", "4", "--k", "2", "--eta", "2"],
    "8-2-4-prefactors": ["cost", "--N", "8", "--k", "2", "--eta", "4",
                         "--prefactor", "method-1=3,prior-qge=2"],
}

# SHA-256 of the table CSV without the provenance line, per cost run.
TABLE_DIGESTS = {
    "filling-sweep": "e83506188a75040a017553ea68120f186fb55c666a1df61e8487d553297dc2be",
    "femoco": "98f6edff0112805f8fd39b089d20135abffe95dfc55775ee785cd1f88bf1f1a7",
    "hubbard": "82619dd6e9e03c198543d26c31f67f72180c1cf2d2ea6adf65161459d97da5dc",
    "4-2-2": "5a42b418b1de57afda7c20606e4a3da0685e461c1d724985b3bb0aaecaff7d82",
    "8-2-4-prefactors": "74d6cb67c28b4992bfc51dff92b3c9019b1ce8566c390386368797dd49a9b599",
}


# SHA-256 of the `verify --quick` and of the full `verify` stdout.
VERIFY_DIGEST = "f779d62465508d242a54b39014629400af9b7514c58556f97d843ef4da8dc6ff"
VERIFY_FULL_DIGEST = "9aa67b8ed153b8930962d5568bd4dc3c2e6b60fcb7bf8f1a25ef3087ea39680f"


def _digest(path: Path) -> str:
    lines = path.read_bytes().splitlines(keepends=True)
    kept = b"".join(line for line in lines if not line.startswith(b"# provenance"))
    return hashlib.sha256(kept).hexdigest()


def _run_digests(name: str, folder: Path) -> tuple[str, str]:
    stem = folder / name
    assert cli.main(RUNS[name] + ["--out", str(stem)]) == 0
    return tuple(_digest(folder / f"{name}_{part}.csv") for part in ("summary", "trace"))


def _sweep_digest(name: str, folder: Path) -> str:
    assert cli.main(SWEEPS[name] + ["--out", str(folder / name)]) == 0
    return _digest(folder / f"{name}_sweep.csv")


def _table_digest(name: str, folder: Path) -> str:
    assert cli.main(TABLES[name] + ["--out", str(folder / name)]) == 0
    return _digest(folder / f"{name}_table.csv")


def _verify_digest(quick: bool) -> str:
    report = io.StringIO()
    with contextlib.redirect_stdout(report):
        assert cli.main(["verify", "--quick"] if quick else ["verify"]) == 0
    return hashlib.sha256(report.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_simulate_csvs_match_recorded_digests(name, tmp_path):
    assert _run_digests(name, tmp_path) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_csvs_match_recorded_digests(name, tmp_path):
    assert _sweep_digest(name, tmp_path) == SWEEP_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(TABLES))
def test_cost_tables_match_recorded_digests(name, tmp_path):
    assert _table_digest(name, tmp_path) == TABLE_DIGESTS[name]


def test_verify_quick_report_matches_recorded_digest():
    assert _verify_digest(quick=True) == VERIFY_DIGEST


def test_verify_full_report_matches_recorded_digest():
    assert _verify_digest(quick=False) == VERIFY_FULL_DIGEST


if __name__ == "__main__":
    # Print the DIGESTS, SWEEP_DIGESTS, TABLE_DIGESTS and both verify digests for the
    # qgelab on sys.path.
    with tempfile.TemporaryDirectory() as folder, contextlib.redirect_stdout(io.StringIO()):
        digests = {name: _run_digests(name, Path(folder)) for name in RUNS}
        sweeps = {name: _sweep_digest(name, Path(folder)) for name in SWEEPS}
        tables = {name: _table_digest(name, Path(folder)) for name in TABLES}
        verify = _verify_digest(quick=True)
        verify_full = _verify_digest(quick=False)
    print("DIGESTS = {")
    for name, (summary, trace) in digests.items():
        print(f'    "{name}": (\n        "{summary}",\n        "{trace}",\n    ),')
    print("}")
    print("SWEEP_DIGESTS = {")
    for name, digest in sweeps.items():
        print(f'    "{name}": "{digest}",')
    print("}")
    print("TABLE_DIGESTS = {")
    for name, digest in tables.items():
        print(f'    "{name}": "{digest}",')
    print("}")
    print(f'VERIFY_DIGEST = "{verify}"')
    print(f'VERIFY_FULL_DIGEST = "{verify_full}"')

"""End-to-end command tests: flags, config files, exit codes, CSV output."""

import csv
import io
import math
import re
import sys

import numpy as np
import pytest

from qgelab import cli, cost, engine, fermion, probe, statevector


def _read_rows(path):
    lines = path.read_text().splitlines()
    body = [ln for ln in lines if not ln.startswith("#")]
    footer = [ln for ln in lines if ln.startswith("#")]
    parsed = list(csv.reader(io.StringIO("\n".join(body))))
    return parsed[0], parsed[1:], footer


# ------------------------------------------------------------------ simulate

def test_simulate_pauli_demo(tmp_path, capsys):
    out = tmp_path / "demo"
    code = cli.main(
        ["simulate", "--pauli", "Z", "--state", "plus", "--eps", "0.25",
         "--trials", "40", "--seed", "3", "--out", str(out)]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "mean estimates:" in captured.out
    assert captured.err == ""  # the crowded-regime caution is for k-body sets only
    header, rows, footer = _read_rows(tmp_path / "demo_summary.csv")
    assert header[:5] == ["label", "exact_expectation", "mean_estimate", "bias", "mse"]
    z_row = rows[0]
    assert z_row[0] == "Z"
    assert abs(float(z_row[1])) < 1e-12
    assert abs(float(z_row[2])) <= 0.1  # symmetric case: mean estimate near zero
    assert footer and footer[0].startswith("# provenance,qgelab-")


def test_simulate_zero_state_hits_boundary(tmp_path):
    out = tmp_path / "zero"
    code = cli.main(
        ["simulate", "--pauli", "Z", "--state", "zero", "--eps", "0.1",
         "--trials", "20", "--seed", "5", "--out", str(out)]
    )
    assert code == 0
    _, rows, _ = _read_rows(tmp_path / "zero_summary.csv")
    z = rows[0]
    assert float(z[1]) == 1.0
    assert abs(float(z[2]) - 1.0) <= 0.1
    all_row = rows[-1]
    assert all_row[0] == "ALL"
    assert float(all_row[5]) <= 0.1**2  # max MSE


@pytest.mark.filterwarnings("ignore:.*crowded.*")
def test_simulate_summary_shape(tmp_path):
    out = tmp_path / "krdm"
    code = cli.main(
        ["simulate", "--N", "2", "--k", "1", "--eta", "1", "--eps", "0.25",
         "--trials", "10", "--seed", "2", "--out", str(out)]
    )
    assert code == 0
    header, rows, footer = _read_rows(tmp_path / "krdm_summary.csv")
    assert len(rows) == 6 + 1  # estimation set for N=2, k=1, plus the ALL row
    for fields in rows[:-1]:
        assert float(fields[4]) >= 0.0  # per-observable mse
    all_fields = rows[-1]
    assert float(all_fields[6]) > 0  # total queries
    trace_header, trace_rows, _ = _read_rows(tmp_path / "krdm_trace.csv")
    assert trace_header == ["trial", "q", "j", "u_tilde", "v", "g",
                            "violation_flag", "queries_cumulative"]
    assert len(trace_rows) == 10 * 3 * 6  # trials * levels * observables


def test_simulate_byte_identical_reruns(tmp_path):
    args = ["simulate", "--N", "4", "--k", "2", "--eta", "2", "--eps", "0.25",
            "--trials", "6", "--seed", "11"]
    assert cli.main(args + ["--out", str(tmp_path / "a")]) == 0
    assert cli.main(args + ["--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a_summary.csv").read_bytes() == (tmp_path / "b_summary.csv").read_bytes()
    assert (tmp_path / "a_trace.csv").read_bytes() == (tmp_path / "b_trace.csv").read_bytes()
    assert cli.main(args[:-1] + ["12", "--out", str(tmp_path / "c")]) == 0
    assert (tmp_path / "a_trace.csv").read_bytes() != (tmp_path / "c_trace.csv").read_bytes()


def test_simulate_jobs_invariant(tmp_path):
    base = ["simulate", "--N", "4", "--k", "2", "--eta", "2", "--eps", "0.25",
            "--trials", "6", "--seed", "11"]
    assert cli.main(base + ["--jobs", "1", "--out", str(tmp_path / "serial")]) == 0
    assert cli.main(base + ["--jobs", "2", "--out", str(tmp_path / "para")]) == 0
    assert (
        (tmp_path / "serial_trace.csv").read_bytes()
        == (tmp_path / "para_trace.csv").read_bytes()
    )


def test_simulate_computes_exact_expectations_once(tmp_path, monkeypatch):
    calls = []
    original = fermion.krdm_expectations

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(fermion, "krdm_expectations", counting)
    assert cli.main(["simulate", "--N", "4", "--k", "2", "--eta", "2", "--eps", "0.25",
                     "--trials", "3", "--seed", "1", "--out", str(tmp_path / "once")]) == 0
    assert len(calls) == 1


def test_simulate_builds_no_full_state(tmp_path, monkeypatch):
    # A problem holds its sector amplitudes, and a run builds no k-body entries,
    # on the sector or on 2^N states.
    runs = {
        "krdm": ["simulate", "--N", "4", "--k", "2", "--eta", "2", "--eps", "0.25",
                 "--trials", "3"],
        "pauli": ["simulate", "--pauli", "Z", "--state", "plus", "--eps", "0.25",
                  "--trials", "3"],
    }
    for name, argv in runs.items():
        assert cli.main(argv + ["--out", str(tmp_path / f"free-{name}")]) == 0

    def refuse(*args, **kwargs):
        raise AssertionError("simulate built the k-body entries")

    monkeypatch.setattr(fermion, "_krdm_entries", refuse)
    for name, argv in runs.items():
        assert cli.main(argv + ["--out", str(tmp_path / f"guarded-{name}")]) == 0
        for part in ("summary", "trace"):
            free, guarded = (tmp_path / f"{run}-{name}_{part}.csv" for run in ("free", "guarded"))
            assert guarded.read_bytes() == free.read_bytes()


def test_simulate_pauli_rejects_sector_methods(tmp_path, capsys):
    code = cli.main(["simulate", "--pauli", "Z", "--method", "method-1",
                     "--out", str(tmp_path / "x")])
    assert code == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["flag", "config"])
def test_simulate_rejects_state_without_pauli(tmp_path, capsys, source):
    # --state picks the Pauli demo's state; a k-body run would drop it
    argv = ["simulate", "--N", "4", "--k", "2", "--eta", "2", "--eps", "0.1",
            "--trials", "5", "--seed", "1", "--out", str(tmp_path / "x")]
    if source == "flag":
        argv += ["--state", "one"]
        dropped = "--state"
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[problem]\nstate = one\n")
        argv += ["--config", str(cfg)]
        dropped = f"state in {cfg}"
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert "config error" in err and f"only --pauli Z reads {dropped}" in err
    assert not list(tmp_path.glob("x_*.csv"))


def test_simulate_trace_flags_agree_with_violation_fraction(tmp_path):
    # A noisy run where 1 of 50 runs breaks the recentring bound at some q >= 1.
    out = tmp_path / "noisy"
    assert cli.main(["simulate", "--N", "4", "--k", "2", "--eta", "2", "--eps", "0.1",
                     "--trials", "50", "--seed", "3", "--phase-jitter", "0.2",
                     "--fail-prob", "0.3", "--out", str(out)]) == 0
    _, rows, _ = _read_rows(tmp_path / "noisy_trace.csv")
    flagged = {int(r[0]) for r in rows if r[6] == "1"}
    assert all(int(r[1]) >= 1 for r in rows if r[6] == "1")
    _, summary, _ = _read_rows(tmp_path / "noisy_summary.csv")
    assert len(flagged) == 1
    assert float(summary[-1][7]) == len(flagged) / 50


@pytest.mark.parametrize(
    "flags",
    [["--N", "9"], ["--k", "3"], ["--eta", "5"], ["--N", "9", "--k", "3", "--eta", "5"]],
    ids=["N", "k", "eta", "all"],
)
def test_simulate_pauli_rejects_problem_flags(tmp_path, capsys, flags):
    # --pauli Z builds one fixed qubit; a typed problem size would be dropped
    code = cli.main(["simulate", "--pauli", "Z", "--trials", "5", "--eps", "0.1", *flags,
                     "--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert "config error" in err and f"fixes {flags[0]}" in err
    assert not (tmp_path / "x_trace.csv").exists()


# --------------------------------------------------------------- config file

def test_config_file_roundtrip(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# benchmark record\n"
        "[problem]\n"
        "N = 4\n"
        "k = 2\n"
        "eta = 2\n"
        "[schedule]\n"
        "eps = 0.25   # coarse\n"
        "method = method-2\n"
        "trials = 5\n"
        "seed = 11\n"
        "[noise]\n"
        "fail_prob = 0.0\n"
    )
    code = cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "cfg")])
    assert code == 0
    assert (tmp_path / "cfg_summary.csv").exists()


def test_config_flags_override_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[schedule]\nmethod = method-1\ntrials = 5\nseed = 1\neps = 0.25\n")
    code = cli.main(
        ["simulate", "--config", str(cfg), "--method", "method-2",
         "--N", "4", "--k", "2", "--eta", "2", "--out", str(tmp_path / "o")]
    )
    assert code == 0
    assert "method=method-2" in capsys.readouterr().out


@pytest.mark.parametrize(
    "content,fragment",
    [
        ("[problem]\nbogus = 3\n", "unknown key"),
        ("[mystery]\nN = 4\n", "unknown config section"),
        ("[problem]\nN = four\n", "bad value"),
        ("N = 4\n", "malformed"),
    ],
)
def test_config_rejects_bad_files(tmp_path, capsys, content, fragment):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(content)
    code = cli.main(["simulate", "--config", str(cfg)])
    assert code == 1
    assert fragment in capsys.readouterr().err


_COST = ["cost", "--N", "4", "--k", "2", "--eta", "2"]


@pytest.mark.parametrize(
    "command,content,key",
    [
        (_COST, "[schedule]\nmethod = method-2\n", "method"),
        (_COST, "[schedule]\np = 7\n", "p"),
        (_COST, "[schedule]\ntrials = 3\n", "trials"),
        (_COST, "[schedule]\nseed = 3\n", "seed"),
        (_COST, "[noise]\nfail_prob = 0.5\n", "fail_prob"),
        (_COST, "[problem]\npauli = Z\n", "pauli"),
        (["simulate", "--trials", "3"], "[cost]\npreset = femoco\n", "preset"),
        (["simulate", "--trials", "3"], "[cost]\nmethods = method-1\n", "methods"),
    ],
    ids=["cost-method", "cost-p", "cost-trials", "cost-seed", "cost-fail_prob", "cost-pauli",
         "simulate-preset", "simulate-methods"],
)
def test_config_rejects_keys_the_command_never_reads(tmp_path, capsys, command, content, key):
    # Each command reads a fixed set of keys; a file value outside it would be dropped.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(content)
    assert cli.main(command + ["--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and f"{command[0]} never reads {key} in {cfg}" in err
    assert not list(tmp_path.glob("x_*.csv"))


def test_config_missing_file(tmp_path, capsys):
    code = cli.main(["simulate", "--config", str(tmp_path / "nope.cfg")])
    assert code == 1
    assert "cannot read" in capsys.readouterr().err


# ----------------------------------------------------------------- bad flags

@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["simulate", "--eps", "2"],
        ["simulate", "--eps", "0"],
        ["simulate", "--method", "bogus"],
        ["simulate", "--seed", "-1"],
        ["simulate", "--seed", str(2**64)],
        ["simulate", "--N", "4", "--k", "5", "--eta", "2"],
        ["simulate", "--N", "4", "--k", "2", "--eta", "9"],
        ["simulate", "--c", "0.5"],
        ["simulate", "--trials", "0"],
        ["cost", "--preset", "unknown"],
        ["cost", "--prefactor", "method-2"],
        ["cost", "--prefactor", "nope=2"],
        ["cost", "--methods", "method-1,bogus"],
        ["cost", "--N", "4", "--k", "2", "--eta", "2", "--methods", ""],
        ["cost", "--N", "4", "--k", "2", "--eta", "2", "--methods", ","],
        ["cost", "--N", "4", "--k", "2", "--eta", "2", "--methods", "method-1,method-1"],
        ["cost", "--N", "4", "--k", "2", "--eta", "2",
         "--prefactor", "method-2=50", "--prefactor", "method-2=2"],
        ["cost", "--N", "4", "--k", "2", "--eta", "2", "--prefactor", "method-2=50,method-2=2"],
        ["cost", "--N", "4", "--k", "2", "--eta", "2", "--prefactor", ""],
        ["sweep", "--N", "4", "--k", "2", "--eta", "1"],
        ["sweep", "--N", "4", "--k", "2", "--eta", "1", "--method", "method-1"],
        ["sweep", "--N", "4", "--k", "2", "--eta", "1", "--method", "method-2"],
        # non-finite floats: nan compares false with every bound
        ["verify", "--quick", "--tol", "nan"],
        ["verify", "--quick", "--tol", "inf"],
        ["simulate", "--N", "4", "--k", "2", "--eta", "2", "--eps", "0.1", "--trials", "3",
         "--phase-jitter", "nan"],
        ["simulate", "--N", "4", "--k", "2", "--eta", "2", "--eps", "0.1", "--trials", "3",
         "--phase-jitter", "inf"],
        ["cost", "--N", "4", "--k", "2", "--eta", "2", "--prefactor", "qae=nan"],
        ["cost", "--N", "4", "--k", "2", "--eta", "2", "--prefactor", "qae=inf"],
        # below the smallest eps and c the cost model represents
        ["cost", "--N", "4", "--k", "2", "--eta", "2", "--eps", "1e-100"],
        ["cost", "--N", "4", "--k", "2", "--eta", "2", "--c", "1e-300"],
        ["sweep", "--method", "method-1", "--eps-min", "1e-150"],
        ["simulate", "--N", "4", "--k", "2", "--eta", "2", "--eps", "0.1", "--trials", "2",
         "--c", "1e-320"],
        ["simulate", "--N", "4", "--k", "2", "--eta", "2", "--eps", "1e-120", "--trials", "2"],
        # past the largest shape the cost model represents: N_MAX modes, M_MAX observables
        ["cost", "--N", "1030", "--k", "2", "--eta", "10"],
        ["cost", "--N", "600", "--k", "300", "--eta", "300"],
        ["sweep", "--N", "600", "--k", "300", "--eta", "300", "--method", "shots"],
        ["cost", "--N", "1000", "--k", "100", "--eta", "100", "--eps", "1e-30"],
    ],
)
def test_config_errors_exit_one(tmp_path, capsys, argv):
    # verify writes no file and takes no --out
    out = ["--out", str(tmp_path / "x")] if argv[:1] not in ([], ["verify"]) else []
    code = cli.main(argv + out)
    assert code == 1
    assert "config error" in capsys.readouterr().err
    assert not list(tmp_path.glob("x_*.csv"))


@pytest.mark.parametrize(
    "command,content",
    [
        (["simulate", "--eps", "0.1", "--trials", "3"], "[noise]\nphase_jitter = nan\n"),
        (["simulate", "--eps", "0.1", "--trials", "3"], "[noise]\nphase_jitter = inf\n"),
        (_COST, "[cost]\nprefactor = qae=nan\n"),
        (_COST, "[cost]\nprefactor = qae=inf\n"),
    ],
    ids=["phase_jitter-nan", "phase_jitter-inf", "prefactor-nan", "prefactor-inf"],
)
def test_config_file_rejects_non_finite_values(tmp_path, capsys, command, content):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(content)
    assert cli.main(command + ["--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "bad value for" in err
    assert not list(tmp_path.glob("x_*.csv"))


@pytest.mark.parametrize(
    "argv,message",
    [
        (["cost", "--N", "4", "--k", "2", "--eta", "2", "--eps", "1e-100"],
         f"epsilon must lie in [{cost.EPSILON_MIN:g}, 1], got 1e-100"),
        (["cost", "--N", "4", "--k", "2", "--eta", "2", "--c", "1e-300"],
         f"c must lie in [{cost.C_MIN:g}, {cost.C_MAX:.6g}], got 1e-300"),
        (["sweep", "--method", "method-1", "--eps-min", "1e-150"],
         f"epsilon must lie in [{cost.EPSILON_MIN:g}, 1], got 1e-150"),
        (["cost", "--N", "1030", "--k", "2", "--eta", "10"], f"N_MAX={cost.N_MAX}"),
        (["sweep", "--N", "1030", "--k", "1", "--eta", "1", "--method", "method-1"],
         f"N_MAX={cost.N_MAX}"),
        (["sweep", "--N", "600", "--k", "300", "--eta", "300", "--method", "shots"],
         f"M_MAX={cost.M_MAX:g}"),
    ],
    ids=["cost-eps", "cost-c", "sweep-eps-min", "cost-N", "sweep-N", "sweep-M"],
)
def test_config_error_names_the_representable_bound(tmp_path, capsys, argv, message):
    assert cli.main(argv + ["--out", str(tmp_path / "x")]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["cost", "--N", "4", "--k", "2", "--eta", "2", "--eps", "1e-30", "--c", "1e-90"],
        ["sweep", "--method", "method-1", "--eps-min", "1e-30", "--c", "1e-90"],
        ["sweep", "--method", "shots", "--eps-min", "1e-30"],
        ["simulate", "--N", "4", "--k", "2", "--eta", "2", "--eps", "1e-30", "--c", "1e-90",
         "--trials", "2"],
        # the largest shape: N_MAX modes and the largest k whose M stays under M_MAX
        ["cost", "--N", "1023", "--k", "33", "--eta", "511", "--eps", "1e-30", "--c", "1e-90"],
        # shots reads M and not 2^N, so N_MAX does not bound it
        ["sweep", "--N", "2000", "--k", "1", "--eta", "1", "--method", "shots",
         "--eps-min", "1e-30"],
    ],
    ids=["cost", "sweep-method-1", "sweep-shots", "simulate", "cost-largest-shape",
         "sweep-shots-past-N_MAX"],
)
def test_smallest_representable_eps_and_c_run(tmp_path, argv):
    assert cli.main(argv + ["--out", str(tmp_path / "x")]) == 0
    assert list(tmp_path.glob("x_*.csv"))


def _step(value: float, toward: float) -> str:
    """The float next to `value` in the direction of `toward`, as a flag value."""
    return repr(math.nextafter(value, toward))


_C_TOP = cost.C_MAX + 1e-15  # c's upper bound, with its rounding allowance
_BOUNDARY_BASE = {
    "simulate": {"N": "4", "k": "2", "eta": "2", "eps": "0.25", "trials": "1", "jobs": "1"},
    "cost": {"N": "4", "k": "2", "eta": "2"},
    "sweep": {"N": "4", "k": "2", "eta": "2"},
    "verify": {"quick": None},
}
# (command, flags over its base point, expected exit code, the text an exit-1
# message must contain: the bad value, or the bound it passes for a derived
# bound such as M_MAX).  Each bound is taken at its last accepted value and
# one step past it; for a float, the next double.
_BOUNDARY_CASES = [
    ("simulate", {"eps": _step(1.0, 0.0)}, 0, None),
    ("simulate", {"eps": "1"}, 1, "1"),
    ("cost", {"eps": _step(1.0, 0.0)}, 0, None),
    ("cost", {"eps": "1"}, 1, "1"),
    ("cost", {"eps": repr(cost.EPSILON_MIN)}, 0, None),
    ("cost", {"eps": _step(cost.EPSILON_MIN, 0.0)}, 1, _step(cost.EPSILON_MIN, 0.0)),
    ("simulate", {"c": repr(_C_TOP)}, 0, None),
    ("simulate", {"c": _step(_C_TOP, 1.0)}, 1, _step(_C_TOP, 1.0)),
    ("cost", {"c": repr(_C_TOP)}, 0, None),
    ("cost", {"c": _step(_C_TOP, 1.0)}, 1, _step(_C_TOP, 1.0)),
    ("cost", {"c": repr(cost.C_MIN)}, 0, None),
    ("cost", {"c": _step(cost.C_MIN, 0.0)}, 1, _step(cost.C_MIN, 0.0)),
    ("cost", {"methods": "qae", "c": _step(cost.C_MIN, 0.0)}, 1, _step(cost.C_MIN, 0.0)),
    ("sweep", {"c": repr(_C_TOP)}, 0, None),
    ("sweep", {"c": _step(_C_TOP, 1.0)}, 1, _step(_C_TOP, 1.0)),
    ("sweep", {"c": repr(cost.C_MIN)}, 0, None),
    ("sweep", {"c": _step(cost.C_MIN, 0.0)}, 1, _step(cost.C_MIN, 0.0)),
    ("simulate", {"p": "1"}, 0, None),
    ("simulate", {"p": "0"}, 1, "0"),
    ("simulate", {"p": str(probe.MAX_GRID_BITS)}, 0, None),
    ("simulate", {"p": str(probe.MAX_GRID_BITS + 1)}, 1, str(probe.MAX_GRID_BITS + 1)),
    ("simulate", {"trials": "0"}, 1, "0"),
    ("simulate", {"jobs": "0"}, 1, "0"),
    ("simulate", {"phase_jitter": "0"}, 0, None),
    ("simulate", {"phase_jitter": _step(0.0, -1.0)}, 1, _step(0.0, -1.0)),
    ("simulate", {"phase_jitter": repr(sys.float_info.max)}, 0, None),
    ("simulate", {"phase_jitter": "inf"}, 1, "inf"),
    ("simulate", {"fail_prob": "0"}, 0, None),
    ("simulate", {"fail_prob": _step(0.0, -1.0)}, 1, _step(0.0, -1.0)),
    ("simulate", {"fail_prob": "1"}, 0, None),
    ("simulate", {"fail_prob": _step(1.0, 2.0)}, 1, _step(1.0, 2.0)),
    ("simulate", {"seed": "0"}, 0, None),
    ("simulate", {"seed": "-1"}, 1, "-1"),
    ("simulate", {"seed": str(2**64 - 1)}, 0, None),
    ("simulate", {"seed": str(2**64)}, 1, str(2**64)),
    ("simulate", {"N": "1", "k": "1", "eta": "1"}, 0, None),
    ("simulate", {"N": "0", "k": "1", "eta": "0"}, 1, "0"),
    ("simulate", {"N": "12", "k": "1", "eta": "1"}, 0, None),
    ("simulate", {"N": "13", "k": "1", "eta": "1"}, 1, "13"),
    ("cost", {"N": "1", "k": "1", "eta": "1"}, 0, None),
    ("cost", {"N": "0", "k": "1", "eta": "0"}, 1, "0"),
    ("cost", {"N": str(cost.N_MAX), "k": "1", "eta": "1"}, 0, None),
    ("cost", {"N": str(cost.N_MAX + 1), "k": "1", "eta": "1"}, 1, str(cost.N_MAX + 1)),
    ("cost", {"N": str(cost.N_MAX), "k": "33", "eta": "511"}, 0, None),
    ("cost", {"N": str(cost.N_MAX), "k": "34", "eta": "511"}, 1, f"M_MAX={cost.M_MAX:g}"),
    ("sweep", {"N": str(cost.N_MAX), "k": "1", "eta": "1"}, 0, None),
    ("sweep", {"N": str(cost.N_MAX + 1), "k": "1", "eta": "1"}, 1, str(cost.N_MAX + 1)),
    ("sweep", {"N": "2000", "k": "1", "eta": "1", "method": "shots"}, 0, None),
    ("sweep", {"N": "600", "k": "300", "eta": "1", "method": "shots"}, 1,
     f"M_MAX={cost.M_MAX:g}"),
    ("simulate", {"k": "1"}, 0, None),
    ("simulate", {"k": "0"}, 1, "0"),
    ("simulate", {"k": "4"}, 0, None),
    ("simulate", {"k": "5"}, 1, "5"),
    ("cost", {"k": "1"}, 0, None),
    ("cost", {"k": "0"}, 1, "0"),
    ("cost", {"k": "4"}, 0, None),
    ("cost", {"k": "5"}, 1, "5"),
    ("cost", {"N": None, "eta": None, "preset": "filling-sweep", "k": "16"}, 0, None),
    ("cost", {"N": None, "eta": None, "preset": "filling-sweep", "k": "17"}, 1, "17"),
    ("sweep", {"k": "1"}, 0, None),
    ("sweep", {"k": "0"}, 1, "0"),
    ("sweep", {"k": "4", "eta": "4"}, 0, None),
    ("sweep", {"k": "5", "eta": "4"}, 1, "5"),
    ("simulate", {"eta": "0"}, 0, None),
    ("simulate", {"eta": "-1"}, 1, "-1"),
    ("simulate", {"eta": "4"}, 0, None),
    ("simulate", {"eta": "5"}, 1, "5"),
    ("cost", {"eta": "0"}, 0, None),
    ("cost", {"eta": "-1"}, 1, "-1"),
    ("cost", {"eta": "4"}, 0, None),
    ("cost", {"eta": "5"}, 1, "5"),
    ("sweep", {"eta": "0", "method": "prior-qge"}, 0, None),
    ("sweep", {"eta": "-1", "method": "prior-qge"}, 1, "-1"),
    ("sweep", {"eta": "4"}, 0, None),
    ("sweep", {"eta": "5"}, 1, "5"),
    ("sweep", {"eps_min": repr(cost.EPSILON_MIN)}, 0, None),
    ("sweep", {"eps_min": _step(cost.EPSILON_MIN, 0.0)}, 1, _step(cost.EPSILON_MIN, 0.0)),
    ("sweep", {"eps_min": repr(cost.EPSILON_MIN), "method": "shots"}, 0, None),
    ("sweep", {"eps_min": _step(cost.EPSILON_MIN, 0.0), "method": "shots"}, 1,
     _step(cost.EPSILON_MIN, 0.0)),
    ("sweep", {"eps_max": _step(1.0, 0.0)}, 0, None),
    ("sweep", {"eps_max": "1"}, 1, "1"),
    # three grid points, 0.5 halved twice, down to eps_min (1 - 1e-12)
    ("sweep", {"eps_max": "0.5", "eps_min": "0.1250000000001"}, 0, None),
    ("sweep", {"eps_max": "0.5", "eps_min": "0.1250000000002"}, 1, "got 2"),
    ("sweep", {"eps_max": "0.25", "eps_min": "0.25"}, 1, "0.25"),
    ("verify", {"tol": "0"}, 1, "0"),
    # positive, so validate accepts it; below the certified floor the gate exits 2
    ("verify", {"tol": _step(0.0, 1.0)}, 2, None),
]


@pytest.mark.filterwarnings("ignore:.*crowded.*", "ignore:.*degenerate.*")
@pytest.mark.parametrize(
    "command,flags,code,shown", _BOUNDARY_CASES,
    ids=[f"{cmd}-{'-'.join(f'{k}={v}' for k, v in flags.items() if v)}"
         for cmd, flags, _, _ in _BOUNDARY_CASES],
)
def test_numeric_flags_at_their_bounds(tmp_path, capsys, command, flags, code, shown):
    # Pins each accept or refuse decision at a bound: exit 1 writes no file and
    # names what it refused.
    typed = {**_BOUNDARY_BASE[command], **flags}
    argv = [command]
    for name, value in typed.items():
        if name == "quick" or value is not None:
            option = "--" + name.replace("_", "-")
            argv.append(option if value is None else f"{option}={value}")
    if command != "verify":
        argv += ["--out", str(tmp_path / "x")]
    assert cli.main(argv) == code
    if code == 1:
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and shown in err
        assert not list(tmp_path.glob("x_*.csv"))


def test_schedule_names_the_representable_bound():
    with pytest.raises(ValueError, match=re.escape(f"[{cost.EPSILON_MIN:g}, 1]")):
        cost.iteration_schedule(1e-120, 66)
    with pytest.raises(ValueError, match=re.escape(f"[{cost.C_MIN:g}, ")):
        cost.iteration_schedule(0.1, 66, c=1e-300)


def test_prefactor_that_overflows_a_total_is_a_config_error(tmp_path, capsys):
    argv = ["cost", "--N", "2", "--k", "1", "--eta", "1", "--eps", "1e-30", "--c", "1e-90",
            "--prefactor", "qae=1e308"]
    assert cli.main(argv + ["--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: --prefactor qae=1e+308 overflows the qae total")
    assert not list(tmp_path.glob("x_*.csv"))


@pytest.mark.parametrize(
    "prefactor,method,column",
    [("qae=5e-324", "qae", "total"), ("method-1=5e-324", "method-1", "aleph")],
)
def test_prefactor_that_makes_a_subnormal_is_a_config_error(tmp_path, capsys, prefactor,
                                                            method, column):
    # A subnormal has fewer significant bits than the 12 digits the table prints.
    argv = ["cost", "--N", "2", "--k", "1", "--eta", "1", "--eps", "0.5", "--prefactor", prefactor]
    assert cli.main(argv + ["--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(
        f"config error: --prefactor {method}=4.94066e-324 puts the {method} {column} below "
        "the smallest normal double 2.22507e-308 at N=2 k=1 eta=1 eps=0.5"
    )
    assert not list(tmp_path.glob("x_*.csv"))


def test_cost_prices_each_table_once(tmp_path, monkeypatch):
    # The prefactor bounds are checked on the tables `cmd_cost` writes, not on a second pricing.
    calls = []
    compare_table = cost.compare_table

    def counted(*args, **kwargs):
        calls.append(args)
        return compare_table(*args, **kwargs)

    monkeypatch.setattr(cost, "compare_table", counted)
    argv = ["cost", "--preset", "filling-sweep", "--prefactor", "method-2=50"]
    assert cli.main(argv + ["--out", str(tmp_path / "x")]) == 0
    assert len(calls) == len(cli._FILLING_SWEEP_NS) == 5


def test_cost_prices_aleph_once_per_qge_row(tmp_path, monkeypatch):
    # A QGE row's aleph column and its total read the same aleph.
    calls = []
    aleph = cost.aleph

    def counted(*args):
        calls.append(args)
        return aleph(*args)

    monkeypatch.setattr(cost, "aleph", counted)
    argv = ["cost", "--preset", "hubbard", "--prefactor", "method-2=50"]
    assert cli.main(argv + ["--out", str(tmp_path / "x")]) == 0
    assert sorted(call[0] for call in calls) == sorted(cost.QGE_METHODS)


def test_prefactor_on_a_degenerate_sector_writes_zero(tmp_path, capsys):
    # A vanishing sector norm is an exact 0, not a subnormal: it is written as is.
    argv = ["cost", "--N", "4", "--k", "2", "--eta", "1", "--prefactor", "method-1=2"]
    assert cli.main(argv + ["--out", str(tmp_path / "x")]) == 0
    assert "sector norm vanishes" in capsys.readouterr().err
    header, rows, _ = _read_rows(tmp_path / "x_table.csv")
    row = next(r for r in rows if r[0] == "method-1")
    assert (row[header.index("aleph")], row[header.index("total")]) == ("0", "0")


def test_warnings_print_without_a_location(tmp_path, capsys):
    # A command-line user reads the message; the caller's source line is for library callers.
    argv = ["simulate", "--N", "4", "--k", "2", "--eta", "1", "--eps", "0.25", "--trials", "2"]
    assert cli.main(argv + ["--out", str(tmp_path / "x")]) == 0
    assert capsys.readouterr().err == (
        "warning: degenerate sector (N=4, k=2, eta=1): "
        "the sector norm vanishes and the cost model returns 0\n"
    )


def test_arithmetic_failure_exits_four(tmp_path, monkeypatch, capsys):
    # The input is valid, so an arithmetic failure while the command runs is internal.
    def overflow(*args, **kwargs):
        raise OverflowError("math range error")

    monkeypatch.setattr(cost, "compare_table", overflow)
    assert cli.main(_COST + ["--out", str(tmp_path / "x")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error: ") and "Traceback" not in err
    assert not list(tmp_path.glob("x_*.csv"))


def test_probe_bits_are_capped(tmp_path, capsys):
    # p past the cap is refused with exit 1 before any work, and writes no CSV
    argv = ["simulate", "--eps", "0.1", "--trials", "2", "--out", str(tmp_path / "x")]
    assert cli.main(argv + ["--p", str(probe.MAX_GRID_BITS + 1)]) == 1
    bits = probe.MAX_GRID_BITS
    assert f"grid needs 1 <= p <= {bits}, got {bits + 1}" in capsys.readouterr().err
    assert not list(tmp_path.glob("x_*.csv"))
    args = cli.build_parser().parse_args(argv + ["--p", str(probe.MAX_GRID_BITS)])
    assert cli.build_run_config(args).p == probe.MAX_GRID_BITS


@pytest.mark.parametrize(
    "content,message",
    [
        ("[cost]\nmethods =\n", "names no method"),
        ("[cost]\nmethods = qae,method-2,qae\n", "'qae' is repeated"),
        ("[cost]\nprefactor = qae=2,qae=3\n", "prefactor for qae is given twice"),
        ("[cost]\nprefactor = ,\n", "names no method=value"),
    ],
    ids=["methods-empty", "methods-repeated", "prefactor-repeated", "prefactor-empty"],
)
def test_cost_rejects_empty_or_repeated_config_lists(tmp_path, capsys, content, message):
    # an empty list would silently become every method; a repeat a doubled row or a lost value
    cfg = tmp_path / "run.cfg"
    cfg.write_text(content)
    argv = ["cost", "--N", "4", "--k", "2", "--eta", "2", "--config", str(cfg)]
    assert cli.main(argv + ["--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and message in err
    assert not list(tmp_path.glob("x_*.csv"))


def test_degenerate_sector_sweeps_only_prior_qge(tmp_path, capsys):
    # eta < k: every sector-aware total is 0 and log(0) would poison the fit;
    # prior-qge pays sqrt(M ln d) on the full space, which does not vanish
    argv = ["sweep", "--N", "4", "--k", "2", "--eta", "1", "--out", str(tmp_path / "x")]
    assert cli.main(argv) == 1
    assert "sector norm vanishes at eta=1 < k=2" in capsys.readouterr().err
    assert cli.main(argv + ["--method", "prior-qge"]) == 0
    _, rows, footer = _read_rows(tmp_path / "x_sweep.csv")
    assert all(float(r[2]) > 0 for r in rows)
    assert footer[0].startswith("# fit,slope=1.0")


@pytest.mark.parametrize(
    "argv,message",
    [
        (["verify", "--quick", "--tol", "0"], "tol must be positive"),
        (["sweep", "--eps-min", "0"], "need 0 < eps-min < eps-max < 1"),
    ],
    ids=["verify-tol", "sweep-eps-min"],
)
def test_typed_zero_is_not_replaced(tmp_path, monkeypatch, capsys, argv, message):
    # A typed 0 must be validated and rejected, not swapped for the default.
    monkeypatch.setenv("QGE_LAB_OUT_DIR", str(tmp_path))
    assert cli.main(argv) == 1
    assert message in capsys.readouterr().err


def test_internal_value_error_exit_four(monkeypatch, capsys):
    # Input is validated before dispatch, so a ValueError inside a command is
    # a failure of the program, not a config error.
    def boom(rc):
        raise ValueError("synthetic")

    monkeypatch.setitem(cli._HANDLERS, "cost", boom)
    code = cli.main(["cost", "--N", "4", "--k", "2", "--eta", "2"])
    assert code == 4
    assert "internal error: synthetic" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["simulate", "--N", "13"]], ids=["simulate"])
def test_statevector_cap_is_a_config_error(tmp_path, capsys, argv):
    assert cli.main(argv + ["--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "N=13" in err


# Shapes whose one-trial readout law passes the cell budget, and their M 2^p cell counts.
# They are refused before any array is built; never run one to watch it fail.
@pytest.mark.parametrize(
    "k,cells", [(6, 1_706_628 * 4096), (3, 395_591_680)], ids=["k6", "k3"]
)
def test_one_trial_past_the_cell_budget_is_a_config_error(tmp_path, capsys, k, cells):
    argv = ["simulate", "--N", "12", "--k", str(k), "--eta", "6", "--p", "12"]
    assert cli.main(argv + ["--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and f"= {cells} cells" in err
    assert f"budget of {engine.MAX_TRIAL_CELLS}" in err
    assert not list(tmp_path.glob("x_*.csv"))


def test_one_trial_inside_the_cell_budget_is_accepted():
    argv = ["simulate", "--N", "12", "--k", "2", "--eta", "6", "--p", "12"]
    rc = cli.build_run_config(cli.build_parser().parse_args(argv))  # builds no array
    assert cost.estimation_count(rc.N, rc.k) << rc.p == 35_414_016 <= engine.MAX_TRIAL_CELLS


@pytest.mark.parametrize("method", cost.QGE_METHODS)
def test_qge_sweep_prices_past_the_statevector_cap(tmp_path, method):
    # A sweep holds no state, so the 12-mode cap does not bound it.
    argv = ["sweep", "--N", "13", "--k", "2", "--eta", "6", "--method", method]
    assert cli.main(argv + ["--out", str(tmp_path / "x")]) == 0
    _, rows, _ = _read_rows(tmp_path / "x_sweep.csv")
    rc = cli.build_run_config(cli.build_parser().parse_args(argv))
    grid = [float(row[0]) for row in rows]
    want = [cost.total_queries(method, cost.CostParams(N=13, k=2, eta=6, epsilon=e)) for e in grid]
    assert [t.hex() for t in cli.sweep_totals(rc, method, grid)] == [t.hex() for t in want]
    assert [float(row[2]) for row in rows] == pytest.approx(want, rel=1e-11)  # %.12g


def test_shots_sweep_builds_no_state(tmp_path, monkeypatch):
    out = tmp_path / "shots"
    assert cli.main(["sweep", "--N", "13", "--method", "shots", "--out", str(out)]) == 0
    assert (tmp_path / "shots_sweep.csv").exists()
    # a QGE sweep prices each eps from the problem's shape too: no state, no exact vector
    def boom(*args, **kwargs):
        raise AssertionError("the sweep must not build a problem")

    for module, name in [(engine, "krdm_problem"), (statevector, "random_sector_amplitudes"),
                         (fermion, "krdm_expectations")]:
        monkeypatch.setattr(module, name, boom)
    for method in cost.QGE_METHODS:
        argv = ["sweep", "--N", "4", "--k", "2", "--eta", "2", "--method", method]
        assert cli.main(argv + ["--out", str(tmp_path / method)]) == 0
        assert (tmp_path / f"{method}_sweep.csv").exists()


# ---------------------------------------------------------------------- cost

def test_cost_reads_c(tmp_path):
    base = ["cost", "--N", "8", "--k", "2", "--eta", "4", "--eps", "0.01"]
    assert cli.main(base + ["--out", str(tmp_path / "default")]) == 0
    assert cli.main(base + ["--c", "0.001", "--out", str(tmp_path / "tight")]) == 0
    _, default, _ = _read_rows(tmp_path / "default_table.csv")
    _, tight, _ = _read_rows(tmp_path / "tight_table.csv")
    default_totals = {r[0]: float(r[8]) for r in default}
    tight_totals = {r[0]: float(r[8]) for r in tight}
    # a smaller failure budget means more repetitions for every adaptive method
    for method in ("prior-qge", "method-1", "method-2"):
        assert tight_totals[method] > default_totals[method]


@pytest.mark.parametrize(
    "argv",
    [
        ["--preset", "hubbard", "--N", "8"],
        ["--preset", "hubbard", "--k", "1"],
        ["--preset", "femoco", "--eta", "3"],
        ["--preset", "femoco", "--k", "2"],
        ["--preset", "filling-sweep", "--N", "8"],
        ["--preset", "filling-sweep", "--eta", "3"],
    ],
    ids=["hubbard-N", "hubbard-k", "femoco-eta", "femoco-k", "filling-N", "filling-eta"],
)
def test_cost_preset_rejects_flags_it_fixes(tmp_path, capsys, argv):
    assert cli.main(["cost"] + argv + ["--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and f"fixes {argv[2]}" in err


@pytest.mark.parametrize(
    "argv",
    [["cost", "--preset", "hubbard"], ["simulate", "--pauli", "Z", "--trials", "5"]],
    ids=["cost-preset", "pauli"],
)
def test_config_sizes_a_command_fixes_are_rejected(tmp_path, capsys, argv):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[problem]\nN = 8\n")
    assert cli.main(argv + ["--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and f"fixes N in {cfg}" in err
    assert not list(tmp_path.glob("x_*.csv"))


def test_cost_filling_sweep_checks_k_against_its_smallest_n(tmp_path, capsys):
    out = tmp_path / "fs"
    assert cli.main(["cost", "--preset", "filling-sweep", "--k", "5", "--out", str(out)]) == 0
    _, rows, _ = _read_rows(tmp_path / "fs_table.csv")
    assert {r[2] for r in rows} == {"5"}
    assert cli.main(["cost", "--preset", "filling-sweep", "--k", "17", "--out", str(out)]) == 1
    assert "k=17 outside 1..16" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag", [["--p", "4"], ["--window", "sine"], ["--seed", "3"]], ids=["p", "window", "seed"]
)
def test_cost_takes_no_estimator_flags(tmp_path, capsys, flag):
    argv = ["cost", "--N", "4", "--k", "2", "--eta", "2", "--out", str(tmp_path / "x")]
    code = cli.main(argv + flag)
    assert code == 1  # cost never reads these
    assert "config error" in capsys.readouterr().err


def test_cost_single_table(tmp_path):
    out = tmp_path / "tbl"
    code = cli.main(["cost", "--N", "4", "--k", "2", "--eta", "2", "--eps", "0.125",
                     "--out", str(out)])
    assert code == 0
    header, rows, footer = _read_rows(tmp_path / "tbl_table.csv")
    assert header == ["method", "N", "k", "eta", "epsilon", "M", "d_eta",
                      "aleph", "total", "labels"]
    assert len(rows) == 6
    totals = [float(r[8]) for r in rows]
    assert totals == sorted(totals)
    assert all(r[9] == "constant-calibrated" for r in rows)
    assert footer[0].startswith("# provenance,")


def test_cost_femoco_ranking(tmp_path, capsys):
    code = cli.main(["cost", "--preset", "femoco", "--methods",
                     "prior-qge,method-1,method-2", "--out", str(tmp_path / "fm")])
    assert code == 0
    out_lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("N=152")]
    assert len(out_lines) == 2  # one ranking per body order
    for line in out_lines:
        assert line.index("method-2") < line.index("method-1") < line.index("prior-qge")


def test_cost_filling_sweep_method2_first(tmp_path, capsys):
    code = cli.main(["cost", "--preset", "filling-sweep", "--methods",
                     "prior-qge,method-1,method-2", "--out", str(tmp_path / "fs")])
    assert code == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("N=")]
    assert len(lines) == 5
    for line in lines:
        assert line.split(":")[1].strip().startswith("method-2")


def test_cost_prefactor_flips_small_sizes(tmp_path, capsys):
    # a x50 handicap on method-2 hands the small-N one-body regime to
    # amplitude estimation; without it method-2 stays first
    args = ["cost", "--N", "16", "--k", "1", "--eta", "14", "--eps", "0.001",
            "--methods", "qae,method-2", "--out", str(tmp_path / "pf")]
    assert cli.main(args) == 0
    base = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("N=16")][0]
    assert base.split(":")[1].strip().startswith("method-2")
    assert cli.main(args + ["--prefactor", "method-2=50"]) == 0
    line = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("N=16")][0]
    assert line.split(":")[1].strip().startswith("qae")


# -------------------------------------------------------------------- verify

def test_verify_quick_gate_passes(tmp_path, capsys):
    code = cli.main(["verify", "--quick"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 5
    assert "verification passed" in out


def test_verify_takes_no_config_file(tmp_path, capsys):
    # verify reads no config key, so a file would be accepted and ignored
    cfg = tmp_path / "x.cfg"
    cfg.write_text("[problem]\nN = 20\n")
    assert cli.main(["verify", "--quick", "--config", str(cfg)]) == 1
    assert "config error" in capsys.readouterr().err


def test_verify_below_certified_floor_fails(capsys):
    code = cli.main(["verify", "--tol", "1e-14"])
    assert code == 2
    assert "certified" in capsys.readouterr().out


def test_verify_sign_error_hook_caught(capsys, dropped_parity):
    code = cli.main(["verify", "--quick"])
    assert code == 2
    out = capsys.readouterr().out
    assert "[FAIL] anticommutation" in out
    assert "verification FAILED" in out


# --------------------------------------------------------------------- sweep

def test_sweep_qge_slope_near_one(tmp_path, capsys):
    code = cli.main(["sweep", "--N", "4", "--k", "2", "--eta", "2",
                     "--method", "method-1", "--seed", "4", "--out", str(tmp_path / "sw")])
    assert code == 0
    out = capsys.readouterr().out
    slope = float(out.split("slope=")[1].split()[0])
    assert 0.9 <= slope <= 1.1
    _, rows, footer = _read_rows(tmp_path / "sw_sweep.csv")
    assert len(rows) == 6  # 2^-3 .. 2^-8
    assert any(ln.startswith("# fit,slope=") for ln in footer)


def test_sweep_shots_baseline_slope_two(tmp_path, capsys):
    code = cli.main(["sweep", "--N", "4", "--k", "2", "--eta", "2",
                     "--method", "shots", "--out", str(tmp_path / "sh")])
    assert code == 0
    out = capsys.readouterr().out
    slope = float(out.split("slope=")[1].split()[0])
    assert slope == pytest.approx(2.0, abs=1e-9)
    assert "R2=1.000000" in out


def test_sweep_rejects_short_grids(tmp_path, capsys):
    code = cli.main(["sweep", "--eps-max", "0.125", "--eps-min", "0.1",
                     "--out", str(tmp_path / "x")])
    assert code == 1
    assert "sweep points" in capsys.readouterr().err



@pytest.mark.parametrize("method", ["shots", "method-1"])
def test_sweep_rejects_eps(tmp_path, capsys, method):
    # the sweep runs its own eps grid, so a typed --eps would be dropped
    code = cli.main(["sweep", "--method", method, "--eps", "0.01", "--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert "config error" in err and "never reads --eps" in err
    assert not (tmp_path / "x_sweep.csv").exists()


@pytest.mark.parametrize(
    "flag",
    [["--p", "5"], ["--window", "sine"], ["--phase-jitter", "0.3"], ["--fail-prob", "0.2"]],
    ids=["p", "window", "phase-jitter", "fail-prob"],
)
def test_sweep_takes_no_readout_flags(tmp_path, capsys, flag):
    # the sweep prices schedules and simulates no readout
    code = cli.main(["sweep", "--method", "method-1", *flag, "--out", str(tmp_path / "x")])
    assert code == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "x_sweep.csv").exists()


def test_shots_sweep_rejects_c(tmp_path, capsys):
    code = cli.main(["sweep", "--method", "shots", "--c", "0.001", "--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert "config error" in err and "never reads --c" in err
    assert not (tmp_path / "x_sweep.csv").exists()


@pytest.mark.parametrize(
    "method,content",
    [
        ("method-1", "[schedule]\neps = 0.01\n"),
        ("method-1", "[schedule]\np = 5\n"),
        ("method-1", "[schedule]\nwindow = sine\n"),
        ("method-1", "[noise]\nphase_jitter = 0.3\n"),
        ("method-1", "[noise]\nfail_prob = 0.2\n"),
        ("shots", "[schedule]\nc = 0.001\n"),
        # the Pauli demo's state is simulated, never priced
        ("prior-qge", "[problem]\npauli = Z\nstate = one\n"),
    ],
    ids=["eps", "p", "window", "phase_jitter", "fail_prob", "shots-c", "pauli-state"],
)
def test_sweep_rejects_config_values_it_never_reads(tmp_path, capsys, method, content):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(content)
    key = content.strip().split("\n")[-1].split(" =")[0]
    code = cli.main(["sweep", "--method", method, "--config", str(cfg),
                     "--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert "config error" in err and f"never reads {key} in {cfg}" in err
    assert not (tmp_path / "x_sweep.csv").exists()


def test_sweep_reads_c_from_config(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("[schedule]\nc = 0.001\nmethod = method-1\n")
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "tight")]) == 0
    assert cli.main(["sweep", "--method", "method-1", "--out", str(tmp_path / "default")]) == 0
    _, tight, _ = _read_rows(tmp_path / "tight_sweep.csv")
    _, default, _ = _read_rows(tmp_path / "default_sweep.csv")
    assert all(float(a[2]) > float(b[2]) for a, b in zip(tight, default))


_SWEEP_SHAPES = {
    "": ["--N", "4", "--k", "2", "--eta", "2"],
    "6-3-3-c0.005-": ["--N", "6", "--k", "3", "--eta", "3", "--c", "0.005"],
    "pauli-": ["--pauli", "Z"],
}


@pytest.mark.parametrize(
    "shape,method",
    [
        pytest.param(shape, method, id=shape + method)
        for shape in _SWEEP_SHAPES
        for method in (cost.QGE_METHODS if shape != "pauli-" else ("prior-qge",))
    ],
)
def test_sweep_totals_equal_simulated_ledgers(tmp_path, shape, method):
    # The sweep prices each eps without running a trial; a run of the engine
    # on the same problem charges the same total, bit for bit, on every kind
    # of shape `cost.aleph` prices: a k-body set and the Pauli demo.
    argv = ["sweep", *_SWEEP_SHAPES[shape], "--seed", "3", "--method", method]
    rc = cli.build_run_config(cli.build_parser().parse_args(argv))
    grid = cli._epsilon_grid(rc.eps_max, rc.eps_min)
    priced = cli.sweep_totals(rc, method, grid)
    state_ss, trial_ss = np.random.SeedSequence(rc.seed).spawn(2)
    problem = cli._build_problem(rc, np.random.default_rng(state_ss))
    aleph = engine.measured_aleph(problem, engine.ScheduleConfig(epsilon=grid[0], method=method))
    simulated = [
        engine.run_adaptive(
            problem.exact, aleph, engine.ScheduleConfig(epsilon=eps, method=method, c=rc.c),
            np.random.default_rng(child),
        ).ledger.total
        for eps, child in zip(grid, trial_ss.spawn(len(grid)))
    ]
    assert np.array_equal(np.array(priced).view(np.uint64), np.array(simulated).view(np.uint64))
    assert cli.main(argv + ["--out", str(tmp_path / "sw")]) == 0
    _, rows, _ = _read_rows(tmp_path / "sw_sweep.csv")
    assert [r[2] for r in rows] == ["%.12g" % total for total in simulated]


@pytest.mark.parametrize("method", [None, "prior-qge", "shots"])
def test_pauli_sweep_prices_one_observable_on_one_qubit(tmp_path, method):
    # without a method the Pauli demo sweeps prior-qge, as simulate runs it
    cfg = tmp_path / "pauli.cfg"
    schedule = f"[schedule]\nmethod = {method}\n" if method else ""
    cfg.write_text("[problem]\npauli = Z\n" + schedule)
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "z")]) == 0
    _, rows, _ = _read_rows(tmp_path / "z_sweep.csv")
    grid = [float(r[0]) for r in rows]
    if method == "shots":
        want = [cost.shots_baseline_queries(1, eps) for eps in grid]
    else:
        aleph = math.sqrt(math.log(2.0))
        want = [cost.price_schedule("prior-qge", aleph, cost.iteration_schedule(eps, 1)).total
                for eps in grid]
    assert [r[2] for r in rows] == ["%.12g" % total for total in want]
    assert {r[3] for r in rows} == {method or "prior-qge"}


# ------------------------------------------------------------------ plumbing

def test_out_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("QGE_LAB_OUT_DIR", str(tmp_path / "land"))
    code = cli.main(["cost", "--N", "4", "--k", "2", "--eta", "2", "--out", "rel"])
    assert code == 0
    assert (tmp_path / "land" / "rel_table.csv").exists()


def test_absolute_out_ignores_env(tmp_path, monkeypatch):
    monkeypatch.setenv("QGE_LAB_OUT_DIR", str(tmp_path / "ignored"))
    out = tmp_path / "abs"
    code = cli.main(["cost", "--N", "4", "--k", "2", "--eta", "2", "--out", str(out)])
    assert code == 0
    assert (tmp_path / "abs_table.csv").exists()
    assert not (tmp_path / "ignored").exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert "qgelab 0.1.0" in capsys.readouterr().out


def test_parse_prefactors_accepts_lists(tmp_path):
    def prefactors(*argv):
        args = cli.build_parser().parse_args(["cost", "--N", "4", "--k", "2", "--eta", "2", *argv])
        return dict(cli.build_run_config(args).prefactor or ())

    got = prefactors("--prefactor", "method-2=50", "--prefactor", "qae=2,prior-qge=1.5")
    assert got == {"method-2": 50.0, "qae": 2.0, "prior-qge": 1.5}
    assert prefactors() == {}
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[cost]\nprefactor = fermionic-shadow=0.5\n")
    assert prefactors("--config", str(cfg)) == {"fermionic-shadow": 0.5}

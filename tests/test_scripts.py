"""The experiment scripts run end to end through their `main()` at tiny sizes."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _header(path):
    return path.read_text().splitlines()[0]


@pytest.mark.filterwarnings("ignore:.*crowded.*")
def test_mse_study_script(tmp_path):
    out = tmp_path / "mse.csv"
    assert _load("run_mse_study").main(["--trials", "2", "--eps", "0.5", "--out", str(out)]) == 0
    assert _header(out) == (
        "method,epsilon,max_mse,mean_mse,total_queries_oracle_calls,violation_run_fraction"
    )
    assert len(out.read_text().splitlines()) == 1 + 3 + 1  # header, one row per method, provenance


def test_cost_figures_script(tmp_path):
    assert _load("run_cost_figures").main(["--out-dir", str(tmp_path)]) == 0
    for preset in ("filling_sweep", "femoco", "hubbard"):
        assert _header(tmp_path / f"{preset}_table.csv") == (
            "method,N,k,eta,epsilon,M,d_eta,aleph,total,labels"
        )
    for method in ("method_1", "shots"):
        assert _header(tmp_path / f"scaling_{method}_sweep.csv") == (
            "epsilon,inverse_epsilon,total_queries_oracle_calls,method"
        )

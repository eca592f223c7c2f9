"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v`` — the verbose listing gives
the per-criterion pass/fail lines; add ``-s`` to also see the detail lines
printed below.  Every tolerance here is pinned; do not loosen.
"""

import math
import warnings

import numpy as np
import pytest

from qgelab import cli, cost, engine, statevector, verify


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status} {name}: {detail}")


@pytest.fixture(scope="module")
def krdm422():
    problem = engine.krdm_problem(4, 2, 2, np.random.default_rng(2024))
    exact = statevector.expectations(problem.observables, problem.state)
    return problem, exact


def test_criterion_1_sector_norm_identity():
    # all N <= 8, k in {1,2}, every sector: measured norm == binomial formula
    res = verify.norm_identity_suite(max_modes=8, tolerance=1e-9)
    assert res.cases == sum(2 * (N + 1) for N in range(2, 9))  # k in {1, 2}, every eta
    ok = res.passed
    _report(1, "sector norm identity", ok,
            f"{res.cases} (N,k,eta) cases, max rel error {res.max_error:.3e} <= 1e-9")
    assert ok


def test_criterion_2_polynomial_transform():
    res = verify.polynomial_transform_suite(n_cases=100, tolerance=1e-9)
    ok = res.passed
    _report(2, "eigenbasis polynomial transform", ok,
            f"100 block-diagonal x degree<=6 cases, max error {res.max_error:.3e} <= 1e-9")
    assert ok


def test_criterion_3_mse_contract(krdm422):
    problem, exact = krdm422
    worst = {}
    for method in cost.QGE_METHODS:
        for i, eps in enumerate((0.1, 0.05, 0.02)):
            config = engine.ScheduleConfig(epsilon=eps, method=method)
            results = engine.run_many(problem, config, seed=700 + i, trials=200)
            worst[method, eps] = engine.mse_per_observable(results, exact).max()
    ok = all(mse <= eps**2 for (_, eps), mse in worst.items())
    margins = "; ".join(
        f"{m}@{e:g}: {v:.2e}<= {e**2:.1e}" for (m, e), v in sorted(worst.items())
    )
    _report(3, "MSE contract (200 trials/eps, all methods)", ok, margins)
    assert ok


def test_criterion_3_cli_example(tmp_path):
    # the end-to-end command-level version of the MSE contract
    out = tmp_path / "accept"
    code = cli.main(
        ["simulate", "--N", "4", "--eta", "2", "--k", "2", "--eps", "0.02",
         "--method", "method-2", "--trials", "200", "--seed", "7", "--out", str(out)]
    )
    lines = [ln for ln in (tmp_path / "accept_summary.csv").read_text().splitlines()
             if ln.startswith("ALL,")]
    max_mse = float(lines[0].split(",")[5])
    ok = code == 0 and max_mse <= 4e-4
    _report(3, "CLI simulate example", ok, f"exit {code}, summary max MSE {max_mse:.3e} <= 4e-4")
    assert ok


def test_criterion_4_heisenberg_scaling(krdm422):
    problem, exact = krdm422
    grid = [2.0**-q for q in range(3, 9)]
    slopes = {}
    for method in cost.QGE_METHODS:
        totals = []
        for eps in grid:
            config = engine.ScheduleConfig(epsilon=eps, method=method)
            aleph = engine.measured_aleph(problem, config)
            res = engine.run_adaptive(exact, aleph, config, np.random.default_rng(1))
            totals.append(res.ledger.total)
        slopes[method], _ = cli.loglog_slope([1.0 / e for e in grid], totals)
    shots = [cost.shots_baseline_queries(problem.M, e) for e in grid]
    slopes["shots"], _ = cli.loglog_slope([1.0 / e for e in grid], shots)
    ok = all(abs(slopes[m] - 1.0) <= 0.1 for m in cost.QGE_METHODS)
    ok = ok and abs(slopes["shots"] - 2.0) <= 0.1
    _report(4, "Heisenberg vs shot-noise scaling", ok,
            "; ".join(f"{m}: {s:.3f}" for m, s in slopes.items()))
    assert ok


def test_criterion_5_cost_orderings():
    fills_ok = True
    rule = lambda n: math.ceil(7 * n / 8)  # noqa: E731
    for n in (16, 32, 64, 128, 256):
        params = cost.CostParams(N=n, k=2, eta=rule(n), epsilon=1e-3)
        rows = cost.compare_table(params, cost.QGE_METHODS)
        fills_ok = fills_ok and rows[0].method == "method-2"
    fem_ok = True
    for k in (1, 2):
        params = cost.CostParams(N=152, k=k, eta=113, epsilon=1e-3)
        rows = cost.compare_table(params, cost.QGE_METHODS)
        fem_ok = fem_ok and [r.method for r in rows] == ["method-2", "method-1", "prior-qge"]
    ok = fills_ok and fem_ok
    _report(5, "cost-model orderings", ok,
            f"filling sweep method-2 first: {fills_ok}; "
            f"N=152 ranking method-2 < method-1 < prior-qge: {fem_ok}")
    assert ok


def test_criterion_6_ledger_consistency():
    res = verify.ledger_consistency_suite()
    assert res.tolerance == 0.1
    ok = res.passed
    _report(6, "ledger vs closed form", ok,
            f"{res.cases} (N,k,eps,method) cases, max rel gap {res.max_error:.3e} <= 0.1")
    assert ok


def test_criterion_7_probe_calibration():
    res = verify.probe_calibration_suite()
    assert res.cases == 505  # p = 2..6, 101 slopes each
    ok = res.passed
    _report(7, "probe single-shot calibration", ok,
            f"{res.cases} exhaustive (p,v) points, worst shortfall below 0.81 bound: "
            f"{res.max_error:.3e}")
    assert ok


def test_criterion_8_violation_budget(krdm422):
    problem, exact = krdm422
    config = engine.ScheduleConfig(epsilon=0.05, method="method-1")
    results = engine.run_many(problem, config, seed=88, trials=500)
    fraction = engine.violation_run_fraction(results, exact)
    budget = sum(cost.iteration_schedule(0.05, problem.M).deltas)
    ok = fraction <= budget
    _report(8, "per-iteration contract budget", ok,
            f"500 noiseless runs, violation fraction {fraction:.4g} <= {budget:.4g}")
    assert ok


def test_criterion_9_boundary_convergence():
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=".*crowded.*")
        # both modes occupied: <n_j> = 1
        problem = engine.krdm_problem(2, 1, 2, amplitudes=np.array([1.0]))
    exact = statevector.expectations(problem.observables, problem.state)
    results = engine.run_many(problem, engine.ScheduleConfig(epsilon=0.05), seed=9, trials=20)
    in_range = all(
        np.all(np.abs(rec.u_tilde) <= 1.0) and np.all(np.abs(r.estimates) <= 1.0)
        for r in results for rec in r.trace
    )
    err = max(float(np.abs(r.estimates - exact).max()) for r in results)
    ok = in_range and err <= 0.05
    _report(9, "boundary eigenstate clipping", ok,
            f"max |estimate - 1| = {err:.4g} <= 0.05, all iterates within [-1, 1]: {in_range}")
    assert ok

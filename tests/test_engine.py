"""Adaptive-loop tests: update algebra, convergence, accounting, contracts."""

import math
import warnings

import numpy as np
import pytest
from scipy import sparse

from qgelab import cost, engine, fermion, statevector
from qgelab.errors import ContractError
from qgelab.fermion import SectorLabel
from qgelab.probe import NoiseSpec


def _pauli_z_problem():
    z = fermion.Observable(
        matrix=sparse.csr_matrix(np.diag([1.0, -1.0]).astype(np.complex128)),
        label="Z", k=0, creators=(), annihilators=(), part="re",
    )
    plus = statevector.PureState(np.array([1.0, 1.0], dtype=np.complex128) / np.sqrt(2.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return engine.Problem(observables=[z], state=plus)


def _run_adaptive(problem, config, rng):
    exact = statevector.expectations(problem.observables, problem.state)
    return engine.run_adaptive(exact, engine.measured_aleph(problem, config), config, rng)


@pytest.fixture(scope="module")
def krdm422():
    return engine.krdm_problem(4, 2, 2, np.random.default_rng(11))


# ---------------------------------------------------------------- update step

def test_update_step_quarter_point():
    got = engine.update_step(0.5, 0.25, 2)
    assert got == pytest.approx(0.5 + math.pi / 16, abs=1e-12)
    assert got == pytest.approx(0.6963495408493621, abs=1e-15)


def test_update_step_clips_at_boundary():
    assert engine.update_step(0.9, 0.5, 0) == 1.0
    assert engine.update_step(-0.9, -0.5, 0) == -1.0


def test_update_step_vectorized():
    u = np.array([0.0, 0.5, -0.99])
    g = np.array([0.4375, 0.25, -0.4375])
    out = engine.update_step(u, g, 1)
    assert out.shape == (3,)
    assert np.all(np.abs(out) <= 1.0)
    assert out[0] == pytest.approx(math.pi / 2 * 0.4375)


def test_update_contraction_factor():
    # one grid cell of decode error moves the estimate by at most 2^-(q+1)
    for q in range(6):
        assert math.pi * 2.0**-q * 2.0**-3 <= 2.0 ** -(q + 1)


# ------------------------------------------------------------- configuration

@pytest.mark.parametrize(
    "kwargs",
    [
        {"epsilon": 0.0},
        {"epsilon": 1.0},
        {"epsilon": 0.1, "method": "shots"},
        {"epsilon": 0.1, "p": 0},
        {"epsilon": 0.1, "c": 0.03},
        {"epsilon": 0.1, "c": 0.0},
        {"epsilon": 0.1, "window": "hann"},
    ],
)
def test_schedule_config_rejects(kwargs):
    with pytest.raises(ValueError):
        engine.ScheduleConfig(**kwargs)


@pytest.mark.parametrize("eps,qm", [(0.5, 1), (0.25, 2), (0.1, 4), (0.02, 6)])
def test_q_max(eps, qm):
    assert engine.ScheduleConfig(epsilon=eps).q_max == qm


def test_problem_rejects_dim_mismatch():
    obs = fermion.estimation_observables(fermion.krdm_observable_set(4, 1))
    state = statevector.basis_state(2, 1)
    with pytest.raises(ValueError, match="dimension"):
        engine.Problem(observables=obs, state=state)


def test_problem_rejects_off_sector_state():
    obs = fermion.estimation_observables(fermion.krdm_observable_set(2, 1))
    plus = statevector.PureState(np.array([0, 1, 1, 0], dtype=np.complex128) / np.sqrt(2))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        engine.Problem(observables=obs, state=plus, sector=SectorLabel(1))  # fine
        with pytest.raises(ValueError, match="off-sector"):
            engine.Problem(observables=obs, state=plus, sector=SectorLabel(2))


def test_problem_rejects_empty():
    with pytest.raises(ValueError):
        engine.Problem(observables=[], state=statevector.basis_state(2, 1))


def test_problem_warns_when_observable_set_sparse():
    obs = fermion.estimation_observables(fermion.krdm_observable_set(2, 1))
    with pytest.warns(UserWarning, match="crowded"):
        engine.Problem(observables=obs, state=statevector.basis_state(2, 1), sector=SectorLabel(1))


def test_sector_methods_require_sector():
    prob = _pauli_z_problem()
    cfg = engine.ScheduleConfig(epsilon=0.25, method="method-1")
    with pytest.raises(ValueError, match="sector"):
        engine.measured_aleph(prob, cfg)


def test_measured_aleph_matches_closed_form(krdm422):
    params = cost.CostParams(N=4, k=2, eta=2, epsilon=0.125)
    for method in ("method-1", "method-2"):
        got = engine.measured_aleph(krdm422, engine.ScheduleConfig(epsilon=0.125, method=method))
        assert got == pytest.approx(cost.aleph(method, params), rel=1e-12)
    got = engine.measured_aleph(krdm422, engine.ScheduleConfig(epsilon=0.125, method="prior-qge"))
    assert got == pytest.approx(math.sqrt(66 * math.log(16.0)), rel=1e-12)


# ---------------------------------------------------------------- convergence

def test_eigenstate_estimates_within_epsilon():
    obs = fermion.estimation_observables(fermion.krdm_observable_set(2, 1))
    state = statevector.basis_state(2, 1)  # mode 0 occupied
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        prob = engine.Problem(observables=obs, state=state, sector=SectorLabel(1))
    exact = statevector.expectations(obs, state)
    res = _run_adaptive(prob, engine.ScheduleConfig(epsilon=0.1), np.random.default_rng(3))
    assert np.abs(res.estimates - exact).max() <= 0.1


def test_symmetric_expectation_is_unbiased():
    # <Z> = 0 on |+>: every phase slope starts at zero, the estimate
    # distribution is symmetric, and each run stays within epsilon/2.
    prob = _pauli_z_problem()
    cfg = engine.ScheduleConfig(epsilon=0.25, method="prior-qge")
    res = engine.run_many(prob, cfg, seed=7, trials=300)
    est = np.array([r.estimates[0] for r in res])
    assert np.abs(est).max() <= 0.125
    assert abs(est.mean()) <= 0.02


def test_boundary_expectation_converges_inside_range():
    # <n_j> = 1 exactly: updates keep clipping against +1 and stay legal
    obs = fermion.estimation_observables(fermion.krdm_observable_set(2, 1))
    full = statevector.basis_state(2, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        prob = engine.Problem(observables=obs, state=full, sector=SectorLabel(2))
    exact = statevector.expectations(obs, full)
    res = engine.run_many(prob, engine.ScheduleConfig(epsilon=0.05), seed=17, trials=50)
    for r in res:
        assert np.abs(r.estimates - exact).max() <= 0.05
        for rec in r.trace:
            assert np.all(np.abs(rec.u_tilde) <= 1.0)
        assert np.all(np.abs(r.estimates) <= 1.0)


def test_mse_meets_target_quickly(krdm422):
    exact = statevector.expectations(krdm422.observables, krdm422.state)
    cfg = engine.ScheduleConfig(epsilon=0.1, method="method-1")
    res = engine.run_many(krdm422, cfg, seed=42, trials=100)
    mse = engine.mse_per_observable(res, exact)
    assert mse.max() <= 0.1**2


def test_recentring_doubles_residual_slope(krdm422):
    # Between levels, absent clipping, v' = 2 (v - g): the decode residual
    # is exactly what the next level magnifies.
    res = _run_adaptive(krdm422, engine.ScheduleConfig(epsilon=0.02), np.random.default_rng(8))
    for prev, nxt in zip(res.trace, res.trace[1:]):
        unclipped = prev.u_tilde + math.pi * 2.0**-prev.q * prev.g
        free = np.abs(unclipped) < 1.0
        assert free.any()
        assert nxt.v[free] == pytest.approx(2.0 * (prev.v - prev.g)[free], abs=1e-12)


# ------------------------------------------------------------------ accounting

def test_ledger_matches_closed_form(krdm422):
    params = cost.CostParams(N=4, k=2, eta=2, epsilon=0.125)
    for method in cost.QGE_METHODS:
        cfg = engine.ScheduleConfig(epsilon=0.125, method=method)
        res = _run_adaptive(krdm422, cfg, np.random.default_rng(5))
        assert res.ledger.total == pytest.approx(cost.total_queries(method, params), rel=1e-12)


def test_ledger_row_structure(krdm422):
    cfg = engine.ScheduleConfig(epsilon=0.1, method="method-1")
    res = _run_adaptive(krdm422, cfg, np.random.default_rng(5))
    sched = cost.iteration_schedule(0.1, krdm422.M)
    assert len(res.ledger.rows) == sched.q_max + 1 == 5
    prev = 0.0
    for q, row in enumerate(res.ledger.rows):
        assert row.q == q and row.method == "method-1"
        assert row.reps == sched.reps[q]
        assert row.delta == pytest.approx(sched.deltas[q])
        assert row.subroutine_cost == pytest.approx(res.ledger.aleph * 2.0**q * row.reps)
        assert row.cumulative >= prev
        prev = row.cumulative


def test_method2_charges_sqrt_reps(krdm422):
    cfg = engine.ScheduleConfig(epsilon=0.1, method="method-2")
    res = _run_adaptive(krdm422, cfg, np.random.default_rng(5))
    for row in res.ledger.rows:
        expected = res.ledger.aleph * 2.0**row.q * math.ceil(math.sqrt(row.reps))
        assert row.subroutine_cost == pytest.approx(expected)


# ------------------------------------------------------------------- contracts

def test_violations_recorded_not_fatal(krdm422):
    cfg = engine.ScheduleConfig(epsilon=0.1, noise=NoiseSpec(fail_prob=1.0))
    res = engine.run_many(krdm422, cfg, seed=3, trials=5)
    assert engine.violation_run_fraction(res) == 1.0
    report = engine.per_iteration_contract_check(res[0].trace)
    assert report.any_violation
    assert report.violation_rate > 0.1
    assert all(q >= 1 for q, _ in report.violations)


def test_noiseless_violations_within_budget(krdm422):
    cfg = engine.ScheduleConfig(epsilon=0.05, method="method-1")
    res = engine.run_many(krdm422, cfg, seed=123, trials=300)
    sched = cost.iteration_schedule(0.05, krdm422.M)
    assert engine.violation_run_fraction(res) <= sum(sched.deltas)


def test_contract_check_counts_only_later_levels(krdm422):
    res = _run_adaptive(krdm422, engine.ScheduleConfig(epsilon=0.1), np.random.default_rng(1))
    report = engine.per_iteration_contract_check(res.trace)
    assert report.checked == engine.ScheduleConfig(epsilon=0.1).q_max * krdm422.M
    assert report.violation_rate == 0.0
    with pytest.raises(ContractError):
        engine.per_iteration_contract_check([])


# ---------------------------------------------------------------- determinism

def test_seeded_runs_reproduce(krdm422):
    cfg = engine.ScheduleConfig(epsilon=0.1)
    a = engine.run_many(krdm422, cfg, seed=9, trials=4)
    b = engine.run_many(krdm422, cfg, seed=9, trials=4)
    for x, y in zip(a, b):
        assert np.array_equal(x.estimates, y.estimates)
    c = engine.run_many(krdm422, cfg, seed=10, trials=4)
    assert not all(np.array_equal(x.estimates, y.estimates) for x, y in zip(a, c))


@pytest.mark.parametrize("method", cost.QGE_METHODS)
def test_parallel_jobs_match_serial(krdm422, method):
    cfg = engine.ScheduleConfig(epsilon=0.1, method=method)
    serial = engine.run_many(krdm422, cfg, seed=9, trials=8, jobs=1)
    parallel = engine.run_many(krdm422, cfg, seed=9, trials=8, jobs=2)
    # run_many is the bare loop over seed-split streams, nothing more
    exact = statevector.expectations(krdm422.observables, krdm422.state)
    aleph = engine.measured_aleph(krdm422, cfg)
    direct = [
        engine.run_adaptive(exact, aleph, cfg, np.random.default_rng(child))
        for child in np.random.SeedSequence(9).spawn(8)
    ]
    for x, y, z in zip(serial, parallel, direct):
        assert np.array_equal(x.estimates, y.estimates)
        assert np.array_equal(x.estimates, z.estimates)
        assert x.ledger.total == y.ledger.total == z.ledger.total


@pytest.mark.parametrize("method,calls", [("prior-qge", 0), ("method-1", 1), ("method-2", 1)])
def test_run_many_measures_aleph_once(krdm422, monkeypatch, method, calls):
    seen = []
    norm = fermion.sum_squares_sector_norm

    def counting(*args, **kwargs):
        seen.append(1)
        return norm(*args, **kwargs)

    monkeypatch.setattr(fermion, "sum_squares_sector_norm", counting)
    engine.run_many(krdm422, engine.ScheduleConfig(epsilon=0.25, method=method), seed=4, trials=8)
    assert len(seen) == calls


def test_run_many_rejects_zero_trials(krdm422):
    with pytest.raises(ValueError):
        engine.run_many(krdm422, engine.ScheduleConfig(epsilon=0.5), seed=0, trials=0)


# ------------------------------------------------------------------ trace csv

def test_trace_csv_round_trip(tmp_path, krdm422):
    cfg = engine.ScheduleConfig(epsilon=0.5)
    res = engine.run_many(krdm422, cfg, seed=2, trials=2)
    path = tmp_path / "trace.csv"
    engine.write_trace_csv(res, path, provenance="qgelab-test")
    lines = path.read_text().splitlines()
    assert lines[0] == "trial,q,j,u_tilde,v,g,violation_flag,queries_cumulative"
    assert lines[-1] == "# provenance,qgelab-test"
    body = lines[1:-1]
    assert len(body) == 2 * 2 * krdm422.M  # trials * (q_max + 1) * M
    first = body[0].split(",")
    assert first[:3] == ["0", "0", "0"]
    assert float(first[3]) == 0.0  # u_tilde starts at zero
    trial_col = [int(row.split(",")[0]) for row in body]
    assert trial_col == sorted(trial_col)

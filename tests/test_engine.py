"""Adaptive-loop tests: update algebra, convergence, accounting, contracts."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from qgelab import cli, cost, engine, fermion, probe, statevector, verify
from qgelab.probe import IDEAL, NoiseSpec
from ladder_oracle import csr, full_vector
from register_oracle import readout_distribution


def _pauli_z_problem():
    return engine.Problem(labels=["Z"], exact=np.array([0.0]), N=1)


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
        {"epsilon": 0.1, "p": 13},
    ],
)
def test_schedule_config_rejects(kwargs):
    with pytest.raises(ValueError):
        engine.ScheduleConfig(**kwargs)


def test_schedule_config_checks_p_without_building_a_grid(monkeypatch):
    # `verify`'s ledger suite builds 60 configs; checking p needs no 2^p grid.
    def refuse(p):
        raise AssertionError("a config built a grid to check p")

    monkeypatch.setattr(probe, "make_grid", refuse)
    assert engine.ScheduleConfig(epsilon=0.1, p=probe.MAX_GRID_BITS).p == probe.MAX_GRID_BITS
    with pytest.raises(ValueError, match=r"^grid needs 1 <= p <= 12, got 13$"):
        engine.ScheduleConfig(epsilon=0.1, p=13)
    monkeypatch.undo()
    with pytest.raises(ValueError, match=r"^grid needs 1 <= p <= 12, got 13$"):
        probe.make_grid(13)


@pytest.mark.parametrize("eps,qm", [(0.5, 1), (0.25, 2), (0.1, 4), (0.02, 6)])
def test_q_max(eps, qm):
    assert len(cost.iteration_schedule(eps, 1).reps) == qm + 1


def test_problem_rejects_dim_mismatch():
    # two amplitudes span the eta=1 sector of 2 modes; a wrong N or eta refuses them
    amplitudes = np.array([0.6, 0.8])
    for N, eta in [(4, 1), (2, 2)]:
        with pytest.raises(ValueError, match=rf"sector eta={eta} of {N} modes has"):
            engine.krdm_problem(N, 1, eta, amplitudes=amplitudes)
        with pytest.raises(ValueError, match=rf"sector eta={eta} of {N} modes has"):
            engine.Problem(["x"], np.zeros(1), N=N, amplitudes=amplitudes, eta=eta, k=1)


@pytest.mark.parametrize("scale", [1 + 2e-12, 1 - 2e-12, 0.0])
def test_problem_rejects_amplitudes_off_unit_norm(scale):
    amplitudes = scale * np.array([0.6, 0.8])
    with pytest.raises(ValueError, match="norm"):
        engine.krdm_problem(2, 1, 1, amplitudes=amplitudes)
    with pytest.raises(ValueError, match="norm"):
        engine.Problem(["x"], np.zeros(1), N=2, amplitudes=amplitudes, eta=1, k=1)
    with pytest.warns(UserWarning, match="crowded"):  # within 1e-12 passes
        engine.krdm_problem(2, 1, 1, amplitudes=np.array([0.6, 0.8]) * (1 + 5e-13))


def test_problem_refuses_nan_amplitudes():
    # A NaN norm is not within 1e-12 of 1: no all-NaN exact vector is built.
    amplitudes = np.full(6, np.nan)
    with pytest.raises(ValueError, match="sector amplitudes have norm nan"):
        engine.krdm_problem(4, 2, 2, amplitudes=amplitudes)
    with pytest.raises(ValueError, match="sector amplitudes have norm nan"):
        engine.Problem(["x"], np.zeros(1), N=4, amplitudes=amplitudes, eta=2, k=2)


def test_state_is_the_sector_amplitudes():
    # The observables act on the sector, so the state they read is the
    # amplitudes themselves: no 2^N vector is scattered.
    for N, k, eta in [(4, 2, 2), (5, 1, 3), (3, 1, 0)]:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message=".*crowded.*")
            problem = engine.krdm_problem(N, k, eta, np.random.default_rng(N + eta))
        assert problem.state is problem.amplitudes
        assert {o.dim for o in problem.observables} == {math.comb(N, eta)}
    with pytest.raises(ValueError, match="only a k-body problem"):
        _pauli_z_problem().state


@pytest.mark.parametrize("N,k,eta", [(2, 1, 2), (4, 2, 1), (4, 2, 2), (5, 3, 2)])
def test_observables_follow_the_labels_in_every_sector(N, k, eta):
    # Inside a sector an observable can hold no entry without vanishing
    # identically (all do at eta < k), so the set is selected by label.
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=".*crowded.*")
        problem = engine.krdm_problem(N, k, eta, np.random.default_rng(3))
    assert [o.label for o in problem.observables] == problem.labels
    reference = statevector.expectations(problem.observables, problem.state)
    assert np.abs(reference - problem.exact).max() <= 1e-12


def test_reference_read_reaches_past_twelve_modes():
    # (14, 1, 7) acts on C(14, 7) = 3432 amplitudes; the 2^14 space is never built.
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=".*crowded.*")
        problem = engine.krdm_problem(14, 1, 7, np.random.default_rng(14))
    reference = statevector.expectations(problem.observables, problem.state)
    assert reference.shape == (problem.M,) == (2 * 14 * 14 - 14,)
    assert np.abs(reference - problem.exact).max() <= 1e-12


def test_problem_rejects_empty():
    with pytest.raises(ValueError):
        engine.Problem(labels=[], exact=np.zeros(0), N=2)


def test_problem_warns_when_observable_set_sparse():
    with pytest.warns(UserWarning, match="crowded") as caught:
        engine.krdm_problem(2, 1, 1, amplitudes=np.array([1.0, 0.0]))
    (w,) = caught
    assert w.filename == __file__  # the caller's line, not the dataclass's __init__


def test_sector_methods_require_sector():
    prob = _pauli_z_problem()
    cfg = engine.ScheduleConfig(epsilon=0.25, method="method-1")
    with pytest.raises(ValueError, match="sector"):
        engine.measured_aleph(prob, cfg)


@pytest.mark.parametrize("method", cost.SECTOR_METHODS)
@pytest.mark.parametrize("k,eta", [(None, None), (2, None), (None, 2)])
def test_shape_aleph_refuses_sector_methods_without_sector(method, k, eta):
    # A sweep prices through the same call a run does, so it refuses with the same text.
    with pytest.raises(ValueError) as run:
        engine.measured_aleph(_pauli_z_problem(), engine.ScheduleConfig(0.25, method=method))
    with pytest.raises(ValueError) as shape:
        cost.aleph(method, 4, 66, k, eta)
    assert str(shape.value) == str(run.value)
    assert str(run.value) == (
        f"{method} exploits the particle-number sector of a k-body set; none was set"
    )


def _aleph_oracle(problem, method):
    """The engine's own aleph formula before it priced through `cost.aleph`, on the
    dense sector norm of the sparse k-body set rather than the closed form."""
    N = problem.N
    if method == "prior-qge":
        return math.sqrt(problem.M * math.log(max(2.0**N, 2.0)))
    norm = fermion.sum_squares_sector_norm(fermion.krdm_observable_set(N, problem.k))[problem.eta]
    radicand = norm * math.log(max(math.comb(N, problem.eta), 2.0))
    return math.sqrt(radicand) if radicand else 0.0


@pytest.mark.parametrize(
    "shape", [(4, 2, 2), (6, 3, 3), (8, 2, 4), (5, 2, 1), "pauli"],
    ids=["4-2-2", "6-3-3", "8-2-4", "5-2-1", "pauli"],
)
def test_measured_aleph_matches_closed_form(shape):
    if shape == "pauli":
        problem, methods = _pauli_z_problem(), ["prior-qge"]
    else:
        N, k, eta = shape
        problem = engine.krdm_problem(N, k, eta, np.random.default_rng(11))
        methods = cost.QGE_METHODS
    for method in methods:
        config = engine.ScheduleConfig(epsilon=0.125, method=method)
        if method != "prior-qge" and shape == (5, 2, 1):  # eta < k: the sector norm vanishes
            with pytest.warns(UserWarning, match="sector norm vanishes"):
                got = engine.measured_aleph(problem, config)
            assert got == 0.0
        else:
            got = engine.measured_aleph(problem, config)
        assert got == _aleph_oracle(problem, method)
    if shape == "pauli":
        assert got == math.sqrt(math.log(2.0))


@pytest.mark.parametrize("N,k,eta", [(4, 2, 2), (8, 2, 4)])
def test_runs_and_tables_share_aleph_bit_for_bit(N, k, eta):
    # A run prices its problem and a cost table its CostParams through one
    # `cost.aleph`; at the default prefactor the two agree in every bit.
    problem = engine.krdm_problem(N, k, eta, np.random.default_rng(5))
    rows = cost.compare_table(cost.CostParams(N=N, k=k, eta=eta, epsilon=0.1), cost.QGE_METHODS)
    table = {row.method: row.aleph for row in rows}
    for method in cost.QGE_METHODS:
        run = engine.measured_aleph(problem, engine.ScheduleConfig(epsilon=0.1, method=method))
        assert run.hex() == table[method].hex(), method


GRAM_SHAPES = [(2, 1, 1), (4, 1, 2), (4, 2, 2), (6, 3, 3), (6, 4, 4), (8, 2, 4), (10, 2, 5)]


@pytest.mark.parametrize("N,k,eta", GRAM_SHAPES)
def test_gram_exact_vector_matches_statevector_route(N, k, eta):
    # k = 1..4 takes both signs of (-1)^{k(k-1)/2}.
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=".*crowded.*")  # the small shapes
        problem = engine.krdm_problem(N, k, eta, np.random.default_rng(100 + N + k))
    # The full-space set on the 2^N vector, scattered here, is the oracle.
    observables = fermion.estimation_observables(fermion.krdm_observable_set(N, k))
    reference = statevector.expectations(observables, full_vector(N, eta, problem.amplitudes))
    assert problem.labels == [o.label for o in observables]
    assert problem.exact.shape == reference.shape
    assert np.abs(problem.exact - reference).max() <= 1e-15
    if (N, k, eta) == (4, 2, 2):
        assert np.array_equal(problem.exact, reference)


def test_simulate_sweep_and_ledger_suite_build_no_matrices(tmp_path, monkeypatch):
    # The engine runs on the exact vector and the closed-form norm: none of the
    # sparse routes may run, no full statevector is built, and `observables`
    # is still there for the tests.
    def refuse(*args, **kwargs):
        raise AssertionError("a sparse observable route or a full statevector ran")

    with monkeypatch.context() as patch:
        patch.setattr(fermion, "krdm_observable_set", refuse)
        patch.setattr(fermion, "sum_squares_sector_norm", refuse)
        patch.setattr(statevector, "expectations", refuse)
        patch.setattr(fermion, "_krdm_entries", refuse)
        for method in cost.QGE_METHODS:
            argv = ["simulate", "--N", "4", "--k", "2", "--eta", "2", "--eps", "0.25",
                    "--trials", "3", "--method", method, "--out", str(tmp_path / method)]
            assert cli.main(argv) == 0
        sweep = ["sweep", "--method", "method-1", "--out", str(tmp_path / "sweep")]
        assert cli.main(sweep) == 0
        assert verify.ledger_consistency_suite().passed
    problem = engine.krdm_problem(4, 2, 2, np.random.default_rng(11))
    old = fermion.estimation_observables(fermion.krdm_observable_set(4, 2, 2))
    assert [o.label for o in problem.observables] == [o.label for o in old] == problem.labels
    for new, ref in zip(problem.observables, old):
        for name in ("indptr", "indices", "data"):
            a, b = getattr(csr(new), name), getattr(csr(ref), name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (new.label, name)


def test_run_many_refuses_a_trial_past_the_cell_budget(monkeypatch):
    # The engine refuses the shape before any batch draws: a batch that ran
    # would allocate a one-trial law of M 2^p = 395,591,680 cells.
    def refuse(*args):
        raise AssertionError("a batch ran past the cell budget")

    monkeypatch.setattr(engine, "_run_batch", refuse)
    problem = engine.krdm_problem(12, 3, 6, np.random.default_rng(0))
    config = engine.ScheduleConfig(epsilon=0.25, p=12)
    cells = f"= {problem.M << 12} cells"
    with pytest.raises(ValueError, match=f"{cells}.*budget of {engine.MAX_TRIAL_CELLS}"):
        engine.run_many(problem, config, seed=1, trials=1)


def test_run_adaptive_refuses_a_run_past_the_cell_budget(monkeypatch):
    # The one-run entry point checks the same budget: 2^15 observables on a
    # 12-bit grid would be a law of 2^27 cells.
    def refuse(*args):
        raise AssertionError("a batch ran past the cell budget")

    monkeypatch.setattr(engine, "_run_batch", refuse)
    config = engine.ScheduleConfig(epsilon=0.25, p=12)
    cells = f"= {1 << 27} cells"
    with pytest.raises(ValueError, match=f"{cells}.*budget of {engine.MAX_TRIAL_CELLS}"):
        engine.run_adaptive(np.zeros(1 << 15), 1.0, config, np.random.default_rng(0))


# ---------------------------------------------------------------- convergence

def test_eigenstate_estimates_within_epsilon():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # mode 0 occupied: basis state 1, the sector's first
        prob = engine.krdm_problem(2, 1, 1, amplitudes=np.array([1.0, 0.0]))
    exact = statevector.expectations(prob.observables, prob.state)
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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        prob = engine.krdm_problem(2, 1, 2, amplitudes=np.array([1.0]))
    exact = statevector.expectations(prob.observables, prob.state)
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


def test_mse_per_observable_is_the_mean_squared_error():
    # Three trials, two observables, dyadic errors: the means are exact.  The
    # median of the squared errors would read 1/16 and 0 instead.
    exact = np.array([0.25, -0.5])
    errors = np.array([[0.125, 0.0], [0.25, 0.0], [-0.5, 0.75]])
    level = np.zeros((1, 3, 2))
    runs = engine.Runs(exact + errors, cost.Charges(cumulative=(1.0,)), u_tilde=level, g=level)
    assert engine.mse_per_observable(runs, exact).tolist() == [7 / 64, 3 / 16]


def test_recentring_doubles_residual_slope(krdm422):
    # Between levels, absent clipping, v' = 2 (v - g): the decode residual
    # is exactly what the next level magnifies.
    res = _run_adaptive(krdm422, engine.ScheduleConfig(epsilon=0.02), np.random.default_rng(8))
    v = [engine._slope(krdm422.exact, rec.u_tilde, q) for q, rec in enumerate(res.trace)]
    for q, prev in enumerate(res.trace[:-1]):
        unclipped = prev.u_tilde + math.pi * 2.0**-q * prev.g
        free = np.abs(unclipped) < 1.0
        assert free.any()
        assert v[q + 1][free] == pytest.approx(2.0 * (v[q] - prev.g)[free], abs=1e-12)


# ------------------------------------------------------------------ accounting

def test_ledger_matches_closed_form(krdm422):
    params = cost.CostParams(N=4, k=2, eta=2, epsilon=0.125)
    for method in cost.QGE_METHODS:
        cfg = engine.ScheduleConfig(epsilon=0.125, method=method)
        res = _run_adaptive(krdm422, cfg, np.random.default_rng(5))
        assert res.ledger.total.hex() == cost.total_queries(method, params).hex()


# Shapes and eps at which a closed-form sum of the schedule, taken apart from
# `price_schedule`, differs from a run's accumulated charges in the last bits.
PRICE_SHAPES = [(4, 2, 2), (8, 2, 4), (12, 3, 6)]
PRICE_EPS = [0.25, 0.125, 0.02, 0.01, 0.001]


@pytest.mark.parametrize("N,k,eta", PRICE_SHAPES, ids=["4-2-2", "8-2-4", "12-3-6"])
def test_runs_totals_and_sweeps_price_one_way(N, k, eta):
    # The ledger of a run, `cost.total_queries` and a sweep point are one
    # computation, so they agree in every bit.  The ledger does not depend
    # on the draws, so a one-trial run on a 1-bit probe suffices.
    problem = engine.krdm_problem(N, k, eta, np.random.default_rng(3))
    for method in cost.QGE_METHODS:
        argv = ["sweep", "--N", str(N), "--k", str(k), "--eta", str(eta), "--method", method]
        rc = cli.build_run_config(cli.build_parser().parse_args(argv))
        swept = cli.sweep_totals(rc, method, PRICE_EPS)
        for eps, point in zip(PRICE_EPS, swept):
            config = engine.ScheduleConfig(epsilon=eps, method=method, p=1)
            ledger = engine.run_many(problem, config, seed=1, trials=1)[0].ledger.total
            closed = cost.total_queries(method, cost.CostParams(N=N, k=k, eta=eta, epsilon=eps))
            assert ledger.hex() == closed.hex() == point.hex(), (method, eps)


def _level_charges(ledger):
    """What each level adds to the running total."""
    return np.diff(ledger.cumulative, prepend=0.0)


def test_ledger_row_structure(krdm422):
    cfg = engine.ScheduleConfig(epsilon=0.1, method="method-1")
    res = _run_adaptive(krdm422, cfg, np.random.default_rng(5))
    aleph = engine.measured_aleph(krdm422, cfg)
    sched = cost.iteration_schedule(0.1, krdm422.M)
    assert len(res.ledger.cumulative) == len(res.trace) == len(sched.reps) == 5
    assert res.ledger.total == res.ledger.cumulative[-1]
    assert all(b > a for a, b in zip(res.ledger.cumulative, res.ledger.cumulative[1:]))
    for q, (charge, reps) in enumerate(zip(_level_charges(res.ledger), sched.reps)):
        assert charge == pytest.approx(aleph * 2.0**q * reps)


def test_method2_charges_sqrt_reps(krdm422):
    cfg = engine.ScheduleConfig(epsilon=0.1, method="method-2")
    res = _run_adaptive(krdm422, cfg, np.random.default_rng(5))
    aleph = engine.measured_aleph(krdm422, cfg)
    sched = cost.iteration_schedule(0.1, krdm422.M)
    assert len(res.ledger.cumulative) == len(sched.reps) == 5
    for q, (charge, reps) in enumerate(zip(_level_charges(res.ledger), sched.reps)):
        assert charge == pytest.approx(aleph * 2.0**q * math.ceil(math.sqrt(reps)))


def _ledger_oracle(method, aleph, sched):
    """The per-trial running sum the engine's query ledger used to keep, level by level."""
    cumulative = []
    for q, reps in enumerate(sched.reps):
        charged_reps = math.ceil(math.sqrt(reps)) if method == "method-2" else reps
        subroutine = aleph * 2.0**q * charged_reps
        cumulative.append((cumulative[-1] if cumulative else 0.0) + subroutine)
    return cumulative


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("method", cost.QGE_METHODS)
@pytest.mark.parametrize("M", [1, 66, 1540])
def test_ledger_matches_running_sum_oracle(method, M):
    # run_adaptive runs on any exact vector, so M is free; aleph is arbitrary
    exact = np.linspace(-0.9, 0.9, M)
    for eps, aleph in [(0.5, 1.0), (0.1, math.sqrt(66 * math.log(16.0))), (0.02, 3.7), (1e-3, 0.1)]:
        cfg = engine.ScheduleConfig(epsilon=eps, method=method)
        res = engine.run_adaptive(exact, aleph, cfg, np.random.default_rng(2))
        oracle = _ledger_oracle(method, aleph, cost.iteration_schedule(eps, M))
        assert np.array_equal(_bits(res.ledger.cumulative), _bits(oracle))
        assert _bits(res.ledger.total) == _bits(oracle[-1])


# ------------------------------------------------------------------- contracts

def test_violations_recorded_not_fatal(krdm422):
    cfg = engine.ScheduleConfig(epsilon=0.1, noise=NoiseSpec(fail_prob=1.0))
    res = engine.run_many(krdm422, cfg, seed=3, trials=5)
    assert engine.violation_run_fraction(res, krdm422.exact) == 1.0


def test_noiseless_violations_within_budget(krdm422):
    cfg = engine.ScheduleConfig(epsilon=0.05, method="method-1")
    res = engine.run_many(krdm422, cfg, seed=123, trials=300)
    sched = cost.iteration_schedule(0.05, krdm422.M)
    assert engine.violation_run_fraction(res, krdm422.exact) <= sum(sched.deltas)


def test_contract_check_counts_only_later_levels():
    # Level 0 of `early` breaks its bound (|0.9 - (-0.5)| = 1.4 > 2^0) and
    # level 1 sits on it (|0 - (-0.5)| = 2^-1); only `late` breaks a bound at
    # q >= 1 (|0 - (-0.75)| > 2^-1).
    exact = np.array([0.9, 0.0])
    early = [([-0.5, 0.0], [0.0, 0.0]), ([0.8, -0.5], [0.0, 0.0])]
    late = [([0.0, 0.0], [0.0, 0.0]), ([0.8, -0.75], [0.0, 0.0])]
    assert engine.violation_run_fraction(_hand_runs([early], (1.0, 2.0)), exact) == 0.0
    assert engine.violation_run_fraction(_hand_runs([early, late], (1.0, 2.0)), exact) == 0.5


def test_violation_fraction_equals_the_per_run_loop(krdm422):
    # One stacked flag call against the loop over runs it replaced, on exact
    # vectors perturbed by 0.01 to 0.04, so that from none to all of the runs
    # break a bound.
    cfg = engine.ScheduleConfig(epsilon=0.1)
    res = engine.run_many(krdm422, cfg, seed=8, trials=20)
    rng = np.random.default_rng(9)
    fractions = set()
    for _ in range(50):
        scale = rng.uniform(0.01, 0.04)
        exact = krdm422.exact + rng.normal(scale=scale, size=krdm422.M)
        flagged = 0
        for r in res:
            u = np.stack([rec.u_tilde for rec in r.trace])
            flagged += bool(engine._violation(exact, u[1:], np.arange(1, len(u))[:, None]).any())
        fraction = engine.violation_run_fraction(res, exact)
        assert fraction == flagged / len(res)
        fractions.add(fraction)
    assert len(fractions) > 3


@pytest.mark.parametrize("window", ["uniform", "sine"])
def test_run_path_builds_no_dense_matrix(krdm422, window):
    # The closed-form law needs no 2^p x 2^p matrix, even at the largest grid:
    # the run peaks near 7 MiB, and a dense 4096 x 4096 QFT alone is 256 MiB.
    config = engine.ScheduleConfig(epsilon=0.25, p=probe.MAX_GRID_BITS, window=window)
    tracemalloc.start()
    try:
        engine.run_many(krdm422, config, seed=3, trials=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20


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


def test_jobs_are_capped_at_the_cpu_count(krdm422, monkeypatch):
    # `--jobs 1000` must not ask for 1000 workers; the fake pool records what
    # is asked for and maps in this process, so no process starts.
    import concurrent.futures
    import os

    asked = []

    class FakePool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    cfg = engine.ScheduleConfig(epsilon=0.25)
    serial = engine.run_many(krdm422, cfg, seed=4, trials=50, jobs=1)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    capped = engine.run_many(krdm422, cfg, seed=4, trials=50, jobs=1000)
    assert asked == [2]
    assert len(capped) == len(serial) == 50
    for x, y in zip(serial, capped):
        assert np.array_equal(x.estimates, y.estimates)
        assert x.ledger == y.ledger


def _sample_median_oracle(v_vec, grid, R, window, noise, gen):
    """The single-stream median sampler `probe.sample_median_rows` replaced, written out.

    The register route's readout distribution of every slope (one complex
    exponential per register cell, one (2^p, M) inverse-QFT product per call),
    then M Beta order statistics from `gen` through the inverse CDF.
    """
    probs = readout_distribution(v_vec, grid, window)
    w = noise.uniform_weight
    if w:
        probs = (1.0 - w) * probs + w / grid.size
    cum = np.cumsum(probs, axis=0).T
    m = math.ceil(R / 2)
    u = gen.beta(m, R - m + 1, size=cum.shape[0])
    return grid.points[np.minimum((u[:, None] > cum).sum(axis=-1), grid.size - 1)]


def _run_adaptive_oracle(exact, aleph, config, gen):
    """The per-trial loop the batched engine replaced: one run, one level at a time."""
    sched = cost.iteration_schedule(config.epsilon, exact.size, config.c)
    grid = probe.make_grid(config.p)
    u = np.zeros(exact.size)
    trace = []
    for q, reps in enumerate(sched.reps):
        v = engine._slope(exact, u, q)
        g = _sample_median_oracle(v, grid, reps, config.window, config.noise, gen)
        trace.append(engine.IterationTrace(u_tilde=u, g=g))
        u = engine.update_step(u, g, q)
    return engine.RunResult(u, cost.price_schedule(config.method, aleph, sched), trace)


def _assert_runs_match_oracle(problem, config, seed, trials, jobs):
    results = engine.run_many(problem, config, seed, trials, jobs)
    aleph = engine.measured_aleph(problem, config)
    children = np.random.SeedSequence(seed).spawn(trials)
    assert len(results) == trials
    for got, child in zip(results, children):
        want = _run_adaptive_oracle(problem.exact, aleph, config, np.random.default_rng(child))
        assert np.array_equal(got.estimates, want.estimates)
        assert np.array_equal(_bits(got.ledger.cumulative), _bits(want.ledger.cumulative))
        assert len(got.trace) == len(want.trace)
        for a, b in zip(got.trace, want.trace):
            assert np.array_equal(a.u_tilde, b.u_tilde) and np.array_equal(a.g, b.g)


@pytest.fixture(scope="module")
def oracle_problems():
    return {
        "pauli": _pauli_z_problem(),
        "m66": engine.krdm_problem(4, 2, 2, np.random.default_rng(21)),
        "m1540": engine.krdm_problem(8, 2, 4, np.random.default_rng(22)),
    }


NOISY = NoiseSpec(phase_jitter=0.2, fail_prob=0.01)


@pytest.mark.parametrize(
    "problem,method,noise,window,p,trials,jobs",
    [
        ("pauli", "prior-qge", IDEAL, "uniform", 3, 20, 1),
        ("pauli", "prior-qge", NOISY, "sine", 1, 7, 2),
        ("pauli", "prior-qge", IDEAL, "sine", 5, 1, 1),
        ("m66", "prior-qge", IDEAL, "uniform", 3, 7, 1),
        ("m66", "method-1", NOISY, "uniform", 1, 20, 2),
        ("m66", "method-2", IDEAL, "sine", 5, 20, 1),
        ("m66", "method-1", NOISY, "sine", 3, 1, 1),
        ("m66", "method-2", NOISY, "uniform", 5, 7, 2),
        ("m66", "prior-qge", NOISY, "sine", 1, 20, 1),
        ("m1540", "method-1", IDEAL, "uniform", 3, 7, 1),
        ("m1540", "prior-qge", NOISY, "sine", 1, 7, 2),
        ("m1540", "method-2", IDEAL, "sine", 5, 1, 1),
        ("m1540", "method-2", NOISY, "uniform", 3, 20, 1),
    ],
)
def test_run_many_matches_per_trial_oracle(
    oracle_problems, problem, method, noise, window, p, trials, jobs
):
    # Each trial of a batch draws from its own stream, as a lone run did, and
    # its readout law is the same law to rounding: the runs agree bit for bit.
    config = engine.ScheduleConfig(epsilon=0.05, method=method, p=p, window=window, noise=noise)
    _assert_runs_match_oracle(oracle_problems[problem], config, 31, trials, jobs)


@pytest.mark.parametrize("method", cost.QGE_METHODS)
@pytest.mark.parametrize("noise", [IDEAL, NOISY], ids=["ideal", "noisy"])
@pytest.mark.parametrize("window", ["uniform", "sine"])
@pytest.mark.parametrize("p", [1, 3, 5])
def test_run_many_matches_oracle_on_every_schedule_knob(krdm422, method, noise, window, p):
    config = engine.ScheduleConfig(epsilon=0.1, method=method, p=p, window=window, noise=noise)
    _assert_runs_match_oracle(krdm422, config, 5, 7, 1)


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_many_spans_several_batches(krdm422, monkeypatch, jobs):
    # Three trials fit a batch, so 20 trials run as six full batches and a remainder of two.
    config = engine.ScheduleConfig(epsilon=0.05, method="method-1", noise=NOISY)
    monkeypatch.setattr(engine, "_BATCH_CELLS", 3 * (krdm422.M << config.p) + 100)
    batches = []
    run_batch = engine._run_batch

    def counting(exact, reps, config, gens):
        batches.append(len(gens))
        return run_batch(exact, reps, config, gens)

    if jobs == 1:  # workers are separate processes and do not see the counter
        monkeypatch.setattr(engine, "_run_batch", counting)
    _assert_runs_match_oracle(krdm422, config, 8, 20, jobs)
    if jobs == 1:
        assert batches == [3] * 6 + [2]


@pytest.mark.parametrize("method,norms", [("prior-qge", 0), ("method-1", 1), ("method-2", 1)])
def test_run_many_measures_aleph_once(krdm422, monkeypatch, method, norms):
    # One aleph call and one priced schedule per run_many, over seven batches
    # (three trials fit a batch); only the sector-aware methods read the norm.
    config = engine.ScheduleConfig(epsilon=0.25, method=method)
    monkeypatch.setattr(engine, "_BATCH_CELLS", 3 * (krdm422.M << config.p) + 100)
    seen = []

    def counting(name):
        wrapped = getattr(cost, name)
        return lambda *args: seen.append(name) or wrapped(*args)

    for name in ("aleph", "binom_norm_formula", "price_schedule"):
        monkeypatch.setattr(cost, name, counting(name))
    batches = []
    run_batch = engine._run_batch

    def batch_counting(*args):
        batches.append(len(args[-1]))
        return run_batch(*args)

    monkeypatch.setattr(engine, "_run_batch", batch_counting)
    engine.run_many(krdm422, config, seed=4, trials=20)
    assert batches == [3] * 6 + [2]
    assert seen.count("aleph") == 1
    assert seen.count("price_schedule") == 1
    assert seen.count("binom_norm_formula") == norms


def test_methods_share_estimates_under_one_seed(krdm422):
    # One sampler, one schedule R^(q) and one trial stream for every method:
    # under a seed the estimates coincide and only the query charge differs.
    runs = {
        method: engine.run_many(
            krdm422, engine.ScheduleConfig(epsilon=0.25, method=method), seed=6, trials=4
        )
        for method in cost.QGE_METHODS
    }
    for results in runs.values():
        for x, y in zip(results, runs["prior-qge"]):
            assert np.array_equal(x.estimates, y.estimates)
    assert len({results[0].ledger.total for results in runs.values()}) == 3


def test_run_many_rejects_zero_trials(krdm422):
    with pytest.raises(ValueError):
        engine.run_many(krdm422, engine.ScheduleConfig(epsilon=0.5), seed=0, trials=0)


# ------------------------------------------------------------------ trace csv

def test_trace_csv_round_trip(tmp_path, krdm422):
    cfg = engine.ScheduleConfig(epsilon=0.5)
    res = engine.run_many(krdm422, cfg, seed=2, trials=2)
    path = tmp_path / "trace.csv"
    engine.write_trace_csv(res, krdm422.exact, path, provenance="qgelab-test")
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


def _write_trace_rows(runs, exact, path, provenance=""):
    """The row-by-row trace writer `write_trace_csv` replaced: the byte oracle.

    It reads each trial as `runs[t]` and derives each row's v and violation
    flag itself, from exact[j] and u_tilde.
    """
    with open(path, "w", newline="") as fh:
        fh.write("trial,q,j,u_tilde,v,g,violation_flag,queries_cumulative\n")
        for t in range(len(runs)):
            res = runs[t]
            for q, rec in enumerate(res.trace):
                for j in range(rec.u_tilde.size):
                    residual = float(exact[j]) - float(rec.u_tilde[j])
                    v = 2.0**q / math.pi * residual
                    flag = abs(residual) > 2.0**-q + 1e-12
                    fh.write(
                        "%d,%d,%d,%.12g,%.12g,%.12g,%d,%.12g\n"
                        % (t, q, j, rec.u_tilde[j], v, rec.g[j], flag, res.ledger.cumulative[q])
                    )
        if provenance:
            fh.write(f"# provenance,{provenance}\n")


def _assert_trace_bytes_match(tmp_path, runs, exact):
    fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
    engine.write_trace_csv(runs, exact, fast, provenance="qgelab-test")
    _write_trace_rows(runs, exact, slow, provenance="qgelab-test")
    assert fast.read_bytes() == slow.read_bytes()


@pytest.mark.parametrize(
    "method,noise,trials",
    [
        ("prior-qge", NoiseSpec(), 6),
        ("method-1", NoiseSpec(), 6),
        ("method-2", NoiseSpec(), 6),
        ("method-1", NoiseSpec(phase_jitter=0.2, fail_prob=0.01), 6),
        ("method-1", NoiseSpec(), 1),
    ],
    ids=["prior-qge", "method-1", "method-2", "noisy", "single-trial"],
)
def test_trace_csv_matches_row_oracle(tmp_path, krdm422, method, noise, trials):
    cfg = engine.ScheduleConfig(epsilon=0.05, method=method, noise=noise)
    runs = engine.run_many(krdm422, cfg, seed=5, trials=trials)
    _assert_trace_bytes_match(tmp_path, runs, krdm422.exact)


def test_trace_csv_matches_row_oracle_single_observable(tmp_path):
    cfg = engine.ScheduleConfig(epsilon=0.1, method="prior-qge")
    problem = _pauli_z_problem()
    runs = engine.run_many(problem, cfg, seed=3, trials=7)
    _assert_trace_bytes_match(tmp_path, runs, problem.exact)


def _hand_runs(trials, charges):
    """A Runs whose trial t holds, at level q, the columns trials[t][q] = (u, g).

    `charges` is the shared ledger's cumulative charge per level.
    """
    # (T, levels, 2, M) -> (2, levels, T, M)
    u_tilde, g = np.array(trials, dtype=np.float64).transpose(2, 1, 0, 3)
    ledger = cost.Charges(cumulative=tuple(charges))
    return engine.Runs(estimates=u_tilde[-1], ledger=ledger, u_tilde=u_tilde, g=g)


@pytest.mark.parametrize(
    "case", ["one-trial", "all-equal", "all-differ", "mixed", "every-level-equal"]
)
def test_trace_csv_patches_trial_zero_rows(tmp_path, case):
    # One trial has nothing to patch; with every row equal to trial 0's only
    # trial 0's bodies are formatted; with every entry different from trial
    # 0's every entry goes through the key.  The mixed trials draw their
    # (u, g) columns from a few grid values, 0.0 and -0.0 among them.  With
    # every level equal, each trial repeats one (u, g) column set at every
    # level, so only the level in the key tells its bodies apart.
    rng = np.random.default_rng(4)
    T, levels, M = (1 if case == "one-trial" else 6), 3, 5
    grid_values = [-0.75, -0.0, 0.0, 0.125, 0.5]
    trials = rng.choice(grid_values, size=(T, levels, 2, M))
    if case == "all-equal":
        trials[1:] = trials[0]
    elif case == "all-differ":
        trials[1:] = rng.uniform(1.0, 2.0, size=(T - 1, levels, 2, M))
    elif case == "every-level-equal":
        trials[:] = trials[:, :1]
    charges = rng.uniform(1.0, 9.0, size=levels).cumsum()
    exact = rng.uniform(-0.5, 0.5, size=M)
    _assert_trace_bytes_match(tmp_path, _hand_runs(trials.tolist(), charges), exact)
    lines = (tmp_path / "fast.csv").read_text().splitlines()
    assert len(lines) == 1 + T * levels * M + 1


def test_trace_csv_keeps_rows_apart_that_differ_only_in_bits(tmp_path):
    tiny = 5e-324  # the smallest subnormal
    near = np.nextafter(0.1, 1.0)  # differs from 0.1 in bits, prints alike at 12 digits
    assert "%.12g" % near == "%.12g" % 0.1 and near != 0.1
    nan, inf = float("nan"), float("inf")
    # v = 2^q (x - u) / pi: x = -0.0 with u = 0.0 gives v = -0.0, with u = -0.0
    # gives 0.0; u = -4 tiny at x = 0.0 gives a subnormal v; u = +-inf gives
    # v = -+inf with the flag set; u = nan gives v = nan with the flag clear.
    exact = np.array([-0.0, -0.0, 0.0, 0.5])
    first = [
        ([0.0, nan, -4 * tiny, inf], [0.0, 0.5, -0.5, 0.0]),
        ([0.25, -0.0, near, -inf], [-0.0, nan, 0.5, inf]),
    ]
    # 0.0 and -0.0 swapped column by column: equal as floats, not as bits
    second = [
        ([-0.0, nan, 4 * tiny, inf], [-0.0, 0.5, -0.5, -0.0]),
        ([0.25, 0.0, 0.1, -inf], [0.0, nan, 0.5, inf]),
    ]
    # Repeats of both trials, so rows equal to trial 0's reuse its bodies and
    # the entries that differ from it are deduplicated among themselves.  The
    # shared ledger charges -0.0 at level 1, printed `-0`.
    runs = _hand_runs([first, second, first, second], (3.0, -0.0))
    _assert_trace_bytes_match(tmp_path, runs, exact)
    text = (tmp_path / "fast.csv").read_text()
    assert "0,0,0,0,-0,0,0,3\n" in text and "1,0,0,-0,0,-0,0,3\n" in text
    assert "0,1,1,-0,0,nan,0,-0\n" in text and "1,1,1,0,-0,nan,0,-0\n" in text
    assert "0,0,1,nan,nan,0.5,0,3\n" in text and "3,0,1,nan,nan,0.5,0,3\n" in text
    assert "0,0,2,-1.97626258336e-323,%.12g,-0.5,0,3\n" % tiny in text
    assert "3,0,2,1.97626258336e-323,%.12g,-0.5,0,3\n" % -tiny in text
    assert "0,0,3,inf,-inf,0,1,3\n" in text and "2,1,3,-inf,inf,inf,1,-0\n" in text


@pytest.mark.parametrize("split", ["jobs-2", "batches"])
def test_split_runs_equal_one_batch(tmp_path, krdm422, monkeypatch, split):
    # Batches joined along the trial axis, from worker processes or from one
    # process in several batches, equal the one-batch run bit for bit.
    config = engine.ScheduleConfig(epsilon=0.05, method="method-1", noise=NOISY)
    whole = engine.run_many(krdm422, config, seed=8, trials=20)
    if split == "batches":
        monkeypatch.setattr(engine, "_BATCH_CELLS", 3 * (krdm422.M << config.p) + 100)
    parts = engine.run_many(krdm422, config, 8, 20, jobs=2 if split == "jobs-2" else 1)
    assert np.array_equal(_bits(parts.estimates), _bits(whole.estimates))
    assert parts.ledger == whole.ledger
    assert np.array_equal(_bits(parts.u_tilde), _bits(whole.u_tilde))
    assert np.array_equal(_bits(parts.g), _bits(whole.g))
    engine.write_trace_csv(whole, krdm422.exact, tmp_path / "whole.csv")
    engine.write_trace_csv(parts, krdm422.exact, tmp_path / "parts.csv")
    assert (tmp_path / "whole.csv").read_bytes() == (tmp_path / "parts.csv").read_bytes()


def test_runs_give_each_trial_as_a_run_result(krdm422):
    config = engine.ScheduleConfig(epsilon=0.1)
    runs = engine.run_many(krdm422, config, seed=2, trials=3)
    assert len(runs) == 3 and len(list(runs)) == 3
    for t, res in enumerate(runs):
        assert isinstance(res, engine.RunResult)
        assert res.ledger is runs.ledger
        assert np.shares_memory(res.estimates, runs.estimates)
        assert np.array_equal(res.estimates, runs.estimates[t])
        assert len(res.trace) == len(runs.u_tilde) == len(runs.ledger.cumulative)
        for q, rec in enumerate(res.trace):
            assert rec.u_tilde.shape == rec.g.shape == (krdm422.M,)
            assert np.shares_memory(rec.u_tilde, runs.u_tilde)
            assert np.array_equal(rec.u_tilde, runs.u_tilde[q, t])
            assert np.array_equal(rec.g, runs.g[q, t])
    lone = engine.run_adaptive(
        krdm422.exact, engine.measured_aleph(krdm422, config), config, np.random.default_rng(5)
    )
    assert isinstance(lone, engine.RunResult)
    assert len(lone.trace) == len(cost.iteration_schedule(0.1, krdm422.M).reps)


@pytest.mark.parametrize(
    "u_shape,g_shape", [((2, 2, 3), (2, 2, 4)), ((2, 2, 4), (2, 3, 4))], ids=["M", "T"]
)
def test_runs_refuse_mismatched_levels(u_shape, g_shape):
    ledger = cost.Charges((1.0, 2.0))
    with pytest.raises(ValueError, match=r"2 ledger levels .*\(2, 4\) need \(2, 2, 4\)"):
        engine.Runs(np.zeros((2, 4)), ledger, np.zeros(u_shape), np.zeros(g_shape))


@pytest.mark.parametrize("charges", [(), (1.0,), (1.0, 2.0, 3.0)], ids=["none", "short", "long"])
def test_runs_refuse_a_ledger_off_their_levels(charges):
    # Two levels need two cumulative charges: one would leave level 1 without
    # a charge in the trace, three would give a total no level reaches.
    level = np.zeros((2, 2, 3))
    with pytest.raises(ValueError, match=r"at least one level.*need \(%d, 2, 3\)" % len(charges)):
        engine.Runs(np.zeros((2, 3)), cost.Charges(charges), u_tilde=level, g=level)


@pytest.mark.parametrize("shape", [(4,), (0, 4), (2, 0)])
def test_runs_refuse_estimates_without_a_trial_axis(shape):
    # A run writes M >= 1 trace rows per level, so (2, 0) is refused too.
    level = np.zeros((1, *shape))
    with pytest.raises(ValueError, match="T >= 1"):
        engine.Runs(np.zeros(shape), cost.Charges((1.0,)), u_tilde=level, g=level)

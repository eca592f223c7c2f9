"""The verification suites themselves: clean passes and deliberate breakage."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from ladder_oracle import annihilation_operator
from qgelab import cost, encode, engine, fermion, probe, verify

EXACT_LADDER = fermion._apply_ladder  # bound before `dropped_parity` swaps it


def test_anticommutation_suite_exact():
    res = verify.anticommutation_suite()
    assert res.passed
    assert res.cases == 108  # sum over N=2..5 of 2 N^2 relations
    assert res.max_error == 0.0


def test_anticommutation_suite_catches_dropped_parity(dropped_parity):
    res = verify.anticommutation_suite()
    assert not res.passed
    assert res.failures > 0
    assert res.max_error == 2.0  # anticommutator turns into a commutator, off by 2
    assert any("residual" in d for d in res.details)


def test_mutated_ladder_same_magnitudes_wrong_signs(dropped_parity):
    states, modes = np.arange(8, dtype=np.int64), np.arange(3)[:, None]
    good_alive, good_image, good_sign = EXACT_LADDER(states, 1.0, modes, annihilate=True)
    bad_alive, bad_image, bad_sign = dropped_parity(states, 1.0, modes, annihilate=True)
    # the same surviving columns and images, and the same magnitudes
    assert np.array_equal(good_alive, bad_alive)
    assert np.array_equal(good_image[good_alive], bad_image[bad_alive])
    assert np.array_equal(abs(good_sign[good_alive]), abs(bad_sign[bad_alive]))
    assert (good_sign[good_alive] != bad_sign[bad_alive]).any()  # but some signs flipped


@pytest.mark.parametrize("N", range(1, 6))
def test_anticommutation_stack_is_the_sparse_ladder_oracle(N):
    # One stacked kernel pass scattered dense must equal each string tracked
    # on its own and built as a CSR matrix.
    stack = verify._annihilation_stack(N)
    assert stack.shape == (N, 1 << N, 1 << N) and stack.dtype == np.float64
    for p in range(N):
        assert np.array_equal(stack[p], annihilation_operator(p, N).toarray()), p


def test_polynomial_transform_suite_small():
    res = verify.polynomial_transform_suite(n_cases=10)
    assert res.passed
    assert res.cases == 10
    assert res.max_error < 1e-12


def _per_case_errors(n_cases):
    """The transform suite's errors as it ran before it stacked its cases: case by case,
    each through its own 2-D `block_encode` and `eigen_poly_transform`, and the oracle
    block by block, from the same draws."""
    rng = np.random.default_rng(0x51BE)
    errors = []
    for _ in range(n_cases):
        blocks = verify._random_blocks(rng)
        spec = verify._bounded_polynomial(rng)
        full = verify._block_diagonal(blocks)
        transformed = encode.eigen_poly_transform(encode.block_encode(full, 1.0), spec)
        oracle_blocks = []
        for b in blocks:
            lam, vec = np.linalg.eigh(b)
            oracle_blocks.append(vec @ np.diag(spec.evaluate(lam)) @ vec.conj().T)
        oracle = verify._block_diagonal(oracle_blocks)
        errors.append((float(np.abs(transformed.encoded_operator - oracle).max()), full.shape[0]))
    return errors


def test_stacked_transform_suite_equals_the_per_case_loop_bit_for_bit(monkeypatch):
    tally, checks = verify.SuiteResult.tally, []

    def recorded(name, tolerance, detail, cases):
        checks.extend(cases)
        return tally(name, tolerance, detail, cases)

    monkeypatch.setattr(verify.SuiteResult, "tally", recorded)
    res = verify.polynomial_transform_suite(n_cases=100)
    assert res.passed and res.cases == 100
    assert [case for _, case, _, _ in checks] == list(range(100))
    assert all(first == last for first, *_, last in checks)
    expected = _per_case_errors(100)
    got = [(err, dim) for err, _, dim, _ in checks]
    assert np.array(got).tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("run, name", [
    (lambda: verify.norm_identity_suite(max_modes=1), "sector-norm-identity"),
    (lambda: verify.polynomial_transform_suite(n_cases=0), "polynomial-transform"),
    (lambda: verify.polynomial_transform_suite(n_cases=-3), "polynomial-transform"),
    (lambda: verify.SuiteResult.tally("anything", 0.0, "{}", []), "anything"),
])
def test_a_suite_that_ran_no_case_is_refused(run, name):
    with pytest.raises(ValueError, match=f"suite '{name}' ran no case"):
        run()


def test_norm_identity_suite_small():
    res = verify.norm_identity_suite(max_modes=5)
    assert res.passed
    assert res.max_error == 0.0  # dyadic sums hit the integer formula exactly


def test_probe_calibration_suite_exhaustive():
    res = verify.probe_calibration_suite()
    assert res.passed
    assert res.cases == 5 * 101
    assert res.max_error == 0.0


def test_ledger_consistency_suite():
    res = verify.ledger_consistency_suite()
    assert res.passed
    assert res.cases == 60  # (N,k) pairs x 4 epsilons x 3 methods
    assert res.max_error == 0.0  # every charge and total lies inside its closed-form interval


def _doubled_charges(method):
    """`cost.price_schedule` with every level of `method` charged aleph 2^(q+1) R."""
    price = cost.price_schedule

    def doubled(m, aleph, schedule):
        charges = price(m, aleph, schedule)
        if m != method:
            return charges
        return cost.Charges(cumulative=tuple(2.0 * c for c in charges.cumulative))

    return doubled


@pytest.mark.parametrize("method", cost.QGE_METHODS)
def test_ledger_suite_fails_a_doubled_charge(monkeypatch, method):
    # The run and `total_queries` price through one rule, so comparing them
    # with each other cannot see it doubled; the closed-form interval does.
    monkeypatch.setattr(cost, "price_schedule", _doubled_charges(method))
    res = verify.ledger_consistency_suite()
    assert res.failures == 20  # 5 shapes x 4 epsilons of that method, and no other
    assert all(f" {method}: " in d for d in res.details)
    assert res.max_error > 0.9


def test_ledger_suite_fails_a_run_priced_at_another_shape(monkeypatch):
    def two_modes_larger(problem, config):
        N = problem.N + 2
        return cost.aleph(config.method, N, problem.M, problem.k, problem.eta)

    monkeypatch.setattr(engine, "measured_aleph", two_modes_larger)
    res = verify.ledger_consistency_suite()
    assert res.failures == res.cases == 60


def test_quick_gate_draws_nothing_and_builds_no_observable(monkeypatch):
    # `verify --quick` reads a run's charges without running it and the
    # sector norms from one stacked matrix: no readout is drawn and no
    # per-observable matrix is built.
    def refuse(*args, **kwargs):
        raise AssertionError("verify drew a readout or built a per-observable matrix")

    monkeypatch.setattr(probe, "sample_median_rows", refuse)
    monkeypatch.setattr(engine, "run_adaptive", refuse)
    monkeypatch.setattr(fermion, "Observable", refuse)
    suites = verify.run_all(quick=True)
    assert [s.passed for s in suites] == [True] * 5


def test_polynomial_suite_eigensolves_each_case_once(monkeypatch):
    # `block_encode` eigensolves each case's full matrix, the oracle each of
    # its blocks, and the transform reads the encoding's eigenpairs: a second
    # eigensolve per case shows up as a count above cases + blocks.  A stacked
    # call solves every matrix of its leading axes, so each call counts those.
    eigh, random_blocks = np.linalg.eigh, verify._random_blocks
    solved, blocks = [], []

    def counted_eigh(a, *args, **kwargs):
        solved.extend([a.shape[-1]] * math.prod(np.shape(a)[:-2]))
        return eigh(a, *args, **kwargs)

    def recorded_blocks(rng):
        blocks.append(random_blocks(rng))
        return blocks[-1]

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(verify, "_random_blocks", recorded_blocks)
    res = verify.polynomial_transform_suite(n_cases=7)
    assert res.passed and len(blocks) == 7
    assert len(solved) == 7 + sum(len(b) for b in blocks)


def test_norm_suite_runs_no_eigensolve(monkeypatch):
    # The k-body sum of squares is diagonal, so the suite reads column sums;
    # an eigensolve anywhere in it is work its checks do not need.
    def refuse(*args, **kwargs):
        raise AssertionError("the sector-norm suite eigensolved")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    res = verify.norm_identity_suite(max_modes=8)
    assert res.passed and res.cases == 84


def test_suite_line_format(dropped_parity):
    res = verify.probe_calibration_suite()
    line = res.line()
    assert line.startswith("[PASS]")
    assert "probe-calibration" in line
    bad = verify.anticommutation_suite()
    assert bad.line().startswith("[FAIL]")


def test_run_all_returns_five_suites():
    suites = verify.run_all(quick=True)
    assert [s.name for s in suites] == [
        "anticommutation",
        "polynomial-transform",
        "sector-norm-identity",
        "probe-calibration",
        "ledger-consistency",
    ]
    assert all(s.passed for s in suites)


# Each numeric suite with its measured value replaced by NaN: (module, name, stand-in, run).
NAN_CASES = {
    "polynomial-transform": (
        encode, "eigen_poly_transform",
        lambda be, spec: SimpleNamespace(encoded_operator=np.full_like(be.encoded_operator, np.nan)),
        lambda: verify.polynomial_transform_suite(n_cases=3),
    ),
    "sector-norm-identity": (
        fermion, "binom_norm_formula", lambda N, k, eta: math.nan,
        lambda: verify.norm_identity_suite(max_modes=3),
    ),
    "probe-calibration": (
        probe, "single_shot_success", lambda slopes, grid: np.full(len(slopes), np.nan),
        verify.probe_calibration_suite,
    ),
    "ledger-consistency": (
        cost, "total_queries", lambda method, params: math.nan,
        verify.ledger_consistency_suite,
    ),
}


@pytest.mark.parametrize("suite", NAN_CASES)
def test_every_numeric_suite_fails_a_nan_error(monkeypatch, suite):
    module, name, stand_in, run = NAN_CASES[suite]
    monkeypatch.setattr(module, name, stand_in)
    res = run()
    assert res.name == suite
    assert not res.passed
    assert res.failures == res.cases > 0
    assert "max error nan" in res.line()

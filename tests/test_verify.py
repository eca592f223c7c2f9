"""The verification suites themselves: clean passes and deliberate breakage."""

from qgelab import fermion, verify


def test_anticommutation_suite_exact():
    res = verify.anticommutation_suite()
    assert res.passed
    assert res.cases == 108  # sum over N=2..5 of 2 N^2 relations
    assert res.max_error == 0.0


def test_anticommutation_suite_catches_dropped_parity():
    res = verify.anticommutation_suite(sign_error=True)
    assert not res.passed
    assert res.failures > 0
    assert res.max_error == 2.0  # anticommutator turns into a commutator, off by 2
    assert any("residual" in d for d in res.details)


def test_mutated_ladder_same_magnitudes_wrong_signs():
    good = fermion.annihilation_operator(1, 3)
    bad = verify._annihilation_missing_parity_string(1, 3)
    assert (abs(good) - abs(bad)).nnz == 0  # same sparsity pattern and magnitudes
    assert (good - bad).nnz > 0  # but some entries flipped sign


def test_polynomial_transform_suite_small():
    res = verify.polynomial_transform_suite(n_cases=10)
    assert res.passed
    assert res.cases == 10
    assert res.max_error < 1e-12


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
    assert res.max_error == 0.0  # the ledger and the closed form are one computation


def test_suite_line_format():
    res = verify.probe_calibration_suite(p_values=(2,))
    line = res.line()
    assert line.startswith("[PASS]")
    assert "probe-calibration" in line
    bad = verify.anticommutation_suite(max_modes=2, sign_error=True)
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

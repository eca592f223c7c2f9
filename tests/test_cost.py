"""Cost models: schedules, aleph factors, totals, orderings."""

from __future__ import annotations

import csv
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgelab import cost, engine


def test_schedule_frozen_small_case():
    sched = cost.iteration_schedule(0.25, M=32)
    assert len(sched.reps) == 3  # q_max = 2
    c = cost.C_MAX
    assert sched.deltas == pytest.approx((c / 64, c / 8, c), rel=1e-15)
    assert sched.reps == (60, 49, 38)


def test_schedule_repetition_formula():
    # R = ceil(kappa_R * ln(M / delta)) for a single hand-evaluated point.
    assert math.ceil(cost.KAPPA_R * math.log(32 / 0.02)) == 39
    sched = cost.iteration_schedule(0.5, M=32)
    assert sched.reps == tuple(math.ceil(cost.KAPPA_R * math.log(32 / d)) for d in sched.deltas)


def test_schedule_validation():
    with pytest.raises(ValueError):
        cost.iteration_schedule(0.0, 10)
    with pytest.raises(ValueError):
        cost.iteration_schedule(1.5, 10)
    with pytest.raises(ValueError):
        cost.iteration_schedule(0.1, 10, c=0.5)  # above the MSE-budget cap
    with pytest.raises(ValueError):
        cost.iteration_schedule(0.1, 0)


def test_schedule_degenerate_epsilon_one():
    sched = cost.iteration_schedule(1.0, M=4)
    assert len(sched.deltas) == len(sched.reps) == 1


def test_schedule_telescoping_bound():
    # sum_q 2^q ceil(log2(1/delta_q)) stays within 10% slack of the closed
    # 2^(q_max+1) log2(8/c) envelope.
    for eps in (2.0**-3, 2.0**-8):
        sched = cost.iteration_schedule(eps, M=66)
        lhs = sum(2**q * math.ceil(math.log2(1 / d)) for q, d in enumerate(sched.deltas))
        rhs = 1.1 * 2 ** len(sched.reps) * math.log2(8 / cost.C_MAX)
        assert lhs <= rhs


def test_estimation_count_frozen():
    assert cost.estimation_count(2, 1) == 6
    assert cost.estimation_count(4, 1) == 28
    assert cost.estimation_count(4, 2) == 66


def test_aleph_frozen_values():
    shape = (4, cost.estimation_count(4, 1), 1, 2)  # N, M, k, eta
    assert cost.aleph("method-1", *shape) == pytest.approx(math.sqrt(6 * math.log(6)), rel=1e-12)
    assert cost.aleph("method-1", *shape) == pytest.approx(3.28, rel=2e-3)
    assert cost.aleph("prior-qge", *shape) == pytest.approx(math.sqrt(28 * math.log(16)), rel=1e-12)
    # prior-qge reads neither k nor eta
    assert cost.aleph("prior-qge", 4, 28) == cost.aleph("prior-qge", *shape)
    # method-2 shares the radicand with method-1
    assert cost.aleph("method-2", *shape) == cost.aleph("method-1", *shape)


def test_aleph_ratio_algebra():
    p = cost.CostParams(N=6, k=2, eta=3, epsilon=0.05)
    shape = (6, p.observable_count, 2, 3)
    ratio = cost.aleph("method-1", *shape) / cost.aleph("prior-qge", *shape)
    expected = math.sqrt(
        (cost.binom_norm_formula(6, 2, 3) * math.log(p.d_eta))
        / (p.observable_count * math.log(p.d))
    )
    assert ratio == pytest.approx(expected, rel=1e-12)


def test_aleph_degenerate_sector_warns():
    with pytest.warns(UserWarning, match="degenerate"):
        assert cost.aleph("method-1", 4, 28, 1, 0) == 0.0
    with pytest.raises(ValueError):
        cost.aleph("qae", 4, 28, 1, 0)


def test_degenerate_sector_warning_names_the_caller():
    # The warning names the first frame outside the package, however deep in
    # it the degenerate shape is priced: here, this file's calls.
    problem = engine.krdm_problem(5, 2, 1, np.random.default_rng(1))
    calls = {
        "compare_table": lambda: cost.compare_table(cost.CostParams(N=4, k=2, eta=1, epsilon=0.1)),
        "aleph": lambda: cost.aleph("method-2", 4, 66, 2, 1),
        "run_many": lambda: engine.run_many(problem, engine.ScheduleConfig(epsilon=0.25), 1, 2),
    }
    for name, call in calls.items():
        with pytest.warns(UserWarning, match="sector norm vanishes") as record:
            call()
        assert [w.filename for w in record] == [__file__] * len(record), name


def test_total_queries_epsilon_halving():
    p = cost.CostParams(N=4, k=2, eta=2, epsilon=2.0**-3)
    half = cost.CostParams(N=4, k=2, eta=2, epsilon=2.0**-4)
    for method in cost.QGE_METHODS:
        ratio = cost.total_queries(method, half) / cost.total_queries(method, p)
        assert ratio == pytest.approx(2.0, rel=0.1)  # schedule granularity, not exact
    assert cost.total_queries("qae", half) == pytest.approx(
        2.0 * cost.total_queries("qae", p), rel=1e-12
    )
    assert cost.total_queries("fermionic-shadow", half) == pytest.approx(
        4.0 * cost.total_queries("fermionic-shadow", p), rel=1e-12
    )
    assert cost.total_queries("bell-gentle", half) == pytest.approx(
        16.0 * cost.total_queries("bell-gentle", p), rel=1e-12
    )


@pytest.mark.parametrize(
    "method,expected",
    [("prior-qge", 1.0), ("method-1", 1.0), ("method-2", 1.0), ("qae", 1.0),
     ("fermionic-shadow", 2.0), ("bell-gentle", 4.0)],
)
def test_slope_law(method, expected):
    xs, ys = [], []
    for j in range(3, 9):
        p = cost.CostParams(N=4, k=2, eta=2, epsilon=2.0**-j)
        xs.append(j * math.log(2))
        ys.append(math.log(cost.total_queries(method, p)))
    slope = np.polyfit(xs, ys, 1)[0]
    assert slope == pytest.approx(expected, abs=0.1)


def test_femoco_preset_ordering():
    for k in (1, 2):
        p = cost.CostParams(N=152, k=k, eta=113, epsilon=1e-3)
        totals = {m: cost.total_queries(m, p) for m in cost.QGE_METHODS}
        assert totals["method-2"] < totals["method-1"] < totals["prior-qge"]
    # the symmetry advantage at k=2 is roughly two orders of magnitude
    p2 = cost.CostParams(N=152, k=2, eta=113, epsilon=1e-3)
    assert cost.total_queries("prior-qge", p2) / cost.total_queries("method-2", p2) > 50


def test_filling_sweep_ordering():
    for N in (16, 32, 64, 128, 256):
        p = cost.CostParams(N=N, k=2, eta=math.ceil(7 * N / 8), epsilon=1e-3)
        rows = cost.compare_table(p)
        assert rows[0].method == "method-2"
        assert rows[0].total <= rows[-1].total


def test_compare_table_sorted_and_annotated():
    p = cost.CostParams(N=8, k=1, eta=4, epsilon=1.0)  # degenerate but well-ordered
    rows = cost.compare_table(p)
    totals = [r.total for r in rows]
    assert totals == sorted(totals)
    assert {r.method for r in rows} == set(cost.ALL_METHODS)


def test_qae_method2_flip_in_n():
    # With a calibrated method-2 prefactor the sampling baseline wins at small
    # N and loses at large N; the flip location itself is constant-dependent.
    pre = {"method-2": 50.0}
    small = cost.CostParams(N=16, k=1, eta=14, epsilon=1e-3, prefactors=pre)
    large = cost.CostParams(N=256, k=1, eta=224, epsilon=1e-3, prefactors=pre)
    assert cost.total_queries("qae", small) < cost.total_queries("method-2", small)
    assert cost.total_queries("method-2", large) < cost.total_queries("qae", large)


@settings(max_examples=40)
@given(
    st.integers(min_value=2, max_value=10),
    st.integers(min_value=1, max_value=2),
    st.floats(min_value=0.01, max_value=0.99),
    st.integers(min_value=2, max_value=80),
    st.sampled_from(cost.ALL_METHODS),
)
def test_totals_monotone(N, k, eps, M, method):
    # M follows from (N, k), so one mode more is the table's larger problem;
    # aleph alone takes M, and no QGE aleph falls as it grows.
    k = min(k, N)
    eta = max(k, N // 2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        base = cost.CostParams(N=N, k=k, eta=eta, epsilon=eps)
        more_modes = cost.CostParams(N=N + 1, k=k, eta=eta, epsilon=eps)
        tighter = cost.CostParams(N=N, k=k, eta=eta, epsilon=eps / 2)
        t0 = cost.total_queries(method, base)
        assert cost.total_queries(method, more_modes) >= t0 - 1e-9
        assert cost.total_queries(method, tighter) >= t0 - 1e-9
        if method in cost.QGE_METHODS:
            assert cost.aleph(method, N, M + 7, k, eta) >= cost.aleph(method, N, M, k, eta)


def test_shadow_norm_pluggable():
    # default factor: C(N,k) k^(3/2)
    assert cost.shadow_norm_default(6, 2) == pytest.approx(15 * 2**1.5, rel=1e-12)


def test_cost_params_validation():
    with pytest.raises(ValueError):
        cost.CostParams(N=4, k=0, eta=2, epsilon=0.1)
    with pytest.raises(ValueError):
        cost.CostParams(N=4, k=1, eta=5, epsilon=0.1)
    with pytest.raises(ValueError):
        cost.CostParams(N=4, k=1, eta=2, epsilon=0.0)
    assert cost.CostParams(N=4, k=2, eta=2, epsilon=0.1).observable_count == 66


def test_largest_shape_prices_finite_totals():
    # At N_MAX and the largest k whose M stays under M_MAX, every method's
    # total is finite at the smallest eps and c; one mode more, or one body
    # order more, is refused with the bound it passes.
    N = cost.N_MAX
    k = max(k for k in range(1, 64) if cost.estimation_count(N, k) < cost.M_MAX)
    params = cost.CostParams(N=N, k=k, eta=N // 2, epsilon=cost.EPSILON_MIN, c=cost.C_MIN)
    for method in cost.ALL_METHODS:
        assert 0.0 < cost.total_queries(method, params) < math.inf, method
    with pytest.raises(ValueError, match=f"N_MAX={cost.N_MAX}"):
        cost.CostParams(N=N + 1, k=1, eta=1, epsilon=0.1)
    with pytest.raises(ValueError, match=re.escape(f"M_MAX={cost.M_MAX:g}")):
        cost.CostParams(N=N, k=k + 1, eta=N // 2, epsilon=0.1)
    # aleph reads 2^N too: past N_MAX it refuses the shape instead of overflowing
    for method in cost.QGE_METHODS:
        assert 0.0 < cost.aleph(method, N, 10, 1, 1) < math.inf
        with pytest.raises(ValueError, match=f"N={N + 1} exceeds N_MAX={cost.N_MAX}"):
            cost.aleph(method, N + 1, 10, 1, 1)


def test_cost_csv_format(tmp_path):
    p = cost.CostParams(N=4, k=1, eta=2, epsilon=0.1)
    rows = cost.compare_table(p)
    path = tmp_path / "cost.csv"
    cost.write_cost_csv([(p, rows)], path, provenance="qgelab-test,seed=0")
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "method,N,k,eta,epsilon,M,d_eta,aleph,total,labels"
    assert lines[-1].startswith("# provenance,")
    parsed = list(csv.reader(lines[1:-1]))
    assert len(parsed) == len(cost.ALL_METHODS)
    for row in parsed:
        assert row[-1] == "constant-calibrated"
        assert float(row[8]) > 0

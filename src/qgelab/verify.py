"""Named verification suites behind the `qgelab verify` gate.

Each suite checks one pillar against an independent route: the eigenvalue
transform against direct diagonalization, the measured sum-of-squares sector
norm against its binomial closed form, probe readout success against the
two-point mass bound, simulation ledgers against the closed-form cost model,
and canonical anticommutation relations computed exactly.

The anticommutation suite carries a deliberate mutation switch
(sign_error=True swaps in ladder matrices with the parity string dropped) so
tests can confirm the suite actually catches the classic sign bug rather
than passing vacuously.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from . import cost, encode, engine, fermion, probe

TWO_POINT_MASS = 8.0 / math.pi**2


@dataclass
class SuiteResult:
    name: str
    cases: int
    failures: int
    max_error: float
    tolerance: float
    details: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"[{status}] {self.name}: {self.cases - self.failures}/{self.cases} cases, "
            f"max error {self.max_error:.3e} (tol {self.tolerance:.3e})"
        )


def _random_block_diagonal(rng: np.random.Generator) -> tuple[np.ndarray, list[np.ndarray]]:
    blocks = []
    for _ in range(rng.integers(1, 4)):
        n = int(rng.integers(2, 7))
        raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = (raw + raw.conj().T) / 2.0
        h *= rng.uniform(0.3, 0.95) / np.linalg.norm(h, 2)
        blocks.append(h)
    full = np.zeros((sum(b.shape[0] for b in blocks),) * 2, dtype=np.complex128)
    at = 0
    for b in blocks:
        n = b.shape[0]
        full[at : at + n, at : at + n] = b
        at += n
    return full, blocks


def _bounded_polynomial(rng: np.random.Generator) -> encode.PolynomialSpec:
    degree = int(rng.integers(1, 7))
    coeffs = rng.normal(size=degree + 1)
    w = np.linspace(-1.0, 1.0, 512)
    peak = np.abs(np.polynomial.polynomial.polyval(w, coeffs)).max()
    coeffs *= rng.uniform(0.2, 0.95) / peak
    return encode.PolynomialSpec(tuple(coeffs))


def polynomial_transform_suite(n_cases: int = 100, tolerance: float = 1e-9) -> SuiteResult:
    """Eigenvalue transform vs direct f(V diag V^+): block-diagonal inputs."""
    rng = np.random.default_rng(0x51BE)
    failures = 0
    worst = 0.0
    details: list[str] = []
    for case in range(n_cases):
        full, blocks = _random_block_diagonal(rng)
        spec = _bounded_polynomial(rng)
        be = encode.block_encode(sparse.csr_matrix(full), 1.0)
        transformed = encode.eigen_poly_transform(be, spec).encoded_operator
        # independent route: diagonalize each block separately
        oracle_blocks = []
        for b in blocks:
            lam, vec = np.linalg.eigh(b)
            oracle_blocks.append(vec @ np.diag(spec.evaluate(lam)) @ vec.conj().T)
        oracle = np.zeros_like(full)
        at = 0
        for ob in oracle_blocks:
            n = ob.shape[0]
            oracle[at : at + n, at : at + n] = ob
            at += n
        err = float(np.abs(transformed - oracle).max())
        worst = max(worst, err)
        if err > tolerance:
            failures += 1
            details.append(f"case {case}: dim {full.shape[0]}, error {err:.3e}")
    return SuiteResult("polynomial-transform", n_cases, failures, worst, tolerance, details)


def norm_identity_suite(
    max_modes: int = 8, max_k: int = 2, tolerance: float = 1e-9
) -> SuiteResult:
    """Measured ||sum O^2|| on each sector vs the binomial product formula."""
    failures = 0
    worst = 0.0
    cases = 0
    details: list[str] = []
    for N in range(2, max_modes + 1):
        for k in range(1, min(max_k, N) + 1):
            norms = fermion.sum_squares_sector_norm(fermion.krdm_observable_set(N, k))
            for eta, measured in enumerate(norms.tolist()):
                cases += 1
                formula = fermion.binom_norm_formula(N, k, eta)
                err = abs(measured - formula) / max(1.0, abs(formula))
                worst = max(worst, err)
                if err > tolerance:
                    failures += 1
                    details.append(f"N={N} k={k} eta={eta}: {measured!r} vs {formula!r}")
    return SuiteResult("sector-norm-identity", cases, failures, worst, tolerance, details)


def probe_calibration_suite(p_values: tuple[int, ...] = (2, 3, 4, 5, 6)) -> SuiteResult:
    """Readout lands within one grid cell with mass >= 8/pi^2, every p and 101 slopes."""
    failures = 0
    worst = 0.0
    cases = 0
    details: list[str] = []
    slopes = np.linspace(-1.0 / math.pi, 1.0 / math.pi, 101)
    for p in p_values:
        successes = probe.single_shot_success(slopes, probe.make_grid(p))
        for v, success in zip(slopes, successes):
            cases += 1
            shortfall = max(0.0, TWO_POINT_MASS - float(success))
            worst = max(worst, shortfall)
            if shortfall > 1e-12:
                failures += 1
                details.append(
                    f"p={p} v={v:.4f}: success {success:.6f} < {TWO_POINT_MASS:.6f}"
                )
    return SuiteResult("probe-calibration", cases, failures, worst, TWO_POINT_MASS, details)


def ledger_consistency_suite(tolerance: float = 0.1) -> SuiteResult:
    """Simulated ledger totals vs closed-form totals across methods and sizes."""
    failures = 0
    worst = 0.0
    cases = 0
    details: list[str] = []
    for N in (2, 4, 6):
        for k in (1, 2):
            if k > N // 2:
                continue
            eta = N // 2
            with warnings.catch_warnings():
                # the deliberate small-N sweep trips the crowded-regime caution
                warnings.filterwarnings("ignore", message=".*crowded.*")
                problem = engine.krdm_problem(N, k, eta, np.random.default_rng(1000 + N))
            exact = problem.exact
            for method in cost.QGE_METHODS:
                configs = [
                    engine.ScheduleConfig(epsilon=eps, method=method)
                    for eps in (2.0**-3, 2.0**-4, 2.0**-5, 2.0**-6)
                ]
                aleph = engine.measured_aleph(problem, configs[0])  # the same at every eps
                for config in configs:
                    cases += 1
                    res = engine.run_adaptive(exact, aleph, config, np.random.default_rng(7))
                    params = cost.CostParams(N=N, k=k, eta=eta, epsilon=config.epsilon)
                    closed = cost.total_queries(method, params)
                    err = abs(res.ledger.total - closed) / closed
                    worst = max(worst, err)
                    if err > tolerance:
                        failures += 1
                        details.append(
                            f"N={N} k={k} eps={config.epsilon} {method}: "
                            f"ledger {res.ledger.total:.6g} vs {closed:.6g}"
                        )
    return SuiteResult("ledger-consistency", cases, failures, worst, tolerance, details)


def _annihilation_missing_parity_string(p: int, N: int) -> sparse.csr_matrix:
    """Deliberately wrong ladder matrix: clears the mode without the sign string."""
    dim = 1 << N
    states = np.arange(dim, dtype=np.int64)
    occupied = ((states >> p) & 1) == 1
    rows = (states & ~np.int64(1 << p))[occupied]
    return sparse.csr_matrix(
        (np.ones(int(occupied.sum())), (rows, states[occupied])), shape=(dim, dim)
    )


def anticommutation_suite(max_modes: int = 5, sign_error: bool = False) -> SuiteResult:
    """{a_p, a_q^+} = delta_pq and {a_p, a_q} = 0, exactly in integer arithmetic."""
    failures = 0
    worst = 0.0
    cases = 0
    details: list[str] = []
    build = _annihilation_missing_parity_string if sign_error else fermion.annihilation_operator
    for N in range(2, max_modes + 1):
        ops = [build(p, N) for p in range(N)]
        eye = sparse.identity(1 << N, dtype=np.float64, format="csr")
        for p in range(N):
            for q in range(N):
                cases += 2
                mixed = ops[p] @ ops[q].conj().T + ops[q].conj().T @ ops[p]
                gap = abs(mixed - eye).max() if p == q else (abs(mixed).max() if mixed.nnz else 0.0)
                same = ops[p] @ ops[q] + ops[q] @ ops[p]
                gap2 = abs(same).max() if same.nnz else 0.0
                for label, g in (("mixed", gap), ("same", gap2)):
                    worst = max(worst, float(g))
                    if g != 0.0:
                        failures += 1
                        details.append(f"N={N} p={p} q={q} {label}: residual {g}")
    return SuiteResult("anticommutation", cases, failures, worst, 0.0, details)


def run_all(
    tolerance: float = 1e-9, quick: bool = False, sign_error: bool = False
) -> list[SuiteResult]:
    """All five suites; `tolerance` drives the two numerically-toleranced ones.

    `sign_error` is the test hook that feeds the anticommutation suite the
    deliberately broken ladder matrices; the gate must then report a failure.
    """
    max_modes = 6 if quick else 8
    n_cases = 25 if quick else 100
    return [
        anticommutation_suite(sign_error=sign_error),
        polynomial_transform_suite(n_cases=n_cases, tolerance=tolerance),
        norm_identity_suite(max_modes=max_modes, tolerance=tolerance),
        probe_calibration_suite(),
        ledger_consistency_suite(),
    ]

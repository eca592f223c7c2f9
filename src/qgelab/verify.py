"""Named verification suites behind the `qgelab verify` gate.

Each suite checks one pillar against an independent route: the eigenvalue
transform against direct diagonalization, the measured sum-of-squares sector
norm against its binomial closed form, probe readout success against the
two-point mass bound, simulation ledgers against the closed-form cost model,
and canonical anticommutation relations computed exactly.

A suite only computes one error per case; `SuiteResult.tally` judges them
all by one rule.  A case passes only when its error is at most the
tolerance, so a NaN error fails, and the suite's max error carries the NaN.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

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
    details: list[str]

    @classmethod
    def tally(cls, name: str, tolerance: float, detail: str, checks: list[tuple]) -> SuiteResult:
        """Judge one `(error, *fields)` tuple per case: it passes only at error <= tolerance.

        Only a failing case is written out, as `detail.format(*fields)`.
        """
        errors = np.array([check[0] for check in checks], dtype=np.float64)
        failing = [check for check in checks if not check[0] <= tolerance]
        details = [detail.format(*check[1:]) for check in failing]
        worst = float(np.max(errors, initial=0.0))
        return cls(name, len(checks), len(failing), worst, tolerance, details)

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"[{status}] {self.name}: {self.cases - self.failures}/{self.cases} cases, "
            f"max error {self.max_error:.3e} (tol {self.tolerance:.3e})"
        )


def _random_blocks(rng: np.random.Generator) -> list[np.ndarray]:
    blocks = []
    for _ in range(rng.integers(1, 4)):
        n = int(rng.integers(2, 7))
        raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = (raw + raw.conj().T) / 2.0
        h *= rng.uniform(0.3, 0.95) / np.linalg.norm(h, 2)
        blocks.append(h)
    return blocks


def _block_diagonal(blocks: list[np.ndarray]) -> np.ndarray:
    full = np.zeros((sum(b.shape[0] for b in blocks),) * 2, dtype=np.complex128)
    at = 0
    for b in blocks:
        n = b.shape[0]
        full[at : at + n, at : at + n] = b
        at += n
    return full


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
    checks = []
    for case in range(n_cases):
        blocks = _random_blocks(rng)
        spec = _bounded_polynomial(rng)
        full = _block_diagonal(blocks)
        be = encode.block_encode(full, 1.0)
        transformed = encode.eigen_poly_transform(be, spec).encoded_operator
        # independent route: diagonalize each block separately
        oracle_blocks = []
        for b in blocks:
            lam, vec = np.linalg.eigh(b)
            oracle_blocks.append(vec @ np.diag(spec.evaluate(lam)) @ vec.conj().T)
        err = float(np.abs(transformed - _block_diagonal(oracle_blocks)).max())
        checks.append((err, case, full.shape[0], err))
    detail = "case {}: dim {}, error {:.3e}"
    return SuiteResult.tally("polynomial-transform", tolerance, detail, checks)


def norm_identity_suite(
    max_modes: int = 8, max_k: int = 2, tolerance: float = 1e-9
) -> SuiteResult:
    """Measured ||sum O^2|| on each sector vs the binomial product formula."""
    checks = []
    for N in range(2, max_modes + 1):
        for k in range(1, min(max_k, N) + 1):
            norms = fermion.sum_squares_sector_norm(fermion.krdm_observable_set(N, k))
            for eta, measured in enumerate(norms.tolist()):
                formula = fermion.binom_norm_formula(N, k, eta)
                err = abs(measured - formula) / max(1.0, abs(formula))
                checks.append((err, N, k, eta, measured, formula))
    detail = "N={} k={} eta={}: {!r} vs {!r}"
    return SuiteResult.tally("sector-norm-identity", tolerance, detail, checks)


def probe_calibration_suite(p_values: tuple[int, ...] = (2, 3, 4, 5, 6)) -> SuiteResult:
    """Readout lands within one grid cell with mass >= 8/pi^2, every p and 101 slopes."""
    slopes = np.linspace(-1.0 / math.pi, 1.0 / math.pi, 101)
    checks = []
    for p in p_values:
        successes = probe.single_shot_success(slopes, probe.make_grid(p))
        shortfalls = np.maximum(0.0, TWO_POINT_MASS - successes)
        checks += [
            (shortfall, p, v, success)
            for shortfall, v, success in zip(shortfalls.tolist(), slopes, successes)
        ]
    detail = f"p={{}} v={{:.4f}}: success {{:.6f}} < {TWO_POINT_MASS:.6f}"
    return SuiteResult.tally("probe-calibration", 1e-12, detail, checks)


def ledger_consistency_suite(tolerance: float = 0.1) -> SuiteResult:
    """Simulated ledger totals vs closed-form totals across methods and sizes."""
    checks = []
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
                    res = engine.run_adaptive(exact, aleph, config, np.random.default_rng(7))
                    params = cost.CostParams(N=N, k=k, eta=eta, epsilon=config.epsilon)
                    closed = cost.total_queries(method, params)
                    err = abs(res.ledger.total - closed) / closed
                    checks.append((err, N, k, config.epsilon, method, res.ledger.total, closed))
    detail = "N={} k={} eps={} {}: ledger {:.6g} vs {:.6g}"
    return SuiteResult.tally("ledger-consistency", tolerance, detail, checks)


def anticommutation_suite(max_modes: int = 5) -> SuiteResult:
    """{a_p, a_q^+} = delta_pq and {a_p, a_q} = 0, exactly in integer arithmetic."""
    checks = []
    for N in range(2, max_modes + 1):
        ops = [fermion.annihilation_operator(p, N) for p in range(N)]
        daggers = [op.conj().T.tocsr() for op in ops]
        eye = sparse.identity(1 << N, dtype=np.float64, format="csr")
        for p in range(N):
            for q in range(N):
                mixed = ops[p] @ daggers[q] + daggers[q] @ ops[p] - eye * (p == q)
                same = ops[p] @ ops[q] + ops[q] @ ops[p]
                for label, residual in (("mixed", mixed), ("same", same)):
                    gap = abs(residual).max()
                    checks.append((gap, N, p, q, label, gap))
    return SuiteResult.tally("anticommutation", 0.0, "N={} p={} q={} {}: residual {}", checks)


def run_all(tolerance: float = 1e-9, quick: bool = False) -> list[SuiteResult]:
    """All five suites; `tolerance` drives the two numerically-toleranced ones."""
    max_modes = 6 if quick else 8
    n_cases = 25 if quick else 100
    return [
        anticommutation_suite(),
        polynomial_transform_suite(n_cases=n_cases, tolerance=tolerance),
        norm_identity_suite(max_modes=max_modes, tolerance=tolerance),
        probe_calibration_suite(),
        ledger_consistency_suite(),
    ]

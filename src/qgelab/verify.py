"""Named verification suites behind the `qgelab verify` gate.

Each suite checks one pillar against an independent route: the eigenvalue
transform against direct diagonalization, the measured sum-of-squares sector
norm of the stacked k-body set against its binomial closed form, probe
readout success against the two-point mass bound, a run's charges and the
cost model's totals against an interval written from the schedule's
definition, and canonical anticommutation relations in exact dense integer
products.  The suites do only the work their checks read: the transform
suite runs its cases of one full dimension as one stack, which
`block_encode` eigensolves once and `eigen_poly_transform` reads the
eigenpairs of (the encoding carries them), and its oracle eigensolves the
blocks of one size as one stack, so each case's matrix and each of its
blocks is solved once, and a case's error is the one its own 2-D calls
give; the anticommutation suite reads the annihilation pass the run path
runs (`fermion._annihilated`, at k = 1 on all 2^N states) once per N, the
norm suite sums the k-body stack's |B|^2 by column from its numpy entries,
with no scipy object and no eigensolve, and the ledger suite prices runs
without drawing a readout, since a run's charges do not depend on its
draws, and sums its intervals in plain floats.  No suite loads scipy.

A suite only computes one error per case; `SuiteResult.tally` judges them
all by one rule.  A case passes only when its error is at most the
tolerance, so a NaN error fails, and the suite's max error carries the NaN.
A suite that ran no case is refused rather than passed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

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

        Only a failing case is written out, as `detail.format(*fields)`.  A suite that ran
        no case is refused, since it would pass without checking anything.
        """
        if not checks:
            raise ValueError(f"suite {name!r} ran no case")
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
        # the spectral norm, as `np.linalg.norm(h, 2)` computes it
        h *= rng.uniform(0.3, 0.95) / np.linalg.svd(h, compute_uv=False).max()
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


_PEAK_GRID = np.linspace(-1.0, 1.0, 512)


def _bounded_polynomial(rng: np.random.Generator) -> encode.PolynomialSpec:
    degree = int(rng.integers(1, 7))
    coeffs = rng.normal(size=degree + 1)
    peak = np.abs(np.polynomial.polynomial.polyval(_PEAK_GRID, coeffs)).max()
    coeffs *= rng.uniform(0.2, 0.95) / peak
    return encode.PolynomialSpec(tuple(coeffs))


def polynomial_transform_suite(n_cases: int = 100, tolerance: float = 1e-9) -> SuiteResult:
    """Eigenvalue transform vs direct f(V diag V^+): block-diagonal inputs.

    The cases are drawn one at a time and then run as stacks: the cases of
    one full dimension through one `block_encode` and one
    `eigen_poly_transform`, and the oracle's blocks of one size through one
    eigensolve.  Each case's error is the one its own 2-D calls give.
    """
    rng = np.random.default_rng(0x51BE)
    cases = [(_random_blocks(rng), _bounded_polynomial(rng)) for _ in range(n_cases)]
    # independent route: diagonalize each block separately, one eigensolve per block size
    oracles = [np.zeros((sum(b.shape[0] for b in blocks),) * 2, dtype=np.complex128)
               for blocks, _ in cases]
    by_size: dict[int, list[tuple[int, int, np.ndarray]]] = {}
    for case, (blocks, _) in enumerate(cases):
        for at, b in zip(accumulate((b.shape[0] for b in blocks), initial=0), blocks):
            by_size.setdefault(b.shape[0], []).append((case, at, b))
    for n, members in by_size.items():
        lams, vecs = np.linalg.eigh(np.stack([b for _, _, b in members]))
        diags = np.zeros_like(vecs)
        diags[:, range(n), range(n)] = [cases[case][1].evaluate(lam)
                                        for (case, _, _), lam in zip(members, lams)]
        for (case, at, _), product in zip(members, vecs @ diags @ vecs.conj().swapaxes(-1, -2)):
            oracles[case][at : at + n, at : at + n] = product
    by_dim: dict[int, list[int]] = {}
    for case, oracle in enumerate(oracles):
        by_dim.setdefault(oracle.shape[0], []).append(case)
    errors = [math.nan] * len(cases)
    for members in by_dim.values():
        be = encode.block_encode(np.stack([_block_diagonal(cases[c][0]) for c in members]), 1.0)
        specs = [cases[c][1] for c in members]
        transformed = encode.eigen_poly_transform(be, specs).encoded_operator
        gaps = np.abs(transformed - np.stack([oracles[c] for c in members])).max(axis=(-2, -1))
        for case, gap in zip(members, gaps.tolist()):
            errors[case] = gap
    checks = [(err, case, oracle.shape[0], err)
              for case, (err, oracle) in enumerate(zip(errors, oracles))]
    detail = "case {}: dim {}, error {:.3e}"
    return SuiteResult.tally("polynomial-transform", tolerance, detail, checks)


def norm_identity_suite(max_modes: int = 8, tolerance: float = 1e-9) -> SuiteResult:
    """Measured ||sum O^2|| on each sector vs the binomial product formula, k in {1, 2}."""
    checks = []
    for N in range(2, max_modes + 1):
        for k in range(1, min(2, N) + 1):
            norms = fermion.stack_sector_norms(N, *fermion._krdm_entries(N, k))
            for eta, measured in enumerate(norms.tolist()):
                formula = fermion.binom_norm_formula(N, k, eta)
                err = abs(measured - formula) / max(1.0, abs(formula))
                checks.append((err, N, k, eta, measured, formula))
    detail = "N={} k={} eta={}: {!r} vs {!r}"
    return SuiteResult.tally("sector-norm-identity", tolerance, detail, checks)


def probe_calibration_suite() -> SuiteResult:
    """Readout lands within one grid cell with mass >= 8/pi^2, at p = 2..6 and 101 slopes."""
    slopes = np.linspace(-1.0 / math.pi, 1.0 / math.pi, 101)
    checks = []
    for p in range(2, 7):
        successes = probe.single_shot_success(slopes, probe.make_grid(p))
        shortfalls = np.maximum(0.0, TWO_POINT_MASS - successes)
        checks += [
            (shortfall, p, v, success)
            for shortfall, v, success in zip(shortfalls.tolist(), slopes, successes)
        ]
    detail = f"p={{}} v={{:.4f}}: success {{:.6f}} < {TWO_POINT_MASS:.6f}"
    return SuiteResult.tally("probe-calibration", 1e-12, detail, checks)


def _charged_count_bounds(method: str, M: int, epsilon: float, c: float):
    """Per-level interval of a run's charged repetitions, from the schedule's definition.

    With Q = ceil(log2(1/epsilon)), delta^(q) = c / 8^(Q - q) and
    y_q = KAPPA_R ln(M / delta^(q)), the Hoeffding count R^(q) = ceil(y_q)
    lies in [y_q, y_q + 1), and method-2's ceil(sqrt(R^(q))) in
    [ceil(sqrt(y_q)), ceil(sqrt(y_q + 1))].  Returns (low, high) lists of floats over q.
    """
    Q = math.ceil(-math.log2(epsilon))
    y = [cost.KAPPA_R * (math.log(M / c) + (Q - q) * math.log(8.0)) for q in range(Q + 1)]
    low, high = y, [v + 1.0 for v in y]
    if method == "method-2":
        low, high = ([float(math.ceil(math.sqrt(v))) for v in bound] for bound in (low, high))
    return low, high


def _outside(x, low, high) -> float:
    """Largest distance of x's entries from [low, high], relative to high; 0 inside, NaN kept.

    Python's `max` drops a NaN that is not its first argument, so a NaN
    distance is returned before the maximum is taken.
    """
    gaps = [max(lo - v, v - hi) / hi for v, lo, hi in zip(x, low, high)]
    return math.nan if any(map(math.isnan, gaps)) else max(0.0, *gaps)


def ledger_consistency_suite() -> SuiteResult:
    """A run's charges and `cost.total_queries` vs the closed-form interval of each level.

    The run route prices the problem as `run_many` does (`engine.measured_aleph`,
    then `engine.price_run`); the table route is `cost.total_queries`.  The
    interval of level q is aleph 2^q times `_charged_count_bounds`, with aleph
    from `cost.aleph` at the table's shape.  The run's cumulative charge after
    each level is checked against the running sum of those intervals, and the
    total against the full sum: a point interval (method-2 at most levels)
    stays exact that way, where the difference of two cumulative charges would
    round.  No readout is drawn: a run's charges do not depend on its draws.
    """
    checks = []
    for N in (2, 4, 6):
        for k in (1, 2):
            if k > N // 2:
                continue
            eta = N // 2
            with warnings.catch_warnings():
                # the deliberate small-N sweep trips the crowded-regime caution
                warnings.filterwarnings("ignore", message=".*crowded.*")
                # the basis state (1 << eta) - 1, index 0 of `fermion.sector_basis`
                problem = engine.krdm_problem(N, k, eta, amplitudes=np.eye(math.comb(N, eta))[0])
            M = cost.estimation_count(N, k)
            for method in cost.QGE_METHODS:
                configs = [
                    engine.ScheduleConfig(epsilon=eps, method=method)
                    for eps in (2.0**-3, 2.0**-4, 2.0**-5, 2.0**-6)
                ]
                run_aleph = engine.measured_aleph(problem, configs[0])  # the same at every eps
                aleph = cost.aleph(method, N, M, k, eta)
                for config in configs:
                    _, charges = engine.price_run(problem.exact.size, run_aleph, config)
                    params = cost.CostParams(N=N, k=k, eta=eta, epsilon=config.epsilon)
                    total = cost.total_queries(method, params)
                    low, high = _charged_count_bounds(method, M, config.epsilon, config.c)
                    # running sums over q, added left to right
                    low, high = (
                        list(accumulate(aleph * 2.0**q * r for q, r in enumerate(bound)))
                        for bound in (low, high)
                    )
                    run = charges.cumulative
                    err = math.inf if len(run) != len(low) else _outside(
                        (*run, total), (*low, low[-1]), (*high, high[-1])
                    )
                    checks.append(
                        (err, N, k, config.epsilon, method, run[-1], total, low[-1], high[-1])
                    )
    detail = "N={} k={} eps={} {}: run {:.6g}, total_queries {:.6g}, closed form [{:.6g}, {:.6g}]"
    return SuiteResult.tally("ledger-consistency", 0.1, detail, checks)


def _annihilation_stack(N: int) -> np.ndarray:
    """The (N, 2^N, 2^N) dense stack of a_0 .. a_{N-1}, from the run path's annihilation pass.

    `fermion._annihilated` takes every basis state through all N single-mode
    strings at once, as `krdm_expectations` and `_krdm_entries` do; each
    survivor scatters its sign to its image's row.
    """
    states = np.arange(1 << N, dtype=np.int64)
    ops = np.zeros((N, 1 << N, 1 << N))
    for image, p, col, sign in fermion._annihilated(N, 1, states, states):
        ops[p, image, col] = sign
    return ops


def anticommutation_suite() -> SuiteResult:
    """{a_p, a_q^+} = delta_pq and {a_p, a_q} = 0 at N = 2..5, exactly in integer arithmetic.

    For each N the N ladder matrices are stacked dense and all N^2 pairs are
    formed at once.  Their entries are 0 and +-1 and each product entry sums
    at most 2^N of them, so float64 holds every residual exactly.
    """
    checks = []
    for N in range(2, 6):
        ops = _annihilation_stack(N)
        a_p, a_q = ops[:, None], ops[None, :]
        dagger_q = a_q.conj().swapaxes(-1, -2)
        mixed = a_p @ dagger_q + dagger_q @ a_p - np.eye(N)[:, :, None, None] * np.eye(1 << N)
        same = a_p @ a_q + a_q @ a_p
        gaps = np.abs(np.stack((mixed, same), axis=2)).max(axis=(-2, -1))
        for p in range(N):
            for q in range(N):
                for label, gap in zip(("mixed", "same"), gaps[p, q]):
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

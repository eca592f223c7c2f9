"""Closed-form query-cost models and the shared iteration schedule.

Every gradient-estimation variant pays per iteration q a subroutine cost
aleph 2^q times its charged repetitions (R^(q), or ceil(sqrt(R^(q))) for
method-2's parallel single shot), with an epsilon-independent prefactor aleph
that is where the symmetry savings live.  `price_schedule` accumulates one
run's charges level by level and `total_queries` sums the same schedule in
closed form; neither depends on a run's draws.

Baseline models (amplitude-estimation, fermionic shadows, Bell-basis gentle
measurement) follow the standard literature scalings rather than anything
derived in this package; their prefactors default to 1 and every absolute
number they produce is labeled constant-calibrated.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from itertools import accumulate

from .fermion import binom_norm_formula

QGE_METHODS = ("prior-qge", "method-1", "method-2")
BASELINE_METHODS = ("qae", "fermionic-shadow", "bell-gentle")
ALL_METHODS = QGE_METHODS + BASELINE_METHODS

# Largest c for which the wrap-around failure analysis keeps the total MSE
# under epsilon^2 (worst-case per-level failure mass summed over the
# geometric delta schedule).
C_MAX = 3.0 / (8.0 * (1.0 + math.pi) ** 2)

# The smallest epsilon and c the schedule and the baselines represent in
# double precision.  epsilon >= 1e-30 keeps q_max <= 100, so 8^q_max = 2^300
# and the gentle-measurement baseline's eps^4 >= 1e-120 stay finite and
# nonzero; c >= 1e-90 keeps the smallest level target delta^(0) =
# c / 8^q_max above 1e-181, so ln(M / delta) is finite for every M below
# 1e127.  Below them a total divides by zero or rounds an infinite count.
EPSILON_MIN = 1e-30
C_MIN = 1e-90

# Hoeffding constant for the median repetition count: per-shot failure is at
# most 1 - 8/pi^2 < 0.19 for the uniform window, and the median of R copies
# fails with probability <= exp(-2 R (1/2 - 0.19)^2).
KAPPA_R = 1.0 / (2.0 * (0.5 - 0.19) ** 2)


def estimation_count(N: int, k: int) -> int:
    """Number of independent k-body estimands: 2 C(N,k)^2 minus vanishing Im parts."""
    return 2 * math.comb(N, k) ** 2 - math.comb(N, k)


@dataclass(frozen=True)
class Schedule:
    """Iteration schedule: confidence targets and repetition counts per level."""

    q_max: int
    deltas: tuple[float, ...]
    reps: tuple[int, ...]


def iteration_schedule(
    epsilon: float, M: int, c: float = C_MAX, repetition_rule=None
) -> Schedule:
    """Levels q = 0..q_max with delta^(q) = c / 8^(q_max - q) and R^(q) from Hoeffding.

    ``repetition_rule`` overrides the default R^(q) = max(1, ceil(KAPPA_R *
    ln(M / delta^(q)))); it receives (q, delta) and returns an int.
    """
    if not EPSILON_MIN <= epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in [{EPSILON_MIN:g}, 1], got {epsilon}")
    if not C_MIN <= c <= C_MAX + 1e-15:
        raise ValueError(
            f"confidence parameter c must lie in [{C_MIN:g}, {C_MAX:.6g}], got {c}"
        )
    if M < 1:
        raise ValueError(f"need at least one observable, got M={M}")
    q_max = math.ceil(math.log2(1.0 / epsilon))
    deltas = tuple(c / 8.0 ** (q_max - q) for q in range(q_max + 1))
    if repetition_rule is None:
        reps = tuple(max(1, math.ceil(KAPPA_R * math.log(M / d))) for d in deltas)
    else:
        reps = tuple(int(repetition_rule(q, d)) for q, d in enumerate(deltas))
        if any(r < 1 for r in reps):
            raise ValueError("repetition rule produced a count below 1")
    return Schedule(q_max=q_max, deltas=deltas, reps=reps)


def _charged_reps(method: str, reps: int) -> int:
    """Queries charged for R readouts: the parallel single shot pays ceil(sqrt(R))."""
    return math.ceil(math.sqrt(reps)) if method == "method-2" else reps


@dataclass(frozen=True)
class Charges:
    """Cumulative state-preparation queries after each level of one run."""

    cumulative: tuple[float, ...]

    @property
    def total(self) -> float:
        return self.cumulative[-1]


def price_schedule(method: str, aleph: float, schedule: Schedule) -> Charges:
    """Charges of one run: level q adds aleph 2^q times its charged repetitions."""
    charges = (aleph * 2.0**q * _charged_reps(method, r) for q, r in enumerate(schedule.reps))
    return Charges(cumulative=tuple(accumulate(charges, initial=0.0))[1:])


@dataclass(frozen=True)
class CostParams:
    """Problem-size record for the cost models.

    M defaults to the estimation count 2 C(N,k)^2 - C(N,k); a run's problem
    passes its own label count.  sum_sq_norm likewise defaults to the
    closed-form sector norm C(eta,k) C(N-eta+k,k); a run and a sweep pass the
    value `fermion.krdm_sector_norm` counts.
    """

    N: int
    k: int
    eta: int
    epsilon: float
    M: int | None = None
    c: float = C_MAX
    sum_sq_norm: float | None = None
    prefactors: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 1 <= self.k <= self.N:
            raise ValueError(f"k={self.k} outside 1..{self.N}")
        if not 0 <= self.eta <= self.N:
            raise ValueError(f"eta={self.eta} outside 0..{self.N}")
        # epsilon = 1 is the degenerate single-level schedule; the cost models
        # stay defined there even though a simulation run would be pointless.
        if not EPSILON_MIN <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in [{EPSILON_MIN:g}, 1], got {self.epsilon}")

    @property
    def observable_count(self) -> int:
        return self.M if self.M is not None else estimation_count(self.N, self.k)

    @property
    def d(self) -> float:
        return 2.0**self.N

    @property
    def d_eta(self) -> float:
        return float(math.comb(self.N, self.eta))

    def prefactor(self, method: str) -> float:
        return float(self.prefactors.get(method, 1.0))

    def norm_radicand(self) -> float:
        norm = (
            self.sum_sq_norm
            if self.sum_sq_norm is not None
            else binom_norm_formula(self.N, self.k, self.eta)
        )
        return norm * _ln_dim(self.d_eta)


def _ln_dim(d: float) -> float:
    # ln(max(d, 2)) keeps one-dimensional sectors from zeroing the bound.
    return math.log(max(d, 2.0))


def _ln_binom(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def aleph(method: str, params: CostParams) -> float:
    """Epsilon-independent per-call prefactor of the subroutine cost.

    The one place aleph is written: tables, sweeps and runs all price it here.
    prior-qge pays sqrt(M ln d) on the full space; the sector-aware variants
    pay sqrt(||sum O^2|| ln d_eta), which the binomial identity collapses to
    binomials.  method-2 shares the radicand with method-1: its extra log M
    moves under the square root only at total-cost level, via sqrt(R).
    """
    if method not in QGE_METHODS:
        raise ValueError(f"aleph is defined for {QGE_METHODS}, not {method!r}")
    kappa = params.prefactor(method)
    if method == "prior-qge":
        return kappa * math.sqrt(params.observable_count * math.log(params.d))
    radicand = params.norm_radicand()
    if radicand == 0.0:
        warnings.warn(
            f"degenerate sector (N={params.N}, k={params.k}, eta={params.eta}): "
            "the sector norm vanishes and the cost model returns 0",
            stacklevel=2,
        )
        return 0.0
    return kappa * math.sqrt(radicand)


def _schedule_sum(method: str, params: CostParams) -> float:
    sched = iteration_schedule(params.epsilon, params.observable_count, params.c)
    return float(sum(2.0**q * _charged_reps(method, r) for q, r in enumerate(sched.reps)))


def total_queries(method: str, params: CostParams) -> float:
    """Total state-preparation queries for one full adaptive run (or baseline).

    QGE variants charge aleph * sum_q 2^q * rep(q) over the exact discrete
    schedule (rep = R for iterative readout, ceil(sqrt(R)) for the parallel
    single-shot mode), the charges `price_schedule` accumulates level by level.
    Baselines use literature scalings: amplitude estimation M/eps with a log M
    repetition factor, shadows B(N,k)/eps^2 ln M, gentle Bell measurement
    (log M)^2 ln(d) / eps^4.
    """
    M = params.observable_count
    eps = params.epsilon
    if method in QGE_METHODS:
        return aleph(method, params) * _schedule_sum(method, params)
    if method == "qae":
        return params.prefactor("qae") * M / eps * max(1.0, math.log2(M))
    if method == "fermionic-shadow":
        shadow = shadow_norm_default(params.N, params.k)
        return params.prefactor("fermionic-shadow") * shadow / eps**2 * _ln_dim(M)
    if method == "bell-gentle":
        log_m = math.log2(max(M, 2.0))
        return params.prefactor("bell-gentle") * log_m**2 * math.log(params.d) / eps**4
    raise ValueError(f"unknown method {method!r}")


def shots_baseline_queries(M: int, epsilon: float) -> float:
    """Plain sampling: each observable measured to variance eps^2 independently."""
    if M < 1:
        raise ValueError(f"need at least one observable, got M={M}")
    if not EPSILON_MIN <= epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in [{EPSILON_MIN:g}, 1], got {epsilon}")
    return float(M * math.ceil(epsilon**-2))


def shadow_norm_default(N: int, k: int) -> float:
    """Default shadow-norm factor C(N,k) * k^(3/2).

    This is the matchgate/fermionic-shadow variance scaling from the shadow
    tomography literature, not something derived here.
    """
    return math.exp(_ln_binom(N, k)) * k**1.5


@dataclass(frozen=True)
class CostRow:
    method: str
    total: float
    aleph: float | None


def compare_table(params: CostParams, methods=ALL_METHODS) -> list[CostRow]:
    """Totals (and aleph, for the QGE methods) of every method, sorted ascending."""
    rows = []
    for m in methods:
        al = aleph(m, params) if m in QGE_METHODS else None
        rows.append(CostRow(method=m, total=total_queries(m, params), aleph=al))
    rows.sort(key=lambda r: r.total)
    return rows


def write_cost_csv(rows_by_params, path, provenance: str = "") -> None:
    """CSV export: (method, N, k, eta, epsilon, M, d_eta, aleph, total, labels)."""
    import csv as _csv

    with open(path, "w", newline="") as fh:
        writer = _csv.writer(fh)
        writer.writerow(
            ["method", "N", "k", "eta", "epsilon", "M", "d_eta", "aleph", "total", "labels"]
        )
        for params, rows in rows_by_params:
            for row in rows:
                writer.writerow(
                    [
                        row.method,
                        params.N,
                        params.k,
                        params.eta,
                        "%.12g" % params.epsilon,
                        params.observable_count,
                        "%.12g" % params.d_eta,
                        "" if row.aleph is None else "%.12g" % row.aleph,
                        "%.12g" % row.total,
                        "constant-calibrated",
                    ]
                )
        if provenance:
            fh.write(f"# provenance,{provenance}\n")

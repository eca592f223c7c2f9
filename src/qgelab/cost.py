"""Closed-form query-cost models and the shared iteration schedule.

Every gradient-estimation variant pays per iteration q a subroutine cost
aleph 2^q times its charged repetitions (R^(q), or ceil(sqrt(R^(q))) for
method-2's parallel single shot), with an epsilon-independent prefactor aleph
that is where the symmetry savings live.  `price_schedule` accumulates one
run's charges level by level, and `total_queries` and the table rows price
the same schedule through it; none depends on a run's draws.

Baseline models (amplitude-estimation, fermionic shadows, Bell-basis gentle
measurement) follow the standard literature scalings rather than anything
derived in this package; their prefactors default to 1 and every absolute
number they produce is labeled constant-calibrated.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from dataclasses import dataclass, field
from itertools import accumulate

from .fermion import binom_norm_formula

# The variants whose aleph reads the particle-number sector norm of a k-body set.
SECTOR_METHODS = ("method-1", "method-2")
QGE_METHODS = ("prior-qge",) + SECTOR_METHODS
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

# The largest shape the models represent in double precision.  N <= 1023
# keeps d = 2^N finite, and with it every sector dimension C(N, eta).  M below
# 1e127 keeps ln(M / delta) finite at the smallest delta C_MIN allows, and
# bounds C(N, k) below 1e64, so the sector and shadow norms stay finite too.
N_MAX = 1023
M_MAX = 1e127

# Hoeffding constant for the median repetition count: per-shot failure is at
# most 1 - 8/pi^2 < 0.19 for the uniform window, and the median of R copies
# fails with probability <= exp(-2 R (1/2 - 0.19)^2).
KAPPA_R = 1.0 / (2.0 * (0.5 - 0.19) ** 2)


def estimation_count(N: int, k: int) -> int:
    """Number of independent k-body estimands: 2 C(N,k)^2 minus vanishing Im parts."""
    return 2 * math.comb(N, k) ** 2 - math.comb(N, k)


@dataclass(frozen=True)
class Schedule:
    """Iteration schedule: confidence targets and repetition counts per level q = 0..q_max."""

    deltas: tuple[float, ...]
    reps: tuple[int, ...]


def iteration_schedule(epsilon: float, M: int, c: float = C_MAX) -> Schedule:
    """Levels q = 0..q_max with delta^(q) = c / 8^(q_max - q) and the Hoeffding count
    R^(q) = max(1, ceil(KAPPA_R ln(M / delta^(q)))), where q_max = ceil(log2(1/epsilon))."""
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
    reps = tuple(max(1, math.ceil(KAPPA_R * math.log(M / d))) for d in deltas)
    return Schedule(deltas=deltas, reps=reps)


@dataclass(frozen=True)
class Charges:
    """Cumulative state-preparation queries after each level of one run."""

    cumulative: tuple[float, ...]

    @property
    def total(self) -> float:
        return self.cumulative[-1]


def price_schedule(method: str, aleph: float, schedule: Schedule) -> Charges:
    """Charges of one run: level q adds aleph 2^q times its charged repetitions,
    R^(q), or ceil(sqrt(R^(q))) for method-2's parallel single shot.

    The one pricing rule: runs, sweeps, `total_queries` and the cost tables
    all price a QGE schedule here.
    """
    reps = [math.ceil(math.sqrt(r)) if method == "method-2" else r for r in schedule.reps]
    charges = (aleph * 2.0**q * r for q, r in enumerate(reps))
    return Charges(cumulative=tuple(accumulate(charges, initial=0.0))[1:])


@dataclass(frozen=True)
class CostParams:
    """Problem-size record for the cost models.

    M is the estimation count 2 C(N,k)^2 - C(N,k) of the k-body set, and the
    sector norm its closed form C(eta,k) C(N-eta+k,k).
    """

    N: int
    k: int
    eta: int
    epsilon: float
    c: float = C_MAX
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
        if self.N > N_MAX:
            raise ValueError(f"N={self.N} exceeds N_MAX={N_MAX}: 2^N overflows a double")
        if self.observable_count >= M_MAX:
            raise ValueError(
                f"M={self.observable_count:.6g} observables reach M_MAX={M_MAX:g}, "
                "more than the cost model represents"
            )

    @property
    def observable_count(self) -> int:
        return estimation_count(self.N, self.k)

    @property
    def d(self) -> float:
        return 2.0**self.N

    @property
    def d_eta(self) -> float:
        return float(math.comb(self.N, self.eta))

    def prefactor(self, method: str) -> float:
        return float(self.prefactors.get(method, 1.0))


def _ln_dim(d: float) -> float:
    # ln(max(d, 2)) keeps one-dimensional sectors from zeroing the bound.
    return math.log(max(d, 2.0))


def _ln_binom(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


_PACKAGE_DIR = os.path.dirname(__file__) + os.sep


def _caller_stacklevel() -> int:
    """`warnings.warn` stacklevel, from the function that calls this, of the first
    frame outside the qgelab package: the call that chose the input."""
    level, frame = 1, sys._getframe(1)
    while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        level, frame = level + 1, frame.f_back
    return level


def aleph(method: str, N: int, M: int, k: int | None = None, eta: int | None = None) -> float:
    """Epsilon-independent per-call factor of the subroutine cost, for a problem's shape:
    N modes, M observables, and its body order k and sector eta.

    The one place aleph is written: runs, sweeps and tables all price here,
    and a table multiplies in its prefactor.  prior-qge pays sqrt(M ln d) on
    the full space and reads neither k nor eta.  The sector-aware variants pay
    sqrt(||sum O^2|| ln d_eta), where the norm is the closed form
    C(eta,k) C(N-eta+k,k); they refuse a shape without k or eta.  method-2
    shares the radicand with method-1: its extra log M moves under the square
    root only at total-cost level, via sqrt(R).  No aleph reads epsilon.
    """
    if method not in QGE_METHODS:
        raise ValueError(f"aleph is defined for {QGE_METHODS}, not {method!r}")
    if method == "prior-qge":
        return math.sqrt(M * math.log(2.0**N))
    if k is None or eta is None:
        raise ValueError(
            f"{method} exploits the particle-number sector of a k-body set; none was set"
        )
    radicand = binom_norm_formula(N, k, eta) * _ln_dim(float(math.comb(N, eta)))
    if radicand == 0.0:
        warnings.warn(
            f"degenerate sector (N={N}, k={k}, eta={eta}): "
            "the sector norm vanishes and the cost model returns 0",
            stacklevel=_caller_stacklevel(),
        )
        return 0.0
    return math.sqrt(radicand)


@dataclass(frozen=True)
class CostRow:
    method: str
    total: float
    aleph: float | None


def _cost_row(method: str, params: CostParams) -> CostRow:
    """One method's total queries for a full run, times its prefactor, and its aleph.

    A QGE total is the prefactor times `price_schedule`'s total for the
    method's aleph, and its aleph column carries the prefactor too.  Baselines
    use literature scalings: amplitude estimation M/eps with a log M
    repetition factor, shadows B(N,k)/eps^2 ln M, gentle Bell measurement
    (log M)^2 ln(d) / eps^4; they have no aleph.
    """
    M = params.observable_count
    eps = params.epsilon
    scale = params.prefactor(method)
    if method in QGE_METHODS:
        al = aleph(method, params.N, M, params.k, params.eta)
        charges = price_schedule(method, al, iteration_schedule(eps, M, params.c))
        return CostRow(method, scale * charges.total, scale * al)
    if method == "qae":
        total = scale * M / eps * max(1.0, math.log2(M))
    elif method == "fermionic-shadow":
        total = scale * shadow_norm_default(params.N, params.k) / eps**2 * _ln_dim(M)
    elif method == "bell-gentle":
        log_m = math.log2(max(M, 2.0))
        total = scale * log_m**2 * math.log(params.d) / eps**4
    else:
        raise ValueError(f"unknown method {method!r}")
    return CostRow(method, total, None)


def total_queries(method: str, params: CostParams) -> float:
    """Total state-preparation queries for one full adaptive run (or baseline)."""
    return _cost_row(method, params).total


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


def compare_table(params: CostParams, methods=ALL_METHODS) -> list[CostRow]:
    """Totals (and aleph, for the QGE methods) of every method, sorted ascending."""
    return sorted((_cost_row(m, params) for m in methods), key=lambda r: r.total)


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

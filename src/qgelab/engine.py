"""The adaptive estimation loop: recenter, probe, decode, update.

One run walks q = 0 .. q_max.  At level q every observable is recentred by
the running estimate, its exact expectation is rescaled to a phase slope
v_j = 2^q <A_j> / pi, and the coordinate-wise median of R^(q) probe readouts
is drawn by one sampler for every method.  The estimate moves by
pi 2^-q g_j and is clipped to [-1, 1], which halves the recentred expectation
bound per level: with the default p = 3 grid, pi 2^-q 2^-p <= 2^-(q+1).

A run's query charges depend only on the method, aleph and the schedule, so
`run_adaptive` prices its schedule once, before the first level, with
`cost.price_schedule`; method-2 differs from method-1 only in that price.

The loop itself sees only the exact expectation vector (computed once from
the statevector), aleph and the schedule config; `run_many` prepares the first
two once per problem and hands them to every trial.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import cost, fermion, probe, statevector
from .errors import ContractError
from .fermion import Observable, SectorLabel
from .probe import IDEAL, NoiseSpec
from .statevector import PureState


@dataclass(frozen=True)
class ScheduleConfig:
    """Knobs of one adaptive run; q_max = ceil(log2(1/epsilon)) is derived."""

    epsilon: float
    method: str = "method-1"
    c: float = cost.C_MAX
    p: int = 3
    window: str = "uniform"
    noise: NoiseSpec = IDEAL

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if not 0.0 < self.c <= cost.C_MAX + 1e-15:
            raise ValueError(f"c must lie in (0, {cost.C_MAX:.6g}], got {self.c}")
        if self.method not in cost.QGE_METHODS:
            raise ValueError(f"method must be one of {cost.QGE_METHODS}, got {self.method!r}")
        if self.p < 1:
            raise ValueError(f"probe bits p must be >= 1, got {self.p}")
        if self.window not in ("uniform", "sine"):
            raise ValueError(f"unknown window {self.window!r}")

    @property
    def q_max(self) -> int:
        return math.ceil(math.log2(1.0 / self.epsilon))


@dataclass
class Problem:
    """Observables plus the state they are estimated on."""

    observables: list[Observable]
    state: PureState
    sector: SectorLabel | None = None

    def __post_init__(self):
        if not self.observables:
            raise ValueError("need at least one observable")
        dim = self.state.dim
        for o in self.observables:
            if o.dim != dim:
                raise ValueError(f"observable {o.label!r} dimension {o.dim} != state {dim}")
        if isinstance(self.sector, int):
            self.sector = SectorLabel(self.sector)
        if self.sector is not None:
            basis = fermion.sector_basis(self.state.num_modes, self.sector.eta)
            off = np.delete(self.state.amplitudes, basis.indices)
            if off.size and np.abs(off).max() > 1e-10:
                raise ValueError(
                    f"state has off-sector amplitude {np.abs(off).max():.3g} "
                    f"but claims sector eta={self.sector.eta}"
                )
        # The asymptotic analysis assumes a crowded observable set; tiny-M
        # problems are fine to run but the constants are not meaningful.
        if self.M < 2 * self.state.num_modes + 24:
            warnings.warn(
                f"M={self.M} observables is below 2 log2(d) + 24 = "
                f"{2 * self.state.num_modes + 24}; cost constants assume the crowded regime",
                stacklevel=2,
            )

    @property
    def M(self) -> int:
        return len(self.observables)

    @cached_property
    def exact(self) -> np.ndarray:
        """Exact expectations of the observables on the state, computed on first use."""
        return statevector.expectations(self.observables, self.state)


def krdm_problem(N: int, k: int, eta: int, rng=None) -> Problem:
    """Standard benchmark problem: the k-body estimation set on a random sector state."""
    obs = fermion.estimation_observables(fermion.krdm_observable_set(N, k))
    state = statevector.random_sector_state(N, eta, rng)
    return Problem(observables=obs, state=state, sector=SectorLabel(eta))


@dataclass(frozen=True)
class IterationTrace:
    """Snapshot of level q, taken before the update step."""

    q: int
    u_tilde: np.ndarray
    v: np.ndarray
    g: np.ndarray
    violation: np.ndarray


@dataclass
class RunResult:
    """A run's final estimates, its per-level query charges and its trace."""

    estimates: np.ndarray
    ledger: cost.Charges
    trace: list[IterationTrace]


def update_step(u_tilde, g, q: int):
    """u + pi 2^-q g, clipped to [-1, 1]."""
    return np.clip(np.asarray(u_tilde, dtype=np.float64) + math.pi * 2.0**-q * np.asarray(g), -1.0, 1.0)


def measured_aleph(problem: Problem, config: ScheduleConfig) -> float:
    """Per-call prefactor from the problem's own operators.

    prior-qge works on the full space: sqrt(M ln d).  The sector-aware
    methods measure ||sum_j (O_j restricted)^2|| on the problem's sector,
    which for k-body estimation sets equals the binomial closed form.
    """
    N = problem.state.num_modes
    if config.method == "prior-qge":
        return math.sqrt(problem.M * math.log(max(2.0**N, 2.0)))
    if problem.sector is None:
        raise ValueError(f"{config.method} exploits a particle-number sector; none was set")
    norm = fermion.sum_squares_sector_norm(problem.observables, problem.sector.eta)
    d_eta = math.comb(N, problem.sector.eta)
    radicand = norm * math.log(max(d_eta, 2.0))
    if radicand == 0.0:
        warnings.warn(
            f"degenerate sector eta={problem.sector.eta}: measured norm is 0, all costs vanish",
            stacklevel=2,
        )
        return 0.0
    return math.sqrt(radicand)


def run_adaptive(exact, aleph: float, config: ScheduleConfig, rng=None) -> RunResult:
    """One full adaptive estimation run; deterministic given the rng stream.

    `exact` is the (M,) vector of exact expectations and `aleph` the per-call
    prefactor (`measured_aleph`); both depend only on the problem.
    """
    gen = np.random.default_rng(rng)
    base = np.asarray(exact, dtype=np.float64)
    M = base.size
    sched = cost.iteration_schedule(config.epsilon, M, config.c)
    ledger = cost.price_schedule(config.method, aleph, sched)
    grid = probe.make_grid(config.p)
    u = np.zeros(M, dtype=np.float64)
    trace: list[IterationTrace] = []
    for q, reps in enumerate(sched.reps):
        exps = base - u
        # A failed earlier level can push |<A>| past 2^-q; that is a budgeted
        # low-probability event, recorded rather than raised.
        violation = np.abs(exps) > 2.0**-q + 1e-12
        v = (2.0**q / math.pi) * exps
        g = probe.sample_median(v, grid, reps, config.window, config.noise, gen)
        trace.append(IterationTrace(q=q, u_tilde=u.copy(), v=v, g=g, violation=violation))
        u = update_step(u, g, q)
    return RunResult(estimates=u, ledger=ledger, trace=trace)


def _run_trial(payload) -> RunResult:
    exact, aleph, config, seed_seq = payload
    return run_adaptive(exact, aleph, config, np.random.default_rng(seed_seq))


def run_many(
    problem: Problem, config: ScheduleConfig, seed, trials: int, jobs: int = 1
) -> list[RunResult]:
    """Monte-Carlo trials with seed-split streams; output is jobs-invariant.

    `seed` is an integer or a SeedSequence (callers that also draw a random
    state should spawn one root and pass a child here).  The exact
    expectations (`Problem.exact`) and aleph are computed once here; workers
    receive those, not the sparse problem.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    exact, aleph = problem.exact, measured_aleph(problem, config)
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    children = root.spawn(trials)
    payloads = [(exact, aleph, config, child) for child in children]
    if jobs <= 1 or trials == 1:
        return [_run_trial(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_run_trial, payloads, chunksize=max(1, trials // (4 * jobs))))


@dataclass(frozen=True)
class ContractReport:
    """Per-run tally of |<A_j^(q)>| <= 2^-q checks for q >= 1."""

    violations: tuple[tuple[int, int], ...]
    checked: int
    violation_rate: float

    @property
    def any_violation(self) -> bool:
        return bool(self.violations)


def per_iteration_contract_check(trace: list[IterationTrace]) -> ContractReport:
    """Flag recentring-contract violations.  Level q = 0 cannot violate."""
    if not trace:
        raise ContractError("empty trace")
    hits: list[tuple[int, int]] = []
    checked = 0
    for rec in trace:
        if rec.q == 0:
            continue
        checked += rec.violation.size
        for j in np.flatnonzero(rec.violation):
            hits.append((rec.q, int(j)))
    rate = len(hits) / checked if checked else 0.0
    return ContractReport(violations=tuple(hits), checked=checked, violation_rate=rate)


def mse_per_observable(results: list[RunResult], exact) -> np.ndarray:
    exact = np.asarray(exact, dtype=np.float64)
    errs = np.stack([r.estimates - exact for r in results])
    return np.mean(errs**2, axis=0)


def violation_run_fraction(results: list[RunResult]) -> float:
    """Fraction of runs in which any level q >= 1 breached the recentring bound."""
    flagged = sum(1 for r in results if per_iteration_contract_check(r.trace).any_violation)
    return flagged / len(results)


# One trace row after its trial index: q, j, u_tilde, v, g, violation_flag
# and the cumulative charge.  Integer fields are keyed and formatted as
# int64, the rest as float64.
_TRACE_BODY = "%d,%d,%.12g,%.12g,%.12g,%d,%.12g"
_TRACE_INT_FIELDS = (0, 1, 5)
# Rows keyed per np.unique call; bounds the writer's scratch memory at any M.
_TRACE_KEY_ROWS = 1 << 14


def _trace_shape(result: RunResult) -> tuple[int, int]:
    """(levels, M) of one run's trace."""
    return len(result.trace), (result.trace[0].u_tilde.size if result.trace else 0)


def _level_fields(results: list[RunResult], level: int, M: int) -> list[np.ndarray]:
    """Raw bits of each trace field at one level, every one broadcast to (M, trials)."""
    def bits(values, dtype):
        return np.asarray(values, dtype=dtype).view(np.uint64)

    recs = [res.trace[level] for res in results]
    per_row = [
        bits(np.stack([getattr(rec, name) for rec in recs]), np.float64).T
        for name in ("u_tilde", "v", "g")
    ]
    fields = [
        bits([rec.q for rec in recs], np.int64)[None, :],
        np.arange(M, dtype=np.uint64)[:, None],
        *per_row,
        bits(np.stack([rec.violation for rec in recs]), np.int64).T,
        bits([res.ledger.cumulative[level] for res in results], np.float64)[None, :],
    ]
    return [np.broadcast_to(f, (M, len(recs))) for f in fields]


def write_trace_csv(results: list[RunResult], path, provenance: str = "") -> None:
    """Trace export: one row per (trial, level, observable).

    The adaptive update moves each estimate on a lattice, so across trials
    most rows repeat everything after the trial index.  Each level's rows are
    keyed on the raw bits of (q, j, u_tilde, v, g, flag) and the run's
    cumulative charge after that level, read from `result.ledger`; each
    distinct body is formatted once and each trial is written as one
    string.  Keying on bits, not values, keeps 0.0 (printed `0`) apart from
    -0.0 (`-0`) and lets a NaN match itself.  Every result must have the same
    (levels, M) shape, as every `run_many` output does.
    """
    levels, M = _trace_shape(results[0]) if results else (0, 0)
    for t, res in enumerate(results):
        if _trace_shape(res) != (levels, M):
            raise ValueError(
                f"trace shapes differ: trial 0 has (levels, M) = {(levels, M)}, "
                f"trial {t} has {_trace_shape(res)}"
            )
    T = len(results)
    # body_index[t] lists trial t's rows as indices into `bodies`, in the
    # smallest unsigned dtype that holds every row index.
    body_index = np.empty((T, levels * M), dtype=np.min_scalar_type(T * levels * M))
    bodies: list[str] = []
    width = max(1, _TRACE_KEY_ROWS // max(T, 1))
    for level in range(levels):
        fields = _level_fields(results, level, M)
        for j0 in range(0, M, width):
            key = np.stack([f[j0:j0 + width] for f in fields], axis=-1)  # (columns, T, 7)
            _, first, inverse = np.unique(
                key.view(np.dtype((np.void, key.itemsize * len(fields)))).reshape(-1),
                return_index=True, return_inverse=True,
            )
            distinct = key.reshape(-1, len(fields))[first]
            columns = [
                distinct[:, i].view(np.int64 if i in _TRACE_INT_FIELDS else np.float64).tolist()
                for i in range(len(fields))
            ]
            at = level * M + j0
            body_index[:, at:at + key.shape[0]] = inverse.reshape(key.shape[:2]).T + len(bodies)
            bodies.extend(_TRACE_BODY % values for values in zip(*columns))
    body_text = np.array(bodies, dtype=object)
    with open(path, "w", newline="") as fh:
        fh.write("trial,q,j,u_tilde,v,g,violation_flag,queries_cumulative\n")
        for t in range(T if levels * M else 0):
            fh.write(f"{t}," + f"\n{t},".join(body_text[body_index[t]].tolist()) + "\n")
        if provenance:
            fh.write(f"# provenance,{provenance}\n")

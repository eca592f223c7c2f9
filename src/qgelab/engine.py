"""The adaptive estimation loop: recenter, probe, decode, update.

One run walks q = 0 .. q_max.  At level q every observable is recentred by
the running estimate, its exact expectation is rescaled to a phase slope
v_j = 2^q <A_j> / pi, and the coordinate-wise median of R^(q) probe readouts
is drawn by one sampler for every method.  The estimate moves by
pi 2^-q g_j and is clipped to [-1, 1], which halves the recentred expectation
bound per level: with the default p = 3 grid, pi 2^-q 2^-p <= 2^-(q+1).

A run records only the running estimate u_tilde and the decoded median g of
each level.  The slope v and the recentring-contract flag |<A_j>| > 2^-q
follow from u_tilde, the exact vector and q (`_slope`, `_violation`); the
contract check and the trace export derive them where they need them.

Trials run in batches: a batch of T runs holds its estimates as one (T, M)
array per level.  Each level takes the slopes of all T runs, one stacked
readout law (`probe.sample_median_rows`), one inverse-CDF decode and one
update.  Each run keeps its own random stream: row t takes its M Beta order
statistics from its own generator, in the order a lone run would, and its
readout law is its own slice of the stacked product.  So a run's output does
not depend on the batch it ran in, and `run_adaptive` is a batch of one.

A run's query charges depend only on the method, aleph and the schedule, so
a batch prices its schedule once, before the first level, with
`cost.price_schedule`, and its runs share the frozen charges; method-2
differs from method-1 only in that price.

The loop itself sees only the exact expectation vector, aleph and the
schedule config; `run_many` prepares the first two once per problem and hands
them to every batch.  Neither needs an observable matrix.  `krdm_problem`
takes the exact vector from one Gram product of the state's sector amplitudes
after k annihilators (`fermion.krdm_expectations`).  Aleph is priced by
`cost.aleph`, the one place its formula is written, from the problem's shape;
the sector-aware methods hand it the diagonal of the sum of squares, counted
with ladder strings (`fermion.krdm_sector_norm`).  `Problem.observables`
builds the sparse set only when a test, `verify` or a reference check reads
it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat

import numpy as np

from . import cost, fermion, probe, statevector
from .fermion import Observable, SectorLabel
from .probe import IDEAL, NoiseSpec
from .statevector import PureState


@dataclass(frozen=True)
class ScheduleConfig:
    """Knobs of one adaptive run; `cost.iteration_schedule` derives its levels from epsilon."""

    epsilon: float
    method: str = "method-1"
    c: float = cost.C_MAX
    p: int = 3
    window: str = "uniform"
    noise: NoiseSpec = IDEAL

    def __post_init__(self):
        if not cost.EPSILON_MIN <= self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in [{cost.EPSILON_MIN:g}, 1), got {self.epsilon}")
        if not cost.C_MIN <= self.c <= cost.C_MAX + 1e-15:
            raise ValueError(f"c must lie in [{cost.C_MIN:g}, {cost.C_MAX:.6g}], got {self.c}")
        if self.method not in cost.QGE_METHODS:
            raise ValueError(f"method must be one of {cost.QGE_METHODS}, got {self.method!r}")
        if self.p < 1:
            raise ValueError(f"probe bits p must be >= 1, got {self.p}")
        if self.window not in ("uniform", "sine"):
            raise ValueError(f"unknown window {self.window!r}")


@dataclass
class Problem:
    """What a run estimates: the observables' labels and exact expectations on a state.

    A k-body problem (`krdm_problem`) also records its body order `k`, which
    the sector-aware aleph reads; its sparse observables are built only when
    `observables` is first read.
    """

    labels: list[str]
    exact: np.ndarray
    state: PureState
    sector: SectorLabel | None = None
    k: int | None = None

    def __post_init__(self):
        if not self.labels:
            raise ValueError("need at least one observable")
        if np.shape(self.exact) != (self.M,):
            raise ValueError(f"{self.M} labels but exact vector of shape {np.shape(self.exact)}")
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
        return len(self.labels)

    @cached_property
    def observables(self) -> list[Observable]:
        """The sparse k-body estimation set behind `labels`, built on first read.

        The engine never reads it; tests, `verify` and reference checks do.
        """
        if self.k is None:
            raise ValueError("only a k-body problem builds its observables")
        N = self.state.num_modes
        return fermion.estimation_observables(fermion.krdm_observable_set(N, self.k))


def krdm_problem(N: int, k: int, eta: int, rng=None, state: PureState | None = None) -> Problem:
    """The k-body estimation set on a state of the eta sector, random unless `state` is given.

    The exact vector comes from the state's sector amplitudes through
    `fermion.krdm_expectations`; no observable matrix is built.
    """
    labels = fermion.krdm_labels(N, k)
    if state is None:
        state = statevector.random_sector_state(N, eta, rng)
    elif state.num_modes != N:
        raise ValueError(f"state dimension {state.dim} != {1 << N} for {N} modes")
    amplitudes = state.amplitudes[fermion.sector_basis(N, eta).indices]
    exact = fermion.krdm_expectations(N, k, eta, amplitudes)
    return Problem(labels=labels, exact=exact, state=state, sector=SectorLabel(eta), k=k)


@dataclass(frozen=True)
class IterationTrace:
    """One level's running estimate, taken before the update step, and its decoded median.

    The level's q is its index in `RunResult.trace`.
    """

    u_tilde: np.ndarray
    g: np.ndarray


@dataclass
class RunResult:
    """A run's final estimates, its per-level query charges and its trace."""

    estimates: np.ndarray
    ledger: cost.Charges
    trace: list[IterationTrace]


def _slope(exact, u_tilde, q):
    """Phase slope v = 2^q (x - u_tilde) / pi of level q."""
    return (2.0**q / math.pi) * (exact - u_tilde)


def _violation(exact, u_tilde, q):
    """Recentring-contract flag |x - u_tilde| > 2^-q of level q."""
    return np.abs(exact - u_tilde) > 2.0**-q + 1e-12


def update_step(u_tilde, g, q: int):
    """u + pi 2^-q g, clipped to [-1, 1]."""
    return np.clip(np.asarray(u_tilde, dtype=np.float64) + math.pi * 2.0**-q * np.asarray(g), -1.0, 1.0)


def measured_aleph(problem: Problem, config: ScheduleConfig) -> float:
    """`cost.aleph` of the problem's shape.

    prior-qge reads only M and the mode count.  The sector-aware methods also
    read ||sum_j (O_j restricted)^2|| on the problem's sector, counted by
    `fermion.krdm_sector_norm`; for k-body sets it equals the binomial closed
    form.
    """
    N = problem.state.num_modes
    if config.method == "prior-qge":  # k and eta are placeholders it never reads
        params = cost.CostParams(N=N, k=1, eta=0, epsilon=config.epsilon, M=problem.M)
    elif problem.sector is None or problem.k is None:
        raise ValueError(
            f"{config.method} exploits the particle-number sector of a k-body set; none was set"
        )
    else:
        k, eta = problem.k, problem.sector.eta
        params = cost.CostParams(
            N=N, k=k, eta=eta, epsilon=config.epsilon, M=problem.M,
            sum_sq_norm=fermion.krdm_sector_norm(N, k, eta),
        )
    return cost.aleph(config.method, params)


# Readout cells (trials x observables x grid points) one batch of trials
# holds; bounds a batch's scratch memory at any M and p.
_BATCH_CELLS = 1 << 20


def _run_batch(exact, aleph: float, config: ScheduleConfig, gens) -> list[RunResult]:
    """Adaptive runs of one problem, one per entry of `gens`, as (T, M) arrays per level.

    An entry is a Generator, used as is, or a seed for `np.random.default_rng`.
    Row t draws only from its own stream, as a lone run would, and every run
    shares the one priced schedule.  Each run's estimates and trace hold row
    views of the batch's arrays.
    """
    streams = [np.random.default_rng(gen) for gen in gens]
    base = np.asarray(exact, dtype=np.float64)
    sched = cost.iteration_schedule(config.epsilon, base.size, config.c)
    ledger = cost.price_schedule(config.method, aleph, sched)
    grid = probe.make_grid(config.p)
    u = np.zeros((len(streams), base.size))
    levels: list[tuple[np.ndarray, np.ndarray]] = []
    for q, reps in enumerate(sched.reps):
        v = _slope(base, u, q)
        g = probe.sample_median_rows(v, grid, reps, config.window, config.noise, streams)
        levels.append((u, g))
        u = update_step(u, g, q)
    return [
        RunResult(
            estimates=u[t],
            ledger=ledger,
            trace=[IterationTrace(u_tilde=ut[t], g=gt[t]) for ut, gt in levels],
        )
        for t in range(len(streams))
    ]


def run_adaptive(exact, aleph: float, config: ScheduleConfig, rng=None) -> RunResult:
    """One full adaptive estimation run; deterministic given the rng stream.

    `exact` is the (M,) vector of exact expectations and `aleph` the per-call
    prefactor (`measured_aleph`); both depend only on the problem.  It is a
    batch of one, so a run's output does not depend on the batch it ran in.
    """
    return _run_batch(exact, aleph, config, [rng])[0]


def run_many(
    problem: Problem, config: ScheduleConfig, seed, trials: int, jobs: int = 1
) -> list[RunResult]:
    """Monte-Carlo trials with seed-split streams; output is jobs-invariant.

    `seed` is an integer or a SeedSequence (callers that also draw a random
    state should spawn one root and pass a child here).  Aleph is measured
    once here.  The trials run in contiguous batches of at most
    `_BATCH_CELLS` readout cells, at least `jobs` of them when jobs > 1;
    workers receive the problem's exact vector, aleph and their batch's seed
    children, not the problem.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    exact, aleph = problem.exact, measured_aleph(problem, config)
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    children = root.spawn(trials)
    size = max(1, _BATCH_CELLS // (problem.M << config.p))
    if jobs > 1:
        size = min(size, math.ceil(trials / jobs))
    chunks = [children[i:i + size] for i in range(0, trials, size)]
    args = (repeat(exact), repeat(aleph), repeat(config), chunks)
    if jobs <= 1 or len(chunks) == 1:
        batches = list(map(_run_batch, *args))
    else:
        # loads multiprocessing, which serial runs skip
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(chunks))) as pool:
            batches = list(pool.map(_run_batch, *args))
    return [result for batch in batches for result in batch]


def mse_per_observable(results: list[RunResult], exact) -> np.ndarray:
    exact = np.asarray(exact, dtype=np.float64)
    errs = np.stack([r.estimates - exact for r in results])
    return np.mean(errs**2, axis=0)


def violation_run_fraction(results: list[RunResult], exact) -> float:
    """Fraction of runs in which any level q >= 1 breached the recentring bound.

    A failed earlier level can push |<A>| past 2^-q; that is a budgeted
    low-probability event, counted here rather than raised.  Level q = 0
    is not checked: every run starts there at u_tilde = 0.
    """
    exact = np.asarray(exact, dtype=np.float64)
    flagged = 0
    for r in results:
        u = np.stack([rec.u_tilde for rec in r.trace])
        flagged += bool(_violation(exact, u[1:], np.arange(1, len(u))[:, None]).any())
    return flagged / len(results)


# One trace row after its trial index: q, j, u_tilde, v, g, violation_flag
# and the cumulative charge.
_TRACE_BODY = "%d,%d,%.12g,%.12g,%.12g,%d,%.12g"
# Rows keyed per np.unique call; bounds the writer's scratch memory at any M.
_TRACE_KEY_ROWS = 1 << 14


def _trace_shape(result: RunResult) -> tuple[int, int]:
    """(levels, M) of one run's trace."""
    return len(result.trace), (result.trace[0].u_tilde.size if result.trace else 0)


def _level_key(results: list[RunResult], level: int, M: int) -> list[np.ndarray]:
    """Raw bits of (j, u_tilde, g, queries_cumulative) at one level, broadcast to (M, trials)."""
    def bits(values):
        return np.asarray(values, dtype=np.float64).view(np.uint64)

    recs = [res.trace[level] for res in results]
    fields = [
        np.arange(M, dtype=np.uint64)[:, None],
        bits(np.stack([rec.u_tilde for rec in recs])).T,
        bits(np.stack([rec.g for rec in recs])).T,
        bits([res.ledger.cumulative[level] for res in results])[None, :],
    ]
    return [np.broadcast_to(f, (M, len(recs))) for f in fields]


def write_trace_csv(results: list[RunResult], exact, path, provenance: str = "") -> None:
    """Trace export: one row per (trial, level, observable).

    The adaptive update moves each estimate on a lattice, so across trials
    most rows repeat everything after the trial index.  Each level's rows are
    keyed on the raw bits of (j, u_tilde, g) and the run's cumulative charge
    after that level, read from `result.ledger`.  At a fixed level v and the
    violation flag are functions of j and u_tilde, so they are derived from
    `exact` for the distinct rows only; each distinct body is formatted once
    and each trial is written as one string.  Keying on bits, not values,
    keeps 0.0 (printed `0`) apart from -0.0 (`-0`) and lets a NaN match
    itself.  Every result must have the same (levels, M) shape, as every
    `run_many` output does.
    """
    exact = np.asarray(exact, dtype=np.float64)
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
        fields = _level_key(results, level, M)
        for j0 in range(0, M, width):
            key = np.stack([f[j0:j0 + width] for f in fields], axis=-1)  # (columns, T, 4)
            _, first, inverse = np.unique(
                key.view(np.dtype((np.void, key.itemsize * len(fields)))).reshape(-1),
                return_index=True, return_inverse=True,
            )
            distinct = key.reshape(-1, len(fields))[first]
            j = distinct[:, 0].astype(np.intp)
            u, g, charged = (distinct[:, i].view(np.float64) for i in (1, 2, 3))
            x = exact[j]
            columns = (j, u, _slope(x, u, level), g, _violation(x, u, level), charged)
            at = level * M + j0
            body_index[:, at:at + key.shape[0]] = inverse.reshape(key.shape[:2]).T + len(bodies)
            bodies.extend(
                _TRACE_BODY % (level, *values) for values in zip(*(c.tolist() for c in columns))
            )
    body_text = np.array(bodies, dtype=object)
    with open(path, "w", newline="") as fh:
        fh.write("trial,q,j,u_tilde,v,g,violation_flag,queries_cumulative\n")
        for t in range(T if levels * M else 0):
            fh.write(f"{t}," + f"\n{t},".join(body_text[body_index[t]].tolist()) + "\n")
        if provenance:
            fh.write(f"# provenance,{provenance}\n")

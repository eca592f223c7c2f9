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
statistics from its own generator, in the order a lone run would, and the
law of each of its slopes reads that slope alone, once per distinct slope of
the level.  So a run's output does not depend on the batch it ran in, and
`run_adaptive` is a batch of one.

A batch returns what it drew, a `Runs`: the (T, M) final estimates, one
`IterationTrace` of (T, M) arrays per level and one ledger.  `run_many` joins
its batches along the trial axis, in trial order, so a run split over
batches or `--jobs` workers returns the same arrays as one batch.  The
readers take the arrays whole: the MSE and the violation-run fraction are one
array call each, and `write_trace_csv` keys each level on trial 0's row, so
only the entries that differ from it are deduplicated and formatted apart.
`runs[t]` builds trial t's `RunResult` (row views and the shared ledger) on
read, for callers that walk the trials one at a time.

A run's query charges depend only on the method, aleph and the schedule, so
a batch prices its schedule once, before the first level (`price_run`), and
its runs share the one ledger; method-2 differs from method-1 only in that
price.  `verify`'s ledger suite reads a run's charges from `price_run`
without running it; `run_adaptive`, the one-run entry point, has no caller
in the program and serves tests and library use.  A batch holds at least one
trial, so `run_many` and `run_adaptive` refuse, before any draw, a shape
whose one-trial readout law passes `MAX_TRIAL_CELLS` (`check_trial_cells`).

The loop itself sees only the exact expectation vector, aleph and the
schedule config; `run_many` prepares the first two once per problem and hands
them to every batch.  Neither needs an observable matrix or a 2^N vector.
`krdm_problem` takes the exact vector from one Gram product of the state's
C(N, eta) sector amplitudes, which the problem holds, after k annihilators
(`fermion.krdm_expectations`).  Aleph is priced by `cost.aleph` from the
problem's shape, as a sweep prices it: M and the mode count, plus the body
order and sector for the sector-aware methods, whose sector norm is the
binomial closed form.  `Problem.observables` builds the k-body set, each
observable as its numpy entries, and `Problem.state` the full vector, only
when a reference check reads them; neither loads scipy.  A problem's sector
amplitudes must have a norm within 1e-12 of 1, so NaN amplitudes are refused.
`krdm_problem` warns, at its caller's line, when a k-body set is too small
for the crowded regime the cost constants assume.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat

import numpy as np

from . import cost, fermion, probe, statevector
from .fermion import Observable
from .probe import IDEAL, NoiseSpec


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
        probe.check_grid_bits(self.p)
        if self.window not in probe.WINDOWS:
            raise ValueError(f"unknown window {self.window!r}")


@dataclass
class Problem:
    """What a run estimates: the observables' labels and exact expectations on N modes.

    A k-body problem (`krdm_problem`) also records its particle number `eta`
    and body order `k`, which the sector-aware aleph reads, and its state's
    C(N, eta) `amplitudes` on `fermion.sector_basis(N, eta)`.
    """

    labels: list[str]
    exact: np.ndarray
    N: int
    amplitudes: np.ndarray | None = None
    eta: int | None = None
    k: int | None = None

    def __post_init__(self):
        if not self.labels:
            raise ValueError("need at least one observable")
        if np.shape(self.exact) != (self.M,):
            raise ValueError(f"{self.M} labels but exact vector of shape {np.shape(self.exact)}")
        if self.eta is not None:
            _check_sector(self.N, self.eta, self.amplitudes)

    @property
    def M(self) -> int:
        return len(self.labels)

    @cached_property
    def observables(self) -> list[Observable]:
        """The k-body estimation set behind `labels`, each observable as its
        numpy entries, built on first read for tests and reference checks."""
        if self.k is None:
            raise ValueError("only a k-body problem builds its observables")
        return fermion.estimation_observables(fermion.krdm_observable_set(self.N, self.k))

    @cached_property
    def state(self) -> statevector.PureState:
        """The 2^N state the sector amplitudes span, built on first read for the
        reference route, `statevector.expectations` of `observables` on it."""
        if self.eta is None:
            raise ValueError("only a k-body problem holds sector amplitudes")
        amplitudes = np.zeros(1 << self.N, dtype=np.complex128)
        amplitudes[fermion.sector_basis(self.N, self.eta)] = self.amplitudes
        return statevector.PureState(amplitudes)


def _check_sector(N: int, eta: int, amplitudes) -> None:
    """Refuse amplitudes that are not a unit vector over `fermion.sector_basis(N, eta)`."""
    size, shape = math.comb(N, eta), np.shape(amplitudes)
    if shape != (size,):
        raise ValueError(f"sector eta={eta} of {N} modes has {size} amplitudes, got shape {shape}")
    norm = float(np.linalg.norm(amplitudes))
    if not abs(norm - 1.0) <= 1e-12:  # a NaN norm fails too
        raise ValueError(f"sector amplitudes have norm {norm:.15g}, off 1 beyond 1e-12")


def krdm_problem(N: int, k: int, eta: int, rng=None, amplitudes=None) -> Problem:
    """The k-body estimation set on a state of the eta sector, given by its C(N, eta)
    `amplitudes` on `fermion.sector_basis(N, eta)` or drawn from `rng`.

    The exact vector comes from them through `fermion.krdm_expectations`; no
    observable matrix and no 2^N vector is built.  A set below the crowded
    regime the k-body cost constants assume draws a warning at the caller's line.
    """
    fermion._check_order(N, k, eta)
    labels = fermion.krdm_labels(N, k)
    if amplitudes is None:
        amplitudes = statevector.random_sector_amplitudes(N, eta, rng)
    _check_sector(N, eta, amplitudes)
    exact = fermion.krdm_expectations(N, k, eta, amplitudes)
    problem = Problem(labels=labels, exact=exact, N=N, amplitudes=amplitudes, eta=eta, k=k)
    if problem.M < 2 * N + 24:
        warnings.warn(
            f"M={problem.M} observables is below 2 log2(d) + 24 = {2 * N + 24}; "
            "cost constants assume the crowded regime",
            stacklevel=cost._caller_stacklevel(),
        )
    return problem


@dataclass(frozen=True)
class IterationTrace:
    """One level's running estimate, taken before the update step, and its decoded median.

    The level's q is its index in the trace that holds it.  In a `RunResult`
    both arrays have shape (M,); in a `Runs` they have shape (T, M), row t
    belonging to trial t.
    """

    u_tilde: np.ndarray
    g: np.ndarray


@dataclass
class RunResult:
    """A run's final estimates, its per-level query charges and its trace."""

    estimates: np.ndarray
    ledger: cost.Charges
    trace: list[IterationTrace]


@dataclass(frozen=True)
class Runs:
    """A batch of runs as drawn: (T, M) estimates, one (T, M) trace entry per level
    and the one ledger every run shares.

    `runs[t]` builds trial t's `RunResult` on read, from row views of the
    batch's arrays and the shared ledger; `len` and iteration follow.  Every
    level's arrays must have the estimates' shape.
    """

    estimates: np.ndarray
    ledger: cost.Charges
    trace: list[IterationTrace]

    def __post_init__(self):
        shape = np.shape(self.estimates)
        if len(shape) != 2 or not shape[0]:
            raise ValueError(f"estimates must have shape (T, M) with T >= 1, got {shape}")
        for q, rec in enumerate(self.trace):
            if np.shape(rec.u_tilde) != shape or np.shape(rec.g) != shape:
                raise ValueError(
                    f"level {q} has u_tilde {np.shape(rec.u_tilde)} and g {np.shape(rec.g)}, "
                    f"estimates have {shape}"
                )

    def __len__(self) -> int:
        return self.estimates.shape[0]

    def __getitem__(self, t: int) -> RunResult:
        return RunResult(
            estimates=self.estimates[t],
            ledger=self.ledger,
            trace=[IterationTrace(u_tilde=rec.u_tilde[t], g=rec.g[t]) for rec in self.trace],
        )

    def __iter__(self):
        return (self[t] for t in range(len(self)))


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
    """`cost.aleph` of the problem's shape under the config's method."""
    return cost.aleph(config.method, problem.N, problem.M, problem.k, problem.eta)


def price_run(
    M: int, aleph: float, config: ScheduleConfig
) -> tuple[cost.Schedule, cost.Charges]:
    """A run's schedule over M observables and the charges it fixes before its first level."""
    sched = cost.iteration_schedule(config.epsilon, M, config.c)
    return sched, cost.price_schedule(config.method, aleph, sched)


# Readout cells (trials x observables x grid points) one batch of trials
# holds; bounds a batch's scratch memory at any M and p.
_BATCH_CELLS = 1 << 20
# A batch holds at least one trial, whose readout law alone has M 2^p cells;
# `check_trial_cells` refuses a shape above this many (8 B each in the
# closed-form law, which takes a few such arrays while it builds a level's law).
MAX_TRIAL_CELLS = 1 << 26


def check_trial_cells(M: int, p: int) -> None:
    """Refuse M observables on a p-bit grid: one trial's law would pass `MAX_TRIAL_CELLS`."""
    cells = M << p
    if cells > MAX_TRIAL_CELLS:
        raise ValueError(
            f"one trial's readout law holds M 2^p = {cells} cells at M={M} p={p}, "
            f"above the budget of {MAX_TRIAL_CELLS}; take fewer observables or a smaller p"
        )


def _run_batch(exact, aleph: float, config: ScheduleConfig, gens) -> Runs:
    """Adaptive runs of one problem, one per entry of `gens`, as (T, M) arrays per level.

    An entry is a Generator, used as is, or a seed for `np.random.default_rng`.
    Row t draws only from its own stream, as a lone run would, and every run
    shares the one priced schedule.
    """
    streams = [np.random.default_rng(gen) for gen in gens]
    base = np.asarray(exact, dtype=np.float64)
    sched, ledger = price_run(base.size, aleph, config)
    grid = probe.make_grid(config.p)
    u = np.zeros((len(streams), base.size))
    trace: list[IterationTrace] = []
    for q, reps in enumerate(sched.reps):
        v = _slope(base, u, q)
        g = probe.sample_median_rows(v, grid, reps, config.window, config.noise, streams)
        trace.append(IterationTrace(u_tilde=u, g=g))
        u = update_step(u, g, q)
    return Runs(estimates=u, ledger=ledger, trace=trace)


def run_adaptive(exact, aleph: float, config: ScheduleConfig, rng) -> RunResult:
    """One full adaptive estimation run; deterministic given the rng stream.

    `exact` is the (M,) vector of exact expectations and `aleph` the per-call
    prefactor (`measured_aleph`); both depend only on the problem.  It is a
    batch of one, so a run's output does not depend on the batch it ran in.
    """
    check_trial_cells(np.size(exact), config.p)
    return _run_batch(exact, aleph, config, [rng])[0]


def run_many(
    problem: Problem, config: ScheduleConfig, seed, trials: int, jobs: int = 1
) -> Runs:
    """Monte-Carlo trials with seed-split streams; output is jobs-invariant.

    `seed` is an integer or a SeedSequence (callers that also draw a random
    state should spawn one root and pass a child here).  Aleph is measured
    once here.  The trials run in contiguous batches of at most
    `_BATCH_CELLS` readout cells, at least `jobs` of them when jobs > 1, and
    `jobs` is capped at the CPU count; workers receive the problem's exact
    vector, aleph and their batch's seed children, not the problem.  The
    batches are joined along the trial axis, in trial order, into one `Runs`.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    check_trial_cells(problem.M, config.p)
    jobs = min(jobs, os.cpu_count() or 1)
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
    levels = zip(*(batch.trace for batch in batches))
    return Runs(
        estimates=np.concatenate([batch.estimates for batch in batches]),
        ledger=batches[0].ledger,
        trace=[
            IterationTrace(
                u_tilde=np.concatenate([rec.u_tilde for rec in level]),
                g=np.concatenate([rec.g for rec in level]),
            )
            for level in levels
        ],
    )


def mse_per_observable(runs: Runs, exact) -> np.ndarray:
    return np.mean((runs.estimates - np.asarray(exact, dtype=np.float64)) ** 2, axis=0)


def violation_run_fraction(runs: Runs, exact) -> float:
    """Fraction of runs in which any level q >= 1 breached the recentring bound.

    A failed earlier level can push |<A>| past 2^-q; that is a budgeted
    low-probability event, counted here rather than raised.  Level q = 0
    is not checked: every run starts there at u_tilde = 0.  The levels stack
    into one (levels - 1, T, M) array and one flag call.
    """
    exact = np.asarray(exact, dtype=np.float64)
    u = np.stack([rec.u_tilde for rec in runs.trace])[1:]
    q = np.arange(1, len(u) + 1)[:, None, None]
    return int(_violation(exact, u, q).any(axis=(0, 2)).sum()) / len(runs)


# One trace row's columns between its level q and the level's cumulative
# charge: j, u_tilde, v, g and violation_flag.
_TRACE_ENTRY = "%d,%.12g,%.12g,%.12g,%d"


def _bits(values: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)


def write_trace_csv(runs: Runs, exact, path, provenance: str = "") -> None:
    """Trace export: one row per (trial, level, observable).

    The adaptive update moves each estimate on a lattice, so across trials
    most rows repeat everything after the trial index.  Each level is keyed
    on trial 0's row: an entry whose (u_tilde, g) bits equal trial 0's at its
    column reuses trial 0's body, and only the entries that differ go
    through `np.unique` on the bits of (j, u_tilde, g).  Every run shares
    the ledger, so a level's cumulative charge is one value, not part of the
    key.  At a fixed level v and the violation flag are functions of j and
    u_tilde, so they are derived from `exact` for the distinct rows only;
    each distinct body is formatted once and each trial is written as one
    string.  Keying on bits, not values, keeps 0.0 (printed `0`) apart from
    -0.0 (`-0`) and lets a NaN match itself.
    """
    exact = np.asarray(exact, dtype=np.float64)
    T, M = runs.estimates.shape
    levels = len(runs.trace)
    # body_index[t] lists trial t's rows as indices into `bodies`, in the
    # smallest unsigned dtype that holds every row index.
    body_index = np.empty((T, levels * M), dtype=np.min_scalar_type(T * levels * M))
    bodies: list[str] = []
    columns = np.arange(M)
    for level, rec in enumerate(runs.trace):
        u_bits, g_bits = _bits(rec.u_tilde), _bits(rec.g)
        at = level * M
        body_index[:, at:at + M] = columns + len(bodies)
        trial, col = np.nonzero((u_bits != u_bits[0]) | (g_bits != g_bits[0]))
        key = np.stack([col.astype(np.uint64), u_bits[trial, col], g_bits[trial, col]], axis=-1)
        _, first, inverse = np.unique(
            key.view(np.dtype((np.void, key.itemsize * 3))).reshape(-1),
            return_index=True, return_inverse=True,
        )
        body_index[trial, at + col] = inverse + len(bodies) + M
        distinct = key[first]
        j = np.concatenate((columns, distinct[:, 0].astype(np.intp)))
        u = np.concatenate((u_bits[0], distinct[:, 1])).view(np.float64)
        g = np.concatenate((g_bits[0], distinct[:, 2])).view(np.float64)
        x = exact[j]
        fields = (j, u, _slope(x, u, level), g, _violation(x, u, level))
        row = f"{level},{_TRACE_ENTRY},{'%.12g' % runs.ledger.cumulative[level]}"
        bodies.extend(row % values for values in zip(*(f.tolist() for f in fields)))
    body_text = np.array(bodies, dtype=object)
    with open(path, "w", newline="") as fh:
        fh.write("trial,q,j,u_tilde,v,g,violation_flag,queries_cumulative\n")
        for t in range(T if levels * M else 0):
            fh.write(f"{t}," + f"\n{t},".join(body_text[body_index[t]].tolist()) + "\n")
        if provenance:
            fh.write(f"# provenance,{provenance}\n")

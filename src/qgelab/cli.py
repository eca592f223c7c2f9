"""Command-line surface: simulation runs, cost sweeps, verification, scaling fits.

Four subcommands::

    qgelab simulate   Monte-Carlo trials of the adaptive estimator -> summary + trace CSV
    qgelab cost       closed-form query-count tables and presets -> table CSV
    qgelab verify     the named verification suites -> exit 0/2 gate
    qgelab sweep      log-log slope of queries vs 1/eps -> sweep CSV

Every run is reproducible: identical flags + seed give byte-identical CSV
output.  Exit codes: 0 success, 1 config error, 2 verification failure,
4 internal error.  Warnings print as `warning: <message>` on stderr.  The
QGE_LAB_OUT_DIR environment variable prefixes relative output paths.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import functools
import math
import os
import sys
import warnings
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, cost, engine, probe, statevector
from .probe import NoiseSpec

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VERIFY = 2
EXIT_INTERNAL = 4

# Tolerances below the eigensolver certification floor cannot be attested by
# the gate; `verify --tol` below this is a documented expected failure.
CERTIFIED_TOL_FLOOR = 1e-12

_PRESETS = ("filling-sweep", "femoco", "hubbard")
_FILLING_SWEEP_NS = (16, 32, 64, 128, 256)
# The --pauli Z demo states and their exact <Z>.
_PAULI_STATES = {"plus": 0.0, "zero": 1.0, "one": -1.0}


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; our exit 2 means verification failure,
    # so re-route parse errors through the config-error path instead.
    def error(self, message):
        raise ConfigError(message)


# ---------------------------------------------------------------- flag table

def _finite(raw: str) -> float:
    """A float flag or config value; nan and inf are bad input."""
    value = float(raw)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{raw!r} is not a finite number")
    return value


def _names(raw: str) -> tuple[str, ...]:
    """'method-1, method-2' -> ('method-1', 'method-2'); an empty list is refused by validate()."""
    return tuple(name.strip() for name in raw.split(",") if name.strip())


def _prefactors(raw: str) -> tuple[tuple[str, float], ...]:
    """'method-2=50,qae=2' -> (('method-2', 50.0), ('qae', 2.0)); validate() refuses repeats."""
    pairs = []
    for item in _names(raw):
        name, sep, value = (part.strip() for part in item.partition("="))
        if not sep or name not in cost.ALL_METHODS:
            raise argparse.ArgumentTypeError(
                f"bad prefactor {item!r}: want method=value with a known method"
            )
        try:
            number = _finite(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad prefactor value in {item!r}") from exc
        if number <= 0:
            raise argparse.ArgumentTypeError(f"prefactor for {name} must be positive")
        pairs.append((name, number))
    return tuple(pairs)


@dataclass(frozen=True)
class _Flag:
    """One flag: its name is the RunConfig field and the config-file key."""

    name: str
    section: str | None  # its config-file section; None for a flag that is only typed
    readers: tuple[str, ...]  # the commands that read it; every other command rejects it
    help: str
    type: Callable[[str], object] = str
    choices: tuple[str, ...] | None = None
    action: str = "store"

    @property
    def option(self) -> str:
        return "--" + self.name.replace("_", "-")


_RUNS = ("simulate", "cost", "sweep")
# Every flag of every command, declared once.  The parser, the config file's
# keys, types and choices and the rule that rejects an unread key are built
# from this table; each default is written once, in RunConfig or, for eps and
# method, where a command reads them (see RunConfig).  `sweep` walks
# its own eps grid and prices schedules: it simulates no readout.
_FLAGS = (
    _Flag("config", None, _RUNS, "key-value config file ([problem]/[schedule]/[noise]/[cost])"),
    _Flag("out", None, _RUNS, "output path stem (QGE_LAB_OUT_DIR prefixes relative paths)"),
    _Flag("N", "problem", _RUNS, "fermionic modes", int),
    _Flag("k", "problem", _RUNS, "body order of the observable set", int),
    _Flag("eta", "problem", _RUNS, "particle-number sector", int),
    _Flag("pauli", "problem", ("simulate", "sweep"), "single-qubit demo observable",
          choices=("Z",)),
    _Flag("state", "problem", ("simulate",), "demo state for the Pauli demo",
          choices=tuple(_PAULI_STATES)),
    _Flag("eps", "schedule", ("simulate", "cost"), "target accuracy in (0,1)", _finite),
    _Flag("method", "schedule", ("simulate", "sweep"), "estimation method (shots: sweep only)",
          choices=cost.QGE_METHODS + ("shots",)),
    _Flag("c", "schedule", _RUNS, "failure-budget constant", _finite),
    _Flag("p", "schedule", ("simulate",), "probe register bits", int),
    _Flag("window", "schedule", ("simulate",), "probe window", choices=probe.WINDOWS),
    _Flag("trials", "schedule", ("simulate",), "Monte-Carlo trials", int),
    _Flag("seed", "schedule", ("simulate", "sweep"), "64-bit unsigned seed", int),
    _Flag("jobs", "schedule", ("simulate",), "parallel trial workers, at most the CPU count", int),
    _Flag("phase_jitter", "noise", ("simulate",), "probe phase jitter in radians", _finite),
    _Flag("fail_prob", "noise", ("simulate",), "probe failure probability", _finite),
    _Flag("preset", "cost", ("cost",), "paper-sized problem set", choices=_PRESETS),
    _Flag("methods", "cost", ("cost",), "comma-separated method subset", _names),
    _Flag("prefactor", "cost", ("cost",), "METHOD=VALUE[,...] cost prefactors (repeatable)",
          _prefactors, action="extend"),
    _Flag("eps_max", None, ("sweep",), "largest eps of the sweep grid", _finite),
    _Flag("eps_min", None, ("sweep",), "smallest eps; the grid halves down to it", _finite),
    _Flag("tol", None, ("verify",), "tolerance for the numeric suites", _finite),
    _Flag("quick", None, ("verify",), "smaller sweeps for fast iteration", action="store_true"),
)
_BY_NAME = {flag.name: flag for flag in _FLAGS}


def _load_config(path: str) -> dict[str, object]:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    parser.optionxform = str  # keys are case-sensitive (N vs n)
    try:
        read = parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    out: dict[str, object] = {}
    for section in parser.sections():
        if section not in {flag.section for flag in _FLAGS}:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            flag = _BY_NAME.get(key)
            if flag is None or flag.section != section:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
            try:
                out[key] = flag.type(raw)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ConfigError(f"bad value for {key} in [{section}]: {exc}") from exc
            if flag.choices is not None and out[key] not in flag.choices:
                raise ConfigError(
                    f"bad value for {key} in [{section}]: {raw!r} is not one of {flag.choices}"
                )
    return out


# ----------------------------------------------------------------- RunConfig

@dataclass
class RunConfig:
    """Merged and validated parameter record for one command dispatch.

    `build_run_config` passes only the values that were typed or read from a
    config file, so each default is written once.  Most are written here; eps
    and method default to None, which the command resolves: eps to 0.1 in
    `cmd_simulate` and 1e-3 in `_cost_entries`, method in `_method`.
    """

    command: str
    config: str | None = None
    out: str | None = None
    N: int = 4
    k: int = 2
    eta: int = 2
    pauli: str | None = None
    state: str = "plus"
    eps: float | None = None
    method: str | None = None
    c: float = cost.C_MAX
    p: int = 3
    window: str = "uniform"
    trials: int = 100
    seed: int = 0
    jobs: int = 1
    phase_jitter: float = 0.0
    fail_prob: float = 0.0
    preset: str | None = None
    methods: tuple[str, ...] | None = None
    prefactor: tuple[tuple[str, float], ...] | None = None
    eps_max: float = 2.0**-3
    eps_min: float = 2.0**-8
    tol: float = 1e-9
    quick: bool = False

    def validate(self) -> None:
        # Choices are checked where values enter: by argparse and by _load_config.
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.N < 1:
            raise ConfigError(f"N must be >= 1, got {self.N}")
        if self.command == "cost" and self.preset is not None:
            # presets fix N and eta; only filling-sweep reads k, from its smallest N up
            n_min = _FILLING_SWEEP_NS[0]
            if self.preset == "filling-sweep" and not 1 <= self.k <= n_min:
                raise ConfigError(f"k must lie in 1..{n_min} for filling-sweep, got k={self.k}")
        elif self.pauli is None:
            if not 1 <= self.k <= self.N:
                raise ConfigError(f"k must lie in 1..N, got k={self.k} N={self.N}")
            if not 0 <= self.eta <= self.N:
                raise ConfigError(f"eta must lie in 0..N, got eta={self.eta} N={self.N}")
            # simulate holds only the sector, capped as the full `Problem.state` view is
            if self.command == "simulate" and self.N > statevector.MAX_FULL_MODES:
                raise ConfigError(
                    f"N={self.N} exceeds the {statevector.MAX_FULL_MODES}-mode statevector cap"
                )
            # The largest shape the cost model represents: every cost table and
            # QGE sweep reads 2^N; shots reads only M.
            priced = self.command == "cost" or (self.command == "sweep" and self.method != "shots")
            if priced and self.N > cost.N_MAX:
                raise ConfigError(f"N={self.N} exceeds N_MAX={cost.N_MAX}: 2^N overflows a double")
            if cost.estimation_count(self.N, self.k) >= cost.M_MAX:
                raise ConfigError(
                    f"N={self.N} k={self.k} gives M >= M_MAX={cost.M_MAX:g} observables, "
                    "more than the cost model represents"
                )
        # The lower bounds are the smallest eps and c the cost model represents.
        if self.eps is not None and not cost.EPSILON_MIN <= self.eps < 1.0:
            raise ConfigError(f"eps must lie in [{cost.EPSILON_MIN:g}, 1), got {self.eps}")
        if not cost.C_MIN <= self.c <= cost.C_MAX + 1e-15:
            raise ConfigError(f"c must lie in [{cost.C_MIN:g}, {cost.C_MAX:.6g}], got {self.c}")
        if not 1 <= self.p <= probe.MAX_GRID_BITS:
            raise ConfigError(f"p must lie in 1..{probe.MAX_GRID_BITS}, got {self.p}")
        if self.command == "simulate" and self.pauli is None:
            engine.check_trial_cells(cost.estimation_count(self.N, self.k), self.p)
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {self.jobs}")
        if self.phase_jitter < 0:
            raise ConfigError(f"phase_jitter must be >= 0, got {self.phase_jitter}")
        if not 0.0 <= self.fail_prob <= 1.0:
            raise ConfigError(f"fail_prob must lie in [0, 1], got {self.fail_prob}")
        if self.methods is not None:
            if not self.methods:
                raise ConfigError("--methods names no method")
            for m in self.methods:
                if m not in cost.ALL_METHODS:
                    raise ConfigError(f"unknown method {m!r} in --methods")
                if self.methods.count(m) > 1:
                    raise ConfigError(f"method {m!r} is repeated in --methods")
        if self.prefactor is not None:
            named = [name for name, _ in self.prefactor]
            if not named:
                raise ConfigError("prefactor names no method=value pair")
            for name in named:
                if named.count(name) > 1:
                    raise ConfigError(f"prefactor for {name} is given twice")
        if self.command in ("simulate", "sweep") and self.method is not None:
            allowed = cost.QGE_METHODS + (("shots",) if self.command == "sweep" else ())
            if self.method not in allowed:
                raise ConfigError(f"method must be one of {allowed}, got {self.method!r}")
        if self.pauli is not None and self.method in cost.SECTOR_METHODS:
            raise ConfigError(
                "sector-aware methods need an occupation-number problem; "
                "--pauli mode runs with prior-qge"
            )
        if self.command == "sweep":
            if not 0.0 < self.eps_min < self.eps_max < 1.0:
                raise ConfigError(
                    f"need 0 < eps-min < eps-max < 1, got {self.eps_min}..{self.eps_max}"
                )
            if self.eps_min < cost.EPSILON_MIN:
                raise ConfigError(
                    f"eps-min must be >= {cost.EPSILON_MIN:g}, got {self.eps_min}"
                )
            points = len(_epsilon_grid(self.eps_max, self.eps_min))
            if points < 3:
                raise ConfigError(f"need at least 3 sweep points, got {points}")
            method = _method(self)
            if method in cost.SECTOR_METHODS and self.eta < self.k:
                raise ConfigError(
                    f"the sector norm vanishes at eta={self.eta} < k={self.k}: every {method} "
                    "total is 0 and the slope is undefined; sweep prior-qge or take eta >= k"
                )
        if self.tol <= 0:
            raise ConfigError(f"tol must be positive, got {self.tol}")


def _method(rc: RunConfig) -> str:
    """The typed method, else prior-qge for the Pauli demo and method-1 otherwise."""
    return rc.method or ("prior-qge" if rc.pauli is not None else "method-1")


def build_run_config(args: argparse.Namespace) -> RunConfig:
    # The parser sets only the flags that were typed, so a typed 0 is passed
    # on and rejected by validate(), never swapped for the default.
    typed = vars(args).copy()
    command = typed.pop("command")
    filed = _load_config(typed["config"]) if "config" in typed else {}
    rc = RunConfig(command, **{**filed, **typed})
    # A typed flag or config-file value the command would not read is
    # rejected, never dropped.  The table comes first, then the narrower
    # rules of presets, the Pauli demo and shots.
    rules = [(f"{command} never reads", [f.name for f in _FLAGS if command not in f.readers])]
    if command == "cost" and rc.preset is not None:
        fixed = ("N", "eta") if rc.preset == "filling-sweep" else ("N", "k", "eta")
        rules.append((f"the {rc.preset} preset fixes", fixed))
    elif rc.pauli is not None:
        rules.append(("--pauli Z runs one qubit and fixes", ("N", "k", "eta")))
    else:
        rules.append(("only --pauli Z reads", ("state",)))
    if command == "sweep" and rc.method == "shots":
        rules.append(("sweep --method shots never reads", ("c",)))
    for reason, fixed in rules:
        unread = [_BY_NAME[key].option for key in fixed if key in typed]
        unread += [f"{key} in {rc.config}" for key in filed if key in fixed]
        if unread:
            drop = "them" if unread[1:] else "it"
            raise ConfigError(f"{reason} {' and '.join(unread)}; drop {drop}")
    rc.validate()
    return rc


def _out_path(rc: RunConfig, suffix: str) -> Path:
    stem = Path(rc.out) if rc.out else Path(rc.command)
    if not stem.is_absolute():
        stem = Path(os.environ.get("QGE_LAB_OUT_DIR", ".")) / stem
    stem.parent.mkdir(parents=True, exist_ok=True)
    return stem.parent / f"{stem.name}_{suffix}"


def _provenance(rc: RunConfig) -> str:
    return f"qgelab-{__version__},constants=calibrated,seed={rc.seed}"


# ----------------------------------------------------------------- problems

def _build_problem(rc: RunConfig, state_rng) -> engine.Problem:
    if rc.pauli is not None:
        return engine.Problem(labels=["Z"], exact=np.array([_PAULI_STATES[rc.state]]), N=1)
    return engine.krdm_problem(rc.N, rc.k, rc.eta, state_rng)


# ---------------------------------------------------------------- simulate

def cmd_simulate(rc: RunConfig) -> int:
    eps = rc.eps if rc.eps is not None else 0.1
    method = _method(rc)
    root = np.random.SeedSequence(rc.seed)
    state_ss, trials_ss = root.spawn(2)
    problem = _build_problem(rc, np.random.default_rng(state_ss))
    config = engine.ScheduleConfig(
        epsilon=eps, method=method, c=rc.c, p=rc.p, window=rc.window,
        noise=NoiseSpec(phase_jitter=rc.phase_jitter, fail_prob=rc.fail_prob),
    )
    runs = engine.run_many(problem, config, trials_ss, rc.trials, rc.jobs)
    exact = problem.exact
    means = np.mean(runs.estimates, axis=0)
    mse = engine.mse_per_observable(runs, exact)
    violation = engine.violation_run_fraction(runs, exact)
    total = runs.ledger.total

    summary_path = _out_path(rc, "summary.csv")
    with open(summary_path, "w", newline="") as fh:
        writer = csv.writer(fh)  # labels carry commas, e.g. Re(0,1) -> quote them
        writer.writerow(
            ["label", "exact_expectation", "mean_estimate", "bias", "mse",
             "max_mse", "total_queries_oracle_calls", "violation_run_fraction"]
        )
        for label, x, m, b, e in zip(
            problem.labels, exact.tolist(), means.tolist(), (means - exact).tolist(), mse.tolist()
        ):
            writer.writerow([label, "%.12g" % x, "%.12g" % m, "%.12g" % b, "%.12g" % e, "", "", ""])
        writer.writerow(
            ["ALL", "", "", "", "",
             "%.12g" % mse.max(), "%.12g" % total, "%.12g" % violation]
        )
        fh.write(f"# provenance,{_provenance(rc)}\n")
    trace_path = _out_path(rc, "trace.csv")
    engine.write_trace_csv(runs, exact, trace_path, provenance=_provenance(rc))

    print(
        f"simulate: M={problem.M} method={method} eps={eps:g} trials={rc.trials} "
        f"max_mse={mse.max():.6g} total_queries={total:.6g} violation_fraction={violation:.4g}"
    )
    if problem.M <= 8:
        pairs = " ".join(f"{label}={m:.6g}" for label, m in zip(problem.labels, means))
        print(f"mean estimates: {pairs}")
    print(f"wrote {summary_path} and {trace_path}")
    return EXIT_OK


# -------------------------------------------------------------------- cost

def _cost_entries(rc: RunConfig) -> list[tuple[cost.CostParams, list[cost.CostRow]]]:
    methods = rc.methods or cost.ALL_METHODS
    eps = rc.eps if rc.eps is not None else 1e-3
    prefactors = dict(rc.prefactor or ())
    entries: list[tuple[cost.CostParams, list[cost.CostRow]]] = []

    def table(N: int, k: int, eta: int) -> None:
        params = cost.CostParams(N=N, k=k, eta=eta, epsilon=eps, c=rc.c, prefactors=prefactors)
        entries.append((params, cost.compare_table(params, methods)))

    if rc.preset == "filling-sweep":
        for n in _FILLING_SWEEP_NS:
            table(n, rc.k, math.ceil(7 * n / 8))
    elif rc.preset == "femoco":
        for k in (1, 2):
            table(152, k, 113)
    elif rc.preset == "hubbard":
        table(100, 2, 88)
    else:
        table(rc.N, rc.k, rc.eta)
    return entries


def cmd_cost(rc: RunConfig) -> int:
    entries = _cost_entries(rc)
    # Within the model's bounds only a typed prefactor can push a total past a
    # double, or an aleph or total below the normal doubles, where "%.12g"
    # prints digits it does not have.  Such a table is refused before any file
    # is written.
    for params, rows in entries:
        for row in rows:
            if row.method not in params.prefactors:
                continue
            typed = f"--prefactor {row.method}={params.prefactor(row.method):g}"
            where = f"at N={params.N} k={params.k} eta={params.eta} eps={params.epsilon:g}"
            if not math.isfinite(row.total):
                raise ConfigError(
                    f"{typed} overflows the {row.method} total {where}; take a smaller prefactor"
                )
            for name, value in (("aleph", row.aleph), ("total", row.total)):
                if value and value < sys.float_info.min:
                    raise ConfigError(
                        f"{typed} puts the {row.method} {name} below the smallest "
                        f"normal double {sys.float_info.min:g} {where}; take a larger prefactor"
                    )
    path = _out_path(rc, "table.csv")
    cost.write_cost_csv(entries, path, provenance=_provenance(rc))
    for params, rows in entries:
        ranking = " < ".join(f"{r.method} ({r.total:.4g})" for r in rows)
        print(f"N={params.N} k={params.k} eta={params.eta} eps={params.epsilon:g}: {ranking}")
    print(f"wrote {path}")
    return EXIT_OK


# ------------------------------------------------------------------ verify

def cmd_verify(rc: RunConfig) -> int:
    from . import verify  # and `encode`, which only this command reads

    if rc.tol < CERTIFIED_TOL_FLOOR:
        print(
            f"[FAIL] tolerance {rc.tol:g} is below the certified eigensolver floor "
            f"{CERTIFIED_TOL_FLOOR:g}; results at this tolerance cannot be attested "
            "(expected failure, see README)"
        )
        return EXIT_VERIFY
    suites = verify.run_all(tolerance=rc.tol, quick=rc.quick)
    for suite in suites:
        print(suite.line())
    failed = [s for s in suites if not s.passed]
    for suite in failed:
        for detail in suite.details[:5]:
            print(f"    {suite.name}: {detail}")
    if failed:
        print(f"verification FAILED ({len(failed)} suite(s))")
        return EXIT_VERIFY
    print("verification passed")
    return EXIT_OK


# ------------------------------------------------------------------- sweep

def _epsilon_grid(eps_max: float, eps_min: float) -> list[float]:
    grid = [eps_max]
    while grid[-1] / 2.0 >= eps_min * (1.0 - 1e-12):
        grid.append(grid[-1] / 2.0)
    return grid


def loglog_slope(inv_eps, totals) -> tuple[float, float]:
    """Least-squares slope and R^2 of log(total) against log(1/eps)."""
    x = np.log(np.asarray(inv_eps, dtype=np.float64))
    y = np.log(np.asarray(totals, dtype=np.float64))
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), r2


def sweep_totals(rc: RunConfig, method: str, grid: list[float]) -> list[float]:
    """Query totals per epsilon: the priced schedule for QGE methods, closed form for shots.

    Both read only the problem's shape.  A QGE run's charges depend only on
    the method, aleph and the schedule, never on its state or its draws, so
    the sweep draws no state and simulates no trial; aleph comes from
    `cost.aleph`, the same call `engine.measured_aleph` prices a run by.
    """
    if rc.pauli is not None:  # one Z on one qubit, with no body order or sector
        N, M, k, eta = 1, 1, None, None
    else:
        N, M, k, eta = rc.N, cost.estimation_count(rc.N, rc.k), rc.k, rc.eta
    if method == "shots":
        return [cost.shots_baseline_queries(M, e) for e in grid]
    aleph = cost.aleph(method, N, M, k, eta)
    return [
        cost.price_schedule(method, aleph, cost.iteration_schedule(eps, M, rc.c)).total
        for eps in grid
    ]


def cmd_sweep(rc: RunConfig) -> int:
    grid = _epsilon_grid(rc.eps_max, rc.eps_min)
    method = _method(rc)
    totals = sweep_totals(rc, method, grid)
    slope, r2 = loglog_slope([1.0 / e for e in grid], totals)
    path = _out_path(rc, "sweep.csv")
    with open(path, "w", newline="") as fh:
        fh.write("epsilon,inverse_epsilon,total_queries_oracle_calls,method\n")
        for eps, total in zip(grid, totals):
            fh.write("%.12g,%.12g,%.12g,%s\n" % (eps, 1.0 / eps, total, method))
        fh.write("# fit,slope=%.8g,r2=%.10g\n" % (slope, r2))
        fh.write(f"# provenance,{_provenance(rc)}\n")
    print(f"sweep: method={method} points={len(grid)} slope={slope:.4f} R2={r2:.6f}")
    print(f"wrote {path}")
    return EXIT_OK


# -------------------------------------------------------------------- main

_COMMANDS = {
    "simulate": "Monte-Carlo adaptive estimation runs",
    "cost": "closed-form query-count comparison tables",
    "verify": "run the verification suites (exit 2 on failure)",
    "sweep": "fit log-log scaling of priced queries vs 1/eps",
}


@functools.cache
def build_parser() -> _Parser:
    """The parser, built from _FLAGS once per process."""
    parser = _Parser(prog="qgelab", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"qgelab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, summary in _COMMANDS.items():
        # Untyped flags stay off the namespace, so no default is written here.
        sp = sub.add_parser(command, help=summary, argument_default=argparse.SUPPRESS)
        for flag in _FLAGS:
            # Every command parses every flag, so build_run_config can name an
            # unread one; --help lists only the flags the command reads.
            shown = flag.help if command in flag.readers else argparse.SUPPRESS
            parse = {"type": flag.type, "choices": flag.choices}
            if flag.action == "store_true":
                parse = {}
            sp.add_argument(flag.option, dest=flag.name, action=flag.action, help=shown, **parse)
    return parser


_HANDLERS = {
    "simulate": cmd_simulate,
    "cost": cmd_cost,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
}


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    # A source location tells a command-line user nothing.
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        try:
            rc = build_run_config(build_parser().parse_args(argv))
        except (ConfigError, ValueError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        # Input is validated above, so a ValueError from here on, or an
        # ArithmeticError such as an overflow at a tiny eps or c, is a numeric
        # or internal failure, not bad input.  A handler raises ConfigError
        # only for input that its own results refute.
        try:
            return _HANDLERS[rc.command](rc)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except (ValueError, ArithmeticError) as exc:
            print(f"internal error: {exc}", file=sys.stderr)
            return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

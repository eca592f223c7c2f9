"""Command-line surface: simulation runs, cost sweeps, verification, scaling fits.

Four subcommands::

    qgelab simulate   Monte-Carlo trials of the adaptive estimator -> summary + trace CSV
    qgelab cost       closed-form query-count tables and presets -> table CSV
    qgelab verify     the named verification suites -> exit 0/2 gate
    qgelab sweep      log-log slope of queries vs 1/eps -> sweep CSV

Every run is reproducible: identical flags + seed give byte-identical CSV
output.  Exit codes: 0 success, 1 config error, 2 verification failure,
3 contract error, 4 internal error.  The QGE_LAB_OUT_DIR environment
variable prefixes relative output paths.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import math
import os
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, cost, engine, fermion, statevector, verify
from .errors import ContractError
from .probe import NoiseSpec

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VERIFY = 2
EXIT_CONTRACT = 3
EXIT_INTERNAL = 4

# Tolerances below the eigensolver certification floor cannot be attested by
# the gate; `verify --tol` below this is a documented expected failure.
CERTIFIED_TOL_FLOOR = 1e-12

_PRESETS = ("filling-sweep", "femoco", "hubbard")
_FILLING_SWEEP_NS = (16, 32, 64, 128, 256)
# The --pauli Z demo states: amplitudes and the exact <Z>.
_PAULI_STATES = {
    "plus": (np.array([1.0, 1.0], dtype=np.complex128) / math.sqrt(2.0), 0.0),
    "zero": (np.array([1.0, 0.0], dtype=np.complex128), 1.0),
    "one": (np.array([0.0, 1.0], dtype=np.complex128), -1.0),
}


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; our exit 2 means verification failure,
    # so re-route parse errors through the config-error path instead.
    def error(self, message):
        raise ConfigError(message)


# --------------------------------------------------------------- config file

_CONFIG_KEYS: dict[str, dict[str, type]] = {
    "problem": {"N": int, "k": int, "eta": int, "pauli": str, "state": str},
    "schedule": {
        "eps": float, "method": str, "c": float, "p": int, "window": str,
        "trials": int, "seed": int, "jobs": int,
    },
    "noise": {"phase_jitter": float, "fail_prob": float},
    "cost": {"preset": str, "methods": str, "prefactor": str},
}
# The keys each command reads, typed or from a config file; it rejects every
# other key.  `sweep` walks its own eps grid and prices schedules: it
# simulates no readout.  `verify` takes no config file.
_READS: dict[str, set[str]] = {
    "simulate": {*_CONFIG_KEYS["problem"], *_CONFIG_KEYS["schedule"], *_CONFIG_KEYS["noise"]},
    "cost": {"N", "k", "eta", "eps", "c", *_CONFIG_KEYS["cost"]},
    "sweep": {"N", "k", "eta", "pauli", "method", "c", "seed"},
    "verify": set(),
}


def _load_config(path: str) -> dict[tuple[str, str], object]:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    parser.optionxform = str  # keys are case-sensitive (N vs n)
    try:
        read = parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    out: dict[tuple[str, str], object] = {}
    for section in parser.sections():
        if section not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        allowed = _CONFIG_KEYS[section]
        for key, raw in parser.items(section):
            if key not in allowed:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
            try:
                out[section, key] = allowed[key](raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for {key} in [{section}]: {raw!r}") from exc
    return out


def _parse_prefactors(raw: object) -> dict[str, float]:
    """'method-2=50,qae=2' (or repeated flags) -> {'method-2': 50.0, 'qae': 2.0}."""
    items: list[str] = []
    if raw is None:
        return {}
    if isinstance(raw, str):
        items = [s for s in raw.split(",") if s.strip()]
    else:
        for entry in raw:
            items.extend(s for s in entry.split(",") if s.strip())
    if not items:
        raise ConfigError("prefactor names no method=value pair")
    out: dict[str, float] = {}
    for item in items:
        name, sep, value = item.partition("=")
        name = name.strip()
        if not sep or name not in cost.ALL_METHODS:
            raise ConfigError(f"bad prefactor {item!r}: want method=value with a known method")
        if name in out:
            raise ConfigError(f"prefactor for {name} is given twice")
        try:
            out[name] = float(value)
        except ValueError as exc:
            raise ConfigError(f"bad prefactor value in {item!r}") from exc
        if out[name] <= 0:
            raise ConfigError(f"prefactor for {name} must be positive")
    return out


# ----------------------------------------------------------------- RunConfig

@dataclass
class RunConfig:
    """Merged and validated parameter record for one command dispatch."""

    command: str
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
    prefactors: dict[str, float] = field(default_factory=dict)
    eps_max: float = 2.0**-3
    eps_min: float = 2.0**-8
    tol: float = 1e-9
    quick: bool = False
    inject_sign_error: bool = False
    out: str | None = None

    def validate(self) -> None:
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.N < 1:
            raise ConfigError(f"N must be >= 1, got {self.N}")
        if self.preset is not None and self.preset not in _PRESETS:
            raise ConfigError(f"preset must be one of {_PRESETS}, got {self.preset!r}")
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
            # simulate holds the 2^N state; a QGE sweep's counted sector norm
            # scans 2^N occupation indices
            full_space = self.command == "simulate" or (
                self.command == "sweep" and self.method != "shots"
            )
            if full_space and self.N > statevector.MAX_FULL_MODES:
                raise ConfigError(
                    f"N={self.N} exceeds the {statevector.MAX_FULL_MODES}-mode statevector cap"
                )
        elif self.pauli != "Z":
            raise ConfigError(f"only --pauli Z is supported, got {self.pauli!r}")
        if self.pauli is not None and self.state not in _PAULI_STATES:
            raise ConfigError(f"state must be one of {tuple(_PAULI_STATES)}, got {self.state!r}")
        if self.eps is not None and not 0.0 < self.eps < 1.0:
            raise ConfigError(f"eps must lie in (0, 1), got {self.eps}")
        if not 0.0 < self.c <= cost.C_MAX + 1e-15:
            raise ConfigError(f"c must lie in (0, {cost.C_MAX:.6g}], got {self.c}")
        if self.p < 1:
            raise ConfigError(f"p must be >= 1, got {self.p}")
        if self.window not in ("uniform", "sine"):
            raise ConfigError(f"window must be uniform or sine, got {self.window!r}")
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
        if self.command in ("simulate", "sweep") and self.method is not None:
            allowed = cost.QGE_METHODS + (("shots",) if self.command == "sweep" else ())
            if self.method not in allowed:
                raise ConfigError(f"method must be one of {allowed}, got {self.method!r}")
        if self.pauli is not None and self.method in ("method-1", "method-2"):
            raise ConfigError(
                "sector-aware methods need an occupation-number problem; "
                "--pauli mode runs with prior-qge"
            )
        if self.command == "sweep":
            if not 0.0 < self.eps_min < self.eps_max < 1.0:
                raise ConfigError(
                    f"need 0 < eps-min < eps-max < 1, got {self.eps_min}..{self.eps_max}"
                )
            points = len(_epsilon_grid(self.eps_max, self.eps_min))
            if points < 3:
                raise ConfigError(f"need at least 3 sweep points, got {points}")
            method = _method(self)
            if method in ("method-1", "method-2") and self.eta < self.k:
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
    cfg = _load_config(args.config) if getattr(args, "config", None) else {}

    def flag(key: str, default):
        # A None check, not `or`: a typed 0 must reach validate() and be rejected.
        value = getattr(args, key, None)
        return default if value is None else value

    def pick(section: str, key: str, default):
        return flag(key, cfg.get((section, key), default))

    methods_raw = pick("cost", "methods", None)
    methods = None
    if methods_raw is not None:
        methods = tuple(m.strip() for m in str(methods_raw).split(",") if m.strip())
    prefactor_flag = getattr(args, "prefactor", None)
    prefactor_raw = prefactor_flag if prefactor_flag else cfg.get(("cost", "prefactor"))

    rc = RunConfig(
        command=args.command,
        N=pick("problem", "N", 4),
        k=pick("problem", "k", 2),
        eta=pick("problem", "eta", 2),
        pauli=pick("problem", "pauli", None),
        state=pick("problem", "state", "plus"),
        eps=pick("schedule", "eps", None),
        method=pick("schedule", "method", None),
        c=pick("schedule", "c", cost.C_MAX),
        p=pick("schedule", "p", 3),
        window=pick("schedule", "window", "uniform"),
        trials=pick("schedule", "trials", 100),
        seed=pick("schedule", "seed", 0),
        jobs=pick("schedule", "jobs", 1),
        phase_jitter=pick("noise", "phase_jitter", 0.0),
        fail_prob=pick("noise", "fail_prob", 0.0),
        preset=pick("cost", "preset", None),
        methods=methods,
        prefactors=_parse_prefactors(prefactor_raw),
        eps_max=flag("eps_max", 2.0**-3),
        eps_min=flag("eps_min", 2.0**-8),
        tol=flag("tol", 1e-9),
        quick=bool(getattr(args, "quick", False)),
        inject_sign_error=bool(getattr(args, "inject_sign_error", False)),
        out=getattr(args, "out", None),
    )
    rc.validate()
    # A typed flag or config-file value the command would not read is
    # rejected, never dropped.  The table comes first, then the narrower
    # rules of presets, the Pauli demo and shots.
    keys = [key for section in _CONFIG_KEYS.values() for key in section]
    rules = [(f"{rc.command} never reads", [k for k in keys if k not in _READS[rc.command]])]
    if rc.command == "cost" and rc.preset is not None:
        fixed = ("N", "eta") if rc.preset == "filling-sweep" else ("N", "k", "eta")
        rules.append((f"the {rc.preset} preset fixes", fixed))
    elif rc.pauli is not None:
        rules.append(("--pauli Z runs one qubit and fixes", ("N", "k", "eta")))
    else:
        rules.append(("only --pauli Z reads", ("state",)))
    if rc.command == "sweep" and rc.method == "shots":
        rules.append(("sweep --method shots never reads", ("c",)))
    for reason, fixed in rules:
        unread = [f"--{key}" for key in fixed if getattr(args, key, None) is not None]
        unread += [f"{key} in {args.config}" for _, key in cfg if key in fixed]
        if unread:
            drop = "them" if unread[1:] else "it"
            raise ConfigError(f"{reason} {' and '.join(unread)}; drop {drop}")
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
        amps, z = _PAULI_STATES[rc.state]
        with warnings.catch_warnings():
            # the crowded-regime caution is meaningless for a one-observable demo
            warnings.filterwarnings("ignore", message=".*crowded.*")
            return engine.Problem(
                labels=["Z"], exact=np.array([z]), state=statevector.PureState(amps)
            )
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
    results = engine.run_many(problem, config, trials_ss, rc.trials, rc.jobs)
    exact = problem.exact
    means = np.mean([r.estimates for r in results], axis=0)
    mse = engine.mse_per_observable(results, exact)
    violation = engine.violation_run_fraction(results, exact)
    total = results[0].ledger.total

    summary_path = _out_path(rc, "summary.csv")
    with open(summary_path, "w", newline="") as fh:
        writer = csv.writer(fh)  # labels carry commas, e.g. Re(0,1) -> quote them
        writer.writerow(
            ["label", "exact_expectation", "mean_estimate", "bias", "mse",
             "max_mse", "total_queries_oracle_calls", "violation_run_fraction"]
        )
        for j, label in enumerate(problem.labels):
            writer.writerow(
                [label, "%.12g" % exact[j], "%.12g" % means[j],
                 "%.12g" % (means[j] - exact[j]), "%.12g" % mse[j], "", "", ""]
            )
        writer.writerow(
            ["ALL", "", "", "", "",
             "%.12g" % mse.max(), "%.12g" % total, "%.12g" % violation]
        )
        fh.write(f"# provenance,{_provenance(rc)}\n")
    trace_path = _out_path(rc, "trace.csv")
    engine.write_trace_csv(results, exact, trace_path, provenance=_provenance(rc))

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
    entries: list[tuple[cost.CostParams, list[cost.CostRow]]] = []

    def table(N: int, k: int, eta: int) -> None:
        params = cost.CostParams(N=N, k=k, eta=eta, epsilon=eps, c=rc.c, prefactors=rc.prefactors)
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
    path = _out_path(rc, "table.csv")
    cost.write_cost_csv(entries, path, provenance=_provenance(rc))
    for params, rows in entries:
        ranking = " < ".join(f"{r.method} ({r.total:.4g})" for r in rows)
        print(f"N={params.N} k={params.k} eta={params.eta} eps={params.epsilon:g}: {ranking}")
    print(f"wrote {path}")
    return EXIT_OK


# ------------------------------------------------------------------ verify

def cmd_verify(rc: RunConfig) -> int:
    if rc.tol < CERTIFIED_TOL_FLOOR:
        print(
            f"[FAIL] tolerance {rc.tol:g} is below the certified eigensolver floor "
            f"{CERTIFIED_TOL_FLOOR:g}; results at this tolerance cannot be attested "
            "(expected failure, see README)"
        )
        return EXIT_VERIFY
    suites = verify.run_all(tolerance=rc.tol, quick=rc.quick, sign_error=rc.inject_sign_error)
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
    `cost.aleph`, with the sector norm counted by `fermion.krdm_sector_norm`
    for the sector-aware methods, as `engine.measured_aleph` prices a run.
    """
    if rc.pauli is not None:  # one Z on one qubit; k and eta are placeholders
        params = cost.CostParams(N=1, k=1, eta=0, epsilon=grid[0], M=1)
    else:
        sector = method in ("method-1", "method-2")
        norm = fermion.krdm_sector_norm(rc.N, rc.k, rc.eta) if sector else None
        params = cost.CostParams(N=rc.N, k=rc.k, eta=rc.eta, epsilon=grid[0], sum_sq_norm=norm)
    M = params.observable_count
    if method == "shots":
        return [cost.shots_baseline_queries(M, e) for e in grid]
    aleph = cost.aleph(method, params)
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

def build_parser() -> _Parser:
    parser = _Parser(prog="qgelab", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"qgelab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, *, seeded=True):
        sp.add_argument("--config", help="key-value config file ([problem]/[schedule]/[noise]/[cost])")
        sp.add_argument("--out", help="output path stem (QGE_LAB_OUT_DIR prefixes relative paths)")
        sp.add_argument("--N", type=int, default=None, help="fermionic modes")
        sp.add_argument("--k", type=int, default=None, help="body order of the observable set")
        sp.add_argument("--eta", type=int, default=None, help="particle-number sector")
        sp.add_argument("--eps", type=float, default=None, help="target accuracy in (0,1)")
        sp.add_argument("--c", type=float, default=None, help="failure-budget constant")
        if seeded:
            sp.add_argument("--seed", type=int, default=None, help="64-bit unsigned seed")

    sim = sub.add_parser("simulate", help="Monte-Carlo adaptive estimation runs")
    add_common(sim)
    # flags only a simulated readout reads
    sim.add_argument("--p", type=int, default=None, help="probe register bits")
    sim.add_argument("--window", choices=("uniform", "sine"), default=None)
    sim.add_argument("--phase-jitter", dest="phase_jitter", type=float, default=None)
    sim.add_argument("--fail-prob", dest="fail_prob", type=float, default=None)
    sim.add_argument("--method", choices=cost.QGE_METHODS, default=None)
    sim.add_argument("--trials", type=int, default=None)
    sim.add_argument("--jobs", type=int, default=None, help="parallel trial workers")
    sim.add_argument("--pauli", choices=("Z",), default=None, help="single-qubit demo observable")
    sim.add_argument(
        "--state", choices=tuple(_PAULI_STATES), default=None, help="demo state for --pauli"
    )

    cst = sub.add_parser("cost", help="closed-form query-count comparison tables")
    add_common(cst, seeded=False)
    cst.add_argument("--preset", choices=_PRESETS, default=None)
    cst.add_argument("--methods", default=None, help="comma-separated method subset")
    cst.add_argument("--prefactor", action="append", default=None, metavar="METHOD=VALUE")

    ver = sub.add_parser("verify", help="run the verification suites (exit 2 on failure)")
    ver.add_argument("--tol", type=float, default=None, help="tolerance for the numeric suites")
    ver.add_argument("--quick", action="store_true", help="smaller sweeps for fast iteration")
    ver.add_argument("--inject-sign-error", action="store_true", help=argparse.SUPPRESS)

    swp = sub.add_parser("sweep", help="fit log-log scaling of priced queries vs 1/eps")
    add_common(swp)
    swp.add_argument("--method", choices=cost.QGE_METHODS + ("shots",), default=None)
    swp.add_argument("--eps-max", dest="eps_max", type=float, default=None)
    swp.add_argument("--eps-min", dest="eps_min", type=float, default=None)
    return parser


_HANDLERS = {
    "simulate": cmd_simulate,
    "cost": cmd_cost,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        rc = build_run_config(parser.parse_args(argv))
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # Input is validated above, so a ValueError from here on is a numeric or
    # internal failure, not bad input.
    try:
        return _HANDLERS[rc.command](rc)
    except ValueError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ContractError as exc:
        print(f"contract error: {exc}", file=sys.stderr)
        return EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())

"""qgelab benchmark: one workload per run, end-to-end metrics or a traced per-layer split.

Run from the repository root:

    python3 perfbench/run.py --workload contract-m66 --seed 1 --seconds 55 --trace 0

Workloads (BENCHMARK.json records why each was chosen):

    contract-m66  simulate N=4 k=2 eta=2 (M=66) eps=0.02, ideal, prior-qge/method-1/method-2
    wide-m1540    simulate N=8 k=2 eta=4 (M=1540) eps=0.02, prior-qge
    noisy-m66     simulate M=66 eps=0.02, method-1, --phase-jitter 0.2 --fail-prob 0.01
    gate          verify --quick, cost presets, sweep method-1 and shots

The program is driven through ``qgelab.cli.main`` and the public
``engine.run_many`` from one process (``--jobs 1``), with BLAS/OpenMP threads
pinned to one.  A run warms imports and lazy caches, then repeats whole passes
of the workload for ``--seconds``, timing the set-up again after every second
pass.  ``wall_s`` and ``trials_per_s`` sum each step's fastest time in the run;
``setup_s`` is a median (see ``_end_to_end``).  Every pass is checked: exit
codes, ``max_j MSE <= eps^2``, ledger totals against ``cost.total_queries``,
every verify suite, the preset ranking, and byte-identical CSVs across passes.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates traced
and untraced passes and prints the per-layer split (see tracing.py), the
tracing overhead and, on contract-m66, the ``--jobs 2`` time.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP before numpy is imported; the load is one serial process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

MIN_PASSES = 3
REL_TOL = 1e-9  # CSVs print 12 significant digits


@dataclass(frozen=True)
class Simulate:
    N: int
    k: int
    eta: int
    eps: float
    methods: tuple[str, ...]
    trials: int
    mse_check: bool
    phase_jitter: float = 0.0
    fail_prob: float = 0.0


ALL_METHODS = ("prior-qge", "method-1", "method-2")
SIMULATE = {
    "contract-m66": Simulate(4, 2, 2, 0.02, ALL_METHODS, trials=20, mse_check=True),
    "wide-m1540": Simulate(8, 2, 4, 0.02, ("prior-qge",), trials=10, mse_check=False),
    "noisy-m66": Simulate(4, 2, 2, 0.02, ("method-1",), trials=20, mse_check=True,
                          phase_jitter=0.2, fail_prob=0.01),
}
WORKLOADS = tuple(SIMULATE) + ("gate",)
PRESETS = ("filling-sweep", "femoco", "hubbard")
# Set-up is timed before the first pass and after every second untraced pass,
# so that its median spans the whole run and not only its first seconds.  Each
# sample is the fastest of SETUP_REPEATS back-to-back set-ups: one set-up of
# contract-m66 took from 55 to 114 ms back to back on the same heap.
SETUP_REPEATS = 3
# Extra timed `sweep --method method-1` calls per gate pass, outside the pass's
# own wall time: one call is short, so more samples give it a steadier best.
SWEEP_REPEATS = 4

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "trials_per_s": "1/s", "queries": "count",
                    "peak_rss_mb": "MiB"}


def _import_program():
    """Import qgelab from this checkout's src/, never from anywhere else."""
    if not (SRC / "qgelab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no qgelab sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import qgelab

    if Path(qgelab.__file__).resolve().parent != (SRC / "qgelab").resolve():
        sys.exit(f"perfbench: imported qgelab from {qgelab.__file__}, not from {SRC}")


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return [row for row in csv.reader(fh) if row and not row[0].startswith("#")]


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Bench:
    """One benchmark run: operations, their checks, and the CSV byte record."""

    def __init__(self, workload: str, seed: int, out_dir: Path):
        from qgelab import cli, cost, engine, probe, statevector

        self.cli, self.cost, self.engine, self.probe = cli, cost, engine, probe
        self.statevector = statevector
        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[Path, str] = {}
        self.tracer = None  # set while a traced pass runs

    # ----------------------------------------------------------- operations

    def record(self, label: str, problems: list[str]) -> None:
        """Count one operation; it failed if any check on it failed."""
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: {'; '.join(problems)}")

    def command(self, argv: list[str]) -> tuple[int, str]:
        """qgelab.cli.main in-process, stdout captured; an exception counts as exit -1."""
        buf = io.StringIO()
        span = self.tracer.span(f"cli.{argv[0]}") if self.tracer else contextlib.nullcontext()
        try:
            with span, contextlib.redirect_stdout(buf):
                code = self.cli.main(argv)
        except Exception:  # the run must go on and report the failed operation
            traceback.print_exc()
            code = -1
        return code, buf.getvalue()

    def timed(self, argv: list[str], key: str, times: dict[str, list[float]]) -> tuple[int, str]:
        """`command`, its seconds appended to times[key]."""
        start = time.perf_counter()
        out = self.command(argv)
        times.setdefault(key, []).append(time.perf_counter() - start)
        return out

    def same_bytes(self, paths: list[Path]) -> list[str]:
        """Each CSV must match, byte for byte, what the first pass wrote."""
        problems = []
        for path in paths:
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            if self.digests.setdefault(path, digest) != digest:
                problems.append(f"{path.name} differs from the first pass")
        return problems

    def closed_form(self, method: str, N: int, k: int, eta: int, eps: float) -> float:
        return self.cost.total_queries(method, self.cost.CostParams(N=N, k=k, eta=eta, epsilon=eps))

    # ------------------------------------------------------------ simulate

    def sim_config(self, w: Simulate, method: str):
        noise = self.probe.NoiseSpec(phase_jitter=w.phase_jitter, fail_prob=w.fail_prob)
        return self.engine.ScheduleConfig(epsilon=w.eps, method=method, noise=noise)

    def sim_argv(self, w: Simulate, method: str, out: str) -> list[str]:
        argv = ["simulate", "--N", str(w.N), "--k", str(w.k), "--eta", str(w.eta),
                "--eps", repr(w.eps), "--method", method, "--trials", str(w.trials),
                "--seed", str(self.seed), "--jobs", "1", "--out", out]
        if w.phase_jitter:
            argv += ["--phase-jitter", repr(w.phase_jitter)]
        if w.fail_prob:
            argv += ["--fail-prob", repr(w.fail_prob)]
        return argv

    def sim_streams(self):
        """The CLI's seed split: one child for the sector state, one for the trials."""
        import numpy as np

        return np.random.SeedSequence(self.seed).spawn(2)

    def sim_setup(self, w: Simulate):
        """Problem build as the CLI does it (observables, filter, state, Problem), timed."""
        import numpy as np

        state_ss, _ = self.sim_streams()
        start = time.perf_counter()
        problem = self.engine.krdm_problem(w.N, w.k, w.eta, np.random.default_rng(state_ss))
        return problem, time.perf_counter() - start

    def sim_pass(self, w: Simulate, problem, exact, direct: bool) -> dict:
        start = time.perf_counter()
        times: dict[str, list[float]] = {}
        codes = {m: self.timed(self.sim_argv(w, m, f"{self.workload}/{m}"), m, times)[0]
                 for m in w.methods}
        wall = time.perf_counter() - start
        written: list[Path] = []
        queries = 0.0
        max_mse: dict[str, float] = {}
        for m in w.methods:
            problems = [f"exit {codes[m]}"] if codes[m] else []
            folder = self.out_dir / self.workload
            paths = [folder / f"{m}_summary.csv", folder / f"{m}_trace.csv"]
            if not problems:
                written += paths
                last = _csv_rows(paths[0])[-1]
                max_mse[m], total = float(last[5]), float(last[6])
                queries += total
                closed = self.closed_form(m, w.N, w.k, w.eta, w.eps)
                if not _close(total, closed):
                    problems.append(f"ledger {total!r} != cost.total_queries {closed!r}")
                if w.mse_check and max_mse[m] > w.eps**2:
                    problems.append(f"max MSE {max_mse[m]:.6g} > eps^2 {w.eps**2:.6g}")
                problems += self.same_bytes(paths)
            self.record(f"simulate {m}", problems)
        result = {"wall_s": wall, "command_s": times, "queries": queries, "max_mse": max_mse,
                  "export_bytes": sum(p.stat().st_size for p in written)}
        if direct:
            seconds = {m: self.run_many(w, m, problem, exact, max_mse.get(m), jobs=1)
                       for m in w.methods}
            result["call_s"] = {m: [s] for m, s in seconds.items()}
            result["trials"] = w.trials
        return result

    def run_many(self, w: Simulate, method: str, problem, exact, cli_max_mse, jobs: int) -> float:
        """engine.run_many on the set-up problem with the CLI's trial stream; its seconds.

        The results must match the CLI's summary of the same trials.
        """
        _, trials_ss = self.sim_streams()
        config = self.sim_config(w, method)
        start = time.perf_counter()
        results = self.engine.run_many(problem, config, trials_ss, w.trials, jobs)
        seconds = time.perf_counter() - start
        closed = self.closed_form(method, w.N, w.k, w.eta, w.eps)
        problems = [
            f"trial {t} ledger {r.ledger.total!r} != {closed!r}"
            for t, r in enumerate(results) if not _close(r.ledger.total, closed)
        ]
        mse = float(self.engine.mse_per_observable(results, exact).max())
        if cli_max_mse is not None and not _close(mse, cli_max_mse):
            problems.append(f"library max MSE {mse!r} != CLI {cli_max_mse!r}")
        self.record(f"engine.run_many {method} jobs={jobs}", problems)
        return seconds

    # ---------------------------------------------------------------- gate

    def gate_setup(self, repeats: int) -> list[float]:
        """A fresh interpreter's `import qgelab`, which every CLI call pays."""
        code = ("import time; t = time.perf_counter(); import qgelab; "
                "print(time.perf_counter() - t); print(qgelab.__file__)")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        times = []
        for _ in range(repeats):
            try:  # run() kills and reaps the child on timeout
                proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                                      capture_output=True, text=True, timeout=60)
            except subprocess.TimeoutExpired:
                self.record("import qgelab", ["timed out after 60 s"])
                continue
            lines = proc.stdout.split()
            ok = proc.returncode == 0 and len(lines) == 2 and Path(lines[1]).is_relative_to(SRC)
            self.record("import qgelab", [] if ok else [f"exit {proc.returncode}: {proc.stderr[-200:]}"])
            if ok:
                times.append(float(lines[0]))
        return times

    def gate_pass(self) -> dict:
        folder = self.out_dir / self.workload
        sweep = ["sweep", "--N", "4", "--k", "2", "--eta", "2", "--seed", str(self.seed), "--method"]
        start = time.perf_counter()
        times: dict[str, list[float]] = {}
        verify_code, verify_text = self.timed(["verify", "--quick"], "verify", times)
        preset_codes = {p: self.timed(["cost", "--preset", p, "--out", f"{self.workload}/{p}"],
                                      p, times)[0] for p in PRESETS}
        sweep_m1 = sweep + ["method-1", "--out", f"{self.workload}/method-1"]
        sweep_code = self.timed(sweep_m1, "sweep-method-1", times)[0]
        shots_code = self.timed(sweep + ["shots", "--out", f"{self.workload}/shots"],
                                "sweep-shots", times)[0]
        wall = time.perf_counter() - start

        suites = verify_text.count("[PASS]")
        problems = [f"exit {verify_code}"] if verify_code else []
        if suites != 5 or "[FAIL]" in verify_text:
            problems.append(f"{suites}/5 suites passed")
        self.record("verify --quick", problems)
        written: list[Path] = []
        for p in PRESETS:
            path = folder / f"{p}_table.csv"
            problems = [f"exit {preset_codes[p]}"] if preset_codes[p] else []
            if not problems:
                written.append(path)
                problems += self.preset_ranking(path) + self.same_bytes([path])
            self.record(f"cost --preset {p}", problems)
        self.check_sweep(folder / "shots_sweep.csv", shots_code, written)
        totals = self.check_sweep(folder / "method-1_sweep.csv", sweep_code, written)
        for _ in range(SWEEP_REPEATS):
            code = self.timed(sweep_m1, "sweep-method-1", times)[0]
            self.check_sweep(folder / "method-1_sweep.csv", code, [])
        return {"wall_s": wall, "command_s": times, "queries": sum(totals),
                "export_bytes": sum(p.stat().st_size for p in written),
                "call_s": {"sweep-method-1": times["sweep-method-1"]}, "trials": len(totals)}

    def check_sweep(self, path: Path, code: int, written: list[Path]) -> list[float]:
        """Each point's total must equal the closed form; returns the totals."""
        method = path.name.removesuffix("_sweep.csv")
        problems = [f"exit {code}"] if code else []
        totals = []
        if not problems:
            written.append(path)
            M = self.cost.estimation_count(4, 2)
            for row in _csv_rows(path)[1:]:
                eps, total = float(row[0]), float(row[2])
                if method == "shots":
                    closed = self.cost.shots_baseline_queries(M, eps)
                else:
                    closed = self.closed_form(method, 4, 2, 2, eps)
                if not _close(total, closed):
                    problems.append(f"eps={eps:g}: {total!r} != closed form {closed!r}")
                totals.append(total)
            problems += self.same_bytes([path])
        self.record(f"sweep --method {method}", problems)
        return totals

    def preset_ranking(self, path: Path) -> list[str]:
        """method-2 must be the cheapest QGE method in every table of the preset."""
        cheapest: dict[tuple, tuple[float, str]] = {}
        for row in _csv_rows(path)[1:]:
            method, key, total = row[0], tuple(row[1:5]), float(row[8])
            if method in self.cost.QGE_METHODS and total < cheapest.get(key, (float("inf"), ""))[0]:
                cheapest[key] = (total, method)
        if not cheapest:
            return ["no QGE rows"]
        return [f"{key}: {m} cheapest, not method-2" for key, (_, m) in cheapest.items()
                if m != "method-2"]

    # -------------------------------------------------------------- warm-up

    def warm_up(self) -> None:
        """Imports and lazy caches, on a small problem of the same kind."""
        from qgelab import verify

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the tiny problem trips the crowded-regime caution
            if self.workload == "gate":
                self.command(["cost", "--preset", "hubbard", "--out", "warm-up/cost"])
                self.command(["sweep", "--method", "method-1", "--out", "warm-up/sweep"])
                verify.polynomial_transform_suite(n_cases=2)
                verify.norm_identity_suite(max_modes=3)
                return
            tiny = replace(SIMULATE[self.workload], N=3, k=1, eta=1, eps=0.25, trials=2)
            for m in tiny.methods:
                self.command(self.sim_argv(tiny, m, f"warm-up/{m}"))


def _environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "commit": _git_commit(),
        "seed": seed, "blas_threads": os.environ["OMP_NUM_THREADS"], "jobs": 1,
    }


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git (absent in an export)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _measure(bench: Bench, seconds: int, trace: bool) -> tuple[dict, list[str]]:
    """Set up, then repeat passes for `seconds`; returns (metrics, report lines)."""
    sim = SIMULATE.get(bench.workload)
    bench.warm_up()
    if sim is None:
        problem = exact = None
    else:
        problem = bench.sim_setup(sim)[0]
        exact = bench.statevector.expectations(problem.observables, problem.state)

    def setup_sample() -> list[float]:
        if sim is None:
            times = bench.gate_setup(SETUP_REPEATS)
        else:
            times = [bench.sim_setup(sim)[1] for _ in range(SETUP_REPEATS)]
        return [min(times)] if times else []

    setup_times = setup_sample()

    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
    passes: list[dict] = []
    durations: list[float] = []
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() + statistics.median(durations) <= deadline:
        traced = trace and len(passes) % 2 == 0
        if traced:
            tracer.pass_index = len(passes)
            tracer.install()
            bench.tracer = tracer
        start = time.perf_counter()
        try:
            if sim is None:
                result = bench.gate_pass()
            else:
                result = bench.sim_pass(sim, problem, exact, direct=not trace)
        finally:
            if traced:
                tracer.uninstall()
                bench.tracer = None
        if not trace and len(passes) % 2 == 1:
            setup_times += setup_sample()
        durations.append(time.perf_counter() - start)
        result["traced"] = traced
        passes.append(result)

    lines = []
    if not trace:
        metrics = _end_to_end(passes, setup_times, lines)
    else:
        metrics = _per_layer(bench, tracer, passes, sim, problem, exact, lines)
    return metrics, lines


def _end_to_end(passes: list[dict], setup_times: list[float], lines: list[str]) -> dict:
    """The end-to-end metrics, each printed with the median and quartiles of its samples.

    On a shared 2-core Xeon VM the host's speed drifts between runs by more
    than the bounds: the same pure-Python loop timed 5.3 to 8.5 ms (median of
    each 25 s window) within ten minutes.  A run's median follows that drift;
    the fastest time of a short step, what the program costs when it gets the
    most of a core, moves about half as much.  So ``wall_s`` sums each of a
    pass's commands at its fastest in the run, and ``trials_per_s`` divides
    the trials of all methods by the sum of each method's fastest timed call
    (sweep calls on gate).  ``setup_s`` stays a median over the run.
    """
    commands = _fastest(passes, "command_s")
    calls = _fastest(passes, "call_s")
    trials = passes[0]["trials"] * len(calls)
    best = {
        "wall_s": sum(commands.values()),
        "setup_s": statistics.median(setup_times),
        "trials_per_s": trials / sum(calls.values()),
        "queries": passes[0]["queries"],  # exact: the CSV byte check holds it fixed
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    pass_rates = [trials / sum(statistics.fmean(s) for s in p["call_s"].values()) for p in passes]
    samples = {"wall_s": [p["wall_s"] for p in passes], "setup_s": setup_times,
               "trials_per_s": pass_rates, "queries": [best["queries"]],
               "peak_rss_mb": [best["peak_rss_mb"]]}
    how = {"wall_s": "fastest commands", "setup_s": "median", "trials_per_s": "fastest calls",
           "queries": "exact", "peak_rss_mb": "peak"}
    metrics = {}
    for name, value in best.items():
        unit = END_TO_END_UNITS[name]
        q1, med, q3 = _quartiles(samples[name])
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"{name:<24} {value:12.6g} {unit:<5} ({how[name]}; {len(samples[name])} "
                     f"samples, median {med:.6g}, quartiles {q1:.6g} .. {q3:.6g})")
    for name, seconds in calls.items():
        lines.append(f"trials_per_s.{name:<10} {passes[0]['trials'] / seconds:12.6g} 1/s "
                     f"(fastest call)")
    return metrics


def _fastest(passes: list[dict], key: str) -> dict[str, float]:
    """Each step's fastest seconds over all passes; p[key] maps step -> seconds list."""
    best: dict[str, float] = {}
    for p in passes:
        for step, seconds in p[key].items():
            best[step] = min(seconds + [best.get(step, math.inf)])
    return best


def _per_layer(bench, tracer, passes, sim, problem, exact, lines) -> dict:
    traced = [i for i, p in enumerate(passes) if p["traced"]]
    untraced = [p["wall_s"] for p in passes if not p["traced"]]
    timings: dict[str, list[float]] = {}
    counters = None
    for i in traced:
        t, c = tracer.layer_metrics(i)
        c["cli.export_bytes"] = passes[i]["export_bytes"]
        for name, value in t.items():
            timings.setdefault(name, []).append(value)
        if counters is None:
            counters = c
        elif c != counters:
            drift = sorted(k for k in c if c[k] != counters[k])
            bench.record("exact counters", [f"counters differ between passes: {drift}"])
    jobs2 = 0.0
    if bench.workload == "contract-m66":
        # Does the process pool pay?  The same trials on two workers.
        tracer.pass_index = -1
        tracer.install()
        try:
            for m in sim.methods:
                cli_max_mse = passes[traced[0]]["max_mse"].get(m)
                jobs2 += bench.run_many(sim, m, problem, exact, cli_max_mse, jobs=2)
        finally:
            tracer.uninstall()
    spans = OUT / f"spans-{bench.workload}-seed{bench.seed}.json"
    tracer.write(spans)
    lines.append(f"spans written to {spans.relative_to(ROOT)}")
    traced_wall = statistics.median(passes[i]["wall_s"] for i in traced)
    metrics = {name: {"value": statistics.median(v), "unit": "s" if name.endswith("_s") else "1/s"}
               for name, v in timings.items()}
    metrics.update({name: {"value": v, "unit": "ratio" if name.endswith("_ratio") else
                           "bytes" if name.endswith("_bytes") else "count"}
                    for name, v in counters.items()})
    metrics["engine.run_many.jobs2_s"] = {"value": jobs2, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_wall - statistics.median(untraced), "unit": "s"}
    for name in sorted(metrics):
        lines.append(f"{name:<34} {metrics[name]['value']:14.6g} {metrics[name]['unit']}")
    lines.append(f"traced passes {len(traced)}, untraced {len(untraced)}; "
                 f"traced wall_s {traced_wall:.6g}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64 or args.seconds < 1:
        parser.error("need 0 <= seed < 2^64 and seconds >= 1")
    _import_program()
    sys.path.insert(1, str(Path(__file__).resolve().parent))

    OUT.mkdir(exist_ok=True)
    env = _environment(args.seed)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="run-") as tmp:
        os.environ["QGE_LAB_OUT_DIR"] = tmp
        bench = Bench(args.workload, args.seed, Path(tmp))
        metrics, lines = _measure(bench, args.seconds, bool(args.trace))

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    for line in lines:
        print(line)
    failed = len(bench.failures)
    print(f"failed_share {failed / bench.attempted:.6g} ({failed} of {bench.attempted} operations)")
    for failure in bench.failures:
        print(f"FAILED {failure}")
    print(json.dumps({"correct": failed == 0, "attempted": bench.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark still finds every name it reads.

`perfbench/tracing.py` looks its targets up by name on the qgelab modules, so
a rename in `src/` would otherwise surface only when a traced benchmark run
(`perfbench/run.py --trace 1`) raises.  The file is read and executed in
memory: nothing is imported from, or written next to, the benchmark.
`perfbench/run.py` checks each simulate workload against the reference route:
the observables' expectations in `Problem.state`, the C(N, eta) sector
amplitudes from which the run path's exact vector comes.
"""

from __future__ import annotations

import types
from pathlib import Path

import numpy as np

from qgelab import cli, cost, engine, fermion, probe, statevector

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _load_tracing() -> types.ModuleType:
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_traced_target_exists():
    targets = _load_tracing().TARGETS
    assert targets
    missing = [
        f"{module.__name__}.{name}"
        for module, name, _ in targets
        if not callable(getattr(module, name, None))
    ]
    assert not missing, f"perfbench/tracing.py wraps names qgelab no longer has: {missing}"


def test_every_counter_hook_reads_a_real_output():
    # A hook reads its function's output (`len(out.trace)` on a run_adaptive
    # result, `out[0].ledger.total` on a run_many result); tier-1 otherwise
    # never runs the run_adaptive hook, so a change to what either returns
    # would first fail in a traced benchmark run.
    tracing = _load_tracing()
    hooked = {
        tracing._span_name(module, name): (getattr(module, name), hook)
        for module, name, hook in tracing.TARGETS
        if hook is not None
    }
    problem = engine.krdm_problem(4, 2, 2, np.random.default_rng(1))
    config = engine.ScheduleConfig(epsilon=0.25, method="method-1")
    aleph = engine.measured_aleph(problem, config)
    calls = {
        "fermion.krdm_observable_set": (3, 1),
        "fermion.estimation_observables": (fermion.krdm_observable_set(3, 1),),
        "probe.draw_readouts": (problem.exact, probe.make_grid(3), 5),
        "engine.run_many": (problem, config, 1, 3),
        "engine.run_adaptive": (problem.exact, aleph, config, np.random.default_rng(1)),
        "engine.measured_aleph": (problem, config),
    }
    assert set(calls) == set(hooked)
    counts = {}
    for name, args in calls.items():
        fn, hook = hooked[name]
        counts.update(hook(args, fn(*args), 0.5))
    sched, ledger = engine.price_run(problem.M, aleph, config)
    assert counts["engine.levels"] == len(sched.reps)
    assert counts["trials.method-1"] == 3
    assert counts["run_many_s.method-1"] == 0.5
    assert counts["queries.method-1"] == ledger.total
    assert counts["probe.readouts_drawn"] == 5 * problem.M
    assert counts["engine.aleph_calls"] == 1
    assert all(isinstance(v, (int, float)) for v in counts.values())


def test_traced_passes_count_the_same_work(tmp_path):
    # The traced benchmark run flags any exact counter that differs between
    # its passes, and its hooks read run_many's output: both would surface
    # only as a failed benchmark run without this check.
    tracer = _load_tracing().Tracer()
    trials = 3
    argv = ["simulate", "--N", "4", "--k", "2", "--eta", "2", "--eps", "0.25",
            "--trials", str(trials), "--seed", "1"]
    tracer.install()
    try:
        for index in (0, 1):
            tracer.pass_index = index
            for method in cost.QGE_METHODS:
                out = tmp_path / f"pass{index}-{method}"
                assert cli.main(argv + ["--method", method, "--out", str(out)]) == 0
        tracer.pass_index = 2
        problem = engine.krdm_problem(4, 2, 2, np.random.default_rng(1))
        engine.run_many(problem, engine.ScheduleConfig(epsilon=0.25), seed=1, trials=trials)
    finally:
        tracer.uninstall()
    assert not hasattr(engine.write_trace_csv, "__wrapped__")
    (timings, counters), (_, again) = tracer.layer_metrics(0), tracer.layer_metrics(1)
    assert counters == again
    # run_many runs its trials as batches; run_adaptive is the single-run entry point
    assert counters["engine.run_adaptive_calls"] == 0
    # simulate builds no sparse observable, takes no dense norm and no
    # statevector expectation: its exact vector and aleph come from ladder strings
    assert counters["fermion.built"] == 0
    assert counters["fermion.norm_calls"] == 0
    assert counters["statevector.expectations_calls"] == 0
    assert timings["cli.export_s"] > 0.0
    assert tracer.layer_metrics(2)[1]["engine.queries.method-1"] == counters["engine.queries.method-1"]


def test_reference_read_of_the_state_view_matches_the_exact_vector():
    # contract-m66's problem as the benchmark builds it: the CLI's seed split
    # for seed 1.  `Problem.state` returns the sector amplitudes, and only
    # this read uses it.  When run.py reads `problem.exact` instead, drop this
    # test and `Problem.state` with it.
    read = "statevector.expectations(problem.observables, problem.state)"
    assert read in (PERFBENCH / "run.py").read_text()
    state_ss, _ = np.random.SeedSequence(1).spawn(2)
    problem = engine.krdm_problem(4, 2, 2, np.random.default_rng(state_ss))
    reference = statevector.expectations(problem.observables, problem.state)
    assert np.abs(reference - problem.exact).max() <= 1e-12

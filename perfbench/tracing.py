"""Span tracer for the traced benchmark run.

The tracer wraps public qgelab functions on their own modules, so calls made
through the CLI and between modules (``engine.run_adaptive`` calling
``probe.draw_readouts``, ``verify`` calling ``fermion``) land in a span.  It is
installed only around the traced passes; the untraced passes call the
program unmodified.  Spans (name, start, end, parent, pass) and the exact work
counters are kept in memory and written out once, at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter, defaultdict

from qgelab import cost, encode, engine, fermion, probe, statevector, verify

QGE_METHODS = cost.QGE_METHODS

VERIFY_SUITES = (
    ("anticommutation", "anticommutation_suite"),
    ("polynomial_transform", "polynomial_transform_suite"),
    ("norm_identity", "norm_identity_suite"),
    ("probe_calibration", "probe_calibration_suite"),
    ("ledger_consistency", "ledger_consistency_suite"),
)


def _run_many_counts(args, out, seconds):
    method = args[1].method
    return {
        f"run_many_calls.{method}": 1,
        f"run_many_s.{method}": seconds,
        f"trials.{method}": len(out),
        f"queries.{method}": out[0].ledger.total,
    }


def _aleph_counts(args, out, seconds):
    # prior-qge's aleph is a closed form; only the sector methods eigensolve.
    return {"engine.aleph_calls": int(args[1].method != "prior-qge")}


# (module, function, counter hook).  The hook maps (positional args, result,
# span seconds) to counter increments; every wrapped function also counts its
# calls.
TARGETS = (
    (fermion, "krdm_observable_set", lambda a, out, s: {"fermion.built": len(out)}),
    (fermion, "estimation_observables",
     lambda a, out, s: {"fermion.kept": len(out), "fermion.filtered": len(a[0])}),
    (fermion, "sum_squares_sector_norm", None),
    (statevector, "expectations", None),
    (probe, "draw_readouts", lambda a, out, s: {"probe.readouts_drawn": out.size}),
    (probe, "readout_median", None),
    (probe, "parallel_single_shot", None),
    (engine, "run_many", _run_many_counts),
    (engine, "run_adaptive", lambda a, out, s: {"engine.levels": len(out.trace)}),
    (engine, "measured_aleph", _aleph_counts),
    (engine, "write_trace_csv", None),
    (cost, "iteration_schedule", None),
    (cost, "total_queries", None),
    (cost, "compare_table", None),
    (cost, "write_cost_csv", None),
    (encode, "eigen_poly_transform", None),
    (encode, "block_encode", None),
) + tuple((verify, fn, None) for _, fn in VERIFY_SUITES)


def _span_name(module, fn: str) -> str:
    return f"{module.__name__.rpartition('.')[2]}.{fn}"


class Tracer:
    """Records spans and counters while installed; restores the modules on uninstall."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int | None, int]] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.pass_index = 0
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module, fn, hook in TARGETS:
            original = getattr(module, fn)
            self._originals.append((module, fn, original))
            setattr(module, fn, self._wrap(_span_name(module, fn), original, hook))

    def uninstall(self) -> None:
        for module, fn, original in reversed(self._originals):
            setattr(module, fn, original)
        self._originals.clear()

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append((name, time.perf_counter(), 0.0, parent, self.pass_index))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> float:
        self._stack.pop()
        name, start, _, parent, pass_index = self.spans[index]
        end = time.perf_counter()
        self.spans[index] = (name, start, end, parent, pass_index)
        return end - start

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the benchmark itself opens, around one CLI command."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, name, original, hook):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                out = original(*args, **kwargs)
            finally:
                seconds = self._close(index)
            counts = self.counts[self.pass_index]
            counts[f"{name}.calls"] += 1
            if hook is not None:
                counts.update(hook(args, out, seconds))
            return out

        return traced

    # ------------------------------------------------------------ reporting

    def pass_times(self, pass_index: int) -> tuple[dict[str, float], dict[str, float]]:
        """Inclusive and self time per span name for one pass.

        Self time is a span's duration minus the time its child spans cover;
        calls are sequential, so children never overlap.
        """
        inclusive: dict[str, float] = defaultdict(float)
        child_time: dict[int, float] = defaultdict(float)
        for name, start, end, parent, p in self.spans:
            if p == pass_index and parent is not None:
                child_time[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent, p) in enumerate(self.spans):
            if p != pass_index:
                continue
            inclusive[name] += end - start
            own[name] += end - start - child_time[i]
        return inclusive, own

    def layer_metrics(self, pass_index: int) -> tuple[dict[str, float], dict[str, float]]:
        """Per-layer (timings, exact counters) of one traced pass."""
        inc, own = self.pass_times(pass_index)
        c = self.counts[pass_index]
        timings = {
            "fermion.build_s": inc["fermion.krdm_observable_set"] + inc["fermion.estimation_observables"],
            "fermion.norm_s": inc["fermion.sum_squares_sector_norm"],
            "statevector.expectations_s": inc["statevector.expectations"],
            "probe.draw_readouts_s": inc["probe.draw_readouts"],
            "probe.readout_median_s": inc["probe.readout_median"],
            "probe.parallel_single_shot_s": inc["probe.parallel_single_shot"],
            "engine.run_many_s": inc["engine.run_many"],
            "engine.run_adaptive_self_s": own["engine.run_adaptive"],
            "engine.aleph_s": inc["engine.measured_aleph"],
            "cost.total_queries_s": inc["cost.total_queries"],
            "cost.compare_table_s": inc["cost.compare_table"],
            "encode.eigen_poly_transform_s": inc["encode.eigen_poly_transform"],
            "encode.block_encode_s": inc["encode.block_encode"],
            "cli.export_s": inc["engine.write_trace_csv"] + inc["cost.write_cost_csv"],
        }
        for short, fn in VERIFY_SUITES:
            timings[f"verify.{short}_s"] = inc[f"verify.{fn}"]
        counters = {
            "fermion.built": c["fermion.built"],
            "fermion.kept_ratio": c["fermion.kept"] / c["fermion.filtered"] if c["fermion.filtered"] else 0.0,
            "fermion.norm_calls": c["fermion.sum_squares_sector_norm.calls"],
            "statevector.expectations_calls": c["statevector.expectations.calls"],
            "probe.readouts_drawn": c["probe.readouts_drawn"],
            "engine.run_adaptive_calls": c["engine.run_adaptive.calls"],
            "engine.levels": c["engine.levels"],
            "engine.aleph_calls": c["engine.aleph_calls"],
            "cost.schedule_calls": c["cost.iteration_schedule.calls"],
        }
        for m in QGE_METHODS:
            calls = c[f"run_many_calls.{m}"]
            # Every trial of one method charges the same ledger total.
            counters[f"engine.queries.{m}"] = c[f"queries.{m}"] / calls if calls else 0.0
            timings[f"engine.trials_per_s.{m}"] = (
                c[f"trials.{m}"] / c[f"run_many_s.{m}"] if calls else 0.0
            )
        return timings, counters

    def write(self, path) -> None:
        rows = [
            {"name": n, "start": s, "end": e, "parent": p, "pass": k}
            for n, s, e, p, k in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"spans": rows}, fh)

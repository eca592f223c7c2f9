"""The benchmark's span tracer still finds every function it wraps.

`perfbench/tracing.py` looks its targets up by name on the qgelab modules, so
a rename in `src/` would otherwise surface only when a traced benchmark run
(`perfbench/run.py --trace 1`) raises.  The file is read and executed in
memory: nothing is imported from, or written next to, the benchmark.
"""

from __future__ import annotations

import types
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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

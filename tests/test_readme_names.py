"""Every code name the README gives as `module.name` exists in qgelab.

A backticked span names code when it holds `qgelab.name`, or `module.name`
(with or without `qgelab.` before it) where `module` is one of qgelab's
modules; a longer dotted path such as `cli.RunConfig.validate` names an
attribute of an attribute.  Each such name must resolve, so a rename or a
deletion that leaves the README behind fails here.  Names of other libraries
(`np.unique`) and file names (`pyproject.toml`) are not qgelab's and are not
checked.  `perfbench/README.md` mixes metric names with code names and stays
out of the scan.
"""

from __future__ import annotations

import importlib
import pkgutil
import re
from pathlib import Path

import qgelab

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = sorted(info.name for info in pkgutil.iter_modules(qgelab.__path__))


def _named(text: str, modules: list[str]) -> set[str]:
    """Dotted code names in the backticked spans of `text`, without a `qgelab.` prefix;
    a bare `qgelab.name` is kept whole."""
    module = "|".join(map(re.escape, modules))
    dotted = re.compile(rf"(?<![\w.])(?:qgelab\.)?((?:{module})(?:\.\w+)+)(?![\w.])")
    top = re.compile(r"(?<![\w.])(qgelab\.\w+)(?![\w.])")
    out = set()
    for span in re.findall(r"`([^`\n]+)`", text):
        out |= set(dotted.findall(span))
        out |= {name for name in top.findall(span) if name.partition(".")[2] not in modules}
    return out


def _unresolved(names: set[str]) -> list[str]:
    """The names that are not an attribute path of qgelab or of one of its modules."""
    missing = []
    for name in sorted(names):
        head, *rest = name.split(".")
        target = qgelab if head == "qgelab" else importlib.import_module(f"qgelab.{head}")
        for attr in rest:
            if not hasattr(target, attr):
                missing.append(name)
                break
            target = getattr(target, attr)
    return missing


def test_scan_finds_module_names():
    text = (
        "`probe.MAX_GRID_BITS` and `qgelab.engine.run_many(problem)`, "
        "`qgelab.cli`, `qgelab.expectations`, `cli.RunConfig.validate`, "
        "`np.unique`, `pyproject.toml`, `tests/register_oracle.py`, `cost.gone`, "
        "probe.outside_backticks"
    )
    names = _named(text, ["cli", "cost", "engine", "probe"])
    assert names == {
        "probe.MAX_GRID_BITS", "engine.run_many", "qgelab.expectations",
        "cli.RunConfig.validate", "cost.gone",
    }
    assert _unresolved(names) == ["cost.gone"]


def test_readme_names_resolve():
    names = _named(README.read_text(encoding="utf-8"), MODULES)
    assert len(names) >= 20, names  # the scan still reads the layout table
    missing = _unresolved(names)
    assert not missing, f"README.md names code that qgelab does not have: {missing}"

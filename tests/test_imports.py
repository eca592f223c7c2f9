"""Every imported name in the project's own Python files is used."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Package __init__ files import names to re-export them.
FILES = sorted(
    path
    for folder in ("src", "tests", "scripts")
    for path in (ROOT / folder).rglob("*.py")
    if path.name != "__init__.py"
)


def _imported(tree: ast.AST) -> dict[str, int]:
    """Name bound by each import (module `a.b` binds `a`) -> its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
    return names


def _unused(source: str) -> dict[str, int]:
    """Imported names that no `Name` node of the source refers to -> import line."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {name: line for name, line in _imported(tree).items() if name not in used}


def test_scan_covers_the_project():
    names = {path.name for path in FILES}
    assert {"probe.py", "test_probe.py", "run_mse_study.py"} <= names


def test_scan_flags_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from json import dumps as d\n"
        "os.sep\n"
    )
    assert _unused(source) == {"math": 2, "d": 4}


def test_no_unused_imports():
    problems = [
        f"{path.relative_to(ROOT)}:{line} imports {name!r}, never used"
        for path in FILES
        for name, line in _unused(path.read_text()).items()
    ]
    assert not problems, "\n".join(problems)

"""Each input bound of the cost model and the probe is compared in one function.

`cost.EPSILON_MIN`, `C_MIN`, `C_MAX`, `N_MAX`, `M_MAX` and
`probe.MAX_GRID_BITS` name the bounds the program represents.  A second
comparison against one of them is a second copy of its rule, which can drift
from the first; every other site calls the function that holds it.  The scan
reads each comparison in `src/qgelab` and the innermost function around it.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qgelab"
BOUNDS = ("EPSILON_MIN", "C_MIN", "C_MAX", "N_MAX", "M_MAX", "MAX_GRID_BITS")


def _comparing_functions(sources: dict[str, str]) -> dict[str, set[str]]:
    """For each bound, the `module.qualified.name` of every function that compares it."""
    found: dict[str, set[str]] = {bound: set() for bound in BOUNDS}

    def visit(node: ast.AST, module: str, where: list[str], inside: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = where + [node.name]
            if not isinstance(node, ast.ClassDef):
                inside = ".".join([module] + where)
        if isinstance(node, ast.Compare) and inside is not None:
            for part in ast.walk(node):
                name = part.attr if isinstance(part, ast.Attribute) else getattr(part, "id", None)
                if name in found:
                    found[name].add(inside)
        for child in ast.iter_child_nodes(node):
            visit(child, module, where, inside)

    for module, source in sources.items():
        visit(ast.parse(source), module, [], None)
    return found


def test_scan_finds_comparisons_in_functions_and_methods():
    sources = {
        "a": (
            "LIMIT = N_MAX\n"  # not a comparison
            "def check(n):\n    return n > N_MAX\n"
            "class Config:\n"
            "    def __post_init__(self):\n"
            "        if not cost.C_MIN <= self.c <= cost.C_MAX + 1e-15:\n            pass\n"
        ),
        "b": "def f(c: float = cost.C_MAX):\n    return [c for c in () if c < C_MAX]\n",
    }
    found = _comparing_functions(sources)
    assert found["N_MAX"] == {"a.check"}
    assert found["C_MIN"] == {"a.Config.__post_init__"}
    assert found["C_MAX"] == {"a.Config.__post_init__", "b.f"}
    assert found["EPSILON_MIN"] == set()


def test_each_bound_is_compared_in_one_function():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    found = _comparing_functions(sources)
    assert {bound: len(where) for bound, where in found.items()} == dict.fromkeys(BOUNDS, 1), found
    assert not any("cli.RunConfig.validate" in where for where in found.values())

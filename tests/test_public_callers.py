"""Every public top-level function or class in `src/qgelab` has a caller.

A definition counts as used when its name appears outside its own body: as a
name, an attribute or a string constant (the benchmark tracer looks its
targets up by string) in `src/`, `scripts/` or `perfbench/`.  Re-exports in
`__init__.py` do not count, and neither do tests: code that only its own
tests run is surface to delete.  The match is by bare name, so the scan errs
toward passing when two modules share a name.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted(
    path for path in (ROOT / "src" / "qgelab").glob("*.py") if path.name != "__init__.py"
)
OUTSIDE = sorted(
    path for folder in ("scripts", "perfbench") for path in (ROOT / folder).rglob("*.py")
)

# Kept without a caller in the program, each for a stated reason.
ALLOWED = {
    "build_ladder_monomial": "test oracle for the k-body set",
    "readout_distribution": "test oracle for the engine's readout law",
    "phase_encoding_deviation": "the argument for feeding exact expectations to the probes",
    "basis_state": "test fixture",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _references(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names, attribute names and string constants in `tree`, outside `skip`."""
    skipped = {id(node) for node in ast.walk(skip)} if skip is not None else set()
    out = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def _uncalled(package: dict[str, str], outside: list[str]) -> list[str]:
    """`module.name` of each public top-level definition in `package` that nothing references."""
    trees = {module: ast.parse(source) for module, source in package.items()}
    refs = {module: _references(tree) for module, tree in trees.items()}
    external = set().union(*(_references(ast.parse(source)) for source in outside))
    found = []
    for module, tree in trees.items():
        elsewhere = external.union(*(r for m, r in refs.items() if m != module))
        for node in tree.body:
            if not isinstance(node, _DEFS) or node.name.startswith("_"):
                continue
            if node.name not in elsewhere | _references(tree, skip=node):
                found.append(f"{module}.{node.name}")
    return found


def _project_uncalled() -> list[str]:
    package = {path.stem: path.read_text() for path in PACKAGE}
    return _uncalled(package, [path.read_text() for path in OUTSIDE])


def test_scan_covers_the_project():
    assert {"probe", "cli", "__main__"} <= {path.stem for path in PACKAGE}
    assert {"run_cost_figures.py", "tracing.py"} <= {path.name for path in OUTSIDE}


def test_scan_flags_an_uncalled_definition():
    package = {
        "a": (
            "def used():\n    return 1\n"
            "def dead():\n    return dead()\n"  # recursion is its own body
            "def _private():\n    return 2\n"
            "class Kept:\n    pass\n"
            "def traced():\n    return 3\n"
        ),
        "b": "from .a import used\nused()\nx = Kept()\n",
    }
    outside = ["TARGETS = ('traced',)\n"]
    assert _uncalled(package, outside) == ["a.dead"]


def test_every_public_definition_has_a_caller():
    uncalled = [name for name in _project_uncalled() if name.partition(".")[2] not in ALLOWED]
    assert not uncalled, (
        f"public definitions nothing in src/, scripts/ or perfbench/ uses: {uncalled}; "
        "wire them in or delete them with their tests"
    )


def test_allowlist_is_current():
    uncalled = {name.partition(".")[2] for name in _project_uncalled()}
    assert uncalled >= set(ALLOWED), f"allowlisted but now used or gone: {set(ALLOWED) - uncalled}"

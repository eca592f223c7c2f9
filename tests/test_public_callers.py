"""Every top-level function or class in `src/qgelab`, public or private, has a
caller, and every dataclass field or property in it has a reader.

A definition counts as used when its name appears outside its own body: as a
name, an attribute or a string constant (the benchmark tracer looks its
targets up by string) in `src/`, `scripts/` or `perfbench/`.  A field or
property counts as read when an attribute load or a string constant there
names it; a constructor keyword or an assignment does not.  Re-exports in
`__init__.py` do not count, and neither do tests: code that only its own
tests run is surface to delete, or a test oracle to move into its test.  The
match is by bare name, so the scan errs toward passing when two modules share
a name.
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

# Dataclass fields and properties kept without a reader in the program.
ALLOWED_FIELDS = {
    "Schedule.q_max": "the level count of a schedule, which the schedule tests pin",
    "Schedule.deltas": "the failure budget that acceptance criterion 8 sums",
    "Observable.part": "the Re/Im half a label names, which the k-body set tests compare",
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
    """`module.name` of each top-level definition in `package` that nothing references."""
    trees = {module: ast.parse(source) for module, source in package.items()}
    refs = {module: _references(tree) for module, tree in trees.items()}
    external = set().union(*(_references(ast.parse(source)) for source in outside))
    found = []
    for module, tree in trees.items():
        elsewhere = external.union(*(r for m, r in refs.items() if m != module))
        for node in tree.body:
            if not isinstance(node, _DEFS):
                continue
            if node.name not in elsewhere | _references(tree, skip=node):
                found.append(f"{module}.{node.name}")
    return found


def _project_sources() -> tuple[dict[str, str], list[str]]:
    """The package's sources by module name, and the sources outside it."""
    return {path.stem: path.read_text() for path in PACKAGE}, [path.read_text() for path in OUTSIDE]


def _project_uncalled() -> list[str]:
    return _uncalled(*_project_sources())


def _decorator_name(node: ast.expr) -> str | None:
    target = node.func if isinstance(node, ast.Call) else node
    if isinstance(target, ast.Attribute):
        return target.attr
    return target.id if isinstance(target, ast.Name) else None


def _reads(tree: ast.AST) -> set[str]:
    """Attribute names loaded and string constants in `tree`."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def _members(cls: ast.ClassDef) -> list[str]:
    """Field and property names of one class body."""
    out = []
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            out.append(node.target.id)
        elif isinstance(node, ast.FunctionDef) and any(
            _decorator_name(d) in ("property", "cached_property") for d in node.decorator_list
        ):
            out.append(node.name)
    return out


def _unread_fields(package: dict[str, str], outside: list[str]) -> list[str]:
    """`Class.name` of each dataclass field or property in `package` that nothing reads."""
    trees = [ast.parse(source) for source in package.values()]
    reads = set().union(*(_reads(tree) for tree in trees + [ast.parse(s) for s in outside]))
    found = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and any(
                _decorator_name(d) == "dataclass" for d in node.decorator_list
            ):
                found += [f"{node.name}.{m}" for m in _members(node) if m not in reads]
    return found


def _project_unread_fields() -> list[str]:
    return _unread_fields(*_project_sources())


def test_scan_covers_the_project():
    assert {"probe", "cli", "__main__"} <= {path.stem for path in PACKAGE}
    assert {"run_cost_figures.py", "tracing.py"} <= {path.name for path in OUTSIDE}


def test_scan_flags_an_uncalled_definition():
    package = {
        "a": (
            "def used():\n    return _private()\n"
            "def dead():\n    return dead()\n"  # recursion is its own body
            "def _private():\n    return 2\n"
            "class Kept:\n    pass\n"
            "def traced():\n    return 3\n"
        ),
        "b": "from .a import used\nused()\nx = Kept()\n",
    }
    outside = ["TARGETS = ('traced',)\n"]
    assert _uncalled(package, outside) == ["a.dead"]


def test_scan_flags_an_uncalled_private_definition():
    package = {
        "a": (
            "def run():\n    return _helper() + _Row()\n"
            "def _helper():\n    return 1\n"
            "class _Row:\n    pass\n"
            "def _orphan(n):\n    return _orphan(n - 1)\n"  # recursion is its own body
            "class _Unused:\n    pass\n"
            "def _shared():\n    return 2\n"
            "def _traced():\n    return 3\n"
        ),
        "b": "from .a import _shared, run\nrun() + _shared()\n",
    }
    outside = ["TARGETS = ('_traced',)\n"]
    assert _uncalled(package, outside) == ["a._orphan", "a._Unused"]


def test_every_public_definition_has_a_caller():
    uncalled = [name for name in _project_uncalled() if name.partition(".")[2] not in ALLOWED]
    assert not uncalled, (
        f"definitions nothing in src/, scripts/ or perfbench/ uses: {uncalled}; "
        "wire them in, delete them with their tests, or move a test oracle into its test"
    )


def test_scan_flags_an_unread_field():
    package = {
        "a": (
            "from dataclasses import dataclass\n"
            "from functools import cached_property\n"
            "@dataclass(frozen=True)\n"
            "class Row:\n"
            "    read: int\n"
            "    traced: int\n"
            "    unread: int\n"
            "    @property\n"
            "    def derived(self):\n"
            "        return self.read\n"
            "    @cached_property\n"
            "    def lazy(self):\n"
            "        return 1\n"
            "class Plain:\n"
            "    ignored: int\n"
        ),
        # a constructor keyword and an assignment write a field; they do not read it
        "b": (
            "from .a import Row\n"
            "row = Row(read=1, traced=2, unread=3)\n"
            "row.lazy = 0\n"
            "row.derived\n"
        ),
    }
    outside = ["NAMES = ('traced',)\n"]
    assert _unread_fields(package, outside) == ["Row.unread", "Row.lazy"]


def test_every_dataclass_field_has_a_reader():
    unread = [name for name in _project_unread_fields() if name not in ALLOWED_FIELDS]
    assert not unread, (
        f"dataclass fields or properties nothing in src/, scripts/ or perfbench/ reads: {unread}; "
        "read them or delete them"
    )


def test_allowlist_is_current():
    uncalled = {name.partition(".")[2] for name in _project_uncalled()}
    assert uncalled >= set(ALLOWED), f"allowlisted but now used or gone: {set(ALLOWED) - uncalled}"
    unread = set(_project_unread_fields())
    assert unread >= set(ALLOWED_FIELDS), (
        f"field allowlist entries now read or gone: {set(ALLOWED_FIELDS) - unread}"
    )

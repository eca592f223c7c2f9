"""Every top-level function or class in `src/qgelab`, public or private, has a
caller, every dataclass field or property in it has a reader, every defaulted
parameter or dataclass field default in it is a knob some call turns, and
every exception class in it is one some `except` clause names.

A definition counts as used when its name appears outside its own body: as a
name, an attribute or a string constant (the benchmark tracer looks its
targets up by string) in `src/`, `scripts/` or `perfbench/`.  A field or
property counts as read when an attribute load or a string constant there
names it; a constructor keyword or an assignment does not.  Re-exports in
`__init__.py` do not count, and neither do tests: code that only its own
tests run is surface to delete, or a test oracle to move into its test.  The
match is by bare name, so the scan errs toward passing when two modules share
a name.

A knob counts as turned when a call in `src/`, `scripts/` or `perfbench/`
that names its function or dataclass passes it, by keyword or by position; a
call that unpacks `*args` or `**kwargs` passes every position or every
keyword.  A default that nothing overrides is a constant in disguise, and one
that only tests turn is an alternative no program path takes.

An exception class counts as caught when an `except` clause in `src/`,
`scripts/` or `perfbench/` names it.  One that nothing catches by name tells
no caller anything a `ValueError` with the same message would not.
"""

from __future__ import annotations

import ast
import builtins
import math
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
    "readout_distribution": "test oracle for the engine's readout law",
    "phase_encoding_deviation": "the argument for feeding exact expectations to the probes",
}

# Dataclass fields and properties kept without a reader in the program.
ALLOWED_FIELDS = {
    "Schedule.deltas": "the failure budget that acceptance criterion 8 sums",
}

# Defaulted parameters no program call passes, kept for a stated reason.
ALLOWED_KNOBS = {
    "cli._print_warning(file, line)": "warnings.showwarning fixes the signature",
    "probe.encode_register(noise, rng)": "test oracle: the register route under noise",
    "probe.readout_distribution(window)": "test oracle: the register route's readout law",
    "probe.draw_readouts(noise, rng)": "test oracle: the brute-force sampler",
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


def _bare_name(node: ast.expr) -> str | None:
    """The name a decorator, a base class or a call refers to, without its module."""
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
            _bare_name(d) in ("property", "cached_property") for d in node.decorator_list
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
                _bare_name(d) == "dataclass" for d in node.decorator_list
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


def _defaulted(args: ast.arguments, skip: int) -> list[tuple[int | None, str]]:
    """(position a caller passes it at, or None for keyword-only; name) of each defaulted
    parameter, after the first `skip` positions (a method's `self`)."""
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = [(i - skip, arg.arg) for i, arg in enumerate(positional) if i >= first]
    out += [(None, arg.arg) for arg, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def _knobs(tree: ast.Module) -> list[tuple[str, str, list[tuple[int | None, str]]]]:
    """(qualified name, the name a call uses, defaulted parameters) of each top-level
    function, method and dataclass in `tree`."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            out.append((node.name, node.name, _defaulted(node.args, 0)))
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    qualified = f"{node.name}.{item.name}"
                    out.append((qualified, item.name, _defaulted(item.args, 1)))
            if any(_bare_name(d) == "dataclass" for d in node.decorator_list):
                fields = [
                    item for item in node.body
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                ]
                out.append((node.name, node.name, [
                    (i, item.target.id) for i, item in enumerate(fields) if item.value is not None
                ]))
    return out


def _passed(sources: list[str]) -> dict[str, tuple[float, set[str]]]:
    """For each callee name: the most positions any call passes, and the keywords passed.

    An unpacked `*args` passes every position and an unpacked `**kwargs` every
    keyword, which the name "**" stands for.
    """
    out: dict[str, tuple[float, set[str]]] = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name is None:
                continue
            most, keywords = out.get(name, (0, set()))
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            count = math.inf if starred else len(node.args)
            keywords |= {kw.arg or "**" for kw in node.keywords}
            out[name] = (max(most, count), keywords)
    return out


def _unturned_knobs(package: dict[str, str], callers: list[str]) -> list[str]:
    """`module.name(param, ...)` of each definition in `package` with a defaulted
    parameter or field that no call in `package` or `callers` passes."""
    passed = _passed(list(package.values()) + callers)
    found = []
    for module, source in package.items():
        for qualified, callee, knobs in _knobs(ast.parse(source)):
            most, keywords = passed.get(callee, (0, set()))
            unturned = [
                name for position, name in knobs
                if name not in keywords and "**" not in keywords
                and (position is None or position >= most)
            ]
            if unturned:
                found.append(f"{module}.{qualified}({', '.join(unturned)})")
    return found


def _project_unturned_knobs() -> list[str]:
    return _unturned_knobs(*_project_sources())


def test_scan_flags_an_unturned_knob():
    package = {
        "a": (
            "from dataclasses import dataclass, field\n"
            "def run(x, by_key=1, by_position=2, never=3, *, kw=4, kw_never=5):\n"
            "    return x\n"
            "def spread(x, a=1, b=2):\n"
            "    return x\n"
            "def configure(a=1, b=2):\n"
            "    return a\n"
            "class Tool:\n"
            "    def use(self, n=1, m=2):\n"
            "        return n\n"
            "@dataclass\n"
            "class Row:\n"
            "    name: str\n"
            "    size: int = 0\n"
            "    flag: bool = field(default=False)\n"
            "    tag: str = ''\n"
        ),
        "b": (
            "from .a import Row, Tool, run, spread\n"
            "run(0, 1, by_key=2, kw=3)\n"
            "run(0, 1, 2)\n"  # by_position is the third positional argument
            "spread(*args)\n"
            "configure(**options)\n"
            "Tool().use(5)\n"  # n, not self, is the first positional argument
            "Row('x', 1)\n"
        ),
    }
    callers = ["Row(name='y', flag=True)\n"]
    assert _unturned_knobs(package, callers) == [
        "a.run(never, kw_never)",
        "a.Tool.use(m)",
        "a.Row(tag)",
    ]


def test_every_knob_is_turned():
    unturned = [name for name in _project_unturned_knobs() if name not in ALLOWED_KNOBS]
    assert not unturned, (
        f"defaulted parameters or fields no call in src/, scripts/ or perfbench/ "
        f"passes: {unturned}; make them constants, or pass them"
    )


def test_knob_allowlist_is_current():
    unturned = set(_project_unturned_knobs())
    assert unturned >= set(ALLOWED_KNOBS), (
        f"knob allowlist entries now passed or gone: {set(ALLOWED_KNOBS) - unturned}"
    )


def _uncaught(package: dict[str, str], outside: list[str]) -> list[str]:
    """`module.Class` of each exception class in `package` that no `except` clause names.

    A class is an exception class when it derives from a builtin exception or
    from another exception class of the package.
    """
    classes = {
        (module, node.name): [_bare_name(base) or "" for base in node.bases]
        for module, source in package.items()
        for node in ast.parse(source).body if isinstance(node, ast.ClassDef)
    }
    builtin = {
        name for name, value in vars(builtins).items()
        if isinstance(value, type) and issubclass(value, BaseException)
    }
    exceptions: set[str] = set()
    for _ in range(len(classes) + 1):  # a chain of package bases is at most this long
        exceptions |= {
            name for (_, name), bases in classes.items() if (builtin | exceptions) & set(bases)
        }
    caught = set()
    for source in list(package.values()) + outside:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught |= _references(node.type)
    return [f"{m}.{name}" for m, name in classes if name in exceptions - caught]


def test_scan_flags_an_uncaught_exception_class():
    package = {
        "a": (
            "class Caught(Exception):\n    pass\n"
            "class Inherited(Caught):\n    pass\n"  # an exception through its package base
            "class Elsewhere(ValueError):\n    pass\n"
            "class Plain:\n    pass\n"
            "def run():\n    raise Inherited('x')\n"
        ),
        "b": (
            "from . import a\n"
            "try:\n    a.run()\nexcept (a.Caught, KeyError):\n    pass\n"
        ),
    }
    outside = ["try:\n    pass\nexcept Elsewhere as exc:\n    raise\n"]
    assert _uncaught(package, outside) == ["a.Inherited"]
    assert _uncaught(package, []) == ["a.Inherited", "a.Elsewhere"]


def test_every_exception_class_is_caught():
    uncaught = _uncaught(*_project_sources())
    assert not uncaught, (
        f"exception classes no except clause in src/, scripts/ or perfbench/ names: "
        f"{uncaught}; raise ValueError with the same message, or catch them"
    )

"""A guard generated from `cli._FLAGS`: no flag or config key is silently dropped.

For each command and each key of the table:

- a key the command never reads exits 1 with "never reads", typed and, for
  a key with a config section, from a config file;
- a key the command reads, changed away from one small base point, changes
  an output file or stdout (the provenance line and the output directory
  masked), or exits 1;
- no input raises.

`verify`'s suites are replaced by a stub that prints the arguments it was
handed, so the guard checks what the command passes on in milliseconds; the
suites themselves are tested in `test_verify.py`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import re
from unittest import mock

import pytest

from qgelab import cli, verify

pytestmark = pytest.mark.filterwarnings("ignore:.*crowded.*")

# One small base point per command: the typed values, True for a switch.
BASE = {
    "simulate": {"N": "4", "k": "2", "eta": "2", "eps": "0.25", "trials": "2", "seed": "1"},
    "cost": {"N": "4", "k": "2", "eta": "2"},
    "sweep": {"N": "4", "k": "2", "eta": "2"},
    "verify": {"quick": True},
}
# A valid value for each key that differs from every base point.  A switch
# is flipped instead.
CHANGED = {
    "config": None,  # a path, made by each test that passes one
    "out": "other",
    "N": "5", "k": "1", "eta": "3", "pauli": "Z", "state": "one",
    "eps": "0.2", "method": "method-2", "c": "0.01", "p": "4", "window": "sine",
    "trials": "3", "seed": "2", "jobs": "2", "phase_jitter": "1", "fail_prob": "0.5",
    "preset": "hubbard", "methods": "method-2", "prefactor": "method-2=50",
    "eps_max": "0.25", "eps_min": "0.001", "tol": "1e-8",
}
# Keys a command reads that change no output, each for a stated reason.
INVARIANT = {
    ("simulate", "jobs"): "trials are seed-split, so the results do not depend on the workers",
    ("sweep", "seed"): "the sweep draws no state: the seed reaches only the provenance line",
}

COMMANDS = tuple(BASE)
# `config` is a source of values, not a value: every config-file case below passes it.
READ = [
    (cmd, f.name) for cmd in COMMANDS for f in cli._FLAGS
    if cmd in f.readers and f.name != "config"
]
UNREAD = [(cmd, f.name) for cmd in COMMANDS for f in cli._FLAGS if cmd not in f.readers]


class _Echo:
    """A passing suite whose line names the arguments verify.run_all received."""

    passed = True
    details = ()

    def __init__(self, kwargs):
        self.kwargs = kwargs

    def line(self):
        return f"[PASS] echo {sorted(self.kwargs.items())}"


def _argv(command: str, values: dict) -> list[str]:
    argv = [command]
    for key, value in values.items():
        argv += [cli._BY_NAME[key].option] + ([] if value is True else [value])
    return argv


def _changed(values: dict, key: str) -> dict:
    out = dict(values)
    if cli._BY_NAME[key].action == "store_true":
        if out.pop(key, None) is None:
            out[key] = True
    else:
        out[key] = CHANGED[key]
    return out


def _run(folder, argv):
    """Exit code, stderr and the masked outputs of one in-process command."""
    folder.mkdir(parents=True, exist_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"QGE_LAB_OUT_DIR": str(folder)}), \
            mock.patch.object(verify, "run_all", lambda **kwargs: [_Echo(kwargs)]), \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    files = {
        path.name: re.sub(r"(?m)^# provenance,.*$", "", path.read_text())
        for path in sorted(folder.glob("*.csv"))
    }
    return code, stderr.getvalue(), (stdout.getvalue().replace(str(folder), "OUT"), files)


@pytest.fixture(scope="module")
def base_outputs(tmp_path_factory):
    cache = {}

    def get(command):
        if command not in cache:
            folder = tmp_path_factory.mktemp(command)
            code, err, outputs = _run(folder, _argv(command, BASE[command]))
            assert code == 0, err
            cache[command] = outputs
        return cache[command]

    return get


def test_guard_covers_every_key():
    switches = {f.name for f in cli._FLAGS if f.action == "store_true"}
    assert set(CHANGED) == set(cli._BY_NAME) - switches
    assert set(INVARIANT) <= set(READ)


@pytest.mark.parametrize("command,key", UNREAD, ids=[f"{c}-{k}" for c, k in UNREAD])
def test_unread_key_exits_one(tmp_path, command, key):
    if key == "config":
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("")
        argv = _argv(command, {**BASE[command], "config": str(cfg)})
    else:
        argv = _argv(command, _changed(BASE[command], key))
    code, err, (_, files) = _run(tmp_path / "out", argv)
    assert code == 1
    assert f"{command} never reads {cli._BY_NAME[key].option}" in err
    assert not files
    section = cli._BY_NAME[key].section
    if section is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[{section}]\n{key} = {CHANGED[key]}\n")
        argv = _argv(command, {**BASE[command], "config": str(cfg)})
        code, err, (_, files) = _run(tmp_path / "file", argv)
        assert code == 1
        assert "never reads" in err and f"{key} in {cfg}" in err
        assert not files


@pytest.mark.parametrize("command,key", READ, ids=[f"{c}-{k}" for c, k in READ])
def test_read_key_changes_an_output_or_exits_one(tmp_path, base_outputs, command, key):
    code, err, outputs = _run(tmp_path / "typed", _argv(command, _changed(BASE[command], key)))
    if (command, key) in INVARIANT:
        assert code == 0, err
        assert outputs == base_outputs(command)
        return
    assert code == 1 or outputs != base_outputs(command), err
    section = cli._BY_NAME[key].section
    if section is not None and command in cli._BY_NAME["config"].readers:
        # the same value from a config file lands where the typed one does
        base = {k: v for k, v in BASE[command].items() if k != key}
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[{section}]\n{key} = {CHANGED[key]}\n")
        argv = _argv(command, {**base, "config": str(cfg)})
        file_code, _, file_outputs = _run(tmp_path / "file", argv)
        assert file_code == code
        assert file_outputs == outputs


@pytest.mark.parametrize("command", COMMANDS)
def test_help_lists_exactly_the_flags_read(command):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"(?<![\w-])--[\w-]+", stdout.getvalue())) - {"--help"}
    shown = {f.option for f in cli._FLAGS if command in f.readers and f.help != argparse.SUPPRESS}
    assert listed == shown

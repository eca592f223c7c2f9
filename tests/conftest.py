"""Shared fixtures."""

import numpy as np
import pytest

from qgelab import fermion


def _apply_ladder_missing_parity_string(state, sign, modes):
    """Deliberately wrong `fermion._apply_ladder`: flips each mode's bit without the sign string."""
    modes = np.asarray(modes, dtype=np.int64)
    alive = np.ones(np.broadcast_shapes(np.shape(state), modes.shape[:-1] + (1,)), dtype=bool)
    for i in reversed(range(modes.shape[-1])):
        m = modes[..., i, None]
        alive &= ((state >> m) & 1) == 1
        state = state ^ (1 << m)
    return alive, state, sign * np.ones(alive.shape)


@pytest.fixture
def dropped_parity(monkeypatch):
    """The ladder kernel drops its parity string from here on: the classic sign bug.

    `verify.anticommutation_suite` must then fail.  Returns the mutant kernel.
    """
    monkeypatch.setattr(fermion, "_apply_ladder", _apply_ladder_missing_parity_string)
    return _apply_ladder_missing_parity_string

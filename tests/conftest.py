"""Shared fixtures."""

import numpy as np
import pytest
from scipy import sparse

from qgelab import fermion


def _annihilation_missing_parity_string(p: int, N: int) -> sparse.csr_matrix:
    """Deliberately wrong ladder matrix: clears the mode without the sign string."""
    dim = 1 << N
    states = np.arange(dim, dtype=np.int64)
    occupied = ((states >> p) & 1) == 1
    rows = (states & ~np.int64(1 << p))[occupied]
    return sparse.csr_matrix(
        (np.ones(int(occupied.sum())), (rows, states[occupied])), shape=(dim, dim)
    )


@pytest.fixture
def dropped_parity(monkeypatch):
    """Every ladder matrix built from here on drops its parity string: the classic sign bug.

    `verify.anticommutation_suite` must then fail.  Returns the mutant builder.
    """
    monkeypatch.setattr(fermion, "annihilation_operator", _annihilation_missing_parity_string)
    return _annihilation_missing_parity_string

"""Sparse test oracles: ladder-operator matrices one string at a time.

The program never forms these matrices.  `fermion._apply_ladder` tracks
basis states through ladder strings, and `krdm_expectations`, `krdm_stack`
and `verify`'s anticommutation suite scatter its stacked output directly.
Here each string is tracked on its own and scattered into a CSR matrix, which
`test_fermion.py` checks against explicit Kronecker products.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from qgelab import fermion


def ladder_matrix(
    creators: tuple[int, ...], annihilators: tuple[int, ...], modes: int
) -> sparse.csr_matrix:
    """Matrix of a^dag_{creators} a_{annihilators} in the occupation-number basis.

    Built by tracking each basis column through the string (rightmost factor
    first), which keeps at most one nonzero per column.
    """
    dim = 1 << modes
    cols = np.arange(dim, dtype=np.int64)
    alive, state, sign = fermion._apply_ladder(cols, np.ones(dim), annihilators, annihilate=True)
    created, state, sign = fermion._apply_ladder(state, sign, creators, annihilate=False)
    alive &= created
    return sparse.csr_matrix(
        (sign[alive], (state[alive], cols[alive])), shape=(dim, dim), dtype=np.float64
    )


def annihilation_operator(p: int, N: int) -> sparse.csr_matrix:
    """Matrix of a_p on N modes (vacuum at index 0, mode p in bit p)."""
    if not 0 <= p < N:
        raise ValueError(f"mode {p} out of range for {N} modes")
    return ladder_matrix((), (p,), N)


"""Sparse test oracles: ladder-operator matrices one string at a time, and the Gram route.

The program never forms these matrices.  `fermion._apply_ladder` tracks
basis states through ladder strings, and `krdm_expectations`, `krdm_stack`
and `verify`'s anticommutation suite scatter its stacked output directly.
Here each string is tracked on its own and scattered into a CSR matrix, which
`test_fermion.py` checks against explicit Kronecker products.

`gram_sector_norms` is the sector-norm route that `fermion.stack_sector_norms`
replaced: scipy's sparse product B^H B, then one dense eigensolve per sector.
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


def gram_sector_norms(stack: sparse.csr_matrix) -> np.ndarray:
    """Spectral norm of each sector block of G = B^H B, eta = 0..N, by scipy's Gram product."""
    N = stack.shape[1].bit_length() - 1
    gram = (stack.conj().T @ stack).tocsr()
    blocks = [gram[s][:, s].toarray() for s in (fermion.sector_basis(N, eta) for eta in range(N + 1))]
    return np.array([np.abs(np.linalg.eigvalsh(block)).max() for block in blocks])

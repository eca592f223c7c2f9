"""Sparse test oracles: ladder-operator matrices one string at a time, and
the scipy forms of the k-body stack and of an observable.

The program never forms these matrices.  `fermion._apply_ladder` tracks
basis states through ladder strings, and `krdm_expectations`,
`_krdm_entries` and `verify`'s anticommutation suite scatter its stacked
output directly.  Here each string is tracked on its own and scattered into a
CSR matrix, which `test_fermion.py` checks against explicit Kronecker
products.  `krdm_stack` scatters the whole k-body set into one CSR matrix,
whose row slices each `Observable.matrix` must equal, and `observable` turns
a dense or scipy matrix into an `Observable`'s entries.
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



def krdm_stack(N: int, k: int) -> tuple[sparse.csr_matrix, list[str]]:
    """The k-body set as one CSR matrix B and its labels: `fermion._krdm_entries`, scattered.

    Observable j of `fermion.krdm_observable_set` is rows j 2^N .. (j + 1) 2^N - 1.
    """
    rows, cols, values, labels = fermion._krdm_entries(N, k)
    dim = 1 << N
    return sparse.csr_matrix((values, (rows, cols)), shape=(len(labels) * dim, dim)), labels


def observable(matrix, label: str) -> fermion.Observable:
    """The `Observable` of a square dense or scipy matrix, from its nonzero entries."""
    coo = sparse.coo_matrix(matrix, dtype=np.complex128)
    if coo.shape[0] != coo.shape[1]:
        raise ValueError(f"observable matrix must be square, got {coo.shape}")
    coo.sum_duplicates()
    return fermion.Observable(rows=coo.row, cols=coo.col, values=coo.data, dim=coo.shape[0],
                              label=label)

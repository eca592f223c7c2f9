"""Sparse test oracles: ladder-operator matrices one string at a time, the
scipy forms of the k-body stack and of an observable, and the 2^N embedding
of a sector vector.

The program never forms these matrices.  `fermion._annihilated` takes basis
states through stacked annihilation strings, and `krdm_expectations`,
`_krdm_entries` and `verify`'s anticommutation suite read its output
directly.  Here each string goes through the kernel `fermion._apply_ladder`
on its own and is scattered into a CSR matrix; a creation string
a^dag_{c1}..a^dag_{ck} is the transpose of the annihilation string
a_{ck}..a_{c1}, so the oracle needs no creation branch of the program.
`test_fermion.py` checks these matrices against explicit Kronecker
products.  `krdm_stack` scatters the whole k-body set into one CSR matrix,
whose row slices each observable's `csr` must equal, and `observable` turns
a dense or scipy matrix into an `Observable`'s entries.  `full_vector`
scatters a sector's amplitudes into the 2^N vector that the full-space set
(`krdm_observable_set(N, k)`) acts on.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from qgelab import fermion


def _string_matrix(modes: tuple[int, ...], dim: int) -> sparse.csr_matrix:
    """Matrix of a_{m1}..a_{mk}, each basis column tracked through the string (rightmost
    factor first), which keeps at most one nonzero per column."""
    cols = np.arange(dim, dtype=np.int64)
    alive, state, sign = fermion._apply_ladder(cols, np.ones(dim), modes)
    return sparse.csr_matrix(
        (sign[alive], (state[alive], cols[alive])), shape=(dim, dim), dtype=np.float64
    )


def ladder_matrix(
    creators: tuple[int, ...], annihilators: tuple[int, ...], modes: int
) -> sparse.csr_matrix:
    """Matrix of a^dag_{creators} a_{annihilators} in the occupation-number basis.

    The creators a^dag_{c1}..a^dag_{ck} are the transpose of the string
    a_{ck}..a_{c1}, so both factors are annihilation strings.
    """
    dim = 1 << modes
    created = _string_matrix(tuple(reversed(creators)), dim).T
    return (created @ _string_matrix(annihilators, dim)).tocsr()


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


def csr(obs: fermion.Observable) -> sparse.csr_matrix:
    """An observable's entries as its (dim x dim) complex128 CSR matrix."""
    return sparse.csr_matrix((obs.values, (obs.rows, obs.cols)), shape=(obs.dim, obs.dim))


def full_vector(N: int, eta: int, amplitudes) -> np.ndarray:
    """The 2^N vector that holds `amplitudes` on `fermion.sector_basis(N, eta)` and 0 elsewhere."""
    vec = np.zeros(1 << N, dtype=np.complex128)
    vec[fermion.sector_basis(N, eta)] = amplitudes
    return vec


def observable(matrix, label: str) -> fermion.Observable:
    """The `Observable` of a square dense or scipy matrix, from its nonzero entries."""
    coo = sparse.coo_matrix(matrix, dtype=np.complex128)
    if coo.shape[0] != coo.shape[1]:
        raise ValueError(f"observable matrix must be square, got {coo.shape}")
    coo.sum_duplicates()
    return fermion.Observable(rows=coo.row, cols=coo.col, values=coo.data, dim=coo.shape[0],
                              label=label)

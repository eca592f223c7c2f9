"""Fermionic ladder operators, k-body observables, and particle-number sectors.

Conventions
-----------
Mode i maps to bit i of the computational-basis index: basis index n encodes
the occupation string with mode 0 in the least significant bit, and n = 0 is
the vacuum.  Annihilating mode q picks up the parity of the occupied modes
below q (the usual Z-string sign), so that {a_p, a_q^dag} = delta_pq and
{a_p, a_q} = 0 hold exactly in integer arithmetic.

A k-body transition operator is T(p, q) = a^dag_{p1}..a^dag_{pk} a_{q1}..a_{qk}
with the rightmost factor acting first.  Estimation targets are its Hermitian
parts Re T = (T + T^dag)/2 and Im T = (T - T^dag)/(2i).  The enumeration of
these observables emits every pair of ascending index tuples (both (P, Q) and
(Q, P) set orders present); a reordered tuple would only flip the sign of an
entry already in the set.  This canonical set is the one that satisfies the
sector norm identity

    || sum_j (O_j restricted to the eta sector)^2 || = C(eta, k) * C(N - eta + k, k).

The engine reads no observable matrix: `krdm_labels` and `krdm_expectations`
give the estimation set's labels and exact expectations by tracking basis
states through ladder strings, and `binom_norm_formula` gives its sector norm.
The sparse set and the dense norm of every sector remain as their references;
each function that builds or reduces a sparse matrix imports scipy itself, so
the run path loads numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import TYPE_CHECKING

import numpy as np

from .errors import InvalidMonomialError, InvalidOrderError, SymmetryViolationError

if TYPE_CHECKING:
    from scipy import sparse


def _popcount_table(bits: int) -> np.ndarray:
    """Bit counts of 0 .. 2**bits - 1: each doubling appends the same block with the top bit set."""
    table = np.zeros(1, dtype=np.int64)
    for _ in range(bits):
        table = np.concatenate((table, table + 1))
    return table


_POP16 = _popcount_table(16)


def popcount(values) -> np.ndarray:
    """Vectorized bit count for indices below 2**32."""
    v = np.asarray(values, dtype=np.int64)
    return _POP16[v & 0xFFFF] + _POP16[(v >> 16) & 0xFFFF]


def sector_basis(N: int, eta: int) -> np.ndarray:
    """Ascending int64 basis indices of Hamming weight eta on N modes."""
    if not 0 <= eta <= N:
        raise ValueError(f"sector eta={eta} outside 0..{N}")
    states = np.arange(1 << N, dtype=np.int64)
    return states[popcount(states) == eta]


def _apply_ladder(state, sign, modes, annihilate: bool):
    """Track basis columns through strings of a_m (or a_m^dag), rightmost mode first.

    `modes` is one string, shape (k,), or a stack of C strings, shape (C, k),
    which are all tracked at once.  Returns (alive, state, sign): which
    columns survive each string, and the image and accumulated Z-string sign
    of each (meaningful where alive), with a leading axis of C for a stack.
    """
    modes = np.asarray(modes, dtype=np.int64)
    alive = np.ones(np.broadcast_shapes(np.shape(state), modes.shape[:-1] + (1,)), dtype=bool)
    for i in reversed(range(modes.shape[-1])):
        m = modes[..., i, None]
        alive &= ((state >> m) & 1) == int(annihilate)
        parity = popcount(state & ((1 << m) - 1)) & 1
        sign = sign * (1.0 - 2.0 * parity)
        state = state ^ (1 << m)
    return alive, state, sign


# Basis states times k-tuples that one stacked ladder pass tracks; bounds its scratch.
_LADDER_CELLS = 1 << 20


def _tuple_blocks(N: int, k: int, states: int):
    """(first row, block) pairs that split the ascending k-tuples of N modes into
    (C, k) blocks of at most `_LADDER_CELLS` // `states` tuples."""
    tuples = np.array(list(combinations(range(N), k)), dtype=np.int64)
    step = max(1, _LADDER_CELLS // states)
    return [(start, tuples[start:start + step]) for start in range(0, len(tuples), step)]


def _ladder_matrix(
    creators: tuple[int, ...], annihilators: tuple[int, ...], modes: int
) -> sparse.csr_matrix:
    """Matrix of a^dag_{creators} a_{annihilators} in the occupation-number basis.

    Built by tracking each basis column through the string (rightmost factor
    first), which keeps at most one nonzero per column.
    """
    from scipy import sparse

    dim = 1 << modes
    cols = np.arange(dim, dtype=np.int64)
    alive, state, sign = _apply_ladder(cols, np.ones(dim), annihilators, annihilate=True)
    created, state, sign = _apply_ladder(state, sign, creators, annihilate=False)
    alive &= created
    return sparse.csr_matrix(
        (sign[alive], (state[alive], cols[alive])), shape=(dim, dim), dtype=np.float64
    )


def annihilation_operator(p: int, N: int) -> sparse.csr_matrix:
    """Matrix of a_p on N modes (vacuum at index 0, mode p in bit p)."""
    if not 0 <= p < N:
        raise InvalidMonomialError(f"mode {p} out of range for {N} modes")
    return _ladder_matrix((), (p,), N)


@dataclass(eq=False)
class Observable:
    """A labelled Hermitian operator with norm <= 1."""

    matrix: sparse.csr_matrix
    label: str
    _validate: bool = field(default=True, repr=False)

    def __post_init__(self):
        from scipy import sparse

        mat = self.matrix
        if not (isinstance(mat, sparse.csr_matrix) and mat.dtype == np.complex128):
            mat = self.matrix = sparse.csr_matrix(mat, dtype=np.complex128)
        d = mat.shape[0]
        if mat.shape[0] != mat.shape[1]:
            raise ValueError(f"observable matrix must be square, got {mat.shape}")
        if not self._validate:
            return
        herm_gap = abs(mat - mat.conj().T)
        if herm_gap.nnz and herm_gap.max() > 1e-12:
            raise ValueError(f"observable {self.label!r} is not Hermitian")
        # Cheap certified bound first; exact spectral norm only when inconclusive.
        row_sums = np.abs(mat).sum(axis=1).max() if mat.nnz else 0.0
        if row_sums > 1.0 + 1e-12:
            if d > 4096:
                raise ValueError(f"cannot certify norm <= 1 for {self.label!r}")
            w = np.linalg.eigvalsh(mat.toarray())
            if np.abs(w).max() > 1.0 + 1e-12:
                raise ValueError(
                    f"observable {self.label!r} has spectral norm {np.abs(w).max():.6g} > 1"
                )

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _check_order(N: int, k: int, eta: int | None = None) -> None:
    """Reject a body order outside 1..N and, when one is given, a sector outside 0..N."""
    if not 1 <= k <= N:
        raise InvalidOrderError(f"k={k} outside 1..{N}")
    if eta is not None and not 0 <= eta <= N:
        raise ValueError(f"eta={eta} outside 0..{N}")


def _tuple_label(tup: tuple[int, ...]) -> str:
    return ".".join(str(m) for m in tup)


def _csr_from_entries(rows, cols, data, dim: int) -> sparse.csr_matrix:
    """CSR from COO entries that put at most one entry in each row."""
    from scipy import sparse

    order = np.argsort(rows)
    indptr = np.zeros(dim + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=dim), out=indptr[1:])
    return sparse.csr_matrix(
        (data[order], cols[order].astype(np.int32), indptr), shape=(dim, dim)
    )


def _hermitian_parts(dst, src, sign, diagonal: bool, dim: int):
    """Re T and Im T for the partial permutation T = sum sign |dst><src|.

    On the diagonal (p = q) T is Hermitian, so Re T = T and Im T = 0.  Off the
    diagonal no basis state is both an image of T (all of p occupied) and a
    source (all of q occupied, p minus q empty), so T and T^T share no row:
    each part holds the entries of T and of T^T side by side, one per row.
    """
    from scipy import sparse

    if diagonal:
        return (
            _csr_from_entries(dst, src, sign.astype(np.complex128), dim),
            sparse.csr_matrix((dim, dim), dtype=np.complex128),
        )
    rows, cols = np.concatenate((dst, src)), np.concatenate((src, dst))
    re = (np.concatenate((sign, sign)) * 0.5).astype(np.complex128)
    im = np.concatenate((sign, -sign)) * -0.5j
    return _csr_from_entries(rows, cols, re, dim), _csr_from_entries(rows, cols, im, dim)


def krdm_observable_set(N: int, k: int) -> list[Observable]:
    """Hermitianized k-body transition observables for all ascending index tuples.

    Returns 2 * C(N, k)^2 observables, Re then Im for each tuple pair (p, q),
    p-major.  The Im part of each diagonal pair (p, p) vanishes identically
    and stores no entry; :func:`estimation_observables` drops those.
    """
    _check_order(N, k)
    dim = 1 << N
    tuples = list(combinations(range(N), k))
    cols = np.arange(dim, dtype=np.int64)
    annihilated = []
    for q in tuples:
        alive, state, sign = _apply_ladder(cols, np.ones(dim), q, annihilate=True)
        annihilated.append((cols[alive], state[alive], sign[alive]))
    out: list[Observable] = []
    for p in tuples:
        for q, (src, state, sign) in zip(tuples, annihilated):
            alive, dst, sign = _apply_ladder(state, sign, p, annihilate=False)
            parts = _hermitian_parts(dst[alive], src[alive], sign[alive], p == q, dim)
            base = f"({_tuple_label(p)},{_tuple_label(q)})"
            for part, matrix in zip(("Re", "Im"), parts):
                out.append(Observable(matrix=matrix, label=part + base, _validate=False))
    return out


def estimation_observables(observables: list[Observable]) -> list[Observable]:
    """The k-body set minus its identically-zero entries: what the engine estimates."""
    return [o for o in observables if o.matrix.nnz]


# --- the estimation set from ladder strings, without its matrices ---


def krdm_labels(N: int, k: int) -> list[str]:
    """Labels of the estimation set, in `krdm_observable_set` order without the empty entries."""
    _check_order(N, k)
    tuples = [_tuple_label(t) for t in combinations(range(N), k)]
    return [
        f"{part}({p},{q})" for p in tuples for q in tuples for part in ("Re", "Im")
        if part == "Re" or p != q
    ]


def krdm_expectations(N: int, k: int, eta: int, amplitudes) -> np.ndarray:
    """Exact expectations of the estimation set, in `krdm_labels` order.

    `amplitudes` are a state's coefficients on ``sector_basis(N, eta)``.
    Column q of Phi is A_q psi = a_{q1}..a_{qk} psi, which lies in the
    (eta - k) sector, so the Gram matrix D = Phi^H Phi holds <A_p^dag A_q>.
    Reordering A_p^dag = a^dag_{pk}..a^dag_{p1} into the creator order of
    T(p, q) takes k(k-1)/2 swaps: <T(p, q)> = (-1)^{k(k-1)/2} D[p, q], whose
    real and imaginary parts are <Re T> and <Im T>.  One stacked ladder pass
    tracks every q at once, and one scatter fills Phi (per block of tuples,
    when the basis is too large for one pass of `_LADDER_CELLS` cells); every
    image lies in the (eta - k) sector, so `searchsorted` finds its row.
    """
    _check_order(N, k, eta)
    count = math.comb(N, k)
    gram = np.zeros((count, count), dtype=np.complex128)
    if eta >= k:
        upper, lower = sector_basis(N, eta), sector_basis(N, eta - k)
        psi = np.asarray(amplitudes, dtype=np.complex128)
        phi = np.zeros((lower.size, count), dtype=np.complex128)
        for start, block in _tuple_blocks(N, k, upper.size):
            alive, image, sign = _apply_ladder(upper, 1.0, block, annihilate=True)
            col, row = np.nonzero(alive)
            phi[np.searchsorted(lower, image[col, row]), start + col] = sign[col, row] * psi[row]
        gram = phi.conj().T @ phi
    # Adding 0.0 turns -0.0 into 0.0, as a sum over the statevector gives it.
    parts = np.stack((gram.real, gram.imag), axis=-1) * (-1.0) ** (k * (k - 1) // 2) + 0.0
    keep = np.ones(parts.shape, dtype=bool)
    keep[np.arange(count), np.arange(count), 1] = False  # Im T(p, p) = 0
    return parts[keep]


def sum_squares_sector_norm(observables: list[Observable]) -> np.ndarray:
    """Spectral norms of sum_j (O_j^(eta))^2 for eta = 0..N, by exact eigensolve per sector.

    Every O_j is Hermitian, so G = B^H B, B the (M d x d) stack of the set, is
    the sum of squares, block-diagonal by sector; entry eta is the norm of
    G[s][:, s], s = ``sector_basis(N, eta)``.  Pass the k-body set itself:
    that is the enumeration the binomial identity refers to.
    """
    from scipy import sparse

    if not observables:
        raise ValueError("empty observable list")
    dim = observables[0].dim
    if any(obs.dim != dim for obs in observables):
        raise ValueError("observables have mixed dimensions")
    B = sparse.vstack([obs.matrix for obs in observables], format="csr")
    coo = B.tocoo()
    owner, row = np.divmod(coo.row.astype(np.int64), dim)
    # An element above 1e-12 that joins two Hamming weights breaks number conservation.
    crossing = (np.abs(coo.data) > 1e-12) & (popcount(row) != popcount(coo.col))
    if crossing.any():
        label = observables[owner[np.argmax(crossing)]].label
        raise SymmetryViolationError(f"{label!r} does not conserve particle number")
    gram = (B.conj().T @ B).tocsr()
    N = dim.bit_length() - 1
    norms = np.empty(N + 1)
    for eta in range(N + 1):
        s = sector_basis(N, eta)
        norms[eta] = np.abs(np.linalg.eigvalsh(gram[s][:, s].toarray())).max()
    return norms


def binom_norm_formula(N: int, k: int, eta: int) -> float:
    """Closed form C(eta, k) * C(N - eta + k, k) for the sector sum-of-squares norm."""
    _check_order(N, k, eta)
    return float(math.comb(eta, k) * math.comb(N - eta + k, k))

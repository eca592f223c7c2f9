"""Fermionic ladder operators, k-body observables, and particle-number sectors.

Conventions
-----------
Mode i maps to bit i of the computational-basis index: basis index n encodes
the occupation string with mode 0 in the least significant bit, and n = 0 is
the vacuum.  Annihilating mode q picks up the parity of the occupied modes
below q (the usual Z-string sign), so that {a_p, a_q^dag} = delta_pq and
{a_p, a_q} = 0 hold exactly in integer arithmetic.  A state's particle number
and each Z-string parity are bit counts, `popcount`, which is numpy's
`bitwise_count` on int64 indices: no table, and no bound below 2**63.

A k-body transition operator is T(p, q) = a^dag_{p1}..a^dag_{pk} a_{q1}..a_{qk}
with the rightmost factor acting first.  Estimation targets are its Hermitian
parts Re T = (T + T^dag)/2 and Im T = (T - T^dag)/(2i).  The enumeration of
these observables emits every pair of ascending index tuples (both (P, Q) and
(Q, P) set orders present); a reordered tuple would only flip the sign of an
entry already in the set.  This canonical set is the one that satisfies the
sector norm identity

    || sum_j (O_j restricted to the eta sector)^2 || = C(eta, k) * C(N - eta + k, k).

No ladder operator is built as a matrix.  One annihilation pass,
`_annihilated`, takes basis states through a stack of strings
A_q = a_{q1}..a_{qk} (the kernel `_apply_ladder`) and yields every surviving
A_q|u> = s_q |l>, and every route reads it.  Since
T(p, q) = (-1)^{k(k-1)/2} A_p^dag A_q, T(p, q) pairs two strings that reach
one state of k particles fewer: where A_p|u_p> = s_p |l> and
A_q|u_q> = s_q |l>, <u_p|T(p, q)|u_q> = (-1)^{k(k-1)/2} s_p s_q, and each
entry of T(p, q) arises from exactly one such l.
`krdm_expectations` scatters the pass into the columns Phi[:, q] = A_q psi
and reads <T(p, q)> off the Gram matrix Phi^H Phi; `_krdm_entries` pairs
the strings that reach each l into the k-body set's entries, on one
sector's C(N, eta) states for the reference expectations or on all 2^N
states for the norm of every sector; `verify`'s anticommutation suite reads
the pass at k = 1.  No creation string is tracked.  `krdm_labels` gives the
estimation set's labels and `binom_norm_formula` its sector norm.  Each
row of the stacked set holds at most one entry, so its sum of squares is
diagonal, and `stack_sector_norms` sums |B|^2 by column with
`np.bincount`.  `krdm_observable_set` sorts the entries by row and hands
each `Observable` its own (rows, cols, values), numpy arrays that the
reference expectations read directly.  `sum_squares_sector_norm` takes any
list of observables on 2^N states through scipy's Gram product and one
eigensolve per sector; it alone imports scipy, so the run path, `verify`
and the reference expectations load numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np


def popcount(values) -> np.ndarray:
    """Vectorized bit count of int64 values, as uint8 (`np.bitwise_count`)."""
    return np.bitwise_count(np.asarray(values, dtype=np.int64))


def sector_basis(N: int, eta: int) -> np.ndarray:
    """Ascending int64 basis indices of Hamming weight eta on N modes."""
    if not 0 <= eta <= N:
        raise ValueError(f"sector eta={eta} outside 0..{N}")
    states = np.arange(1 << N, dtype=np.int64)
    return states[popcount(states) == eta]


def _apply_ladder(state, sign, modes):
    """Track basis columns through strings of a_m, rightmost mode first.

    `modes` is one string, shape (k,), or a stack of C strings, shape (C, k),
    which are all tracked at once.  Returns (alive, state, sign): which
    columns survive each string, and the image and accumulated Z-string sign
    of each (meaningful where alive), with a leading axis of C for a stack.
    `_annihilated` is its one caller.
    """
    modes = np.asarray(modes, dtype=np.int64)
    alive = np.ones(np.broadcast_shapes(np.shape(state), modes.shape[:-1] + (1,)), dtype=bool)
    for i in reversed(range(modes.shape[-1])):
        m = modes[..., i, None]
        alive &= ((state >> m) & 1) == 1
        parity = popcount(state & ((1 << m) - 1)) & 1
        sign = sign * (1.0 - 2.0 * parity)
        state = state ^ (1 << m)
    return alive, state, sign


# Cells (states times k-tuples, or lower states times tuple pairs) one stacked
# block holds; bounds the scratch of the annihilation pass and of its pairing.
_LADDER_CELLS = 1 << 20


def _annihilated(N: int, k: int, upper: np.ndarray, lower: np.ndarray):
    """Every nonzero A_q |u> = sign |l>, A_q = a_{q1}..a_{qk}, for the states u in `upper`.

    One stacked `_apply_ladder` pass per block of ascending k-tuples (at most
    `_LADDER_CELLS` states times tuples) yields four arrays: each image l's
    position in `lower`, which holds every image, the tuple's index q, u's
    position in `upper`, and the sign.
    """
    tuples = np.array(list(combinations(range(N), k)), dtype=np.int64)
    step = max(1, _LADDER_CELLS // upper.size)
    for start in range(0, len(tuples), step):
        alive, image, sign = _apply_ladder(upper, 1.0, tuples[start:start + step])
        q, u = np.nonzero(alive)
        yield np.searchsorted(lower, image[q, u]), start + q, u, sign[q, u]


def _summed(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct `keys`, ascending, and the sum of the `values` at each."""
    keys, inverse = np.unique(keys, return_inverse=True)
    real = np.bincount(inverse, values.real, keys.size)
    return keys, real + 1j * np.bincount(inverse, values.imag, keys.size)


@dataclass(eq=False)
class Observable:
    """A labelled Hermitian operator with norm <= 1, held as its nonzero entries.

    Entry i puts `values[i]` at row `rows[i]`, column `cols[i]` of a
    (`dim` x `dim`) matrix; entries at one position add.
    """

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    dim: int
    label: str
    _validate: bool = field(default=True, repr=False)

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.int64)
        self.cols = np.asarray(self.cols, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.complex128)
        if not self.rows.shape == self.cols.shape == self.values.shape == (self.values.size,):
            raise ValueError(f"observable {self.label!r} needs three entry arrays of one length")
        if not self._validate:
            return
        d, rows, cols, values = self.dim, self.rows, self.cols, self.values
        if values.size and (min(rows.min(), cols.min()) < 0 or max(rows.max(), cols.max()) >= d):
            raise ValueError(f"observable {self.label!r} has an entry outside {d} x {d}")
        _, gap = _summed(np.concatenate((rows * d + cols, cols * d + rows)),
                         np.concatenate((values, -values.conj())))
        if gap.size and np.abs(gap).max() > 1e-12:
            raise ValueError(f"observable {self.label!r} is not Hermitian")
        # Cheap certified bound first; exact spectral norm only when inconclusive.
        keys, summed = _summed(rows * d + cols, values)
        row_sums = np.bincount(keys // d, np.abs(summed), d).max() if keys.size else 0.0
        if row_sums > 1.0 + 1e-12:
            if d > 4096:
                raise ValueError(f"cannot certify norm <= 1 for {self.label!r}")
            dense = np.zeros((d, d), dtype=np.complex128)
            dense[keys // d, keys % d] = summed
            w = np.linalg.eigvalsh(dense)
            if np.abs(w).max() > 1.0 + 1e-12:
                raise ValueError(
                    f"observable {self.label!r} has spectral norm {np.abs(w).max():.6g} > 1"
                )


def _check_order(N: int, k: int, eta: int | None = None) -> None:
    """Reject N below 1, a body order k outside 1..N and a given sector eta outside 0..N."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if not 1 <= k <= N:
        raise ValueError(f"k={k} outside 1..{N}")
    if eta is not None and not 0 <= eta <= N:
        raise ValueError(f"eta={eta} outside 0..{N}")


def _check_sector(N: int, eta: int, amplitudes) -> None:
    """Refuse amplitudes that are not a unit vector over `sector_basis(N, eta)`."""
    size, shape = math.comb(N, eta), np.shape(amplitudes)
    if shape != (size,):
        raise ValueError(f"sector eta={eta} of {N} modes has {size} amplitudes, got shape {shape}")
    norm = float(np.linalg.norm(amplitudes))
    if not abs(norm - 1.0) <= 1e-12:  # a NaN norm fails too
        raise ValueError(f"sector amplitudes have norm {norm:.15g}, off 1 beyond 1e-12")


def _tuple_label(tup: tuple[int, ...]) -> str:
    return ".".join(str(m) for m in tup)


def _krdm_entries(
    N: int, k: int, eta: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[str]]:
    """The k-body set as the unsorted entries (rows, cols, values) of one stack B, and its labels.

    The set acts on the d = C(N, eta) states of ``sector_basis(N, eta)``, or
    on all d = 2^N basis states when `eta` is None; a row or column is a
    state's position in that basis.  Observable j is rows j d .. (j + 1) d - 1
    of the (2 C(N,k)^2 d x d) matrix B, in `krdm_observable_set` order.  One
    annihilation pass (`_annihilated`) takes every basis state through every
    A_q into the states k particles lower (all 2^N states when `eta` is
    None), and each two strings that reach one lower state pair into an entry
    of T(p, q) (the identity of the module docstring), matched per block of
    lower states times tuple pairs of at most `_LADDER_CELLS` cells.  On the
    diagonal (p = q) T is Hermitian, so Re T = T and Im T = 0.  Off the
    diagonal no basis state is both an image of T (all of p occupied) and a
    source (all of q occupied, p minus q empty), so T and T^T share no row:
    each part holds the entries of T and of T^T side by side.  Every row of B
    thus holds at most one entry.
    """
    _check_order(N, k, eta)
    upper = np.arange(1 << N, dtype=np.int64) if eta is None else sector_basis(N, eta)
    # Below k particles no string survives, and any lower basis serves.
    lower = upper if eta is None else sector_basis(N, max(eta - k, 0))
    dim, count = upper.size, math.comb(N, k)
    # reached[l, q]: the position in `upper` of the state A_q takes to lower state l, or -1
    reached, signs = np.full((lower.size, count), -1), np.zeros((lower.size, count))
    for l, q, u, sign in _annihilated(N, k, upper, lower):
        reached[l, q], signs[l, q] = u, sign
    step = max(1, _LADDER_CELLS // count**2)
    rows, targets, values = [], [], []
    for start in range(0, lower.size, step):
        alive = reached[start:start + step] >= 0
        l, p, q = np.nonzero(alive[:, :, None] & alive[:, None, :])
        l += start
        dst, src = reached[l, p], reached[l, q]
        sign = signs[l, p] * signs[l, q] * (-1.0) ** (k * (k - 1) // 2)
        re = 2 * (p * count + q) * dim  # first row of Re T(p, q)
        d = p == q
        o = ~d
        im = re[o] + dim  # first row of Im T(p, q), p != q
        half = (sign[o] * 0.5).astype(np.complex128)
        # Re T(p, p) = T; off the diagonal, Re T then Im T, each with T and T^T.
        rows += [re[d] + dst[d], re[o] + dst[o], re[o] + src[o], im + dst[o], im + src[o]]
        targets += [src[d], src[o], dst[o], src[o], dst[o]]
        values += [sign[d].astype(np.complex128), half, half,
                   sign[o] * -0.5j, -sign[o] * -0.5j]
    names = [_tuple_label(t) for t in combinations(range(N), k)]
    labels = [f"{part}({p},{q})" for p in names for q in names for part in ("Re", "Im")]
    return np.concatenate(rows), np.concatenate(targets), np.concatenate(values), labels


def krdm_observable_set(N: int, k: int, eta: int | None = None) -> list[Observable]:
    """Hermitianized k-body transition observables for all ascending index tuples.

    Returns 2 * C(N, k)^2 observables, Re then Im for each tuple pair (p, q),
    p-major, on the eta sector or, when `eta` is None, on all 2^N states:
    the entries of `_krdm_entries`, sorted by stack row once and split at
    each observable's first row.  The Im part of each diagonal pair (p, p)
    vanishes identically; :func:`estimation_observables` drops those.
    """
    rows, cols, values, labels = _krdm_entries(N, k, eta)
    dim = 1 << N if eta is None else math.comb(N, eta)
    order = np.argsort(rows, kind="stable")
    rows, cols, values = rows[order], cols[order], values[order]
    bounds = np.searchsorted(rows, np.arange(len(labels) + 1) * dim)
    return [
        Observable(rows=rows[a:b] - j * dim, cols=cols[a:b], values=values[a:b], dim=dim,
                   label=label, _validate=False)
        for j, (label, a, b) in enumerate(zip(labels, bounds[:-1], bounds[1:]))
    ]


def estimation_observables(observables: list[Observable]) -> list[Observable]:
    """The k-body set minus its identically-zero Im T(p, p): what the engine estimates.

    Selected by label: inside a sector an observable can hold no entry
    without vanishing identically (every one does at eta < k).
    """
    return [o for o in observables if not _is_diagonal_im(o.label)]


def _is_diagonal_im(label: str) -> bool:
    part, _, pair = label.partition("(")
    p, _, q = pair.rstrip(")").partition(",")
    return part == "Im" and p == q


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
    real and imaginary parts are <Re T> and <Im T>.  The annihilation pass
    (`_annihilated`) tracks every q at once, and each of its blocks scatters
    into Phi as it comes.  Amplitudes that are not a unit vector of the
    sector's length are refused.
    """
    _check_order(N, k, eta)
    _check_sector(N, eta, amplitudes)
    count = math.comb(N, k)
    gram = np.zeros((count, count), dtype=np.complex128)
    if eta >= k:
        upper, lower = sector_basis(N, eta), sector_basis(N, eta - k)
        psi = np.asarray(amplitudes, dtype=np.complex128)
        phi = np.zeros((lower.size, count), dtype=np.complex128)
        for l, q, u, sign in _annihilated(N, k, upper, lower):
            phi[l, q] = sign * psi[u]
        gram = phi.conj().T @ phi
    # Adding 0.0 turns -0.0 into 0.0, as a sum over the statevector gives it.
    parts = np.stack((gram.real, gram.imag), axis=-1) * (-1.0) ** (k * (k - 1) // 2) + 0.0
    keep = np.ones(parts.shape, dtype=bool)
    keep[np.arange(count), np.arange(count), 1] = False  # Im T(p, p) = 0
    return parts[keep]


def _check_conserves_number(dim: int, rows, cols, values, labels: list[str]) -> None:
    """Refuse a stack entry above 1e-12 that joins two Hamming weights, naming the
    first observable (stack rows j d .. (j + 1) d - 1 are `labels[j]`) that holds one."""
    owner, state = np.divmod(rows, dim)
    crossing = (np.abs(values) > 1e-12) & (popcount(state) != popcount(cols))
    if crossing.any():
        raise ValueError(f"{labels[owner[crossing].min()]!r} does not conserve particle number")


def stack_sector_norms(N: int, rows, cols, values, labels: list[str]) -> np.ndarray:
    """Spectral norms of sum_j (O_j^(eta))^2 for eta = 0..N, for a stack with one entry per row.

    `rows`, `cols` and `values` are the entries of the (M d x d) stack B of
    Hermitian O_j, d = 2^N, O_j in rows j d .. (j + 1) d - 1.  The sum of
    squares G = B^H B sums conj(B[r, a]) B[r, b] over the rows r, so when
    no row holds two entries G is diagonal: G[a, a] is column a's sum of
    |B|^2, and sector eta's norm is its largest over ``sector_basis(N, eta)``.
    A row of two entries is refused.  The k-body set (`_krdm_entries`) holds
    entries of +-1, +-1/2 or +-i/2, so every sum is exact.
    """
    dim = 1 << N
    ordered = np.sort(rows)
    if (ordered[1:] == ordered[:-1]).any():
        raise ValueError("a stack row holds two entries, so its sum of squares is not diagonal")
    _check_conserves_number(dim, rows, cols, values, labels)
    column_sums = np.bincount(cols, np.abs(values) ** 2, dim)
    norms = np.zeros(N + 1)
    np.maximum.at(norms, popcount(np.arange(dim)), column_sums)
    return norms


def sum_squares_sector_norm(observables: list[Observable]) -> np.ndarray:
    """Spectral norms of sum_j (O_j^(eta))^2 for eta = 0..N, for any list on 2^N states.

    The list's entries, stacked in order into one scipy matrix B, are reduced
    by the Gram product G = B^H B and one dense eigensolve of each sector
    block G[s][:, s].
    """
    from scipy import sparse

    if not observables:
        raise ValueError("empty observable list")
    dim = observables[0].dim
    if any(obs.dim != dim for obs in observables):
        raise ValueError("observables have mixed dimensions")
    if dim & (dim - 1):
        raise ValueError(f"observables of dimension {dim} do not act on 2^N states")
    rows = np.concatenate([obs.rows + j * dim for j, obs in enumerate(observables)])
    cols = np.concatenate([obs.cols for obs in observables])
    values = np.concatenate([obs.values for obs in observables])
    stack = sparse.csr_matrix((values, (rows, cols)), shape=(len(observables) * dim, dim))
    coo = stack.tocoo()
    _check_conserves_number(dim, coo.row, coo.col, coo.data, [o.label for o in observables])
    N = dim.bit_length() - 1
    gram = (stack.conj().T @ stack).tocsr()
    blocks = (gram[s][:, s].toarray() for s in (sector_basis(N, eta) for eta in range(N + 1)))
    return np.array([np.abs(np.linalg.eigvalsh(block)).max() for block in blocks])


def binom_norm_formula(N: int, k: int, eta: int) -> float:
    """Closed form C(eta, k) * C(N - eta + k, k) for the sector sum-of-squares norm."""
    _check_order(N, k, eta)
    return float(math.comb(eta, k) * math.comb(N - eta + k, k))

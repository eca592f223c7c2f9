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

The engine reads no observable matrix: `krdm_labels`, `krdm_expectations` and
`krdm_sector_norm` give the estimation set's labels, exact expectations and
sector norm by tracking basis states through ladder strings.  The sparse set
and the dense norm remain as their references.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
from scipy import sparse

from .errors import InvalidMonomialError, InvalidOrderError, SymmetryViolationError


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


@dataclass(frozen=True)
class LadderMonomial:
    """An ordered product a^dag_{p1}..a^dag_{pk} a_{q1}..a_{qk} on ``modes`` modes."""

    creators: tuple[int, ...]
    annihilators: tuple[int, ...]
    modes: int

    def __post_init__(self):
        object.__setattr__(self, "creators", tuple(int(p) for p in self.creators))
        object.__setattr__(self, "annihilators", tuple(int(q) for q in self.annihilators))
        k = len(self.creators)
        if k < 1 or len(self.annihilators) != k:
            raise InvalidMonomialError(
                "need matching nonempty creator/annihilator tuples, got "
                f"{self.creators} / {self.annihilators}"
            )
        for name, tup in (("creators", self.creators), ("annihilators", self.annihilators)):
            if len(set(tup)) != len(tup):
                raise InvalidMonomialError(f"repeated index in {name}: {tup}")
            if any(not 0 <= m < self.modes for m in tup):
                raise InvalidMonomialError(f"{name} {tup} out of range for {self.modes} modes")

    @property
    def k(self) -> int:
        return len(self.creators)


@dataclass(frozen=True)
class SectorLabel:
    """Particle-number sector tag."""

    eta: int

    def __post_init__(self):
        if self.eta < 0:
            raise ValueError(f"negative particle number {self.eta}")


@dataclass(frozen=True, eq=False)
class SectorBasis:
    """Ascending list of basis indices with Hamming weight eta on ``modes`` modes."""

    eta: int
    modes: int
    indices: np.ndarray

    @property
    def dimension(self) -> int:
        return len(self.indices)


def sector_basis(N: int, eta) -> SectorBasis:
    eta = int(eta.eta if isinstance(eta, SectorLabel) else eta)
    if not 0 <= eta <= N:
        raise ValueError(f"sector eta={eta} outside 0..{N}")
    states = np.arange(1 << N, dtype=np.int64)
    return SectorBasis(eta=eta, modes=N, indices=states[popcount(states) == eta])


def _apply_ladder(state, sign, modes: tuple[int, ...], annihilate: bool):
    """Track basis columns through a string of a_m (or a_m^dag), rightmost mode first.

    Returns (alive, state, sign): which columns survive the string, and the
    image and accumulated Z-string sign of each (meaningful where alive).
    """
    alive = np.ones(state.shape, dtype=bool)
    for m in reversed(modes):
        alive &= ((state >> m) & 1) == int(annihilate)
        parity = popcount(state & ((1 << m) - 1)) & 1
        sign = sign * (1.0 - 2.0 * parity)
        state = state ^ np.int64(1 << m)
    return alive, state, sign


def _ladder_matrix(
    creators: tuple[int, ...], annihilators: tuple[int, ...], modes: int
) -> sparse.csr_matrix:
    """Column-tracking kernel shared by monomials and bare ladder operators."""
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


def build_ladder_monomial(monomial: LadderMonomial) -> sparse.csr_matrix:
    """Matrix of the monomial in the occupation-number basis.

    Built by tracking each basis column through the operator string (rightmost
    factor first), which keeps at most one nonzero per column.  Norm is <= 1.
    """
    return _ladder_matrix(monomial.creators, monomial.annihilators, monomial.modes)


@dataclass(eq=False)
class Observable:
    """A Hermitian operator with norm <= 1 plus bookkeeping for k-body sets."""

    matrix: sparse.csr_matrix
    label: str
    k: int | None = None
    creators: tuple[int, ...] | None = None
    annihilators: tuple[int, ...] | None = None
    part: str | None = None  # "re" or "im"
    trivial: bool = False
    _validate: bool = field(default=True, repr=False)

    def __post_init__(self):
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
    and is flagged ``trivial``; :func:`estimation_observables` drops those.
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
            for part, matrix in zip(("re", "im"), parts):
                out.append(
                    Observable(
                        matrix=matrix,
                        label=part.capitalize() + base,
                        k=k,
                        creators=p,
                        annihilators=q,
                        part=part,
                        trivial=matrix.nnz == 0,
                        _validate=False,
                    )
                )
    return out


def estimation_observables(observables: list[Observable]) -> list[Observable]:
    """The k-body set minus its identically-zero entries: what the engine estimates."""
    return [o for o in observables if not o.trivial]


# --- the estimation set from ladder strings, without its matrices ---


def krdm_labels(N: int, k: int) -> list[str]:
    """Labels of the estimation set, in `krdm_observable_set` order without the trivial entries."""
    _check_order(N, k)
    tuples = [_tuple_label(t) for t in combinations(range(N), k)]
    return [
        f"{part}({p},{q})" for p in tuples for q in tuples for part in ("Re", "Im")
        if part == "Re" or p != q
    ]


def krdm_expectations(N: int, k: int, eta: int, amplitudes) -> np.ndarray:
    """Exact expectations of the estimation set, in `krdm_labels` order.

    `amplitudes` are a state's coefficients on ``sector_basis(N, eta).indices``.
    Column q of Phi is A_q psi = a_{q1}..a_{qk} psi, which lies in the
    (eta - k) sector, so the Gram matrix D = Phi^H Phi holds <A_p^dag A_q>.
    Reordering A_p^dag = a^dag_{pk}..a^dag_{p1} into the creator order of
    T(p, q) takes k(k-1)/2 swaps: <T(p, q)> = (-1)^{k(k-1)/2} D[p, q], whose
    real and imaginary parts are <Re T> and <Im T>.
    """
    _check_order(N, k, eta)
    tuples = list(combinations(range(N), k))
    gram = np.zeros((len(tuples), len(tuples)), dtype=np.complex128)
    if eta >= k:
        upper, lower = sector_basis(N, eta), sector_basis(N, eta - k)
        pos = _position_map(lower)
        psi = np.asarray(amplitudes, dtype=np.complex128)
        phi = np.zeros((lower.dimension, len(tuples)), dtype=np.complex128)
        for col, q in enumerate(tuples):
            alive, image, sign = _apply_ladder(
                upper.indices, np.ones(upper.dimension), q, annihilate=True
            )
            phi[pos[image[alive]], col] = sign[alive] * psi[alive]
        gram = phi.conj().T @ phi
    # Adding 0.0 turns -0.0 into 0.0, as a sum over the statevector gives it.
    parts = np.stack((gram.real, gram.imag), axis=-1) * (-1.0) ** (k * (k - 1) // 2) + 0.0
    keep = np.ones(parts.shape, dtype=bool)
    keep[np.arange(len(tuples)), np.arange(len(tuples)), 1] = False  # Im T(p, p) = 0
    return parts[keep]


def krdm_sector_norm(N: int, k: int, eta: int) -> float:
    """||sum_j (O_j restricted to eta)^2|| of the estimation set, from its diagonal.

    Each T(p, q) is a signed partial permutation, so T T^H and T^H T are
    diagonal, and Re T^2 + Im T^2 = (T T^H + T^H T) / 2 (also for p = q,
    where Im T = 0 and T^2 is a projector).  Summed over (p, q) both halves
    give, at an eta-sector state x, the number of pairs with p inside x and q
    disjoint from x minus p.  So one string a_{p1}..a_{pk} per p over the eta
    basis and one a^dag_q string per q over the (eta - k) basis count the
    diagonal exactly, in integers.
    """
    _check_order(N, k, eta)
    if eta < k:
        return 0.0
    tuples = list(combinations(range(N), k))
    upper, lower = sector_basis(N, eta), sector_basis(N, eta - k)
    # room[y]: how many k-tuples a^dag_q can fill on the (eta - k) state y
    room = np.zeros(lower.dimension, dtype=np.int64)
    for q in tuples:
        room += _apply_ladder(lower.indices, np.ones(lower.dimension), q, annihilate=False)[0]
    pos = _position_map(lower)
    diagonal = np.zeros(upper.dimension, dtype=np.int64)
    for p in tuples:
        alive, image, _ = _apply_ladder(upper.indices, np.ones(upper.dimension), p, annihilate=True)
        diagonal[alive] += room[pos[image[alive]]]
    return float(diagonal.max())


def _crossing(row, col, data, tol: float = 1e-12) -> np.ndarray:
    """Mask of the matrix elements above ``tol`` that connect different Hamming weights."""
    return (np.abs(data) > tol) & (popcount(row) != popcount(col))


def _position_map(basis: SectorBasis) -> np.ndarray:
    pos = np.full(1 << basis.modes, -1, dtype=np.int64)
    pos[basis.indices] = np.arange(basis.dimension)
    return pos


def _restrict_coo(matrix, basis: SectorBasis, pos: np.ndarray) -> np.ndarray:
    coo = sparse.coo_matrix(matrix)
    out = np.zeros((basis.dimension, basis.dimension), dtype=np.complex128)
    if coo.nnz == 0:
        return out
    pr, pc = pos[coo.row], pos[coo.col]
    keep = (pr >= 0) & (pc >= 0)
    out[pr[keep], pc[keep]] = coo.data[keep]
    return out


def sum_squares_sector_norm(observables: list[Observable], eta) -> float:
    """Spectral norm of sum_j (O_j^(eta))^2 by exact eigensolve of the restricted sum.

    The restricted blocks are stacked into one sparse (M d_eta x d_eta) matrix
    B; every O_j is Hermitian, so B^H B is the sum of squares.  Pass the
    k-body set itself: that is the enumeration the binomial identity refers to.
    """
    if not observables:
        raise ValueError("empty observable list")
    dim = observables[0].dim
    if any(obs.dim != dim for obs in observables):
        raise ValueError("observables have mixed dimensions")
    coo = sparse.vstack([obs.matrix for obs in observables], format="csr").tocoo()
    owner, row = np.divmod(coo.row.astype(np.int64), dim)
    col, data = coo.col.astype(np.int64), coo.data
    crossing = _crossing(row, col, data)
    if crossing.any():
        label = observables[owner[np.argmax(crossing)]].label
        raise SymmetryViolationError(f"{label!r} does not conserve particle number")
    basis = sector_basis(dim.bit_length() - 1, eta)
    pos = _position_map(basis)
    pr, pc = pos[row], pos[col]
    keep = (pr >= 0) & (pc >= 0)
    d = basis.dimension
    B = sparse.csr_matrix(
        (data[keep], (owner[keep] * d + pr[keep], pc[keep])), shape=(len(observables) * d, d)
    )
    eigs = np.linalg.eigvalsh((B.conj().T @ B).toarray())
    return float(np.abs(eigs).max())


def binom_norm_formula(N: int, k: int, eta: int) -> float:
    """Closed form C(eta, k) * C(N - eta + k, k) for the sector sum-of-squares norm."""
    _check_order(N, k, eta)
    return float(math.comb(eta, k) * math.comb(N - eta + k, k))

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
these observables emits every ordered pair of ordered index tuples; entries
whose tuples are not ascending are sign-copies of a canonical entry and carry
a ``duplicate`` flag.  The canonical subset (ascending tuples, both (P, Q) and
(Q, P) set orders present) is the one that satisfies the sector norm identity

    || sum_j (O_j restricted to the eta sector)^2 || = C(eta, k) * C(N - eta + k, k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, permutations

import numpy as np
from scipy import sparse

from .errors import InvalidMonomialError, InvalidOrderError, SymmetryViolationError

_POP16 = np.array([bin(i).count("1") for i in range(1 << 16)], dtype=np.int64)


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
    idx = np.sort(
        np.array(
            [sum(1 << m for m in combo) for combo in combinations(range(N), eta)],
            dtype=np.int64,
        )
    )
    assert len(idx) == math.comb(N, eta)
    return SectorBasis(eta=eta, modes=N, indices=idx)


def _ladder_matrix(
    creators: tuple[int, ...], annihilators: tuple[int, ...], modes: int
) -> sparse.csr_matrix:
    """Column-tracking kernel shared by monomials and bare ladder operators."""
    dim = 1 << modes
    state = np.arange(dim, dtype=np.int64)
    cols = state.copy()
    sign = np.ones(dim)
    alive = np.ones(dim, dtype=bool)
    for q in reversed(annihilators):
        alive &= ((state >> q) & 1) == 1
        parity = popcount(state & ((1 << q) - 1)) & 1
        sign *= 1.0 - 2.0 * parity
        state = state & ~np.int64(1 << q)
    for p in reversed(creators):
        alive &= ((state >> p) & 1) == 0
        parity = popcount(state & ((1 << p) - 1)) & 1
        sign *= 1.0 - 2.0 * parity
        state = state | np.int64(1 << p)
    return sparse.csr_matrix(
        (sign[alive], (state[alive], cols[alive])), shape=(dim, dim), dtype=np.float64
    )


def annihilation_operator(p: int, N: int) -> sparse.csr_matrix:
    """Matrix of a_p on N modes (vacuum at index 0, mode p in bit p)."""
    if not 0 <= p < N:
        raise InvalidMonomialError(f"mode {p} out of range for {N} modes")
    return _ladder_matrix((), (p,), N)


def creation_operator(p: int, N: int) -> sparse.csr_matrix:
    """Matrix of a_p^dag on N modes."""
    if not 0 <= p < N:
        raise InvalidMonomialError(f"mode {p} out of range for {N} modes")
    return _ladder_matrix((p,), (), N)


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
    duplicate: bool = False
    _validate: bool = field(default=True, repr=False)

    def __post_init__(self):
        mat = sparse.csr_matrix(self.matrix, dtype=np.complex128)
        self.matrix = mat
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


def _tuple_label(tup: tuple[int, ...]) -> str:
    return ".".join(str(m) for m in tup)


def krdm_observable_set(N: int, k: int) -> list[Observable]:
    """Hermitianized k-body transition observables for all ordered index tuples.

    Returns 2 * P(N, k)^2 observables (Re and Im per ordered tuple pair).
    Non-ascending tuples are flagged ``duplicate`` (sign-copies of the
    ascending-canonical entry); identically-zero Im parts are flagged
    ``trivial``.  The canonical, non-trivial subset is what the estimation
    engine consumes; see :func:`estimation_observables`.
    """
    if not 1 <= k <= N:
        raise InvalidOrderError(f"k={k} outside 1..{N}")
    tuples = list(permutations(range(N), k))
    out: list[Observable] = []
    for p in tuples:
        for q in tuples:
            T = build_ladder_monomial(LadderMonomial(p, q, N))
            Tt = T.T  # real matrix, so transpose == adjoint
            re = ((T + Tt) * 0.5).astype(np.complex128)
            im = ((T - Tt) * (-0.5j)).tocsr()
            re.eliminate_zeros()
            im.eliminate_zeros()
            dup = (tuple(sorted(p)) != p) or (tuple(sorted(q)) != q)
            base = f"({_tuple_label(p)},{_tuple_label(q)})"
            out.append(
                Observable(
                    matrix=re,
                    label="Re" + base,
                    k=k,
                    creators=p,
                    annihilators=q,
                    part="re",
                    trivial=re.nnz == 0,
                    duplicate=dup,
                    _validate=False,
                )
            )
            out.append(
                Observable(
                    matrix=im,
                    label="Im" + base,
                    k=k,
                    creators=p,
                    annihilators=q,
                    part="im",
                    trivial=im.nnz == 0,
                    duplicate=dup,
                    _validate=False,
                )
            )
    return out


def canonical_observables(observables: list[Observable]) -> list[Observable]:
    """Drop sign-copies with non-ascending tuples; the norm identity sums over these."""
    return [o for o in observables if not o.duplicate]


def estimation_observables(observables: list[Observable]) -> list[Observable]:
    """Canonical subset minus identically-zero entries: what the engine estimates."""
    return [o for o in observables if not (o.duplicate or o.trivial)]


def is_particle_conserving(matrix, tol: float = 1e-12) -> bool:
    """True if every matrix element above ``tol`` connects equal Hamming weights."""
    coo = sparse.coo_matrix(matrix)
    keep = np.abs(coo.data) > tol
    if not keep.any():
        return True
    return bool(np.all(popcount(coo.row[keep]) == popcount(coo.col[keep])))


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


def sector_restrict(observable, eta) -> np.ndarray:
    """Dense block of an observable on the eta-particle sector.

    The operator must conserve particle number (checked); anything else would
    silently lose the off-sector weight.
    """
    mat = observable.matrix if isinstance(observable, Observable) else observable
    dim = mat.shape[0]
    N = dim.bit_length() - 1
    if 1 << N != dim:
        raise ValueError(f"matrix dimension {dim} is not a power of two")
    if not is_particle_conserving(mat):
        raise SymmetryViolationError("operator has matrix elements between sectors")
    basis = sector_basis(N, eta)
    return _restrict_coo(mat, basis, _position_map(basis))


def sum_squares_sector_norm(observables: list[Observable], eta) -> float:
    """Spectral norm of sum_j (O_j^(eta))^2 by exact eigensolve of the restricted sum.

    Pass the canonical observable subset: the deduplicated enumeration is the
    one the binomial identity refers to.
    """
    if not observables:
        raise ValueError("empty observable list")
    dim = observables[0].dim
    N = dim.bit_length() - 1
    basis = sector_basis(N, eta)
    pos = _position_map(basis)
    d = basis.dimension
    total = np.zeros((d, d), dtype=np.complex128)
    chunk: list[np.ndarray] = []

    def _flush():
        nonlocal total
        if chunk:
            stack = np.stack(chunk)
            total = total + np.einsum("nij,njk->ik", stack, stack, optimize=True)
            chunk.clear()

    for obs in observables:
        if obs.dim != dim:
            raise ValueError("observables have mixed dimensions")
        if not is_particle_conserving(obs.matrix):
            raise SymmetryViolationError(f"{obs.label!r} does not conserve particle number")
        chunk.append(_restrict_coo(obs.matrix, basis, pos))
        if len(chunk) >= 256:
            _flush()
    _flush()
    eigs = np.linalg.eigvalsh(total)
    return float(np.abs(eigs).max())


def binom_norm_formula(N: int, k: int, eta: int) -> float:
    """Closed form C(eta, k) * C(N - eta + k, k) for the sector sum-of-squares norm."""
    if not 1 <= k <= N:
        raise InvalidOrderError(f"k={k} outside 1..{N}")
    if not 0 <= eta <= N:
        raise ValueError(f"eta={eta} outside 0..{N}")
    return float(math.comb(eta, k) * math.comb(N - eta + k, k))

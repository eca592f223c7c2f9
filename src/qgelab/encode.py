"""Matrix-level block-encoding machinery.

Everything here works on explicit (small) matrices: a block-encoding is a
unitary dilation whose designated top-left block equals the target operator
divided by a normalization.  Polynomial eigenvalue transforms are applied at
the eigenvalue-function level rather than through phase-sequence synthesis,
which keeps the block-diagonal (sector-wise) action exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .fermion import Observable
from .statevector import PureState

_UNITARY_TOL = 1e-10


def _as_dense(op) -> np.ndarray:
    if isinstance(op, Observable):
        op = op.matrix
    if sparse.issparse(op):
        op = op.toarray()
    return np.asarray(op, dtype=np.complex128)


def _unitarity_gap(U: np.ndarray) -> float:
    return float(np.abs(U.conj().T @ U - np.eye(U.shape[0])).max())


@dataclass
class BlockEncoding:
    """A unitary whose top-left system block times ``normalization`` is the target."""

    unitary: np.ndarray
    system_dim: int
    ancilla_dim: int
    normalization: float

    def __post_init__(self):
        self.unitary = np.asarray(self.unitary, dtype=np.complex128)
        total = self.unitary.shape[0]
        if self.unitary.shape[0] != self.unitary.shape[1]:
            raise ValueError(f"block-encoding unitary must be square, got {self.unitary.shape}")
        if total != self.system_dim * self.ancilla_dim:
            raise ValueError(
                f"total dimension {total} != system {self.system_dim} x ancilla {self.ancilla_dim}"
            )
        if self.normalization <= 0:
            raise ValueError(f"normalization must be positive, got {self.normalization}")
        gap = _unitarity_gap(self.unitary)
        if gap > _UNITARY_TOL:
            raise ValueError(f"dilation is not unitary: deviation {gap:.3g}")

    @property
    def block(self) -> np.ndarray:
        d = self.system_dim
        return self.unitary[:d, :d]

    @property
    def encoded_operator(self) -> np.ndarray:
        return self.normalization * self.block


@dataclass(frozen=True)
class PolynomialSpec:
    """Real polynomial by its monomial coefficients, low to high order."""

    coefficients: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(float(c) for c in self.coefficients))
        if not self.coefficients:
            raise ValueError("polynomial needs at least one coefficient")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def evaluate(self, x):
        return np.polynomial.polynomial.polyval(x, self.coefficients)

    def is_bounded_on_unit_interval(self) -> bool:
        """Dense-sample check of |f| <= 1 + 1e-12 on [-1, 1] at 10 x degree points."""
        xs = np.linspace(-1.0, 1.0, max(10 * self.degree, 16))
        return bool(np.abs(self.evaluate(xs)).max() <= 1.0 + 1e-12)


def block_encode(O, alpha: float) -> BlockEncoding:
    """Two-block unitary dilation [[A, B], [B, -A]] with A = O/alpha, B = sqrt(I - A^2)."""
    dense = _as_dense(O)
    if np.abs(dense - dense.conj().T).max() > 1e-10:
        raise ValueError("block_encode expects a Hermitian operator")
    d = dense.shape[0]
    A = dense / alpha if alpha != 1.0 else dense
    w, V = np.linalg.eigh(A)
    if np.abs(w).max() > 1.0 + 1e-12:
        raise ValueError(
            f"operator norm {np.abs(w).max() * alpha:.6g} exceeds normalization {alpha:.6g}"
        )
    B = (V * np.sqrt(np.maximum(1.0 - w**2, 0.0))) @ V.conj().T
    U = np.block([[A, B], [B, -A]])
    return BlockEncoding(unitary=U, system_dim=d, ancilla_dim=2, normalization=float(alpha))


def eigen_poly_transform(B: BlockEncoding, f: PolynomialSpec) -> BlockEncoding:
    """Apply f to the eigenvalues of the encoded operator.

    For a block-diagonal (sector-split) operator this acts on every block
    independently, because a function of a Hermitian matrix is basis-free.
    """
    O = B.encoded_operator
    if np.abs(O - O.conj().T).max() > 1e-10:
        raise ValueError("eigen_poly_transform expects a Hermitian encoded operator")
    if not f.is_bounded_on_unit_interval():
        raise ValueError("polynomial exceeds 1 in magnitude on [-1, 1]")
    w, V = np.linalg.eigh(O)
    fw = np.real(f.evaluate(w))
    if np.abs(fw).max() > 1.0 + 1e-12:
        raise ValueError(
            f"polynomial reaches {np.abs(fw).max():.6g} on the spectrum; cannot block-encode"
        )
    transformed = (V * fw) @ V.conj().T
    transformed = (transformed + transformed.conj().T) / 2.0
    return block_encode(transformed, 1.0)


def evolve(O, t: float) -> np.ndarray:
    """Exact unitary e^{iOt} of a Hermitian generator, by eigendecomposition."""
    dense = _as_dense(O)
    if np.abs(dense - dense.conj().T).max() > 1e-10:
        raise ValueError("evolve expects a Hermitian generator")
    w, V = np.linalg.eigh(dense)
    return (V * np.exp(1j * w * t)) @ V.conj().T


def phase_encoding_deviation(A_set, x, q: int, psi) -> float:
    """Distance between true evolution and the ideal linear-phase oracle.

    Returns |<psi| e^{i t sum_j x_j A_j} |psi> - e^{i t sum_j x_j <A_j>}| at
    t = pi * 2^q.  Requires the recentred-observable contract
    |<A_j>| <= 2^{-q}; callers use this to justify feeding exact expectations
    straight into probe registers.
    """
    vec = psi.amplitudes if isinstance(psi, PureState) else np.asarray(psi, dtype=np.complex128)
    x = np.asarray(x, dtype=np.float64)
    mats = [_as_dense(a) for a in A_set]
    if len(mats) != x.size:
        raise ValueError(f"{len(mats)} observables vs {x.size} coefficients")
    exps = np.array([np.vdot(vec, m @ vec).real for m in mats])
    cap = 2.0 ** (-q)
    if np.abs(exps).max() > cap + 1e-12:
        raise ValueError(
            f"recentred expectation {np.abs(exps).max():.6g} exceeds 2^-q = {cap:.6g}"
        )
    t = math.pi * 2.0**q
    H = np.einsum("j,jkl->kl", x, np.stack(mats))
    lhs = complex(np.vdot(vec, evolve(H, t) @ vec))
    rhs = np.exp(1j * t * float(x @ exps))
    return float(abs(lhs - rhs))

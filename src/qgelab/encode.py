"""Matrix-level block-encoding machinery.

Everything here works on explicit (small) matrices: a block-encoding is a
unitary dilation whose designated top-left block equals the target operator
divided by a normalization.  Polynomial eigenvalue transforms are applied at
the eigenvalue-function level rather than through phase-sequence synthesis,
which keeps the block-diagonal (sector-wise) action exact.

A block-encoding carries the eigenpairs (w, V) of its block, which its
constructor checks against the block.  `block_encode` eigensolves once, and
`eigen_poly_transform` reads those eigenpairs and dilates f(w) on the same V,
so a transform costs no eigensolve of its own.

Both work on stacks, by numpy's leading-axis convention: a (..., d, d) input
gives an encoding whose `unitary` is (..., 2d, 2d), whose eigenpairs are
(..., d) and (..., d, d), and every check of which takes its maximum over
all slices, so one bad slice refuses the stack.  Each slice equals the 2-D
call on it bit for bit, and a transform takes one polynomial for the stack
or one per stacked operator, evaluated by one `polyval` call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyval

_UNITARY_TOL = 1e-10


def _adjoint(a: np.ndarray) -> np.ndarray:
    """The conjugate transpose of each matrix of a (..., n, n) stack."""
    return a.conj().swapaxes(-1, -2)


def _unitarity_gap(U: np.ndarray) -> float:
    return float(np.abs(_adjoint(U) @ U - np.eye(U.shape[-1])).max())


@dataclass
class BlockEncoding:
    """A unitary whose top-left system block times ``normalization`` is the target.

    ``eigenvalues`` and ``eigenvectors`` are the block's eigenpairs (w, V):
    V is orthonormal and V diag(w) V^H is the block, both within
    ``_UNITARY_TOL``.  A stack of encodings shares one leading shape:
    ``unitary`` (..., T, T), ``eigenvalues`` (..., d), ``eigenvectors``
    (..., d, d), and each check holds on every slice.
    """

    unitary: np.ndarray
    system_dim: int
    ancilla_dim: int
    normalization: float
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        self.unitary = np.asarray(self.unitary, dtype=np.complex128)
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=np.float64)
        self.eigenvectors = np.asarray(self.eigenvectors, dtype=np.complex128)
        if self.unitary.ndim < 2 or self.unitary.shape[-1] != self.unitary.shape[-2]:
            raise ValueError(f"block-encoding unitary must be square, got {self.unitary.shape}")
        total = self.unitary.shape[-1]
        if total != self.system_dim * self.ancilla_dim:
            raise ValueError(
                f"total dimension {total} != system {self.system_dim} x ancilla {self.ancilla_dim}"
            )
        if self.normalization <= 0:
            raise ValueError(f"normalization must be positive, got {self.normalization}")
        gap = _unitarity_gap(self.unitary)
        if not gap <= _UNITARY_TOL:
            raise ValueError(f"dilation is not unitary: deviation {gap:.3g}")
        V, w, d = self.eigenvectors, self.eigenvalues, self.system_dim
        lead = self.unitary.shape[:-2]
        if V.shape != lead + (d, d) or w.shape != lead + (d,):
            raise ValueError(
                f"eigenpairs of shapes {w.shape} and {V.shape} do not fit a block of "
                f"dimension {d}" + (f" in a stack of shape {lead}" if lead else "")
            )
        Vh = _adjoint(V)
        gap = np.maximum(
            np.abs(Vh @ V - np.eye(d)).max(),
            np.abs((V * w[..., None, :]) @ Vh - self.block).max(),
        )
        if not gap <= _UNITARY_TOL:
            raise ValueError(f"eigenpairs do not reproduce the block: deviation {gap:.3g}")

    @property
    def block(self) -> np.ndarray:
        d = self.system_dim
        return self.unitary[..., :d, :d]

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
        return polyval(x, self.coefficients)


@functools.cache
def _unit_grid(size: int) -> np.ndarray:
    """`size` evenly spaced points on [-1, 1], built once per size; a reader must not write."""
    return np.linspace(-1.0, 1.0, size)


def _coefficient_columns(specs) -> np.ndarray:
    """The specs' coefficients as the columns of one (D + 1, len(specs)) array, low to high
    as `polyval` reads them, zero-padded to the highest degree D.

    A zero-padded top coefficient only adds exact zeros to `polyval`'s Horner
    recurrence before the first one that is not, so a padded column gives its
    spec's values bit for bit.
    """
    columns = np.zeros((max(spec.degree for spec in specs) + 1, len(specs)))
    for column, spec in zip(columns.T, specs):
        column[: spec.degree + 1] = spec.coefficients
    return columns


def _check_bounded(specs) -> None:
    """Refuse a spec with |f| > 1 + 1e-12 on its dense grid of max(10 x degree, 16) points on
    [-1, 1]; specs of one degree share one grid and one `polyval` call."""
    for degree in {spec.degree for spec in specs}:
        same = [spec for spec in specs if spec.degree == degree]
        values = polyval(_unit_grid(max(10 * degree, 16)), _coefficient_columns(same))
        if not np.abs(values).max() <= 1.0 + 1e-12:
            raise ValueError("polynomial exceeds 1 in magnitude on [-1, 1]")


def _dilate(A: np.ndarray, w: np.ndarray, V: np.ndarray, alpha: float) -> BlockEncoding:
    """The encoding [[A, B], [B, -A]] of alpha A, B = V sqrt(1 - w^2) V^H, from A's eigenpairs."""
    d = A.shape[-1]
    U = np.empty(A.shape[:-2] + (2 * d, 2 * d), dtype=np.complex128)
    U[..., :d, :d] = A
    U[..., d:, d:] = -A
    root = np.sqrt(np.maximum(1.0 - w**2, 0.0))
    U[..., :d, d:] = U[..., d:, :d] = (V * root[..., None, :]) @ _adjoint(V)
    return BlockEncoding(
        unitary=U, system_dim=d, ancilla_dim=2, normalization=float(alpha),
        eigenvalues=w, eigenvectors=V,
    )


def block_encode(O, alpha: float) -> BlockEncoding:
    """Two-block unitary dilation [[A, B], [B, -A]] with A = O/alpha, B = sqrt(I - A^2).

    O is one operator or a (..., d, d) stack of them, all encoded at `alpha`
    by one stacked eigensolve.
    """
    dense = np.asarray(O, dtype=np.complex128)
    if not np.abs(dense - _adjoint(dense)).max() <= 1e-10:
        raise ValueError("block_encode expects a finite Hermitian operator")
    A = dense / alpha if alpha != 1.0 else dense
    w, V = np.linalg.eigh(A)
    if np.abs(w).max() > 1.0 + 1e-12:
        raise ValueError(
            f"operator norm {np.abs(w).max() * alpha:.6g} exceeds normalization {alpha:.6g}"
        )
    return _dilate(A, w, V, alpha)


def eigen_poly_transform(B: BlockEncoding, f) -> BlockEncoding:
    """Apply f to the eigenvalues of the encoded operator.

    The encoded operator's eigenpairs are the block's, with each eigenvalue
    scaled by the normalization; the result is V f(w) V^H, encoded at
    normalization 1 on the same eigenpairs.  For a block-diagonal
    (sector-split) operator this acts on every block independently, because a
    function of a Hermitian matrix is basis-free.  `f` is one
    `PolynomialSpec` for every slice of a stacked B, or a sequence of one
    spec per slice, in the order of B's flattened leading axes.
    """
    specs = (f,) if isinstance(f, PolynomialSpec) else tuple(f)
    lead = B.eigenvalues.shape[:-1]
    if len(specs) != 1 and len(specs) != math.prod(lead):
        raise ValueError(f"{len(specs)} polynomials for a stack of shape {lead}")
    _check_bounded(specs)
    # One column per slice, with a unit axis that meets the eigenvalue axis.
    coefficients = _coefficient_columns(specs).reshape(
        (-1,) + (lead if len(specs) > 1 else ()) + (1,)
    )
    V = B.eigenvectors
    fw = np.real(polyval(B.normalization * B.eigenvalues, coefficients, tensor=False))
    if np.abs(fw).max() > 1.0 + 1e-12:
        raise ValueError(
            f"polynomial reaches {np.abs(fw).max():.6g} on the spectrum; cannot block-encode"
        )
    transformed = (V * fw[..., None, :]) @ _adjoint(V)
    transformed = (transformed + _adjoint(transformed)) / 2.0
    return _dilate(transformed, fw, V, 1.0)


def evolve(O, t: float) -> np.ndarray:
    """Exact unitary e^{iOt} of a Hermitian generator, by eigendecomposition."""
    dense = np.asarray(O, dtype=np.complex128)
    if np.abs(dense - dense.conj().T).max() > 1e-10:
        raise ValueError("evolve expects a Hermitian generator")
    w, V = np.linalg.eigh(dense)
    return (V * np.exp(1j * w * t)) @ V.conj().T


def phase_encoding_deviation(A_set, x, q: int, psi) -> float:
    """Distance between true evolution and the ideal linear-phase oracle.

    Returns |<psi| e^{i t sum_j x_j A_j} |psi> - e^{i t sum_j x_j <A_j>}| at
    t = pi * 2^q on a state vector psi.  Requires the recentred-observable
    contract |<A_j>| <= 2^{-q}; callers use this to justify feeding exact
    expectations straight into probe registers.
    """
    vec = np.asarray(psi, dtype=np.complex128)
    x = np.asarray(x, dtype=np.float64)
    mats = [np.asarray(a, dtype=np.complex128) for a in A_set]
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

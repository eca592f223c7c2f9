"""Dense pure-state handling for small mode counts.

States are immutable full vectors of length 2^N (hard cap N = 12).  For
larger N with a small occupation sector there is a compact route that returns
just the C(N, eta) in-sector amplitudes next to their basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from . import fermion

_MAX_FULL_MODES = 12
_MAX_COMPACT_MODES = 20
_MAX_COMPACT_SUPPORT = 4096


@dataclass(frozen=True)
class PureState:
    """Unit-norm amplitude vector over occupation-number basis states."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128).ravel()
        object.__setattr__(self, "amplitudes", amps)
        n = amps.size
        if n == 0 or n & (n - 1):
            raise ValueError(f"amplitude vector length {n} is not a power of two")
        if n > (1 << _MAX_FULL_MODES):
            raise ValueError(
                f"full statevectors are capped at {_MAX_FULL_MODES} modes "
                f"(got length {n}); use the compact sector route instead"
            )
        nrm = float(np.linalg.norm(amps))
        if abs(nrm - 1.0) > 1e-12:
            raise ValueError(f"state norm {nrm:.15g} differs from 1 beyond 1e-12")

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @property
    def num_modes(self) -> int:
        return self.dim.bit_length() - 1


def basis_state(N: int, index: int) -> PureState:
    if not 0 <= index < (1 << N):
        raise ValueError(f"basis index {index} out of range for {N} modes")
    amps = np.zeros(1 << N, dtype=np.complex128)
    amps[index] = 1.0
    return PureState(amps)


def _haar_amplitudes(n: int, rng: np.random.Generator) -> np.ndarray:
    raw = rng.normal(size=n) + 1j * rng.normal(size=n)
    # Fix the global phase so degenerate one-dimensional supports come out as
    # plain basis states; expectation values never see the difference.  Polar
    # form keeps the pivot component exactly real positive.
    mag = np.abs(raw)
    phase = np.angle(raw)
    out = mag * np.exp(1j * (phase - phase[np.argmax(mag)]))
    return out / np.linalg.norm(out)


def random_sector_state(N: int, eta: int, rng=None) -> PureState:
    """Haar-random unit vector supported exactly on the Hamming-weight-eta indices."""
    gen = np.random.default_rng(rng)
    basis = fermion.sector_basis(N, eta)
    amps = np.zeros(1 << N, dtype=np.complex128)
    amps[basis.indices] = _haar_amplitudes(basis.dimension, gen)
    return PureState(amps)


def random_sector_amplitudes(N: int, eta: int, rng=None):
    """Compact variant: (sector basis, in-sector amplitudes) without the full vector."""
    if N > _MAX_COMPACT_MODES:
        raise ValueError(f"compact sector states are capped at {_MAX_COMPACT_MODES} modes")
    if math.comb(N, eta) > _MAX_COMPACT_SUPPORT:
        raise ValueError(
            f"sector dimension C({N},{eta}) exceeds the compact cap {_MAX_COMPACT_SUPPORT}"
        )
    gen = np.random.default_rng(rng)
    basis = fermion.sector_basis(N, eta)
    return basis, _haar_amplitudes(basis.dimension, gen)


def expectation(O, psi) -> float:
    """Real part of <psi|O|psi>; the imaginary residual must stay below 1e-10."""
    mat = O.matrix if isinstance(O, fermion.Observable) else O
    vec = psi.amplitudes if isinstance(psi, PureState) else np.asarray(psi, dtype=np.complex128)
    if mat.shape[1] != vec.size:
        raise ValueError(f"dimension mismatch: operator {mat.shape} vs state {vec.size}")
    val = complex(np.vdot(vec, mat @ vec))
    if abs(val.imag) > 1e-10:
        raise ValueError(f"non-Hermitian expectation: imaginary residual {val.imag:.3g}")
    return float(val.real)


def expectations(observables, psi) -> np.ndarray:
    """Expectation values of a list of observables on one state."""
    return np.array([expectation(o, psi) for o in observables])


def _check_unitary(U: np.ndarray, tol: float = 1e-10) -> None:
    d = U.shape[0]
    if U.shape[0] != U.shape[1]:
        raise ValueError(f"unitary must be square, got {U.shape}")
    if d <= 512:
        gap = np.abs(U.conj().T @ U - np.eye(d)).max()
    else:
        # Full d x d verification is quadratic in memory traffic; above 512 we
        # certify with random probes instead (catches any fixed defect whp).
        probe_rng = np.random.default_rng(0xC0FFEE)
        gap = 0.0
        for _ in range(4):
            v = probe_rng.normal(size=d) + 1j * probe_rng.normal(size=d)
            v /= np.linalg.norm(v)
            w = U @ v
            gap = max(gap, float(np.abs(U.conj().T @ w - v).max()))
    if gap > tol:
        raise ValueError(f"matrix is not unitary: deviation {gap:.3g} exceeds {tol:g}")


def apply(U, psi: PureState, check: bool = True) -> PureState:
    """Apply a unitary and renormalize to absorb float round-off."""
    U = np.asarray(U, dtype=np.complex128) if not sparse.issparse(U) else U
    if check:
        _check_unitary(U.toarray() if sparse.issparse(U) else U)
    out = U @ psi.amplitudes
    out = np.asarray(out).ravel()
    return PureState(out / np.linalg.norm(out))


def sector_mass(psi: PureState) -> np.ndarray:
    """Probability mass per Hamming weight, length N + 1."""
    weights = fermion.popcount(np.arange(psi.dim))
    mass = np.zeros(psi.num_modes + 1)
    np.add.at(mass, weights, np.abs(psi.amplitudes) ** 2)
    return mass

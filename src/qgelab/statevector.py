"""Dense pure-state handling for small mode counts.

States are immutable full vectors of length 2^N (hard cap N = 12).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fermion

MAX_FULL_MODES = 12


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
        if n > (1 << MAX_FULL_MODES):
            raise ValueError(
                f"full statevectors are capped at {MAX_FULL_MODES} modes "
                f"(got length {n})"
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
    amps[basis] = _haar_amplitudes(basis.size, gen)
    return PureState(amps)


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


"""Sector-random amplitudes, and the reference route: dense pure states for small N.

A `PureState` is an immutable full vector of length 2^N (hard cap N = 12)
whose norm is within 1e-12 of 1 (a NaN norm is refused).  A problem holds
only its C(N, eta) sector amplitudes; `engine.Problem.state` scatters them
into a `PureState` when a reference check reads it.  `expectation` reads an
`Observable` from its numpy entries, so the reference route loads no scipy.
"""

from __future__ import annotations

import math
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
        if not abs(nrm - 1.0) <= 1e-12:  # a NaN norm fails too
            raise ValueError(f"state norm {nrm:.15g} differs from 1 beyond 1e-12")


def _haar_amplitudes(n: int, rng: np.random.Generator) -> np.ndarray:
    raw = rng.normal(size=n) + 1j * rng.normal(size=n)
    # Fix the global phase so degenerate one-dimensional supports come out as
    # plain basis states; expectation values never see the difference.  Polar
    # form keeps the pivot component exactly real positive.
    mag = np.abs(raw)
    phase = np.angle(raw)
    out = mag * np.exp(1j * (phase - phase[np.argmax(mag)]))
    return out / np.linalg.norm(out)


def random_sector_amplitudes(N: int, eta: int, rng) -> np.ndarray:
    """Haar-random unit vector over the C(N, eta) indices of `fermion.sector_basis(N, eta)`."""
    return _haar_amplitudes(math.comb(N, eta), np.random.default_rng(rng))


def expectation(O, psi) -> float:
    """Real part of <psi|O|psi> on a `PureState`; the imaginary residual stays below 1e-10.

    An `Observable` is read from its entries, sum_i conj(psi[row_i]) value_i
    psi[col_i]; an array or scipy operator by its product with the vector.
    """
    vec = psi.amplitudes
    shape = (O.dim, O.dim) if isinstance(O, fermion.Observable) else O.shape
    if shape[1] != vec.size:
        raise ValueError(f"dimension mismatch: operator {shape} vs state {vec.size}")
    if isinstance(O, fermion.Observable):
        val = complex(np.vdot(vec[O.rows], O.values * vec[O.cols]))
    else:
        val = complex(np.vdot(vec, O @ vec))
    if abs(val.imag) > 1e-10:
        raise ValueError(f"non-Hermitian expectation: imaginary residual {val.imag:.3g}")
    return float(val.real)


def expectations(observables, psi) -> np.ndarray:
    """Expectation values of a list of observables on one state."""
    return np.array([expectation(o, psi) for o in observables])


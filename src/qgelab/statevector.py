"""Sector-random amplitudes, and the reference route: exact expectations on a vector.

A problem holds its state as C(N, eta) amplitudes on `fermion.sector_basis`,
and `engine.Problem.observables` act on that sector, so the reference read
takes the amplitudes as they are and builds no 2^N array.  `expectation`
reads an `Observable` from its numpy entries and loads no scipy.
"""

from __future__ import annotations

import math

import numpy as np

from . import fermion


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
    """Real part of <psi|O|psi> on a vector; the imaginary residual stays below 1e-10.

    An `Observable` is read from its entries, sum_i conj(psi[row_i]) value_i
    psi[col_i]; an array by its product with the vector.
    """
    vec = np.asarray(psi, dtype=np.complex128)
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


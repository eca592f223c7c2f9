"""The register route: the probe readout built cell by cell, as the oracle the
closed-form law `probe._readout_law` is held to.

A phase slope v is written onto a fresh register as amplitudes
c_x e^{2 pi i 2^p x v} over the grid points x (`encode_register`, with the
window c from `window_amplitudes`); the inverse grid QFT (`iqft`) maps it to
the readout amplitudes, and their squared moduli are the readout
distribution (`readout_distribution`).  The QFT is a dense 2^p x 2^p complex
matrix (`_qft_matrix`), cached per p: 256 MiB at p = `probe.MAX_GRID_BITS`.
The program never builds it.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from qgelab import probe


def window_amplitudes(window: str, p: int) -> np.ndarray:
    """The unit-norm window c over the 2^p register cells."""
    if window == "uniform":
        return np.full(1 << p, 2.0 ** (-p / 2))
    if window == "sine":
        n = 1 << p
        c = np.sin(np.pi * (np.arange(n) + 1) / (n + 1))
        return c / np.linalg.norm(c)
    raise ValueError(f"unknown window {window!r}; expected one of {probe.WINDOWS}")


def encode_register(
    v, grid: probe.Grid, window: str = "uniform", noise: probe.NoiseSpec = probe.IDEAL, rng=None
) -> np.ndarray:
    """Write phase slope v onto a fresh register: amplitudes c_x e^{2 pi i 2^p x v}.

    A 1-D array of slopes gives one register per column, shape (2^p, v.size).
    Noise is drawn for one register: each amplitude's phase jitters by
    U(-jitter, +jitter), and with probability fail_prob the register is
    replaced by a Haar-random state.
    """
    v = np.asarray(v, dtype=np.float64)
    c = window_amplitudes(window, grid.p).reshape((-1,) + (1,) * v.ndim)
    amps = c * np.exp(2j * np.pi * grid.size * np.multiply.outer(grid.points, v))
    if noise != probe.IDEAL:
        gen = np.random.default_rng(rng)
        if noise.phase_jitter > 0:
            jit = gen.uniform(-noise.phase_jitter, noise.phase_jitter, size=amps.size)
            amps = amps * np.exp(1j * jit)
        if noise.fail_prob > 0 and gen.random() < noise.fail_prob:
            raw = gen.normal(size=amps.size) + 1j * gen.normal(size=amps.size)
            amps = raw / np.linalg.norm(raw)
    return amps


@lru_cache(maxsize=16)
def _qft_matrix(p: int) -> np.ndarray:
    """QFT |x> = 2^{-p/2} sum_k e^{2 pi i 2^p x k} |k> over the grid; read-only."""
    grid = probe.make_grid(p)
    # In place, so the build holds the complex result and its float outer product, no more.
    F = (2j * np.pi * grid.size) * np.outer(grid.points, grid.points)
    np.exp(F, out=F)
    F *= 2.0 ** (-p / 2)
    F.setflags(write=False)
    return F


def iqft(amplitudes: np.ndarray, p: int) -> np.ndarray:
    """Inverse grid QFT of a register, or of a (2^p, K) stack of registers by column.

    The QFT matrix is an outer product of the grid with itself, so F = F^T
    and F^H a = conj(F conj(a)): the cached matrix is read, never copied.
    """
    return np.conj(_qft_matrix(p) @ np.conj(amplitudes))


def readout_distribution(v, grid: probe.Grid, window: str = "uniform") -> np.ndarray:
    """Exact measurement distribution after encode + inverse QFT, no sampling.

    A 1-D array of slopes gives one distribution per column, from one
    inverse-QFT product.
    """
    probs = np.abs(iqft(encode_register(v, grid, window), grid.p)) ** 2
    return probs / probs.sum(axis=0)

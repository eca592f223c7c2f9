"""Probe registers over the readout grid: phase encoding, inverse QFT, sampling.

The grid G_p holds 2^p points (j + 1/2) * 2^-p - 1/2, symmetric about zero
with spacing 2^-p and no point at zero.  A phase slope v written onto a
register as amplitudes c_x * e^{2 pi i 2^p x v} concentrates, after the
inverse grid QFT, on the grid points nearest v; measurement plus a
coordinate-wise median gives the decoder the adaptive loop consumes.
`sample_median` draws that median exactly: register noise averages to one
uniform-mixture weight, and the median of R copies is one Beta order
statistic pushed through the inverse CDF.

Registers for different observables never get entangled here: for linear
phases the ideal M-register probe state factorizes, so the simulator only
ever materializes one 2^p-amplitude factor at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_WINDOWS = ("uniform", "sine")


@dataclass(frozen=True)
class Grid:
    """Readout grid with 2^p symmetric points in (-1/2, 1/2)."""

    p: int
    points: np.ndarray

    @property
    def size(self) -> int:
        return 1 << self.p

    @property
    def spacing(self) -> float:
        return 2.0**-self.p


# The register-size cap: `_qft_matrix(p)` is a dense 2^p x 2^p complex array,
# 256 MiB at p = 12 and 16 TiB at p = 20.
MAX_GRID_BITS = 12


def make_grid(p: int) -> Grid:
    if not 1 <= p <= MAX_GRID_BITS:
        raise ValueError(f"grid needs 1 <= p <= {MAX_GRID_BITS}, got {p}")
    j = np.arange(1 << p, dtype=np.float64)
    points = (j + 0.5) * 2.0**-p - 0.5
    points.setflags(write=False)
    return Grid(p=int(p), points=points)


@dataclass(frozen=True)
class NoiseSpec:
    """Register-level non-idealities.

    phase_jitter: each amplitude's phase is perturbed by U(-jitter, +jitter) radians.
    fail_prob: with this probability the register is replaced by a uniformly
    random pure state before readout (a failed subroutine call).
    """

    phase_jitter: float = 0.0
    fail_prob: float = 0.0

    def __post_init__(self):
        if self.phase_jitter < 0:
            raise ValueError("phase_jitter must be nonnegative")
        if not 0.0 <= self.fail_prob <= 1.0:
            raise ValueError("fail_prob must lie in [0, 1]")

    @property
    def is_ideal(self) -> bool:
        return self.phase_jitter == 0.0 and self.fail_prob == 0.0

    @property
    def uniform_weight(self) -> float:
        """Weight w of the uniform grid distribution in the noise-averaged readout.

        Jitter U(-J, J) on every amplitude gives E[e^{i(phi_x - phi_y)}] =
        sinc(J)^2 for x != y, and |F_kx|^2 = 2^-p, so one copy reads out
        sinc(J)^2 P + (1 - sinc(J)^2) uniform; a failed register (Haar state)
        reads out uniform.  Together: w = 1 - (1 - fail_prob) sinc(J)^2.
        """
        J = self.phase_jitter
        sinc = math.sin(J) / J if J else 1.0
        return 1.0 - (1.0 - self.fail_prob) * sinc * sinc


IDEAL = NoiseSpec()


@dataclass(frozen=True)
class ProbeRegister:
    grid: Grid
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        object.__setattr__(self, "amplitudes", amps)
        if amps.size != self.grid.size:
            raise ValueError(f"register length {amps.size} != grid size {self.grid.size}")
        if abs(np.linalg.norm(amps) - 1.0) > 1e-10:
            raise ValueError("register is not normalized")


def window_amplitudes(window: str, p: int) -> np.ndarray:
    if window == "uniform":
        return np.full(1 << p, 2.0 ** (-p / 2))
    if window == "sine":
        n = 1 << p
        c = np.sin(np.pi * (np.arange(n) + 1) / (n + 1))
        return c / np.linalg.norm(c)
    raise ValueError(f"unknown window {window!r}; expected one of {_WINDOWS}")


def encode_register(
    v: float, grid: Grid, window: str = "uniform", noise: NoiseSpec = IDEAL, rng=None
) -> ProbeRegister:
    """Write phase slope v onto a fresh register: amplitudes c_x e^{2 pi i 2^p x v}."""
    c = window_amplitudes(window, grid.p)
    amps = c * np.exp(2j * np.pi * grid.size * grid.points * v)
    if not noise.is_ideal:
        gen = np.random.default_rng(rng)
        if noise.phase_jitter > 0:
            jit = gen.uniform(-noise.phase_jitter, noise.phase_jitter, size=amps.size)
            amps = amps * np.exp(1j * jit)
        if noise.fail_prob > 0 and gen.random() < noise.fail_prob:
            raw = gen.normal(size=amps.size) + 1j * gen.normal(size=amps.size)
            amps = raw / np.linalg.norm(raw)
    return ProbeRegister(grid=grid, amplitudes=amps)


@lru_cache(maxsize=16)
def _qft_matrix(p: int) -> np.ndarray:
    grid = make_grid(p)
    phases = np.outer(grid.points, grid.points)
    F = 2.0 ** (-p / 2) * np.exp(2j * np.pi * grid.size * phases)
    F.setflags(write=False)
    return F


def iqft(reg: ProbeRegister) -> ProbeRegister:
    """Inverse of QFT |x> = 2^{-p/2} sum_k e^{2 pi i 2^p x k} |k>."""
    return ProbeRegister(
        grid=reg.grid, amplitudes=_qft_matrix(reg.grid.p).conj().T @ reg.amplitudes
    )


def readout_distribution(v: float, grid: Grid, window: str = "uniform") -> np.ndarray:
    """Exact measurement distribution after encode + inverse QFT, no sampling."""
    reg = encode_register(v, grid, window)
    out = iqft(reg)
    probs = np.abs(out.amplitudes) ** 2
    return probs / probs.sum()


@lru_cache(maxsize=16)
def _readout_operands(window: str, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Window amplitudes and the inverse-QFT matrix (a conj-transposed view), read-only."""
    c = window_amplitudes(window, p)
    inverse_qft = _qft_matrix(p).conj().T
    c.setflags(write=False)
    inverse_qft.setflags(write=False)
    return c, inverse_qft


def _distribution_matrix(v, grid: Grid, window: str, noise: NoiseSpec) -> np.ndarray:
    """Column j holds the noise-averaged readout distribution for slope v_j; shape (2^p, M).

    A (T, M) stack of slopes gives a (T, 2^p, M) stack.  Each slice is its own
    inverse-QFT product of the unstacked shape, so it equals the distribution
    of that row alone bit for bit; one (2^p, T M) product would not, because
    the BLAS kernel that computes a column depends on where the column sits.
    """
    v = np.asarray(v, dtype=np.float64)
    c, inverse_qft = _readout_operands(window, grid.p)
    regs = c[:, None] * np.exp(2j * np.pi * grid.size * (grid.points[:, None] * v[..., None, :]))
    out = inverse_qft @ regs
    probs = np.abs(out) ** 2
    probs /= probs.sum(axis=-2, keepdims=True)
    w = noise.uniform_weight
    return (1.0 - w) * probs + w / grid.size if w else probs


def single_shot_success(v_vec, grid: Grid, window: str = "uniform") -> np.ndarray:
    """Exact Pr[|g - v_j| <= 2^-p] for one noiseless shot at each slope; shape (M,).

    Reads the same readout law `sample_median` samples from.
    """
    v_vec = np.asarray(v_vec, dtype=np.float64)
    probs = _distribution_matrix(v_vec, grid, window, IDEAL)
    near = np.abs(grid.points[:, None] - v_vec) <= grid.spacing + 1e-15
    return (probs * near).sum(axis=0)


def _inverse_cdf(cum: np.ndarray, u: np.ndarray, grid: Grid) -> np.ndarray:
    """Grid point at which each column's CDF (axis -1) first reaches u."""
    idx = (u[..., None] > cum).sum(axis=-1)
    return grid.points[np.minimum(idx, grid.size - 1)]


def sample_median(
    v_vec, grid: Grid, R: int, window: str = "uniform", noise: NoiseSpec = IDEAL, rng=None
) -> np.ndarray:
    """Coordinate-wise lower median of R iid noisy readouts, drawn exactly; shape (M,).

    Copies are independent and the register product structure lets each
    coordinate be drawn from its own 2^p-outcome distribution, so the
    readouts of one coordinate are iid from the noise-averaged mixture.  Its
    inverse CDF is monotone, so the ceil(R/2)-th smallest of R readouts is
    the inverse CDF at the matching uniform order statistic, which is
    Beta(m, R - m + 1) with m = ceil(R/2): one draw per coordinate, not R.
    The parallel single-shot readout is modeled by this same law and differs
    only in how the caller charges it.
    """
    v = np.asarray(v_vec, dtype=np.float64)
    return sample_median_rows(v[None], grid, R, window, noise, [np.random.default_rng(rng)])[0]


def sample_median_rows(
    v_rows: np.ndarray, grid: Grid, R: int, window: str, noise: NoiseSpec, gens
) -> np.ndarray:
    """`sample_median` of each row of a (T, M) slope array, row t drawn from gens[t]; shape (T, M).

    Row t is `sample_median(v_rows[t], grid, R, window, noise, gens[t])` bit
    for bit: its readout law is its own slice of one stacked
    `_distribution_matrix`, and it takes its M Beta order statistics from
    gens[t] alone, in the same order.
    """
    if R < 1:
        raise ValueError(f"need R >= 1 copies, got {R}")
    cum = np.cumsum(_distribution_matrix(v_rows, grid, window, noise), axis=-2).swapaxes(-1, -2)
    m = math.ceil(R / 2)
    u = np.empty(v_rows.shape)
    for row, gen in zip(u, gens, strict=True):
        row[:] = gen.beta(m, R - m + 1, size=row.size)
    return _inverse_cdf(cum, u, grid)


# The benchmark's span tracer looks this name up; it wraps the alias only.
parallel_single_shot = sample_median


def draw_readouts(
    v_vec, grid: Grid, R: int, window: str = "uniform", noise: NoiseSpec = IDEAL, rng=None
) -> np.ndarray:
    """R iid measured grid points per coordinate from the same mixture; shape (R, M).

    With `readout_median` this is the brute-force reference for
    `sample_median`.
    """
    if R < 1:
        raise ValueError(f"need R >= 1 copies, got {R}")
    gen = np.random.default_rng(rng)
    cum = np.cumsum(_distribution_matrix(v_vec, grid, window, noise), axis=0).T
    return _inverse_cdf(cum, gen.random((R, cum.shape[0])), grid)


def readout_median(samples: np.ndarray) -> np.ndarray:
    """Coordinate-wise lower median: order statistic ceil(R/2) of each column.

    The lower median of grid-valued samples is itself a grid point, which
    keeps the decode analysis exact.
    """
    arr = np.asarray(samples)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.shape[0] == 0:
        raise ValueError("need at least one readout sample")
    return np.sort(arr, axis=0)[math.ceil(arr.shape[0] / 2) - 1]

"""Probe readout over the grid: one readout law and one median sampler.

The grid G_p holds 2^p points (j + 1/2) * 2^-p - 1/2, symmetric about zero
with spacing 2^-p and no point at zero.  A phase slope v written onto a
register as amplitudes c_x * e^{2 pi i 2^p x v} concentrates, after the
inverse grid QFT, on the grid points nearest v; measurement plus a
coordinate-wise median gives the decoder the adaptive loop consumes.
`sample_median_rows` draws that median exactly, for a stack of slope rows:
register noise averages to one uniform-mixture weight, and the median of R
copies is one Beta order statistic pushed through the inverse CDF.

The readout law (`_readout_law`) is the geometric series of the register's
phases summed in closed form: elementwise in the distance from the slope,
reduced mod 1, to each grid point, with no 2^p x 2^p matrix.  Because it
reads each slope alone, the sampler computes it once per distinct slope of a
stack.  The register route, which builds the registers and the dense inverse
QFT cell by cell, is the tests' oracle for the law (`tests/register_oracle.py`).

Registers for different observables never get entangled here: for linear
phases the ideal M-register probe state factorizes, so each observable's
readout is drawn from its own 2^p-outcome law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

WINDOWS = ("uniform", "sine")


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


# The register-size cap.  The run path's law takes M 2^p cells per trial, but
# the register route the tests check it against (`tests/register_oracle.py`)
# builds the inverse QFT as a dense 2^p x 2^p complex array: 256 MiB at p = 12
# and 16 TiB at p = 20.
MAX_GRID_BITS = 12


def check_grid_bits(p: int) -> None:
    """Refuse a register width outside 1..MAX_GRID_BITS."""
    if not 1 <= p <= MAX_GRID_BITS:
        raise ValueError(f"grid needs 1 <= p <= {MAX_GRID_BITS}, got {p}")


def make_grid(p: int) -> Grid:
    check_grid_bits(p)
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
        # nan would make the mixture weight nan and every readout the first cell
        if not 0.0 <= self.phase_jitter < math.inf:
            raise ValueError(
                f"phase_jitter must be finite and nonnegative, got {self.phase_jitter}"
            )
        if not 0.0 <= self.fail_prob <= 1.0:
            raise ValueError(f"fail_prob must lie in [0, 1], got {self.fail_prob}")

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


def _sin_pi_distance(t: np.ndarray, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """sin(pi d_k) at the distance d_k = t - (g_k + r_k) from each slope t to the
    nearest integer shift of each grid point; shape (2^p, t.size), with r.

    g_k + r is exact (a dyadic with p + 2 bits), and so is t - (g_k + r) near
    0, so the sine keeps its relative precision at every zero of sin(pi (t - g_k)),
    the wrap t - g_k ~ +-1 included; sin(pi (t - g_k)) = (-1)^r sin(pi d_k).
    """
    d = t - grid.points[:, None]
    r = np.rint(d)
    shifted = r + grid.points[:, None]
    np.subtract(t, shifted, out=d)
    d *= np.pi
    np.sin(d, out=d)
    return d, r


def _sine_terms(t: np.ndarray, grid: Grid) -> np.ndarray:
    """(-1)^(n/2+k+1) D(t - g_k), D(a) = sin(pi n a) / sin(pi a), n = 2^p; shape (n, t.size).

    Since n g_k = k + 1/2 - n/2, the numerator is (-1)^(n/2+k+1) cos(pi n t):
    one cosine per slope, taken as +-sin(pi (1/2 - |y|)) with y = n t - rint(n t).
    n t and y are exact, and so is 1/2 - |y| near the cosine's zeros; the
    denominator comes from `_sin_pi_distance`.  So both sides keep their
    relative precision wherever sin(pi (t - g_k)) is small, the wrap
    t - g_k ~ +-1 included, and at the removable point t = g_k exactly D = n
    (|t| <= 1/2 + h keeps t - g_k off +-1).  The sign (-1)^(n/2+k+1) is the
    same for t + h and t - h at one cell, so it drops out of the sine
    window's law.
    """
    n = grid.size
    nt = n * t
    r = np.rint(nt)
    num = np.sin(np.pi * (0.5 - np.abs(nt - r)))
    num *= 1.0 - 2.0 * np.mod(r, 2.0)
    den, r = _sin_pi_distance(t, grid)
    np.negative(den, out=den, where=r != 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = num / den
    at_point = den == 0
    if at_point.any():
        terms[at_point] = np.where((np.nonzero(at_point)[0] + n // 2) % 2, n, -n)
    return terms


def _readout_law(v: np.ndarray, grid: Grid, window: str, noise: NoiseSpec) -> np.ndarray:
    """Noise-averaged readout law of each slope of the 1-D array v; shape (2^p, v.size).

    Summing the geometric series of the register's phases gives the law in
    closed form, elementwise in delta_k = v_r - g_k, v_r = v - floor(v + 1/2)
    (an exact subtraction; the law has period 1 in v), with n = 2^p:
    - uniform window, the Fejer kernel: P_k = sin^2(pi n delta_k) /
      (n^2 sin^2(pi delta_k)).  n is even, so sin^2(pi n delta_k) = cos^2(pi n v)
      for every k and cancels in the normalisation: P_k ~ 1 / sin^2(pi delta_k),
      one-hot where sin^2(pi delta_k) is 0.
    - sine window: P_k ~ (D(delta_k + h) + D(delta_k - h))^2 with
      h = 1 / (2 (n + 1)) (`_sine_terms`).
    Each sine reads the exact distance to the nearest shift of a grid point,
    so the uniform law keeps its relative precision next to a slope's cell and
    at the wrap v_r ~ +-1/2.  The sine law is exact for the slopes v_r + h and
    v_r - h as rounded, one rounding each, so its error grows like 2^p ulps:
    about 2e-13 at p = 12, as large as the register route's own.

    Column j depends on v[j]'s bits alone, whatever else v holds: every step
    is elementwise, and the normalising sum adds a column's cells one at a
    time in cell order (`np.sum` over axis 0 sums pairwise when v has one
    entry, and row by row when it has more).
    """
    vr = v - np.floor(v + 0.5)
    if window == "uniform":
        law = _sin_pi_distance(vr, grid)[0]
        law *= law
        peak = law == 0
        with np.errstate(divide="ignore"):
            np.reciprocal(law, out=law)
        if peak.any():
            hit = peak.any(axis=0)
            law[:, hit] = peak[:, hit]
    elif window == "sine":
        h = 0.5 / (grid.size + 1)
        law = _sine_terms(vr + h, grid)
        law += _sine_terms(vr - h, grid)
        law *= law
    else:
        raise ValueError(f"unknown window {window!r}; expected one of {WINDOWS}")
    total = law[0].copy()
    for cell in law[1:]:
        total += cell
    law /= total
    w = noise.uniform_weight
    return (1.0 - w) * law + w / grid.size if w else law


def single_shot_success(v_vec, grid: Grid) -> np.ndarray:
    """Exact Pr[|g - v_j| <= 2^-p] for one noiseless uniform-window shot at each slope;
    shape (M,).  Reads the closed-form law `sample_median_rows` samples from.
    """
    v_vec = np.asarray(v_vec, dtype=np.float64)
    probs = _readout_law(v_vec, grid, "uniform", IDEAL)
    near = np.abs(grid.points[:, None] - v_vec) <= grid.spacing + 1e-15
    return (probs * near).sum(axis=0)


def _inverse_cdf(law: np.ndarray, which: np.ndarray, u: np.ndarray, grid: Grid) -> np.ndarray:
    """Grid point at which the CDF of law column `which` first reaches u.

    `which` broadcasts against u.  The CDF of the first 2^p - 1 cells is
    summed once (`np.cumsum` along the cells adds them one at a time, in
    order); the walk then counts, cell by cell, the entries whose CDF is
    below u, with one flat gather per cell: the CDF is monotone, so this is
    min(#{cdf < u}, 2^p - 1) without a (..., 2^p) array.
    """
    cdf = np.cumsum(law[:-1], axis=0)
    at = np.empty(u.shape, dtype=np.intp)
    at[...] = which
    at, u_flat = at.reshape(-1), u.reshape(-1)
    idx = np.zeros(u_flat.shape, dtype=np.intp)
    for cell in cdf:
        idx += u_flat > cell[at]
    return grid.points[idx].reshape(u.shape)


def sample_median_rows(
    v_rows: np.ndarray, grid: Grid, R: int, window: str, noise: NoiseSpec, gens
) -> np.ndarray:
    """Coordinate-wise lower median of R iid noisy readouts, drawn exactly; shape (T, M).

    Row t of the (T, M) slope array is drawn from gens[t] alone.  Copies are
    independent and the register product structure lets each coordinate be
    drawn from its own 2^p-outcome distribution, so the readouts of one
    coordinate are iid from the noise-averaged mixture.  Its inverse CDF is
    monotone, so the ceil(R/2)-th smallest of R readouts is the inverse CDF
    at the matching uniform order statistic, which is Beta(m, R - m + 1) with
    m = ceil(R/2): one draw per coordinate, not R.  The parallel single-shot
    readout is modeled by this same law and differs only in how the caller
    charges it.

    The runs of a batch mostly follow one lattice path, so a level's T M
    slopes take about M distinct values, and the law is computed once per
    distinct slope.  Only the first row's slopes and the entries that differ
    from the first row's at their coordinate go through `np.unique`, M plus a
    few keys, not T M; 0.0 and -0.0 merge, and both read the same law.  A
    row's output does not depend on the stack it sits in: each slope's law
    reads that slope's bits alone (`_readout_law`), and the row takes its M
    Beta order statistics from gens[t] alone, in coordinate order.
    """
    if R < 1:
        raise ValueError(f"need R >= 1 copies, got {R}")
    v = np.asarray(v_rows, dtype=np.float64)
    off = v != v[0]
    distinct, slot = np.unique(np.concatenate((v[0], v[off])), return_inverse=True)
    which = np.empty(v.shape, dtype=np.intp)
    which[:] = slot[:v.shape[1]]
    which[off] = slot[v.shape[1]:]
    law = _readout_law(distinct, grid, window, noise)
    m = math.ceil(R / 2)
    u = np.empty(v.shape)
    for row, gen in zip(u, gens, strict=True):
        row[:] = gen.beta(m, R - m + 1, size=row.size)
    return _inverse_cdf(law, which, u, grid)


# The benchmark's span tracer looks this name up; it wraps the alias only.
parallel_single_shot = sample_median_rows


def draw_readouts(v_vec, grid: Grid, R: int, noise: NoiseSpec = IDEAL, rng=None) -> np.ndarray:
    """R iid uniform-window grid points per coordinate from the same mixture; shape (R, M).

    With `readout_median` this is the brute-force reference for
    `sample_median_rows`.
    """
    if R < 1:
        raise ValueError(f"need R >= 1 copies, got {R}")
    gen = np.random.default_rng(rng)
    v = np.asarray(v_vec, dtype=np.float64)
    law = _readout_law(v, grid, "uniform", noise)
    return _inverse_cdf(law, np.arange(v.size), gen.random((R, v.size)), grid)


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

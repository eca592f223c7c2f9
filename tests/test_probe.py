"""Probe grid, QFT readout, the readout law, and median decode."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from qgelab import probe


def test_make_grid_small_cases():
    assert np.allclose(probe.make_grid(1).points, [-0.25, 0.25])
    assert np.allclose(probe.make_grid(2).points, [-0.375, -0.125, 0.125, 0.375])
    g3 = probe.make_grid(3)
    assert g3.size == 8
    assert np.allclose(np.diff(g3.points), 1 / 8)
    assert np.allclose(g3.points, -g3.points[::-1])  # symmetric, no point at 0
    assert 0.0 not in g3.points
    with pytest.raises(ValueError):
        probe.make_grid(0)
    with pytest.raises(ValueError):
        probe.make_grid(probe.MAX_GRID_BITS + 1)


@pytest.mark.parametrize("p", range(1, 11))
def test_qft_matrix_unitary(p):
    F = probe._qft_matrix(p)
    gap = np.abs(F.conj().T @ F - np.eye(1 << p)).max()
    assert gap < 1e-10
    # symmetric bit for bit
    assert np.array_equal(F, F.T)


def _out_of_place_qft_matrix(p: int) -> np.ndarray:
    """The QFT matrix as built before `_qft_matrix` worked in place: phases, exp, then scale."""
    grid = probe.make_grid(p)
    phases = np.outer(grid.points, grid.points)
    return 2.0 ** (-p / 2) * np.exp(2j * np.pi * grid.size * phases)


@pytest.mark.parametrize("p", range(1, 11))
def test_qft_matrix_keeps_the_out_of_place_bytes(p):
    assert probe._qft_matrix(p).tobytes() == _out_of_place_qft_matrix(p).tobytes()


def test_qft_matrix_builds_in_place():
    # At p=10 the matrix is 16 MiB and its float outer product 8 MiB; the
    # out-of-place build peaked at 40 MiB.
    tracemalloc.start()
    try:
        probe._qft_matrix.__wrapped__(10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 26 * 2**20


def test_encode_zero_slope_is_flat():
    grid = probe.make_grid(3)
    reg = probe.encode_register(0.0, grid)
    assert np.allclose(reg.amplitudes, 2.0 ** (-1.5), atol=1e-14)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_on_grid_slope_reads_out_exactly(p):
    grid = probe.make_grid(p)
    for v in grid.points:
        out = probe.iqft(probe.encode_register(v, grid))
        probs = np.abs(out.amplitudes) ** 2
        peak = int(np.argmax(probs))
        assert grid.points[peak] == v
        assert probs[peak] == pytest.approx(1.0, abs=1e-12)


def test_flat_register_mass_splits_around_zero():
    # The inverse QFT of the flat register is not a basis state: zero is not a
    # grid point, so the Dirichlet kernel splits its mass over the two
    # straddling points, each carrying 4^-p / sin^2(pi k).
    for p in (2, 3):
        grid = probe.make_grid(p)
        flat = probe.ProbeRegister(grid, np.full(grid.size, 2.0 ** (-p / 2), dtype=complex))
        probs = np.abs(probe.iqft(flat).amplitudes) ** 2
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        expected = 4.0**-p / np.sin(np.pi * grid.points) ** 2
        assert np.allclose(probs, expected, atol=1e-12)
        near = np.argsort(np.abs(grid.points))[:2]
        assert probs[near[0]] == pytest.approx(probs[near[1]], abs=1e-12)
    # frozen value at p=2: 1/16 / sin^2(pi/8)
    grid = probe.make_grid(2)
    flat = probe.ProbeRegister(grid, np.full(4, 0.5, dtype=complex))
    probs = np.abs(probe.iqft(flat).amplitudes) ** 2
    assert probs[1] == pytest.approx(0.4267766952966369, abs=1e-12)


def test_iqft_preserves_norm():
    rng = np.random.default_rng(3)
    grid = probe.make_grid(5)
    raw = rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size)
    reg = probe.ProbeRegister(grid, raw / np.linalg.norm(raw))
    out = probe.iqft(reg)
    assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_readout_distribution_matches_dirichlet_kernel():
    grid = probe.make_grid(3)
    v = 0.2
    probs = probe.readout_distribution(v, grid)
    delta = v - grid.points
    expected = 4.0**-grid.p * (np.sin(np.pi * grid.size * delta) / np.sin(np.pi * delta)) ** 2
    assert np.allclose(probs, expected, atol=1e-12)


@pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
def test_single_shot_success_bound(p):
    grid = probe.make_grid(p)
    vs = np.linspace(-1 / math.pi, 1 / math.pi, 101)
    succ = probe.single_shot_success(vs, grid)
    assert succ.shape == (101,)
    assert succ.min() >= 8 / math.pi**2 - 1e-12


@pytest.mark.parametrize("window", ["uniform", "sine"])
@pytest.mark.parametrize("p", range(1, 7))
def test_distribution_matrix_matches_register_route(p, window):
    # The engine's batched readout law, column by column, against the
    # register route: encode_register -> iqft -> |amplitudes|^2; and the
    # uniform-window single-shot success read from it against the same route.
    grid = probe.make_grid(p)
    vs = np.linspace(-1 / math.pi, 1 / math.pi, 101)
    matrix = probe._distribution_matrix(vs, grid, window, probe.IDEAL)
    success = probe.single_shot_success(vs, grid)
    for j, v in enumerate(vs):
        oracle = probe.readout_distribution(v, grid, window)
        assert np.abs(matrix[:, j] - oracle).max() <= 1e-12
        if window == "uniform":
            near = np.abs(grid.points - v) <= grid.spacing + 1e-15
            assert success[j] == pytest.approx(oracle[near].sum(), abs=1e-12)


def _uniform_law(delta, n):
    """Flat window: sin^2(pi n delta) / (n^2 sin^2(pi delta)), delta = v - g."""
    return np.sin(np.pi * n * delta) ** 2 / (n * n * np.sin(np.pi * delta) ** 2)


def _sine_law(delta, n):
    """Sine window: cos^2((n+1) pi delta) / (cos 2 pi delta - cos(pi/(n+1)))^2, normalised."""
    w = np.cos((n + 1) * np.pi * delta) ** 2 / (
        np.cos(2 * np.pi * delta) - np.cos(np.pi / (n + 1))
    ) ** 2
    return w / w.sum()


# Each window's closed form and its removable points |delta mod 1| = r(n).
CLOSED_LAWS = {
    "uniform": (_uniform_law, lambda n: 0.0),
    "sine": (_sine_law, lambda n: 0.5 / (n + 1)),
}


@pytest.mark.parametrize("window", ["uniform", "sine"])
@pytest.mark.parametrize("p", range(1, 8))
def test_readout_laws_match_closed_forms(p, window):
    # Both readout routes read one window, so comparing them with each other
    # cannot see it mis-normalised (say, the sine window over n + 2); the
    # closed forms can.  Slopes within 0.01 / n of a removable point are
    # skipped, where the closed form loses its digits.
    law, removable = CLOSED_LAWS[window]
    grid = probe.make_grid(p)
    n = grid.size
    vs = np.linspace(-0.49, 0.49, 99) + 0.01 / math.pi
    delta = vs[:, None] - grid.points
    gap = np.abs(np.abs(delta - np.round(delta)) - removable(n)).min(axis=1)
    vs = vs[gap > 0.01 / n]
    assert vs.size >= 90
    matrix = probe._distribution_matrix(vs, grid, window, probe.IDEAL)
    for j, v in enumerate(vs):
        closed = law(v - grid.points, n)
        assert np.abs(matrix[:, j] - closed).max() <= 1e-11, v
        assert np.abs(probe.readout_distribution(v, grid, window) - closed).max() <= 1e-11, v


def _wide_slopes(grid, seed, count):
    """Slopes with |v| <= 40: 0, +-1/2, +-40, +-39.5, `count` grid points and
    `count` midpoints shifted by integers, and `count` uniform draws."""
    rng = np.random.default_rng(seed)
    x = rng.choice(grid.size - 1, size=min(grid.size - 1, count), replace=False)
    shifts = rng.integers(-39, 40, size=x.size)
    return np.concatenate([
        [0.0, 0.5, -0.5, 40.0, -40.0, 39.5, -39.5, grid.points[0], grid.points[-1]],
        grid.points[x] + shifts,
        grid.points[x] + grid.spacing / 2 - shifts,
        rng.uniform(-40.0, 40.0, size=count),
    ])


@pytest.mark.parametrize("window", ["uniform", "sine"])
@pytest.mark.parametrize("p", range(1, probe.MAX_GRID_BITS + 1))
def test_distribution_matrix_matches_register_route_at_reduced_slope(p, window):
    # The closed-form law reads the slope reduced mod 1; each column must
    # equal the register route (one exponential per cell, encode -> iqft) at
    # the reduced slope, where that route is itself accurate.
    grid = probe.make_grid(p)
    vs = _wide_slopes(grid, seed=p, count=12 if p <= 8 else 2)
    try:
        matrix = probe._distribution_matrix(vs, grid, window, probe.IDEAL)
        for j, v in enumerate(vs):
            oracle = probe.readout_distribution(v - round(v), grid, window)
            assert np.abs(matrix[:, j] - oracle).max() <= (1e-14 if p <= 6 else 1e-12), v
    finally:
        if p > 10:  # drop the 2^p x 2^p matrix the largest registers cache
            probe._qft_matrix.cache_clear()


def _edge_slopes(grid, window):
    """Slopes |delta| in {0, 5e-324, 1e-17, 1e-12} from the first, a middle and the
    last grid point; for the sine window also that far from each one's removable
    points g +- 1/(2(n+1)).  Sums round to the nearest double, so the tiny
    offsets land on the point itself or on a neighbouring double."""
    centres = grid.points[[0, grid.size // 2, grid.size - 1]]
    if window == "sine":
        h = 0.5 / (grid.size + 1)
        centres = np.concatenate([centres, centres + h, centres - h])
    offsets = np.array([0.0, 5e-324, 1e-17, 1e-12])
    vs = (centres[:, None] + np.concatenate([offsets, -offsets])).ravel()
    return vs[np.abs(vs) < 0.5]


@pytest.mark.parametrize("window", ["uniform", "sine"])
@pytest.mark.parametrize("p", range(1, probe.MAX_GRID_BITS + 1))
def test_closed_form_law_at_edge_slopes(p, window):
    # Next to a grid point the uniform law's 1/sin^2 peaks and may be one-hot;
    # at the sine law's removable points its numerator and denominator vanish
    # together.  Each column must match the register route, hold no NaN and
    # keep mass 1.
    grid = probe.make_grid(p)
    vs = _edge_slopes(grid, window)
    try:
        matrix = probe._distribution_matrix(vs, grid, window, probe.IDEAL)
        assert not np.isnan(matrix).any()
        assert np.abs(matrix.sum(axis=0) - 1.0).max() <= 1e-12
        # encode_register -> iqft -> |.|^2 for every slope, with one inverse QFT product
        regs = probe.window_amplitudes(window, p)[:, None] * np.exp(
            2j * np.pi * grid.size * np.outer(grid.points, vs)
        )
        oracle = np.abs(probe._qft_matrix(p).conj().T @ regs) ** 2
        oracle /= oracle.sum(axis=0)
        error = np.abs(matrix - oracle).max(axis=0)
        assert error.max() <= (1e-14 if p <= 6 else 1e-12), vs[np.argmax(error)]
    finally:
        if p > 10:  # drop the 2^p x 2^p matrix the largest registers cache
            probe._qft_matrix.cache_clear()


_PI = np.longdouble("3.141592653589793238462643383279502884")


def _extended_law(vs, grid, window):
    """The closed-form law in x87 extended precision (64-bit mantissa), from the
    same reduced slopes: 1 / sin^2(pi delta), or (D(delta + h) + D(delta - h))^2."""
    vr = (vs - np.floor(vs + 0.5)).astype(np.longdouble)
    delta = vr - grid.points.astype(np.longdouble)[:, None]
    if window == "uniform":
        law = 1 / np.sin(_PI * delta) ** 2
    else:
        h = 1 / np.longdouble(2 * (grid.size + 1))

        def dirichlet(a):
            return np.sin(_PI * grid.size * a) / np.sin(_PI * a)

        law = (dirichlet(delta + h) + dirichlet(delta - h)) ** 2
    return (law / law.sum(axis=0)).astype(np.float64)


@pytest.mark.skipif(
    np.finfo(np.longdouble).precision < 18, reason="needs an extended-precision long double"
)
@pytest.mark.parametrize("window", ["uniform", "sine"])
@pytest.mark.parametrize("p", range(1, probe.MAX_GRID_BITS + 1))
def test_closed_form_law_matches_extended_precision(p, window):
    # The register route's own error grows with 2^p, so it cannot see the
    # law's precision at large p; the same closed form in extended precision
    # can.  The uniform law adds 2^p terms, so its error grows like 2^(p/2)
    # ulps; the sine law is exact for v_r +- h rounded once each, so its error
    # grows like 2^p ulps.  Slopes within 2^-p of the wrap v_r = +-1/2 are
    # included, where the far cells sit next to the slope.
    grid = probe.make_grid(p)
    rng = np.random.default_rng(p)
    near_wrap = rng.uniform(0.0, grid.spacing, size=50)
    vs = np.concatenate([rng.uniform(-0.5, 0.5, size=200), near_wrap - 0.5, 0.5 - near_wrap])
    law = probe._distribution_matrix(vs, grid, window, probe.IDEAL)
    bound = (2.0 ** (p / 2 + 2) if window == "uniform" else 2.0**p) * np.finfo(float).eps
    assert np.abs(law - _extended_law(vs, grid, window)).max() <= bound


def test_uniform_law_is_one_hot_on_a_grid_point():
    grid = probe.make_grid(5)
    law = probe._distribution_matrix(grid.points, grid, "uniform", probe.IDEAL)
    assert np.array_equal(law, np.eye(grid.size))


@pytest.mark.parametrize("window", ["uniform", "sine"])
@pytest.mark.parametrize("p", [1, 3, 6, 9])
def test_distribution_matrix_has_period_one(p, window):
    # Dyadic slopes keep v + 1 exact, half-integers included; the law at v
    # and at v + 1 reads the same reduced slope.
    grid = probe.make_grid(p)
    vs = np.round(_wide_slopes(grid, seed=p, count=12) * 2.0**20) / 2.0**20
    law = probe._distribution_matrix(vs, grid, window, probe.IDEAL)
    shifted = probe._distribution_matrix(vs + 1.0, grid, window, probe.IDEAL)
    assert np.abs(law - shifted).max() <= 1e-15


NOISY = probe.NoiseSpec(phase_jitter=0.2, fail_prob=0.01)


@pytest.mark.parametrize("noise", [probe.IDEAL, NOISY], ids=["ideal", "noisy"])
@pytest.mark.parametrize("window", ["uniform", "sine"])
@pytest.mark.parametrize("p", [1, 3, 5])
@pytest.mark.parametrize("M", [1, 66, 1540])
def test_stacked_distribution_equals_each_row_alone(M, p, window, noise):
    # A batch of runs reads its readout law from one stacked call; each slice
    # must equal the unstacked call bit for bit, or a batch would not replay
    # a lone run.  The law is elementwise per slope; a BLAS product over the
    # stacked columns gave other bits at M = 66 under OpenBLAS.
    grid = probe.make_grid(p)
    v = np.random.default_rng(M + p).uniform(-3.0, 3.0, size=(7, M))
    stacked = probe._distribution_matrix(v, grid, window, noise)
    assert stacked.shape == (7, grid.size, M)
    for row, law in zip(v, stacked):
        assert np.array_equal(law, probe._distribution_matrix(row, grid, window, noise))


@pytest.mark.parametrize("noise", [probe.IDEAL, NOISY], ids=["ideal", "noisy"])
def test_median_rows_replay_each_stream_alone(noise):
    # Row t draws its M order statistics from gens[t] alone, in a one-row
    # call's order, and leaves that stream where a one-row call leaves it.
    v = np.random.default_rng(3).uniform(-2.0, 2.0, size=(5, 66))
    _assert_rows_replay_alone(v, 9, "sine", noise)


def _assert_rows_replay_alone(v, R, window, noise):
    """Each row of a stacked draw equals a one-row draw from the same seed,
    and leaves its stream in the same state."""
    grid = probe.make_grid(3)
    gens = [np.random.default_rng(seed) for seed in range(len(v))]
    rows = probe.sample_median_rows(v, grid, R, window, noise, gens)
    for seed, (row, gen) in enumerate(zip(rows, gens)):
        alone = np.random.default_rng(seed)
        lone = probe.sample_median_rows(v[seed][None], grid, R, window, noise, [alone])[0]
        assert np.array_equal(row, lone)
        assert gen.random() == alone.random()


def _repeating_stack(M, seed):
    """Seven rows of slopes that repeat: 0.0 and -0.0 in one column, values
    shared across columns and rows, and whole rows equal to one another."""
    rng = np.random.default_rng(seed)
    pool = np.concatenate([[0.0, -0.0, 0.5, -0.5], rng.uniform(-3.0, 3.0, size=5)])
    v = pool[rng.integers(0, pool.size, size=(7, M))]
    v[:, 0] = [0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0]
    v[4] = v[1]
    v[5] = v[1]
    return v


@pytest.mark.parametrize("noise", [probe.IDEAL, NOISY], ids=["ideal", "noisy"])
@pytest.mark.parametrize("window", ["uniform", "sine"])
@pytest.mark.parametrize("M", [1, 3, 66])
def test_merged_slopes_draw_what_each_row_draws_alone(M, window, noise):
    # The stack's law is computed once per distinct slope; a row must still
    # draw bit for bit what it draws alone, and 0.0 and -0.0, which merge,
    # must read the same law.
    _assert_rows_replay_alone(_repeating_stack(M, seed=M), 5, window, noise)
    law = probe._distribution_matrix(np.array([0.0, -0.0]), probe.make_grid(3), window, noise)
    assert np.array_equal(law[:, 0], law[:, 1])


def test_law_is_computed_once_per_distinct_slope(monkeypatch):
    # T identical rows of M slopes reach the law as at most M slopes.
    seen = []
    law = probe._readout_law

    def counting_law(v, *args):
        seen.append(v.size)
        return law(v, *args)

    monkeypatch.setattr(probe, "_readout_law", counting_law)
    grid = probe.make_grid(3)
    row = np.random.default_rng(4).uniform(-2.0, 2.0, size=66)
    row[:6] = row[6:12]
    gens = [np.random.default_rng(seed) for seed in range(20)]
    probe.sample_median_rows(np.tile(row, (20, 1)), grid, 9, "uniform", probe.IDEAL, gens)
    assert seen == [60]


def test_sine_window_normalized_and_concentrated():
    grid = probe.make_grid(3)
    c = probe.window_amplitudes("sine", 3)
    assert np.linalg.norm(c) == pytest.approx(1.0, abs=1e-12)
    # The tapered window suppresses far sidelobes and lifts the worst-case
    # one-cell success probability over the flat window.
    v = 0.2
    far = np.abs(grid.points - v) > 2 * grid.spacing
    assert probe.readout_distribution(v, grid, "sine")[far].sum() < (
        probe.readout_distribution(v, grid, "uniform")[far].sum()
    )
    vs = np.linspace(-1 / math.pi, 1 / math.pi, 101)
    near = np.abs(grid.points[:, None] - vs) <= grid.spacing + 1e-15
    sine = np.stack([probe.readout_distribution(v, grid, "sine") for v in vs], axis=1)
    worst_sine = (sine * near).sum(axis=0).min()
    worst_uniform = probe.single_shot_success(vs, grid).min()
    assert worst_sine > worst_uniform
    with pytest.raises(ValueError, match="window"):
        probe.window_amplitudes("hann", 3)


def test_readout_median_lower_convention():
    assert probe.readout_median(np.array([[-0.125], [0.125], [0.125]]))[0] == 0.125
    assert probe.readout_median(np.array([[-0.125], [0.125]]))[0] == -0.125  # lower median
    one = probe.readout_median(np.array([[0.375, -0.125]]))
    assert np.array_equal(one, [0.375, -0.125])  # R=1 returns the sample
    samples = np.full((7, 1), 0.125)
    samples[:3] = -0.375
    assert probe.readout_median(samples)[0] == 0.125  # 30% adversarial corruption
    with pytest.raises(ValueError):
        probe.readout_median(np.empty((0, 1)))


def test_draw_readouts_on_grid_is_exact():
    grid = probe.make_grid(3)
    v = np.array([grid.points[1], grid.points[6]])
    draws = probe.draw_readouts(v, grid, R=9, rng=0)
    assert draws.shape == (9, 2)
    assert np.all(draws == v[None, :])
    for R in (1, 4, 9):
        median = probe.sample_median_rows(
            v[None], grid, R, "uniform", probe.IDEAL, [np.random.default_rng(R)]
        )[0]
        assert np.array_equal(median, v)


def test_draw_readouts_values_on_grid_and_reproducible():
    grid = probe.make_grid(3)
    v = np.array([0.21, -0.05, 0.3])
    a = probe.draw_readouts(v, grid, R=11, rng=7)
    b = probe.draw_readouts(v, grid, R=11, rng=7)
    assert np.array_equal(a, b)
    assert np.isin(a, grid.points).all()


def test_draw_readouts_matches_exact_distribution():
    grid = probe.make_grid(3)
    v = np.array([0.2])
    draws = probe.draw_readouts(v, grid, R=20000, rng=3)[:, 0]
    expected = probe.readout_distribution(0.2, grid)
    counts = np.array([(draws == pt).sum() for pt in grid.points])
    chi2 = (
        (counts - 20000 * expected) ** 2 / np.maximum(20000 * expected, 1e-9)
    ).sum()
    assert chi2 < stats.chi2.ppf(0.9999, df=7)


def test_total_failure_noise_gives_uniform_readout():
    grid = probe.make_grid(3)
    noisy = probe.NoiseSpec(fail_prob=1.0)
    draws = probe.draw_readouts(np.array([0.125]), grid, R=16000, noise=noisy, rng=5)[:, 0]
    counts = np.array([(draws == pt).sum() for pt in grid.points])
    chi2 = ((counts - 2000.0) ** 2 / 2000.0).sum()
    assert chi2 < stats.chi2.ppf(0.9999, df=7)


def test_phase_jitter_degrades_readout():
    grid = probe.make_grid(3)
    v = np.array([0.1875])  # on-grid: noiseless readout is exact
    clean = probe.draw_readouts(v, grid, R=4000, rng=11)
    noisy = probe.draw_readouts(
        v, grid, R=4000, noise=probe.NoiseSpec(phase_jitter=math.pi), rng=11
    )
    assert (clean == 0.1875).all()
    assert (noisy == 0.1875).mean() < 0.9
    assert np.isin(noisy, grid.points).all()


def test_median_amplification_beats_hoeffding_bound():
    # Worst-case per-shot failure for the uniform window is <= 0.19; the
    # R-copy median must then fail with probability <= exp(-2 R (0.5-0.19)^2).
    grid = probe.make_grid(3)
    rng = np.random.default_rng(17)
    trials = 4000
    v = np.full(trials, 0.02)
    for R in (5, 17, 33, 64):
        bound = math.exp(-2 * R * (0.5 - 0.19) ** 2)
        for med in (
            probe.readout_median(probe.draw_readouts(v, grid, R=R, rng=rng)),
            probe.sample_median_rows(v[None], grid, R, "uniform", probe.IDEAL, [rng])[0],
        ):
            fail = float((np.abs(med - 0.02) > grid.spacing + 1e-12).mean())
            assert fail <= bound + 3 * math.sqrt(bound * (1 - bound) / trials) + 1e-3


JITTER_AND_FAILURE = probe.NoiseSpec(phase_jitter=1.1, fail_prob=0.15)


def _assert_chi2_fits(counts, probs, level=0.9999):
    """Pearson chi-square of counts against probs, bins under 5 expected pooled."""
    expected = counts.sum() * probs
    small = expected < 5
    obs = np.append(counts[~small], counts[small].sum())
    exp = np.append(expected[~small], expected[small].sum())
    if exp[-1] < 5:  # fold a still-thin pool into the smallest regular bin
        i = int(np.argmin(exp[:-1]))
        obs[i] += obs[-1]
        exp[i] += exp[-1]
        obs, exp = obs[:-1], exp[:-1]
    chi2 = float(((obs - exp) ** 2 / exp).sum())
    assert chi2 < stats.chi2.ppf(level, df=obs.size - 1), (chi2, obs, exp)


@pytest.mark.parametrize("noise", [probe.IDEAL, JITTER_AND_FAILURE], ids=["ideal", "noisy"])
@pytest.mark.parametrize("R", [1, 2, 7, 8, 42])
def test_median_samplers_match_exact_law(R, noise):
    # The lower median of R iid readouts with CDF F has
    # P(med <= g_i) = P(Binom(R, F_i) >= ceil(R/2)).  F comes from the register
    # route (encode + inverse QFT) mixed with the uniform weight written out here.
    grid = probe.make_grid(3)
    v = 0.13  # between grid points, so several outcomes carry mass
    J, f = noise.phase_jitter, noise.fail_prob
    w = 1.0 - (1.0 - f) * (math.sin(J) / J if J else 1.0) ** 2
    F = np.cumsum((1.0 - w) * probe.readout_distribution(v, grid) + w / grid.size)
    cdf = stats.binom.sf(math.ceil(R / 2) - 1, R, np.minimum(F, 1.0))
    law = np.diff(cdf, prepend=0.0)
    trials = 20000
    fast = probe.sample_median_rows(
        np.full((1, trials), v), grid, R, "uniform", noise, [np.random.default_rng(100 + R)]
    )[0]
    brute = probe.readout_median(
        probe.draw_readouts(np.full(trials // 4, v), grid, R, noise=noise, rng=200 + R)
    )
    for med in (fast, brute):
        assert np.isin(med, grid.points).all()
        _assert_chi2_fits(np.array([(med == g).sum() for g in grid.points]), law)


@pytest.mark.parametrize(
    "noise",
    [probe.NoiseSpec(phase_jitter=0.6), probe.NoiseSpec(fail_prob=0.3), JITTER_AND_FAILURE],
    ids=["jitter", "failure", "both"],
)
def test_noise_mixture_matches_register_average(noise):
    # The uniform-mixture weight must equal the average readout distribution
    # of registers built with explicit jitter and explicit failures.
    grid = probe.make_grid(3)
    v, n = 0.13, 4000
    gen = np.random.default_rng(5)
    regs = np.array([
        np.abs(probe.iqft(probe.encode_register(v, grid, noise=noise, rng=gen)).amplitudes) ** 2
        for _ in range(n)
    ])
    mixture = probe._distribution_matrix([v], grid, "uniform", noise)[:, 0]
    assert mixture.sum() == pytest.approx(1.0, abs=1e-12)
    stderr = regs.std(axis=0, ddof=1) / math.sqrt(n)
    assert np.all(np.abs(regs.mean(axis=0) - mixture) <= 5 * stderr + 1e-12)


def test_noise_spec_validation():
    for jitter in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="phase_jitter must be finite and nonnegative"):
            probe.NoiseSpec(phase_jitter=jitter)
    with pytest.raises(ValueError):
        probe.NoiseSpec(fail_prob=1.5)
    assert probe.NoiseSpec().is_ideal
    assert probe.NoiseSpec().uniform_weight == 0.0
    assert probe.NoiseSpec(fail_prob=1.0).uniform_weight == 1.0
    assert probe.NoiseSpec(fail_prob=0.2).uniform_weight == pytest.approx(0.2, abs=1e-15)
    assert probe.NoiseSpec(phase_jitter=math.pi).uniform_weight == pytest.approx(1.0, abs=1e-15)


def test_product_state_factorization_two_registers():
    # For linear phases the joint two-register probe state is exactly the
    # tensor product of per-register factors; check against an explicit
    # 2^(2p) joint build, including joint readout probabilities.
    p = 2
    grid = probe.make_grid(p)
    v1, v2 = 0.11, -0.23
    r1 = probe.encode_register(v1, grid)
    r2 = probe.encode_register(v2, grid)
    joint_factored = np.kron(r1.amplitudes, r2.amplitudes)
    x1 = np.repeat(grid.points, grid.size)
    x2 = np.tile(grid.points, grid.size)
    joint_direct = (1 / grid.size) * np.exp(
        2j * np.pi * grid.size * (x1 * v1 + x2 * v2)
    )
    assert np.abs(joint_factored - joint_direct).max() < 1e-10
    F = probe._qft_matrix(p)
    joint_out = np.kron(F.conj().T, F.conj().T) @ joint_direct
    joint_probs = (np.abs(joint_out) ** 2).reshape(grid.size, grid.size)
    marg1 = probe.readout_distribution(v1, grid)
    marg2 = probe.readout_distribution(v2, grid)
    assert np.abs(joint_probs - np.outer(marg1, marg2)).max() < 1e-10


def test_register_validation():
    grid = probe.make_grid(2)
    with pytest.raises(ValueError, match="normalized"):
        probe.ProbeRegister(grid, np.ones(4, dtype=complex))
    with pytest.raises(ValueError, match="length"):
        probe.ProbeRegister(grid, np.zeros(8, dtype=complex))

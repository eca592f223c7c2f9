"""Pure-state utilities: sector supports and expectations."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qgelab import fermion, statevector
from ladder_oracle import ladder_matrix


def _basis_state(N, index):
    amps = np.zeros(1 << N, dtype=np.complex128)
    amps[index] = 1.0
    return statevector.PureState(amps)


def _sector_state(N, eta, rng):
    """A full vector holding `random_sector_amplitudes` on the sector's indices."""
    amps = np.zeros(1 << N, dtype=np.complex128)
    amps[fermion.sector_basis(N, eta)] = statevector.random_sector_amplitudes(N, eta, rng)
    return statevector.PureState(amps)


def test_pure_state_validation():
    with pytest.raises(ValueError):
        statevector.PureState(np.array([1.0, 0.0, 0.0]))  # not a power of two
    with pytest.raises(ValueError):
        statevector.PureState(np.array([1.0, 1.0]))  # norm sqrt(2)
    with pytest.raises(ValueError):
        statevector.PureState(np.zeros(1 << 13, dtype=complex))  # over the 12-mode cap
    with pytest.raises(ValueError, match="state norm nan differs from 1"):
        statevector.PureState(np.full(4, np.nan))
    assert _basis_state(2, 3).amplitudes.size == 4


def test_random_sector_state_support():
    amps = statevector.random_sector_amplitudes(4, 2, rng=11)
    assert amps.shape == (6,) and amps.dtype == np.complex128
    assert np.count_nonzero(amps) == 6
    assert np.linalg.norm(amps) == pytest.approx(1.0, abs=1e-12)


def test_degenerate_sectors_give_basis_states():
    assert np.array_equal(statevector.random_sector_amplitudes(3, 0, rng=5), [1.0])
    assert np.array_equal(statevector.random_sector_amplitudes(3, 3, rng=5), [1.0])


def test_random_sector_state_varies_with_rng():
    a = statevector.random_sector_amplitudes(4, 2, rng=1)
    b = statevector.random_sector_amplitudes(4, 2, rng=2)
    assert not np.allclose(a, b)
    # and are reproducible for a fixed seed
    assert np.array_equal(a, statevector.random_sector_amplitudes(4, 2, rng=1))


def test_expectation_number_operator():
    n0 = ladder_matrix((0,), (0,), 2)
    occupied = _basis_state(2, 1)
    empty = _basis_state(2, 2)
    assert statevector.expectation(n0, occupied) == 1.0
    assert statevector.expectation(n0, empty) == 0.0


def test_expectation_identity_is_one():
    psi = _sector_state(3, 2, rng=9)
    assert statevector.expectation(np.eye(8), psi) == pytest.approx(1.0, abs=1e-12)


def test_expectation_restricted_matches_full():
    psi = _sector_state(4, 2, rng=21)
    obs = fermion.estimation_observables(fermion.krdm_observable_set(4, 2))[:10]
    sector = fermion.sector_basis(4, 2)
    compact = psi.amplitudes[sector]
    for o in obs:
        full_val = statevector.expectation(o, psi)
        block = o.matrix.toarray()[np.ix_(sector, sector)]
        sector_val = float(np.vdot(compact, block @ compact).real)
        assert full_val == pytest.approx(sector_val, abs=1e-12)


STACK_SHAPES = [(N, k) for N in range(1, 9) for k in (1, 2, 3) if k <= N]


@pytest.mark.parametrize("N,k", STACK_SHAPES)
def test_entry_route_matches_the_sparse_matvec(N, k):
    # An `Observable` is read from its entries; the scipy matvec on its
    # matrix, the route it replaced, gives the same value on every sector.
    observables = fermion.estimation_observables(fermion.krdm_observable_set(N, k))
    for eta in range(N + 1):
        psi = _sector_state(N, eta, rng=N * 100 + k * 10 + eta)
        vec = psi.amplitudes
        for o in observables:
            sparse_val = np.vdot(vec, o.matrix @ vec).real
            assert abs(statevector.expectation(o, psi) - sparse_val) <= 1e-12, (o.label, eta)


def test_expectation_rejects_a_wrong_dimension():
    obs = fermion.krdm_observable_set(2, 1)[0]
    with pytest.raises(ValueError, match=r"operator \(4, 4\) vs state 8"):
        statevector.expectation(obs, _basis_state(3, 1))


def test_expectation_rejects_non_hermitian():
    lower = np.array([[0.0, 1.0], [0.0, 0.0]])
    psi = statevector.PureState(np.array([1.0, 1.0j]) / np.sqrt(2))
    with pytest.raises(ValueError, match="non-Hermitian"):
        statevector.expectation(lower, psi)


@given(st.integers(min_value=0, max_value=2**32 - 1), st.floats(0, 2 * np.pi))
def test_expectation_global_phase_invariant(seed, theta):
    psi = _sector_state(3, 1, rng=seed)
    rotated = statevector.PureState(np.exp(1j * theta) * psi.amplitudes)
    op = ladder_matrix((0,), (0,), 3)
    assert statevector.expectation(op, rotated) == pytest.approx(
        statevector.expectation(op, psi), abs=1e-12
    )


@given(st.floats(-2, 2), st.floats(-2, 2), st.integers(min_value=0, max_value=2**32 - 1))
def test_expectation_linear_in_operator(alpha, beta, seed):
    rng = np.random.default_rng(seed)
    h1 = rng.normal(size=(4, 4))
    h1 = h1 + h1.T
    h2 = rng.normal(size=(4, 4))
    h2 = h2 + h2.T
    psi = _sector_state(2, 1, rng=seed)
    combined = statevector.expectation(alpha * h1 + beta * h2, psi)
    split = alpha * statevector.expectation(h1, psi) + beta * statevector.expectation(h2, psi)
    assert combined == pytest.approx(split, abs=1e-9)

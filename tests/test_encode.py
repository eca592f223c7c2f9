"""Block-encoding layer: dilations, eigenvalue transforms, evolution, phase encoding."""

from __future__ import annotations

import math

import numpy as np
import pytest

from qgelab import encode, fermion, verify
from qgelab.statevector import PureState
from ladder_oracle import observable


def _random_hermitian(rng, d, norm=None):
    raw = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    H = (raw + raw.conj().T) / 2
    if norm is not None:
        H *= norm / np.linalg.norm(H, 2)
    return H


def test_block_encode_unitary_input_has_zero_offblocks():
    be = encode.block_encode(np.diag([1.0, -1.0]), 1.0)
    assert np.allclose(be.unitary[:2, 2:], 0.0, atol=1e-12)
    assert np.allclose(be.block, np.diag([1.0, -1.0]))
    assert be.ancilla_dim == 2 and be.system_dim == 2


def test_block_encode_frozen_offblock_values():
    be = encode.block_encode(np.diag([0.5, -1.0 / 3.0]), 1.0)
    assert np.allclose(be.block, np.diag([0.5, -1.0 / 3.0]), atol=1e-14)
    assert np.allclose(
        be.unitary[:2, 2:], np.diag([math.sqrt(3) / 2, math.sqrt(8) / 3]), atol=1e-14
    )
    assert np.allclose(be.unitary[2:, 2:], np.diag([-0.5, 1.0 / 3.0]), atol=1e-14)


def test_block_encode_random_recovery():
    rng = np.random.default_rng(4)
    H = _random_hermitian(rng, 8)
    alpha = float(np.linalg.norm(H, 2))
    be = encode.block_encode(H, alpha)
    gap = np.abs(be.unitary.conj().T @ be.unitary - np.eye(16)).max()
    assert gap < 1e-10
    assert np.allclose(be.encoded_operator, H, atol=1e-10)


def test_block_encode_rejects_undernormalization():
    with pytest.raises(ValueError, match="operator norm 2 exceeds normalization 1"):
        encode.block_encode(np.diag([2.0, 0.0]), 1.0)


def test_eigen_poly_identity_polynomial():
    rng = np.random.default_rng(3)
    H = _random_hermitian(rng, 5, norm=0.9)
    be = encode.block_encode(H, 1.0)
    out = encode.eigen_poly_transform(be, encode.PolynomialSpec((0.0, 1.0)))
    assert np.allclose(out.encoded_operator, H, atol=1e-10)


def test_eigen_poly_square_on_diagonal():
    be = encode.block_encode(np.diag([0.5, -1.0 / 3.0]), 1.0)
    out = encode.eigen_poly_transform(be, encode.PolynomialSpec((0.0, 0.0, 1.0)))
    assert np.allclose(out.encoded_operator, np.diag([0.25, 1.0 / 9.0]), atol=1e-12)


def test_eigen_poly_acts_blockwise():
    # Direct-sum input: the transform must equal the per-block transform.
    rng = np.random.default_rng(9)
    A = _random_hermitian(rng, 3, norm=0.95)
    B = _random_hermitian(rng, 5, norm=0.95)
    full = np.zeros((8, 8), dtype=complex)
    full[:3, :3] = A
    full[3:, 3:] = B
    t3_monomial = encode.PolynomialSpec((0.0, -3.0, 0.0, 4.0))  # T3(w) = 4 w^3 - 3 w
    out = encode.eigen_poly_transform(encode.block_encode(full, 1.0), t3_monomial)

    def t3(block):
        w, V = np.linalg.eigh(block)
        return (V * (4 * w**3 - 3 * w)) @ V.conj().T  # explicit T3, independent route

    expected = np.zeros((8, 8), dtype=complex)
    expected[:3, :3] = t3(A)
    expected[3:, 3:] = t3(B)
    assert np.abs(out.encoded_operator - expected).max() < 1e-10


def test_eigen_poly_random_bounded_polynomials():
    rng = np.random.default_rng(20)
    for _ in range(20):
        sizes = rng.integers(2, 7, size=rng.integers(1, 4))
        blocks = [_random_hermitian(rng, int(s), norm=0.99) for s in sizes]
        d = int(sizes.sum())
        full = np.zeros((d, d), dtype=complex)
        at = 0
        for blk in blocks:
            s = blk.shape[0]
            full[at : at + s, at : at + s] = blk
            at += s
        coeffs = rng.normal(size=rng.integers(2, 8))
        grid = np.linspace(-1, 1, 512)
        coeffs /= np.abs(np.polynomial.polynomial.polyval(grid, coeffs)).max() * (1 + 1e-9)
        spec = encode.PolynomialSpec(tuple(coeffs))
        out = encode.eigen_poly_transform(encode.block_encode(full, 1.0), spec)
        at = 0
        for blk in blocks:
            s = blk.shape[0]
            w, V = np.linalg.eigh(blk)
            per_block = (V * spec.evaluate(w)) @ V.conj().T
            assert np.abs(out.encoded_operator[at : at + s, at : at + s] - per_block).max() < 1e-9
            at += s


def test_bounded_check_reads_one_grid_per_size(monkeypatch):
    # 10 x degree points, at least 16: degrees 1 and 2 share the 16-point grid
    low, high = encode.PolynomialSpec((0.0, 0.5)), encode.PolynomialSpec((0.0, 0.0, 1.0))
    encode._check_bounded((low, high))
    assert np.array_equal(encode._unit_grid(16), np.linspace(-1.0, 1.0, 16))
    with pytest.raises(ValueError, match="exceeds 1 in magnitude"):
        encode._check_bounded((low, encode.PolynomialSpec((0.0, 0.0, 1.0 + 1e-9))))

    def refuse(*args, **kwargs):
        raise AssertionError("a bounded check built a fresh grid")

    monkeypatch.setattr(np, "linspace", refuse)
    encode._check_bounded((low, high))


def _eigh_route(be, spec):
    """The transform by its own eigensolve of the encoded operator, symmetrized."""
    w, V = np.linalg.eigh(be.encoded_operator)
    transformed = (V * np.real(spec.evaluate(w))) @ V.conj().T
    return (transformed + transformed.conj().T) / 2.0


def _suite_cases(count):
    """(block-diagonal matrix, polynomial) pairs from the polynomial suite's own generator."""
    rng = np.random.default_rng(31)
    return [
        (verify._block_diagonal(verify._random_blocks(rng)), verify._bounded_polynomial(rng))
        for _ in range(count)
    ]


def test_eigen_poly_reads_the_encodings_eigenpairs_bit_for_bit():
    for full, spec in _suite_cases(40):
        be = encode.block_encode(full, 1.0)
        out = encode.eigen_poly_transform(be, spec)
        assert out.encoded_operator.tobytes() == _eigh_route(be, spec).tobytes()
        assert np.abs(out.unitary.conj().T @ out.unitary - np.eye(out.unitary.shape[0])).max() < 1e-10


@pytest.mark.parametrize("alpha", [0.5, 1.7, 3.0])
def test_eigen_poly_scales_the_eigenpairs_by_the_normalization(alpha):
    for full, spec in _suite_cases(20):
        be = encode.block_encode(full * min(alpha, 1.0), alpha)
        out = encode.eigen_poly_transform(be, spec)
        assert np.abs(out.encoded_operator - _eigh_route(be, spec)).max() < 1e-12
        assert out.normalization == 1.0
        assert np.abs(out.unitary.conj().T @ out.unitary - np.eye(out.unitary.shape[0])).max() < 1e-10


def _by_dimension(cases):
    """The suite cases grouped by full dimension, as the polynomial suite stacks them."""
    groups = {}
    for full, spec in cases:
        groups.setdefault(full.shape[0], []).append((full, spec))
    return groups


FIELDS = ("unitary", "eigenvalues", "eigenvectors", "encoded_operator")


@pytest.mark.parametrize("alpha", [1.0, 1.7])
def test_stacked_calls_equal_the_2d_call_on_each_slice_bit_for_bit(alpha):
    groups = _by_dimension(_suite_cases(60))
    assert len(groups) > 5 and max(map(len, groups.values())) > 3  # mixed dimensions, real stacks
    for members in groups.values():
        stack = np.stack([full for full, _ in members])
        specs = [spec for _, spec in members]
        stacked = encode.block_encode(stack, alpha)
        per_spec = encode.eigen_poly_transform(stacked, specs)
        shared = encode.eigen_poly_transform(stacked, specs[0])
        for i, (full, spec) in enumerate(members):
            single = encode.block_encode(full, alpha)
            pairs = [(stacked, single), (per_spec, encode.eigen_poly_transform(single, spec)),
                     (shared, encode.eigen_poly_transform(single, specs[0]))]
            for many, one in pairs:
                for name in FIELDS:
                    assert getattr(many, name)[i].tobytes() == getattr(one, name).tobytes(), name


def test_eigen_poly_transform_takes_one_spec_per_slice():
    stack = np.stack([np.diag([0.5, -0.25])] * 3)
    be = encode.block_encode(stack, 1.0)
    specs = [encode.PolynomialSpec(c) for c in ((0.0, 1.0), (0.0, 0.0, 1.0), (0.25,))]
    out = encode.eigen_poly_transform(be, specs)
    assert out.encoded_operator.tobytes() == np.stack(
        [np.diag([0.5, -0.25]), np.diag([0.25, 0.0625]), np.diag([0.25, 0.25])]
    ).astype(complex).tobytes()
    with pytest.raises(ValueError, match=r"2 polynomials for a stack of shape \(3,\)"):
        encode.eigen_poly_transform(be, specs[:2])
    # 1.5 x^2 stays below 1 on this spectrum, but not on [-1, 1]
    with pytest.raises(ValueError, match=r"polynomial exceeds 1 in magnitude on \[-1, 1\]"):
        encode.eigen_poly_transform(be, specs[:2] + [encode.PolynomialSpec((0.0, 0.0, 1.5))])


@pytest.mark.parametrize("bad", [0, 2, 3])
def test_a_stack_never_hides_one_bad_slice(bad):
    rng = np.random.default_rng(17)
    stack = np.stack([_random_hermitian(rng, 3, norm=0.9) for _ in range(4)])
    good = encode.block_encode(stack, 1.0)

    def one_bad(array, change):
        out = array.copy()
        out[bad] = change(out[bad])
        return out

    with pytest.raises(ValueError, match="Hermitian"):
        encode.block_encode(one_bad(stack, lambda h: h + np.diag([1e-6, 0.0], 1)), 1.0)
    with pytest.raises(ValueError, match="exceeds normalization 1"):
        encode.block_encode(one_bad(stack, lambda h: 1.5 * h), 1.0)
    with pytest.raises(ValueError, match="Hermitian"):
        encode.block_encode(one_bad(stack, lambda h: np.where(np.eye(3) > 0, np.nan, h)), 1.0)
    # x^2 is bounded on [-1, 1]; encoded at alpha = 2, a slice of norm 1.8 reaches 3.24 under it
    square = encode.PolynomialSpec((0.0, 0.0, 1.0))
    encode.eigen_poly_transform(encode.block_encode(stack, 2.0), [square] * 4)
    loud = encode.block_encode(one_bad(stack, lambda h: 2.0 * h), 2.0)
    with pytest.raises(ValueError, match="polynomial reaches 3.24 on the spectrum"):
        encode.eigen_poly_transform(loud, [square] * 4)
    with pytest.raises(ValueError, match="polynomial reaches 3.24 on the spectrum"):
        encode.eigen_poly_transform(loud, square)
    # the encoding's own check, one slice corrupted at a time
    fields = dict(unitary=good.unitary, system_dim=3, ancilla_dim=2, normalization=1.0)
    encode.BlockEncoding(**fields, eigenvalues=good.eigenvalues, eigenvectors=good.eigenvectors)
    with pytest.raises(ValueError, match="eigenpairs do not reproduce the block"):
        encode.BlockEncoding(**fields, eigenvalues=good.eigenvalues,
                             eigenvectors=one_bad(good.eigenvectors, lambda v: v[:, ::-1]))
    with pytest.raises(ValueError, match="eigenpairs do not reproduce the block: deviation nan"):
        encode.BlockEncoding(**fields, eigenvectors=good.eigenvectors,
                             eigenvalues=one_bad(good.eigenvalues, lambda w: w * np.nan))
    fields["unitary"] = one_bad(good.unitary, lambda u: np.where(np.eye(6) > 0, np.nan, u))
    with pytest.raises(ValueError, match="not unitary: deviation nan"):
        encode.BlockEncoding(**fields, eigenvalues=good.eigenvalues, eigenvectors=good.eigenvectors)


def test_block_encoding_refuses_eigenpairs_of_another_block():
    be = encode.block_encode(np.diag([0.5, -0.25]), 1.0)
    fields = dict(unitary=be.unitary, system_dim=2, ancilla_dim=2, normalization=1.0)
    encode.BlockEncoding(**fields, eigenvalues=be.eigenvalues, eigenvectors=be.eigenvectors)
    with pytest.raises(ValueError, match="eigenpairs do not reproduce the block"):
        encode.BlockEncoding(**fields, eigenvalues=be.eigenvalues[::-1], eigenvectors=be.eigenvectors)
    with pytest.raises(ValueError, match="eigenpairs do not reproduce the block"):
        # V diag(w) V^H is the block, but V is not orthonormal
        encode.BlockEncoding(**fields, eigenvalues=[0.125, -0.0625], eigenvectors=2.0 * np.eye(2))
    with pytest.raises(ValueError, match="deviation nan"):
        encode.BlockEncoding(**fields, eigenvalues=[np.nan, 0.0], eigenvectors=np.eye(2))
    with pytest.raises(ValueError, match="do not fit a block of dimension 2"):
        encode.BlockEncoding(**fields, eigenvalues=[0.5], eigenvectors=np.eye(1))


def test_eigen_poly_rejects_unbounded_polynomial():
    be = encode.block_encode(np.diag([0.5, -0.5]), 1.0)
    with pytest.raises(ValueError, match=r"polynomial exceeds 1 in magnitude on \[-1, 1\]"):
        encode.eigen_poly_transform(be, encode.PolynomialSpec((0.0, 2.0)))


def test_evolve_basics():
    assert np.allclose(encode.evolve(np.diag([1.0, -1.0]), 0.0), np.eye(2), atol=1e-14)
    U = encode.evolve(np.diag([1.0, -1.0]), math.pi / 2)
    assert np.allclose(U, np.diag([1j, -1j]), atol=1e-12)


def test_evolve_inverse_and_semigroup():
    rng = np.random.default_rng(8)
    H = _random_hermitian(rng, 6)
    U = encode.evolve(H, 0.7)
    assert np.abs(U @ encode.evolve(H, -0.7) - np.eye(6)).max() < 1e-10
    assert np.abs(encode.evolve(H, 0.3) @ encode.evolve(H, 0.5) - encode.evolve(H, 0.8)).max() < 1e-10


def test_phase_deviation_zero_observables():
    psi = PureState(np.array([1.0, 0.0, 0.0, 0.0]))
    dev = encode.phase_encoding_deviation([np.zeros((4, 4))] * 3, [0.5, -0.5, 0.25], 2, psi)
    assert dev == pytest.approx(0.0, abs=1e-12)


def test_phase_deviation_eigenstate_is_exact():
    # Evolution of an eigenstate is a pure phase, which the ideal oracle matches.
    A = np.diag([0.25, -0.25])
    psi = PureState(np.array([1.0, 0.0]))
    dev = encode.phase_encoding_deviation([A], [0.5], 2, psi)
    assert dev == pytest.approx(0.0, abs=1e-12)


def test_phase_deviation_shrinks_with_iteration_depth():
    rng = np.random.default_rng(14)
    B = [_random_hermitian(rng, 4, norm=1.0) for _ in range(3)]
    alphas = rng.uniform(-0.5, 0.5, size=3)
    x = rng.uniform(-0.5, 0.5, size=3)
    raw = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi = PureState(raw / np.linalg.norm(raw))
    devs = []
    for q in range(1, 6):
        A_set = [a * 2.0**-q * np.eye(4) + 4.0**-q * Bj for a, Bj in zip(alphas, B)]
        devs.append(encode.phase_encoding_deviation(A_set, x, q, psi))
    for earlier, later in zip(devs, devs[1:]):
        assert later < 0.5 * earlier  # theory says ~4x per level


def test_phase_deviation_contract_violation():
    A = np.diag([1.0, -1.0])
    psi = PureState(np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match=r"recentred expectation 1 exceeds 2\^-q = 0\.25"):
        encode.phase_encoding_deviation([A], [0.5], 2, psi)  # <A> = 1 > 2^-2


def test_sparse_inputs_give_the_dense_results():
    # `encode` reads an `Observable` (its entries, scattered by numpy) or a
    # scipy matrix through `_as_dense`, the one place it imports scipy, and
    # only for a scipy input; the result is the dense array's.
    rng = np.random.default_rng(21)
    observables = [o for o in fermion.krdm_observable_set(3, 1) if o.matrix.nnz][:4]
    raw = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi = PureState(raw / np.linalg.norm(raw))
    for obs in observables:
        dense = obs.matrix.toarray()
        for op in (obs, obs.matrix):
            be, oracle = encode.block_encode(op, 1.5), encode.block_encode(dense, 1.5)
            assert np.array_equal(be.unitary, oracle.unitary)
            assert np.array_equal(encode.evolve(op, 0.7), encode.evolve(dense, 0.7))
    # Scaled by 1/5, each |<A_j>| <= 1/5 sits inside the q = 2 contract.
    scaled = [observable(o.matrix * 0.2, o.label) for o in observables]
    x = rng.uniform(-0.5, 0.5, size=len(scaled))
    dense = [o.matrix.toarray() for o in scaled]
    expected = encode.phase_encoding_deviation(dense, x, 2, psi)
    assert encode.phase_encoding_deviation(scaled, x, 2, psi) == expected
    assert encode.phase_encoding_deviation([o.matrix for o in scaled], x, 2, psi) == expected


def test_block_encoding_validation():
    eigenpairs = dict(eigenvalues=np.ones(2), eigenvectors=np.eye(2))
    for unitary in (np.eye(4) * 0.5, np.full((4, 4), np.nan)):
        with pytest.raises(ValueError, match="not unitary"):
            encode.BlockEncoding(
                unitary, system_dim=2, ancilla_dim=2, normalization=1.0, **eigenpairs
            )
    with pytest.raises(ValueError, match="dimension"):
        encode.BlockEncoding(np.eye(4), system_dim=3, ancilla_dim=2, normalization=1.0, **eigenpairs)
    with pytest.raises(ValueError, match="normalization must be positive, got -1.0"):
        encode.BlockEncoding(np.eye(4), system_dim=2, ancilla_dim=2, normalization=-1.0, **eigenpairs)

"""Fermionic operator layer, checked against an independent tensor-product oracle.

The oracle builds ladder operators as explicit Pauli-string Kronecker products
(Z-string below the mode, lowering matrix at the mode) and composes monomials
by plain matrix multiplication.  The package route never forms these products,
so agreement is a real cross-check, not a tautology.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from qgelab import fermion
from qgelab.errors import InvalidMonomialError, InvalidOrderError, SymmetryViolationError

_Z = np.diag([1.0, -1.0])
_LOWER = np.array([[0.0, 1.0], [0.0, 0.0]])


def _oracle_annihilation(p: int, N: int) -> np.ndarray:
    op = np.eye(1)
    for i in range(N - 1, -1, -1):  # most significant bit first under kron
        if i > p:
            factor = np.eye(2)
        elif i == p:
            factor = _LOWER
        else:
            factor = _Z
        op = np.kron(op, factor)
    return op


def _oracle_creation(p: int, N: int) -> np.ndarray:
    return _oracle_annihilation(p, N).T


def _oracle_monomial(creators, annihilators, N: int) -> np.ndarray:
    op = np.eye(1 << N)
    for p in creators:
        op = op @ _oracle_creation(p, N)
    for q in annihilators:
        op = op @ _oracle_annihilation(q, N)
    return op


@st.composite
def monomials(draw):
    N = draw(st.integers(min_value=1, max_value=5))
    k = draw(st.integers(min_value=1, max_value=N))
    creators = tuple(draw(st.permutations(range(N)))[:k])
    annihilators = tuple(draw(st.permutations(range(N)))[:k])
    return fermion.LadderMonomial(creators, annihilators, N)


@given(monomials())
def test_monomial_matches_kron_oracle(monomial):
    built = fermion.build_ladder_monomial(monomial).toarray()
    oracle = _oracle_monomial(monomial.creators, monomial.annihilators, monomial.modes)
    assert np.array_equal(built, oracle)


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_single_ladder_operators_match_oracle(N):
    for p in range(N):
        assert np.array_equal(fermion.annihilation_operator(p, N).toarray(), _oracle_annihilation(p, N))
        # a real matrix, so the transpose is the adjoint a_p^dag
        assert np.array_equal(fermion.annihilation_operator(p, N).T.toarray(), _oracle_creation(p, N))


def test_number_operator_is_diagonal_occupation():
    n0 = fermion.build_ladder_monomial(fermion.LadderMonomial((0,), (0,), 1))
    assert np.array_equal(n0.toarray(), np.diag([0.0, 1.0]))
    n1 = fermion.build_ladder_monomial(fermion.LadderMonomial((1,), (1,), 2))
    assert np.array_equal(n1.toarray(), np.diag([0.0, 0.0, 1.0, 1.0]))


def test_hopping_sign_convention():
    # a_0^dag a_1 on two modes: |01> means mode 0 occupied (index 1).
    # Acting on index 2 (mode 1 occupied): a_1 kills bit 1 with no modes below
    # it occupied, so the image is +|index 1>.
    hop = fermion.build_ladder_monomial(fermion.LadderMonomial((0,), (1,), 2)).toarray()
    expected = np.zeros((4, 4))
    expected[1, 2] = 1.0
    assert np.array_equal(hop, expected)


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=5), st.data())
def test_canonical_anticommutation_relations(N, data):
    p = data.draw(st.integers(min_value=0, max_value=N - 1))
    q = data.draw(st.integers(min_value=0, max_value=N - 1))
    a_p = fermion.annihilation_operator(p, N)
    a_q = fermion.annihilation_operator(q, N)
    adag_q = a_q.T
    mixed = (a_p @ adag_q + adag_q @ a_p).toarray()
    same = (a_p @ a_q + a_q @ a_p).toarray()
    target = np.eye(1 << N) if p == q else np.zeros((1 << N, 1 << N))
    assert np.array_equal(mixed, target)
    assert np.array_equal(same, np.zeros((1 << N, 1 << N)))


def test_monomial_validation():
    with pytest.raises(InvalidMonomialError):
        fermion.LadderMonomial((0, 0), (1, 2), 3)
    with pytest.raises(InvalidMonomialError):
        fermion.LadderMonomial((0,), (3,), 3)
    with pytest.raises(InvalidMonomialError):
        fermion.LadderMonomial((0, 1), (2,), 3)
    with pytest.raises(InvalidMonomialError):
        fermion.annihilation_operator(2, 2)


# --- observable enumeration, against the all-ordered-tuples oracle ---


def _is_sign_copy(p: tuple[int, ...], q: tuple[int, ...]) -> bool:
    return tuple(sorted(p)) != p or tuple(sorted(q)) != q


def _label(part: str, p: tuple[int, ...], q: tuple[int, ...]) -> str:
    return f"{part.capitalize()}({'.'.join(map(str, p))},{'.'.join(map(str, q))})"


def _oracle_krdm_set(N: int, k: int, sign_copies: bool = True) -> list:
    """Re and Im of T(p, q) for every ordered tuple pair, through scipy sums.

    Entries with a non-ascending tuple are sign-copies of a canonical entry;
    ``sign_copies=False`` skips them before they are built.
    """
    tuples = list(permutations(range(N), k))
    out = []
    for p in tuples:
        for q in tuples:
            if not sign_copies and _is_sign_copy(p, q):
                continue
            T = fermion.build_ladder_monomial(fermion.LadderMonomial(p, q, N))
            Tt = T.T  # real matrix, so transpose == adjoint
            re = ((T + Tt) * 0.5).astype(np.complex128)
            im = ((T - Tt) * (-0.5j)).tocsr()
            re.eliminate_zeros()
            im.eliminate_zeros()
            for part, matrix in (("re", re), ("im", im)):
                out.append(
                    fermion.Observable(
                        matrix=matrix, label=_label(part, p, q), k=k, creators=p,
                        annihilators=q, part=part, trivial=matrix.nnz == 0, _validate=False,
                    )
                )
    return out


def _oracle_sector_norm(observables, eta) -> float:
    """Restrict each observable densely, sum the squares, eigensolve."""
    basis = fermion.sector_basis(observables[0].dim.bit_length() - 1, eta)
    pos = fermion._position_map(basis)
    blocks = np.stack([fermion._restrict_coo(o.matrix, basis, pos) for o in observables])
    total = np.einsum("nij,njk->ik", blocks, blocks, optimize=True)
    return float(np.abs(np.linalg.eigvalsh(total)).max())


KRDM_SHAPES = [(2, 1), (3, 1), (4, 1), (4, 2), (5, 2), (6, 3)]


@pytest.mark.parametrize("N,k", KRDM_SHAPES)
def test_krdm_set_matches_oracle(N, k):
    # At (6, 3) the oracle's 14,000 sign-copy pairs would take about 11 s to
    # build and are dropped anyway, so that shape skips them up front.
    oracle = [
        o for o in _oracle_krdm_set(N, k, sign_copies=N < 6)
        if not _is_sign_copy(o.creators, o.annihilators)
    ]
    built = fermion.krdm_observable_set(N, k)
    assert len(built) == len(oracle) == 2 * math.comb(N, k) ** 2
    for new, old in zip(built, oracle):
        assert (new.label, new.part, new.trivial, new.k) == (old.label, old.part, old.trivial, old.k)
        assert (new.creators, new.annihilators) == (old.creators, old.annihilators)
        for name in ("indptr", "indices", "data"):
            a, b = getattr(new.matrix, name), getattr(old.matrix, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), (new.label, name)


def test_krdm_set_counts_one_body():
    obs = fermion.krdm_observable_set(2, 1)
    assert len(obs) == 8  # 2 tuples x 2 tuples x (Re, Im)
    est = fermion.estimation_observables(obs)
    assert len(est) == 6  # the two diagonal Im parts vanish identically
    assert {o.label for o in obs if o.trivial} == {"Im(0,0)", "Im(1,1)"}


def test_krdm_set_counts_two_body():
    obs = fermion.krdm_observable_set(4, 2)
    assert len(obs) == 72  # ascending tuples only: 2 * C(4,2)^2
    est = fermion.estimation_observables(obs)
    assert len(est) == 66  # minus the C(4,2) vanishing diagonal Im parts
    trivial_labels = {o.label for o in obs if o.trivial}
    assert trivial_labels == {f"Im({t},{t})" for t in ("0.1", "0.2", "0.3", "1.2", "1.3", "2.3")}


def test_krdm_observables_are_hermitian_contractions():
    for o in fermion.krdm_observable_set(4, 2):
        dense = o.matrix.toarray()
        assert np.allclose(dense, dense.conj().T)
        if not o.trivial:
            w = np.linalg.eigvalsh(dense)
            assert np.abs(w).max() <= 1.0 + 1e-12


def _permutation_sign(tup: tuple[int, ...]) -> int:
    inversions = sum(a > b for i, a in enumerate(tup) for b in tup[i + 1:])
    return -1 if inversions % 2 else 1


def test_krdm_duplicates_are_sign_copies():
    by_label = {o.label: o for o in fermion.krdm_observable_set(4, 2)}
    copies = [o for o in _oracle_krdm_set(4, 2) if _is_sign_copy(o.creators, o.annihilators)]
    assert len(copies) == 288 - 72
    for copy in copies:
        canonical = by_label[_label(copy.part, sorted(copy.creators), sorted(copy.annihilators))]
        sign = _permutation_sign(copy.creators) * _permutation_sign(copy.annihilators)
        assert np.array_equal(copy.matrix.toarray(), sign * canonical.matrix.toarray()), copy.label
    oracle = {o.label: o for o in copies}
    # One transposition in the creator tuple flips the monomial's sign.
    assert np.array_equal(
        oracle["Re(1.0,2.3)"].matrix.toarray(), -by_label["Re(0.1,2.3)"].matrix.toarray()
    )
    # Transpositions on both sides cancel.
    assert np.array_equal(
        oracle["Im(1.0,3.2)"].matrix.toarray(), by_label["Im(0.1,2.3)"].matrix.toarray()
    )


def test_krdm_matches_monomial_route():
    obs = fermion.krdm_observable_set(3, 1)
    by_label = {o.label: o for o in obs}
    T = fermion.build_ladder_monomial(fermion.LadderMonomial((0,), (2,), 3)).toarray()
    assert np.allclose(by_label["Re(0,2)"].matrix.toarray(), (T + T.T) / 2)
    assert np.allclose(by_label["Im(0,2)"].matrix.toarray(), (T - T.T) / 2j)


def test_krdm_bad_order():
    with pytest.raises(InvalidOrderError):
        fermion.krdm_observable_set(3, 0)
    with pytest.raises(InvalidOrderError):
        fermion.krdm_observable_set(3, 4)


def test_observable_validation():
    with pytest.raises(ValueError):
        fermion.Observable(matrix=np.array([[0.0, 1.0], [0.0, 0.0]]), label="bad-herm")
    with pytest.raises(ValueError):
        fermion.Observable(matrix=2.0 * np.eye(2), label="bad-norm")
    ok = fermion.Observable(matrix=np.diag([1.0, -1.0]), label="z")
    assert ok.dim == 2


def test_observable_converts_only_when_needed():
    csr = sparse.csr_matrix(np.diag([1.0, -1.0]).astype(np.complex128))
    assert fermion.Observable(matrix=csr, label="z").matrix is csr
    dense = fermion.Observable(matrix=np.diag([1.0, -1.0]), label="z").matrix
    assert isinstance(dense, sparse.csr_matrix) and dense.dtype == np.complex128
    assert np.array_equal(dense.toarray(), csr.toarray())


# --- sectors ---


def test_sector_basis_enumeration():
    basis = fermion.sector_basis(4, 2)
    assert basis.dimension == 6
    assert np.array_equal(basis.indices, np.array([3, 5, 6, 9, 10, 12]))
    assert fermion.sector_basis(3, 0).indices.tolist() == [0]
    with pytest.raises(ValueError):
        fermion.sector_basis(3, 4)


def _combinations_sector_basis(N: int, eta: int) -> np.ndarray:
    """The enumeration `sector_basis` replaced: one bit mask per combination of modes."""
    return np.sort(
        np.array(
            [sum(1 << m for m in combo) for combo in combinations(range(N), eta)],
            dtype=np.int64,
        )
    )


def test_sector_basis_matches_combinations_oracle():
    for N in range(1, 13):
        for eta in range(N + 1):
            indices = fermion.sector_basis(N, eta).indices
            oracle = _combinations_sector_basis(N, eta)
            assert indices.dtype == oracle.dtype and np.array_equal(indices, oracle), (N, eta)


# --- sum-of-squares sector norm vs closed form ---


def test_sum_squares_frozen_values():
    one_body = fermion.krdm_observable_set(2, 1)
    assert fermion.sum_squares_sector_norm(one_body, 1) == pytest.approx(2.0, rel=1e-12)
    two_body = fermion.krdm_observable_set(4, 2)
    assert fermion.sum_squares_sector_norm(two_body, 2) == pytest.approx(6.0, rel=1e-12)


@pytest.mark.parametrize("N,k", [(2, 1), (3, 1), (4, 1), (4, 2), (5, 2)])
def test_sum_squares_matches_binomial_identity(N, k):
    observables = fermion.krdm_observable_set(N, k)
    for eta in range(N + 1):
        numeric = fermion.sum_squares_sector_norm(observables, eta)
        closed = fermion.binom_norm_formula(N, k, eta)
        assert numeric == pytest.approx(closed, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("N,k", KRDM_SHAPES)
def test_sum_squares_matches_dense_oracle(N, k):
    observables = fermion.krdm_observable_set(N, k)
    for eta in range(N + 1):
        expected = _oracle_sector_norm(observables, eta)
        assert fermion.sum_squares_sector_norm(observables, eta) == pytest.approx(
            expected, rel=1e-12, abs=1e-12
        )


@pytest.mark.parametrize("N,k", KRDM_SHAPES)
def test_counted_norm_equals_dense_norm_and_formula(N, k):
    # The diagonal count is an exact integer; so are the dense eigensolve of
    # the dyadic sum of squares and the binomial closed form.
    observables = fermion.krdm_observable_set(N, k)
    for eta in range(N + 1):
        counted = fermion.krdm_sector_norm(N, k, eta)
        assert counted == fermion.sum_squares_sector_norm(observables, eta), eta
        assert counted == fermion.binom_norm_formula(N, k, eta), eta


@pytest.mark.parametrize("N,k", KRDM_SHAPES)
def test_krdm_labels_follow_the_estimation_set(N, k):
    observables = fermion.estimation_observables(fermion.krdm_observable_set(N, k))
    assert fermion.krdm_labels(N, k) == [o.label for o in observables]


def test_ladder_string_routes_reject_bad_order():
    for k in (0, 4):
        with pytest.raises(InvalidOrderError):
            fermion.krdm_labels(3, k)
        with pytest.raises(InvalidOrderError):
            fermion.krdm_expectations(3, k, 1, np.ones(3) / np.sqrt(3))
        with pytest.raises(InvalidOrderError):
            fermion.krdm_sector_norm(3, k, 1)
    with pytest.raises(ValueError, match="eta"):
        fermion.krdm_sector_norm(3, 1, 4)


def test_sum_squares_matches_oracle_on_generic_hermitian_set():
    # Complex, number-conserving, and not a k-body set: the sum of squares is
    # not a multiple of the identity, and dropping the conjugate in B^H B shows.
    rng = np.random.default_rng(5)
    hop = fermion.build_ladder_monomial(fermion.LadderMonomial((0, 2), (1, 3), 4)).toarray()
    observables = []
    for _ in range(7):
        c = complex(*rng.normal(size=2))
        h = c * hop + np.conj(c) * hop.T + np.diag(rng.normal(size=16))
        observables.append(fermion.Observable(matrix=h / np.abs(h).sum(axis=1).max(), label="h"))
    for eta in range(5):
        assert fermion.sum_squares_sector_norm(observables, eta) == pytest.approx(
            _oracle_sector_norm(observables, eta), rel=1e-12
        )


def test_sum_squares_rejects_bad_input():
    observables = list(fermion.krdm_observable_set(3, 1))
    a = fermion.annihilation_operator(1, 3)
    observables.insert(4, fermion.Observable(matrix=(a + a.T) * 0.5, label="x1"))
    observables.append(fermion.Observable(matrix=(a + a.T) * 0.5, label="x1-again"))
    with pytest.raises(SymmetryViolationError, match="'x1' does not conserve"):
        fermion.sum_squares_sector_norm(observables, 1)
    with pytest.raises(ValueError, match="mixed dimensions"):
        fermion.sum_squares_sector_norm(
            fermion.krdm_observable_set(2, 1) + fermion.krdm_observable_set(3, 1), 1
        )
    with pytest.raises(ValueError, match="empty"):
        fermion.sum_squares_sector_norm([], 1)


def test_popcount_table_counts_bits():
    values = np.arange(1 << 16)
    assert np.array_equal(fermion.popcount(values), [bin(i).count("1") for i in range(1 << 16)])
    wide = np.array([(1 << 32) - 1, 0x12345678, 1 << 31])
    assert fermion.popcount(wide).tolist() == [32, 13, 1]


def test_binom_norm_formula_frozen():
    # Hand-checked products of binomial coefficients.
    assert fermion.binom_norm_formula(152, 2, 113) == 6328 * 820 == 5_188_960
    assert fermion.binom_norm_formula(8, 1, 7) == 14
    assert fermion.binom_norm_formula(6, 3, 3) == 20
    assert fermion.binom_norm_formula(4, 2, 1) == 0  # too few particles for k=2

"""Fermionic operator layer, checked against an independent tensor-product oracle.

The oracle builds ladder operators as explicit Pauli-string Kronecker products
(Z-string below the mode, lowering matrix at the mode) and composes monomials
by plain matrix multiplication.  The package route never forms these products,
so agreement is a real cross-check, not a tautology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from qgelab import fermion, statevector
from ladder_oracle import annihilation_operator, csr, krdm_stack, ladder_matrix, observable

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
    return creators, annihilators, N


@given(monomials())
def test_monomial_matches_kron_oracle(monomial):
    built = ladder_matrix(*monomial).toarray()
    assert np.array_equal(built, _oracle_monomial(*monomial))


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_single_ladder_operators_match_oracle(N):
    for p in range(N):
        assert np.array_equal(annihilation_operator(p, N).toarray(), _oracle_annihilation(p, N))
        # a real matrix, so the transpose is the adjoint a_p^dag
        assert np.array_equal(annihilation_operator(p, N).T.toarray(), _oracle_creation(p, N))


def test_number_operator_is_diagonal_occupation():
    n0 = ladder_matrix((0,), (0,), 1)
    assert np.array_equal(n0.toarray(), np.diag([0.0, 1.0]))
    n1 = ladder_matrix((1,), (1,), 2)
    assert np.array_equal(n1.toarray(), np.diag([0.0, 0.0, 1.0, 1.0]))


def test_hopping_sign_convention():
    # a_0^dag a_1 on two modes: |01> means mode 0 occupied (index 1).
    # Acting on index 2 (mode 1 occupied): a_1 kills bit 1 with no modes below
    # it occupied, so the image is +|index 1>.
    hop = ladder_matrix((0,), (1,), 2).toarray()
    expected = np.zeros((4, 4))
    expected[1, 2] = 1.0
    assert np.array_equal(hop, expected)


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=5), st.data())
def test_canonical_anticommutation_relations(N, data):
    p = data.draw(st.integers(min_value=0, max_value=N - 1))
    q = data.draw(st.integers(min_value=0, max_value=N - 1))
    a_p = annihilation_operator(p, N)
    a_q = annihilation_operator(q, N)
    adag_q = a_q.T
    mixed = (a_p @ adag_q + adag_q @ a_p).toarray()
    same = (a_p @ a_q + a_q @ a_p).toarray()
    target = np.eye(1 << N) if p == q else np.zeros((1 << N, 1 << N))
    assert np.array_equal(mixed, target)
    assert np.array_equal(same, np.zeros((1 << N, 1 << N)))


def test_monomial_validation():
    with pytest.raises(ValueError, match="mode 2 out of range for 2 modes"):
        annihilation_operator(2, 2)


# --- observable enumeration, against the all-ordered-tuples oracle ---


def _is_sign_copy(p: tuple[int, ...], q: tuple[int, ...]) -> bool:
    return tuple(sorted(p)) != p or tuple(sorted(q)) != q


def _label(part: str, p: tuple[int, ...], q: tuple[int, ...]) -> str:
    return f"{part.capitalize()}({'.'.join(map(str, p))},{'.'.join(map(str, q))})"


@dataclass
class _Entry:
    """One oracle observable and the ladder string it came from."""

    matrix: sparse.csr_matrix
    label: str
    part: str
    creators: tuple[int, ...]
    annihilators: tuple[int, ...]


def _oracle_krdm_set(N: int, k: int, sign_copies: bool = True) -> list[_Entry]:
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
            T = ladder_matrix(p, q, N)
            Tt = T.T  # real matrix, so transpose == adjoint
            re = ((T + Tt) * 0.5).astype(np.complex128)
            im = ((T - Tt) * (-0.5j)).tocsr()
            re.eliminate_zeros()
            im.eliminate_zeros()
            for part, matrix in (("re", re), ("im", im)):
                out.append(_Entry(matrix, _label(part, p, q), part, p, q))
    return out


def _positions(N: int, eta: int) -> dict[int, int]:
    """Basis index -> row within the eta sector, from the combinations enumeration."""
    return {int(n): i for i, n in enumerate(_combinations_sector_basis(N, eta))}


def _oracle_sector_norms(observables) -> list[float]:
    """For each sector eta = 0..N: restrict each observable densely, sum the squares, eigensolve.

    The observables are stacked into one CSR matrix once; each sector takes
    its rows and columns, in the combinations enumeration's order, from the
    stack.  Slicing copies entries, so every block holds the observable's
    values as they are.
    """
    n, dim = len(observables), observables[0].dim
    N = dim.bit_length() - 1
    stack = sparse.vstack([csr(o) for o in observables], format="csr")
    norms = []
    for eta in range(N + 1):
        sector = _combinations_sector_basis(N, eta)
        rows = (np.arange(n)[:, None] * dim + sector).ravel()
        blocks = stack[rows][:, sector].toarray().reshape(n, sector.size, sector.size)
        total = np.einsum("nij,njk->ik", blocks, blocks, optimize=True)
        norms.append(float(np.abs(np.linalg.eigvalsh(total)).max()))
    return norms


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
        assert new.label == old.label
        for name in ("indptr", "indices", "data"):
            a, b = getattr(csr(new), name), getattr(old.matrix, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), (new.label, name)


def test_krdm_set_counts_one_body():
    obs = fermion.krdm_observable_set(2, 1)
    assert len(obs) == 8  # 2 tuples x 2 tuples x (Re, Im)
    est = fermion.estimation_observables(obs)
    assert len(est) == 6  # the two diagonal Im parts vanish identically
    assert {o.label for o in obs if not csr(o).nnz} == {"Im(0,0)", "Im(1,1)"}


def test_krdm_set_counts_two_body():
    obs = fermion.krdm_observable_set(4, 2)
    assert len(obs) == 72  # ascending tuples only: 2 * C(4,2)^2
    est = fermion.estimation_observables(obs)
    assert len(est) == 66  # minus the C(4,2) vanishing diagonal Im parts
    trivial_labels = {o.label for o in obs if not csr(o).nnz}
    assert trivial_labels == {f"Im({t},{t})" for t in ("0.1", "0.2", "0.3", "1.2", "1.3", "2.3")}


def test_krdm_observables_are_hermitian_contractions():
    for o in fermion.krdm_observable_set(4, 2):
        dense = csr(o).toarray()
        assert np.allclose(dense, dense.conj().T)
        if csr(o).nnz:
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
        assert np.array_equal(copy.matrix.toarray(), sign * csr(canonical).toarray()), copy.label
    oracle = {o.label: o for o in copies}
    # One transposition in the creator tuple flips the monomial's sign.
    assert np.array_equal(
        oracle["Re(1.0,2.3)"].matrix.toarray(), -csr(by_label["Re(0.1,2.3)"]).toarray()
    )
    # Transpositions on both sides cancel.
    assert np.array_equal(
        oracle["Im(1.0,3.2)"].matrix.toarray(), csr(by_label["Im(0.1,2.3)"]).toarray()
    )


def test_krdm_matches_monomial_route():
    obs = fermion.krdm_observable_set(3, 1)
    by_label = {o.label: o for o in obs}
    T = ladder_matrix((0,), (2,), 3).toarray()
    assert np.allclose(csr(by_label["Re(0,2)"]).toarray(), (T + T.T) / 2)
    assert np.allclose(csr(by_label["Im(0,2)"]).toarray(), (T - T.T) / 2j)


def test_krdm_bad_order():
    with pytest.raises(ValueError, match=r"k=0 outside 1\.\.3"):
        fermion.krdm_observable_set(3, 0)
    with pytest.raises(ValueError, match=r"k=4 outside 1\.\.3"):
        fermion.krdm_observable_set(3, 4)


def test_observable_validation():
    with pytest.raises(ValueError, match="'bad-herm' is not Hermitian"):
        observable(np.array([[0.0, 1.0], [0.0, 0.0]]), "bad-herm")
    with pytest.raises(ValueError, match=r"'bad-norm' has spectral norm 2 > 1"):
        observable(2.0 * np.eye(2), "bad-norm")
    with pytest.raises(ValueError, match="must be square"):
        observable(np.ones((2, 3)), "wide")
    ok = observable(np.diag([1.0, -1.0]), "z")
    assert ok.dim == 2
    # Row sums of sqrt(2) are inconclusive; the eigensolve certifies norm 1.
    assert observable(np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2), "h").dim == 2
    big = dict(rows=[0, 1], cols=[0, 1], values=[1.0, 1.5], dim=8192)
    with pytest.raises(ValueError, match="cannot certify norm <= 1 for 'big'"):
        fermion.Observable(label="big", **big)


def test_observable_checks_its_entries():
    # Entries at one position add, in the checks as in the matrix: two halves
    # of an off-diagonal entry need their transpose's full weight.
    halves = fermion.Observable(rows=[0, 0, 1], cols=[1, 1, 0], values=[0.5, 0.5, 1.0],
                                dim=2, label="x")
    assert np.array_equal(csr(halves).toarray(), [[0, 1], [1, 0]])
    with pytest.raises(ValueError, match="'y' is not Hermitian"):
        fermion.Observable(rows=[0, 0, 1], cols=[1, 1, 0], values=[0.5, 0.4, 1.0],
                           dim=2, label="y")
    with pytest.raises(ValueError, match=r"'out' has an entry outside 2 x 2"):
        fermion.Observable(rows=[2], cols=[2], values=[1.0], dim=2, label="out")
    with pytest.raises(ValueError, match="'short' needs three entry arrays of one length"):
        fermion.Observable(rows=[0, 1], cols=[0], values=[1.0], dim=2, label="short")


# --- sectors ---


def test_sector_basis_enumeration():
    basis = fermion.sector_basis(4, 2)
    assert isinstance(basis, np.ndarray) and basis.dtype == np.int64
    assert np.array_equal(basis, np.array([3, 5, 6, 9, 10, 12]))
    assert fermion.sector_basis(3, 0).tolist() == [0]
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
            indices = fermion.sector_basis(N, eta)
            oracle = _combinations_sector_basis(N, eta)
            assert indices.dtype == oracle.dtype and np.array_equal(indices, oracle), (N, eta)


# --- sum-of-squares sector norm vs closed form ---


def test_sum_squares_frozen_values():
    one_body = fermion.krdm_observable_set(2, 1)
    assert fermion.sum_squares_sector_norm(one_body)[1] == pytest.approx(2.0, rel=1e-12)
    two_body = fermion.krdm_observable_set(4, 2)
    assert fermion.sum_squares_sector_norm(two_body)[2] == pytest.approx(6.0, rel=1e-12)


@pytest.mark.parametrize("N,k", [(2, 1), (3, 1), (4, 1), (4, 2), (5, 2)])
def test_sum_squares_matches_binomial_identity(N, k):
    norms = fermion.sum_squares_sector_norm(fermion.krdm_observable_set(N, k))
    assert norms.shape == (N + 1,)
    for eta in range(N + 1):
        numeric = norms[eta]
        closed = fermion.binom_norm_formula(N, k, eta)
        assert numeric == pytest.approx(closed, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("N,k", KRDM_SHAPES)
def test_sum_squares_matches_dense_oracle(N, k):
    observables = fermion.krdm_observable_set(N, k)
    norms = fermion.sum_squares_sector_norm(observables)
    oracle = _oracle_sector_norms(observables)
    for eta in range(N + 1):
        assert norms[eta] == pytest.approx(oracle[eta], rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("N,k", KRDM_SHAPES)
def test_counted_norm_equals_dense_norm_and_formula(N, k):
    # The dense eigensolve of the dyadic sum of squares is an exact integer,
    # and so is the binomial closed form that prices every run and sweep.
    norms = fermion.sum_squares_sector_norm(fermion.krdm_observable_set(N, k))
    for eta in range(N + 1):
        dense = norms[eta]
        assert dense == fermion.binom_norm_formula(N, k, eta), eta


@pytest.mark.parametrize("N,k", KRDM_SHAPES)
def test_krdm_labels_follow_the_estimation_set(N, k):
    observables = fermion.estimation_observables(fermion.krdm_observable_set(N, k))
    assert fermion.krdm_labels(N, k) == [o.label for o in observables]


def test_ladder_string_routes_reject_bad_order():
    for k in (0, 4):
        with pytest.raises(ValueError, match=rf"k={k} outside 1\.\.3"):
            fermion.krdm_labels(3, k)
        with pytest.raises(ValueError, match=rf"k={k} outside 1\.\.3"):
            fermion.krdm_expectations(3, k, 1, np.ones(3) / np.sqrt(3))
    with pytest.raises(ValueError, match="eta"):
        fermion.krdm_expectations(3, 1, 4, np.ones(1))


@pytest.mark.parametrize("size", [5, 7])
def test_krdm_expectations_refuse_amplitudes_off_the_sector(size):
    # Sector eta=2 of 4 modes holds 6 states: a longer unit vector must not be
    # read by its first 6 entries, nor a shorter one fail on an index.
    with pytest.raises(ValueError, match=r"sector eta=2 of 4 modes has 6 amplitudes"):
        fermion.krdm_expectations(4, 2, 2, np.ones(size) / np.sqrt(size))


@pytest.mark.parametrize(
    "N,k", [(N, k) for N in range(1, 9) for k in range(1, N + 1) if N < 7 or k <= 3]
)
def test_stack_is_the_stacked_observable_set(N, k):
    # `krdm_observable_set` splits the stack's entries at each observable's
    # first row.  The matrix each observable scatters on read is the stack's
    # row slice, and stacking them gives the stack back, array for array.
    stack, labels = krdm_stack(N, k)
    dim = 1 << N
    observables = fermion.krdm_observable_set(N, k)
    assert labels == [o.label for o in observables]
    stacked = sparse.vstack([csr(o) for o in observables], format="csr")
    assert stack.shape == stacked.shape == (2 * math.comb(N, k) ** 2 << N, 1 << N)
    pairs = [(stack, stacked, "stack")]
    pairs += [(csr(o), stack[j * dim:(j + 1) * dim], o.label) for j, o in enumerate(observables)]
    for new, old, where in pairs:
        for name in ("indptr", "indices", "data"):
            a, b = getattr(new, name), getattr(old, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (where, name)


STACK_SHAPES = [(N, k) for N in range(1, 9) for k in (1, 2, 3) if k <= N]


@pytest.mark.parametrize("N", range(1, 9))
def test_sector_entries_are_the_restricted_full_space_entries(N, monkeypatch):
    # A number-conserving entry maps sector eta into itself, so the sector
    # builder holds exactly the full-space entries whose column lies in the
    # sector, with each state replaced by its rank there, in every bit.  A
    # scratch bound of 40 cells runs the annihilation pass and its pairing in
    # many blocks, in the sector and the full space alike.
    for cells in (fermion._LADDER_CELLS, 40):
        monkeypatch.setattr(fermion, "_LADDER_CELLS", cells)
        for k in range(1, min(N, 3) + 1):
            rows, cols, values, labels = fermion._krdm_entries(N, k)
            owner, state = np.divmod(rows, 1 << N)
            for eta in range(N + 1):
                basis = fermion.sector_basis(N, eta)
                rank = np.full(1 << N, -1)
                rank[basis] = np.arange(basis.size)
                keep = rank[cols] >= 0
                assert (rank[state[keep]] >= 0).all()
                want = (owner[keep] * basis.size + rank[state[keep]], rank[cols[keep]],
                        values[keep])
                got_rows, got_cols, got_values, got_labels = fermion._krdm_entries(N, k, eta)
                assert got_labels == labels
                order, want_order = np.argsort(got_rows), np.argsort(want[0])
                for got, ref in zip((got_rows, got_cols, got_values), want):
                    assert got.dtype == ref.dtype
                    assert got[order].tobytes() == ref[want_order].tobytes(), cells


@pytest.mark.parametrize("N,k", [(3, 1), (4, 2), (5, 2), (5, 3)])
def test_sector_observables_are_the_restricted_blocks(N, k):
    full = fermion.krdm_observable_set(N, k)
    for eta in range(N + 1):
        sector = fermion.sector_basis(N, eta)
        observables = fermion.krdm_observable_set(N, k, eta)
        assert [o.label for o in observables] == [o.label for o in full]
        for o, ref in zip(observables, full):
            assert o.dim == sector.size
            block = csr(ref).toarray()[np.ix_(sector, sector)]
            assert np.array_equal(csr(o).toarray(), block), (eta, o.label)


@pytest.mark.parametrize("N,k", STACK_SHAPES)
def test_stack_norms_equal_the_list_route(N, k):
    # The column sums of |B|^2 give the Gram route's eigensolved norms bit for
    # bit: each row holds one entry of +-1, +-1/2 or +-i/2, so every sum is exact.
    stack_norms = fermion.stack_sector_norms(N, *fermion._krdm_entries(N, k))
    list_norms = fermion.sum_squares_sector_norm(fermion.krdm_observable_set(N, k))
    assert stack_norms.tobytes() == list_norms.tobytes()


@pytest.mark.parametrize("N,k", STACK_SHAPES)
def test_csr_builder_is_the_stack_and_reduces_as_the_gram_oracle(N, k):
    # `krdm_stack` scatters the builder's entries, one per row, so its sparse
    # Gram product B^H B is diagonal, and its diagonal holds the column sums
    # whose sector maxima `stack_sector_norms` returns.
    rows, cols, values, labels = fermion._krdm_entries(N, k)
    stack, stack_labels = krdm_stack(N, k)
    assert labels == stack_labels
    assert stack.shape == (len(labels) << N, 1 << N) and stack.nnz == rows.size
    assert np.unique(rows).size == rows.size
    assert np.array_equal(stack[rows, cols].A1, values)
    gram = (stack.conj().T @ stack).tocoo()
    assert np.array_equal(gram.row, gram.col)
    weight = fermion.popcount(np.arange(1 << N))
    norms = [gram.diagonal()[weight == eta].max().real for eta in range(N + 1)]
    assert fermion.stack_sector_norms(N, rows, cols, values, labels).tolist() == norms


def test_stack_norms_refuse_a_row_of_two_entries():
    # The mutant that moves T^T onto T's row, which the builder's docstring
    # rules out: its sum of squares is not diagonal, so the column sums would lie.
    N, dim = 4, 16
    rows, cols, values, labels = fermion._krdm_entries(N, 1)
    fermion.stack_sector_norms(N, rows, cols, values, labels)
    own = rows // dim == labels.index("Re(0,1)")
    t = np.flatnonzero(own)[0]
    transpose = np.flatnonzero(own & (rows % dim == cols[t]) & (cols == rows[t] % dim))[0]
    mutant = rows.copy()
    mutant[transpose] = rows[t]
    with pytest.raises(ValueError, match="two entries"):
        fermion.stack_sector_norms(N, mutant, cols, values, labels)
    # A crossing entry is named by its observable, the first in stack order.
    crossing = cols.copy()
    crossing[t] ^= 1 << 3
    with pytest.raises(ValueError, match=r"'Re\(0,1\)' does not conserve particle number"):
        fermion.stack_sector_norms(N, rows, crossing, values, labels)


def _number_conserving_observables(rng, N, M, density):
    """M random Hermitian observables on N modes that conserve particle number.

    Entries join two states of one weight only; about a `density` share of
    them is kept, so rows hold several entries and some hold none.
    """
    dim = 1 << N
    weight = fermion.popcount(np.arange(dim))
    observables = []
    for j in range(M):
        raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        raw *= (weight[:, None] == weight[None, :]) & (rng.random((dim, dim)) < density)
        h = (raw + raw.conj().T) / 2
        h /= np.abs(h).sum(axis=1).max()
        observables.append(observable(h, f"h{j}"))
    return observables


GENERIC_STACKS = [(3, 5, 0.4), (4, 3, 0.2), (5, 2, 0.6), (4, 6, 1.0)]


@pytest.mark.parametrize("N,M,density", GENERIC_STACKS)
def test_stack_norms_refuse_generic_stacks(N, M, density):
    obs = _number_conserving_observables(np.random.default_rng(N * 100 + M), N, M, density)
    stack = sparse.vstack([csr(o) for o in obs], format="coo")
    with pytest.raises(ValueError, match="two entries"):
        fermion.stack_sector_norms(N, stack.row, stack.col, stack.data, [o.label for o in obs])


@pytest.mark.parametrize("budget", [None, 7], ids=["one-block", "many-blocks"])
@pytest.mark.parametrize("N,M,density", GENERIC_STACKS)
def test_stack_reduction_matches_the_gram_oracle_on_generic_stacks(monkeypatch, budget, N, M, density):
    # A generic stack, joined by the 1-body set, through the Gram route of
    # `sum_squares_sector_norm` against the dense oracle.  With a budget of 7
    # cells the 1-body set is built one tuple block at a time.
    observables = _number_conserving_observables(np.random.default_rng(N * 100 + M), N, M, density)
    counts = np.diff(sparse.vstack([csr(o) for o in observables], format="csr").indptr)
    if density < 1.0:
        assert (counts == 0).any() and (counts > 1).any()
    if budget is not None:
        monkeypatch.setattr(fermion, "_LADDER_CELLS", budget)
        states = np.arange(1 << N, dtype=np.int64)
        assert len(list(fermion._annihilated(N, 1, states, states))) > 1
    observables += fermion.krdm_observable_set(N, 1)
    norms = fermion.sum_squares_sector_norm(observables)
    oracle = _oracle_sector_norms(observables)
    np.testing.assert_allclose(norms, oracle, rtol=1e-12, atol=1e-12)


def test_sum_squares_matches_oracle_on_generic_hermitian_set():
    # Complex, number-conserving, and not a k-body set: the sum of squares is
    # not a multiple of the identity, and dropping the conjugate in B^H B shows.
    rng = np.random.default_rng(5)
    hop = ladder_matrix((0, 2), (1, 3), 4).toarray()
    observables = []
    for _ in range(7):
        c = complex(*rng.normal(size=2))
        h = c * hop + np.conj(c) * hop.T + np.diag(rng.normal(size=16))
        observables.append(observable(h / np.abs(h).sum(axis=1).max(), "h"))
    norms = fermion.sum_squares_sector_norm(observables)
    oracle = _oracle_sector_norms(observables)
    for eta in range(5):
        assert norms[eta] == pytest.approx(oracle[eta], rel=1e-12)


def test_sum_squares_rejects_bad_input():
    observables = list(fermion.krdm_observable_set(3, 1))
    a = annihilation_operator(1, 3)
    observables.insert(4, observable((a + a.T) * 0.5, "x1"))
    observables.append(observable((a + a.T) * 0.5, "x1-again"))
    with pytest.raises(ValueError, match="'x1' does not conserve particle number"):
        fermion.sum_squares_sector_norm(observables)
    with pytest.raises(ValueError, match="mixed dimensions"):
        fermion.sum_squares_sector_norm(
            fermion.krdm_observable_set(2, 1) + fermion.krdm_observable_set(3, 1)
        )
    with pytest.raises(ValueError, match="empty"):
        fermion.sum_squares_sector_norm([])
    # A sector-built set acts on C(N, eta) states, which no popcount sorts into sectors.
    with pytest.raises(ValueError, match="dimension 6 do not act on 2\\^N states"):
        fermion.sum_squares_sector_norm(fermion.krdm_observable_set(4, 1, 2))


def test_popcount_counts_bits():
    values = np.arange(1 << 16)
    assert np.array_equal(fermion.popcount(values), [bin(i).count("1") for i in range(1 << 16)])
    wide = [(1 << 32) - 1, 0x12345678, 1 << 31, (1 << 40) + 1, 1 << 62, (1 << 63) - 1]
    assert fermion.popcount(wide).tolist() == [bin(v).count("1") for v in wide] == [32, 13, 1, 2, 1, 63]


def test_binom_norm_formula_frozen():
    # Hand-checked products of binomial coefficients.
    assert fermion.binom_norm_formula(152, 2, 113) == 6328 * 820 == 5_188_960
    assert fermion.binom_norm_formula(8, 1, 7) == 14
    assert fermion.binom_norm_formula(6, 3, 3) == 20
    assert fermion.binom_norm_formula(4, 2, 1) == 0  # too few particles for k=2


def _expectations_one_tuple_at_a_time(N, k, eta, amplitudes):
    """`krdm_expectations` as it filled Phi before the stacked pass: one column per string.

    Phi's rows come from a dict over the (eta - k) sector, not from the
    `searchsorted` lookup under test; below k particles Phi has no row.
    """
    tuples = list(combinations(range(N), k))
    upper = _combinations_sector_basis(N, eta)
    pos = _positions(N, eta - k) if eta >= k else {}
    psi = np.asarray(amplitudes, dtype=np.complex128)
    phi = np.zeros((len(pos), len(tuples)), dtype=np.complex128)
    for col, q in enumerate(tuples):
        alive, image, sign = fermion._apply_ladder(upper, np.ones(upper.size), q)
        rows = [pos[int(n)] for n in image[alive]]
        phi[rows, col] = sign[alive] * psi[alive]
    gram = phi.conj().T @ phi
    parts = np.stack((gram.real, gram.imag), axis=-1) * (-1.0) ** (k * (k - 1) // 2) + 0.0
    keep = np.ones(parts.shape, dtype=bool)
    keep[np.arange(len(tuples)), np.arange(len(tuples)), 1] = False
    return parts[keep]


@pytest.mark.parametrize("cells", [None, 40], ids=["one-block", "many-blocks"])
@pytest.mark.parametrize(
    "N,k,eta", [(4, 2, 2), (6, 3, 3), (6, 1, 6), (8, 2, 4), (10, 3, 5), (12, 2, 6), (5, 3, 2)]
)
def test_stacked_ladder_strings_match_one_string_at_a_time(N, k, eta, cells, monkeypatch):
    # Every k-tuple's string is tracked in one stacked pass (split into blocks
    # of tuples when the scratch bound asks); Phi, hence the exact vector, must
    # keep its bits.
    if cells is not None:
        monkeypatch.setattr(fermion, "_LADDER_CELLS", cells)
    basis = fermion.sector_basis(N, eta)
    rng = np.random.default_rng(N + k + eta)
    amplitudes = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    amplitudes /= np.linalg.norm(amplitudes)
    got = fermion.krdm_expectations(N, k, eta, amplitudes)
    want = _expectations_one_tuple_at_a_time(N, k, eta, amplitudes)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_stacked_ladder_rows_equal_single_strings():
    states = np.arange(1 << 5, dtype=np.int64)
    stack = np.array(list(combinations(range(5), 2)), dtype=np.int64)
    alive, image, sign = fermion._apply_ladder(states, 1.0, stack)
    assert alive.shape == image.shape == sign.shape == (len(stack), states.size)
    for row, modes in enumerate(stack):
        one = fermion._apply_ladder(states, np.ones(states.size), tuple(modes))
        assert np.array_equal(alive[row], one[0])
        assert np.array_equal(image[row][one[0]], one[1][one[0]])
        assert np.array_equal(sign[row][one[0]], one[2][one[0]])


# --- the exact vector against Wick's theorem and the k-RDM identities ---

# Shapes of both references: every body order k <= 3 on N <= 10 modes.
_RDM_SHAPES = [(N, k) for N in range(1, 11) for k in range(1, min(N, 3) + 1)]
_EPS = np.finfo(np.float64).eps


def _rdm_matrix(N, k, eta, amplitudes):
    """s_k <T(P, Q)> = <A_P^dag A_Q> as a C(N, k) x C(N, k) matrix, read from
    `krdm_expectations` in its label order: Re then Im of each (P, Q), P-major,
    no Im for P = Q."""
    count = math.comb(N, k)
    parts = np.zeros((count, count, 2))
    keep = np.ones(parts.shape, dtype=bool)
    keep[np.arange(count), np.arange(count), 1] = False
    parts[keep] = fermion.krdm_expectations(N, k, eta, amplitudes)
    return (-1.0) ** (k * (k - 1) // 2) * (parts[..., 0] + 1j * parts[..., 1])


def _slater(N, eta, rng):
    """Orbitals C (N x eta, orthonormal complex columns) and the sector amplitudes
    det C[(i_1..i_eta), :] of the Slater determinant they span, on `sector_basis(N, eta)`."""
    C, _ = np.linalg.qr(rng.normal(size=(N, eta)) + 1j * rng.normal(size=(N, eta)))
    basis = fermion.sector_basis(N, eta)
    occupied = np.array([[m for m in range(N) if n >> m & 1] for n in basis]).reshape(-1, eta)
    return C, np.linalg.det(C[occupied])


def test_exact_vector_obeys_wick_on_slater_states():
    # The Slater determinant of C has the one-body matrix gamma = conj(C) C^T, and
    # Wick's theorem gives <A_P^dag A_Q> = det gamma[P, Q].  Real orbitals would
    # miss a Gram product conjugated on the wrong side, so C is complex.
    rng = np.random.default_rng(22)
    for N, k in _RDM_SHAPES:
        tuples = np.array(list(combinations(range(N), k)))
        for eta in range(1, N + 1):
            C, amplitudes = _slater(N, eta, rng)
            gamma = C.conj() @ C.T
            want = np.linalg.det(gamma[tuples[:, None, :, None], tuples[None, :, None, :]])
            got = _rdm_matrix(N, k, eta, amplitudes)
            # Moduli stay at most 1.  An m x m LU determinant errs by at most about
            # m^3 eps and a sum of n products by n eps; the Gram sums run over at
            # most C(N, eta) amplitudes, each an eta x eta determinant.
            tol = 4 * _EPS * (math.comb(N, eta) + eta**3 + k**3 + eta)
            assert np.abs(got - want).max() <= tol, (N, k, eta)


def test_exact_vector_obeys_the_k_rdm_identities():
    # On any state of the eta sector, D = (<A_P^dag A_Q>) is Hermitian and
    # positive semidefinite with trace C(eta, k); contracting one index gives
    # sum_r sigma(r, P) sigma(r, Q) D_k(P+r, Q+r) = (eta - k + 1) D_{k-1}(P, Q),
    # sigma(r, P) = (-1)^(position of r in P+r); and D_1's diagonal is the occupations.
    rng = np.random.default_rng(23)
    for N, k in _RDM_SHAPES:
        index = {t: i for i, t in enumerate(combinations(range(N), k))}
        lower = list(combinations(range(N), k - 1))
        # grown[a, r]: the k-tuple lower[a] + r and its sign, or sign 0 where r is in lower[a]
        grown = np.zeros((len(lower), N), dtype=np.intp)
        sigma = np.zeros((len(lower), N))
        for a, P in enumerate(lower):
            for r in set(range(N)) - set(P):
                grown[a, r] = index[tuple(sorted(P + (r,)))]
                sigma[a, r] = (-1.0) ** sum(m < r for m in P)
        for eta in range(N + 1):
            amplitudes = statevector.random_sector_amplitudes(N, eta, rng)
            D = _rdm_matrix(N, k, eta, amplitudes)
            # Each entry sums at most C(N, eta) products of amplitudes; the trace and
            # the eigenvalues add C(N, k) entries of a matrix of norm <= C(eta, k).
            tol = 4 * _EPS * (math.comb(N, eta) + math.comb(N, k)) * max(1, math.comb(eta, k))
            assert np.abs(D - D.conj().T).max() <= tol, (N, k, eta)
            assert np.linalg.eigvalsh(D).min() >= -tol, (N, k, eta)
            assert abs(np.trace(D) - math.comb(eta, k)) <= tol, (N, k, eta)
            if k == 1:
                bits = (fermion.sector_basis(N, eta)[:, None] >> np.arange(N)) & 1
                assert np.abs(np.diag(D) - np.abs(amplitudes) ** 2 @ bits).max() <= tol
                continue
            contracted = np.einsum("ar,br,abr->ab", sigma, sigma,
                                   D[grown[:, None, :], grown[None, :, :]])
            smaller = _rdm_matrix(N, k - 1, eta, amplitudes)
            assert np.abs(contracted - (eta - k + 1) * smaller).max() <= N * tol, (N, k, eta)

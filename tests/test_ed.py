"""Exact-diagonalization module: bases, Hamiltonians, symmetries."""

import json
import math
import tracemalloc
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bethelab.basis import build_sector_basis
from bethelab import basis, cli, coordinate, ed
import loop_references
from loop_references import (config_to_index, index_to_config, splus_pairs,
                             total_spin_entries, xxz_entries)
from oracles import SX, SY, SZ, kron_spin_hamiltonian, kron_total_spin


class TestSectorBasis:
    @pytest.mark.parametrize("L,N,dim", [(4, 0, 1), (4, 2, 6), (12, 6, 924)])
    def test_dimensions(self, L, N, dim):
        assert build_sector_basis(L, N).dim == dim

    def test_index_inverse_and_order(self):
        b = build_sector_basis(6, 3)
        assert b.states == sorted(b.states)
        for i, s in enumerate(b.states):
            assert np.searchsorted(b.state_array, s) == i
            assert config_to_index(6, index_to_config(6, s)) == s

    def test_sites_match_index_to_config(self):
        for L in range(13):
            for N in range(L + 1):
                b = build_sector_basis(L, N)
                ref = [index_to_config(L, s) for s in b.states]
                assert b.sites.shape == (b.dim, N) and b.sites.dtype == np.int64
                assert [tuple(row) for row in b.sites.tolist()] == ref
                assert not b.sites.flags.writeable

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            build_sector_basis(4, 5)
        with pytest.raises(ValueError):
            build_sector_basis(4, -1)

    def test_sector_states_match_combinations(self):
        # every (L, N) with L <= 14: the ascending int64 words with N set bits
        for L in range(15):
            for N in range(L + 1):
                words = basis._sector_states(L, N)
                assert words.dtype == np.int64
                assert words.tolist() == sorted(sum(1 << b for b in bits)
                                                for bits in combinations(range(L), N)), (L, N)

    def test_one_read_only_basis_per_sector(self):
        b = build_sector_basis(9, 4)
        assert b is build_sector_basis(9, 4)
        for a in (b.state_array, b.sites):
            with pytest.raises(ValueError):
                a[0] = 0

    def test_offshell_check_builds_each_sector_once(self):
        # vector, Hamiltonian, S^+ (N and N - 1) and translation of one check
        L, N = 11, 4
        basis._cached_sector_basis.cache_clear()
        with mock.patch.object(basis, "_sector_states", wraps=basis._sector_states) as built:
            v = coordinate.offshell_vector([-0.7, -0.1, 0.4, 1.3], L)
            ed.build_xxx_hamiltonian(L, 1.0, N) @ v
            coordinate.highest_weight_residual(v, L, N)
            ed.shift_sector_matrix(build_sector_basis(L, N)) @ v
        assert sorted(c.args for c in built.call_args_list) == [(L, N - 1), (L, N)]


class TestHamiltonians:
    def test_xxx_l2_spectrum(self):
        # periodic L=2 counts its bond twice: singlet at -2, triplet at 0
        w = ed.diagonalize(ed.build_xxx_hamiltonian(2, 1.0)).eigenvalues
        assert np.allclose(w, [-2, 0, 0, 0], atol=1e-12)

    @pytest.mark.parametrize("L", [3, 4, 5])
    def test_xxx_matches_kron_oracle(self, L):
        H = ed.build_xxx_hamiltonian(L, 1.3).dense()
        assert np.max(np.abs(H - kron_spin_hamiltonian(L, 1.3, 1.3))) < 1e-12

    @pytest.mark.parametrize("L,delta", [(3, 0.0), (4, 0.5), (5, -0.7)])
    def test_xxz_matches_kron_oracle(self, L, delta):
        H = ed.build_xxz_hamiltonian(L, delta).dense()
        assert np.max(np.abs(H - kron_spin_hamiltonian(L, 1.0, delta))) < 1e-12

    def test_xxz_at_delta_one_is_xxx(self):
        a = ed.build_xxz_hamiltonian(4, 1.0).dense()
        b = ed.build_xxx_hamiltonian(4, 1.0).dense()
        assert np.max(np.abs(a - b)) == 0

    def test_xxz_l2_delta0_spectrum(self):
        w = ed.diagonalize(ed.build_xxz_hamiltonian(2, 0.0)).eigenvalues
        oracle = np.linalg.eigvalsh(kron_spin_hamiltonian(2, 1.0, 0.0))
        assert np.allclose(w, oracle, atol=1e-12)
        assert np.allclose(w, [-1, 0, 0, 1], atol=1e-12)

    def test_xxz_l6_sector_ground(self):
        w = ed.diagonalize(ed.build_xxz_hamiltonian(6, 0.5, 3)).eigenvalues
        full = np.linalg.eigvalsh(kron_spin_hamiltonian(6, 1.0, 0.5))
        assert abs(w[0] - full[0]) < 1e-10  # the ground state sits at Sz=0

    def test_ferromagnet_nonnegative_with_vacuum_ground(self):
        for L in (3, 5):
            H = ed.build_xxx_hamiltonian(L, -1.0)
            w = ed.diagonalize(H).eigenvalues
            assert w[0] > -1e-12
            v0 = np.zeros(2 ** L)
            v0[0] = 1.0  # all-up state
            assert np.linalg.norm(H.dense() @ v0) < 1e-12

    def test_spectrum_inversion_under_sign_of_j(self):
        wp = ed.diagonalize(ed.build_xxx_hamiltonian(5, 1.0)).eigenvalues
        wm = ed.diagonalize(ed.build_xxx_hamiltonian(5, -1.0)).eigenvalues
        assert np.allclose(wp, -wm[::-1], atol=1e-12)

    def test_full_spectrum_is_union_of_sectors(self):
        L = 6
        full = ed.diagonalize(ed.build_xxx_hamiltonian(L, 1.0)).eigenvalues
        parts = np.concatenate([
            ed.diagonalize(ed.build_xxx_hamiltonian(L, 1.0, N)).eigenvalues
            for N in range(L + 1)])
        assert np.allclose(np.sort(parts), full, atol=1e-10)

    @pytest.mark.parametrize("L,delta", [(6, 1.0), (8, 0.3), (10, 2.0), (12, 0.7)])
    def test_hermitian_and_symmetric(self, L, delta):
        H = ed.build_xxz_hamiltonian(L, delta)
        assert H.hermiticity_defect() < 1e-12
        Sz = ed.build_total_spin(L, "z")
        assert ed.commutator_norm(H, Sz) < 1e-12
        U = ed.build_shift_operator(L)
        assert ed.commutator_norm(H, U) < 1e-12

    def test_sparse_storage_above_threshold(self):
        import scipy.sparse as sp
        from bethelab import serialize
        H = ed.build_xxz_hamiltonian(12, 0.7)  # dim 4096 -> sparse
        assert sp.issparse(H.matrix)
        assert serialize.matrix_to_dict(H)["format"] == "coo"
        assert sp.issparse(ed.build_xxz_hamiltonian(9, 0.7).matrix)  # dim 512
        assert not sp.issparse(ed.build_xxz_hamiltonian(8, 0.7).matrix)  # dim 256
        # partial eigensolve through the sparse path (dim 4096, k = 3)
        spec = ed.diagonalize(H, k=3)
        sector_lows = np.sort(np.concatenate([
            ed.diagonalize(ed.build_xxz_hamiltonian(12, 0.7, N)).eigenvalues[:3]
            for N in range(13)]))[:3]
        assert np.allclose(spec.eigenvalues, sector_lows, atol=1e-9)

    def test_dense_is_a_copy_and_matrix_read_only(self):
        # dim 70: `matrix` is the kept dense array
        H = ed.build_xxx_hamiltonian(8, 1.0, 4)
        v = np.zeros(H.dim)
        v[0] = 1.0
        d = H.dense()
        d[0, 0] = 99.0
        assert H.matrix[0, 0] == H.dense()[0, 0] == (H @ v)[0] == -1.0
        with pytest.raises(ValueError):
            H.matrix[0, 0] = 99.0
        assert H.dense() is not H.dense()

    def test_storage_depends_on_dim_only(self):
        # one rule whatever the input form: CSR from DENSE_DIM_LIMIT up,
        # dense below
        assert sp.issparse(ed.OperatorMatrix(np.eye(4096)).matrix)
        assert isinstance(ed.OperatorMatrix(sp.eye(8, format="csr")).matrix, np.ndarray)

    def test_large_sector_is_applied_as_csr(self):
        # L = 14, N = 6 (dim 3003): a dense view would be 72 MB, and a complex
        # vector would cast it to a 144 MB complex copy
        H = ed.build_xxx_hamiltonian(14, 1.0, 6)
        v = np.random.default_rng(14).standard_normal(H.dim) * (1 + 0.5j)
        tracemalloc.start()
        try:
            Hv = H.matrix @ v
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sp.issparse(H.matrix)
        assert peak < 5e6
        assert np.max(np.abs(Hv - H.csr() @ v)) == 0


class TestShiftOperator:
    def test_translation_action(self):
        # this package's convention: x -> x - 1 (eigenvalue e^{+iP} on Bethe kets)
        L = 5
        U = ed.build_shift_operator(L).dense()
        v = np.zeros(2 ** L)
        v[config_to_index(L, (2, 4))] = 1.0
        w = U @ v
        assert w[config_to_index(L, (1, 3))] == 1.0

    def test_order_and_eigenvalues(self):
        L = 4
        U = ed.build_shift_operator(L).dense()
        assert np.max(np.abs(np.linalg.matrix_power(U, L) - np.eye(2 ** L))) == 0
        eigs = np.linalg.eigvals(U)
        assert np.allclose(np.abs(eigs), 1.0, atol=1e-12)
        assert np.max(np.abs(eigs ** L - 1)) < 1e-10  # L-th roots of unity

    def test_is_permutation(self):
        U = ed.build_shift_operator(3).dense()
        assert set(np.unique(U.real)) == {0.0, 1.0}
        assert np.allclose(U.sum(axis=0), 1) and np.allclose(U.sum(axis=1), 1)


class TestTotalSpin:
    def test_su2_algebra(self):
        L = 4
        Sx = ed.build_total_spin(L, "x").dense()
        Sy = ed.build_total_spin(L, "y").dense()
        Sz = ed.build_total_spin(L, "z").dense()
        assert np.max(np.abs(Sx @ Sy - Sy @ Sx - 1j * Sz)) < 1e-12
        assert np.max(np.abs(Sy @ Sz - Sz @ Sy - 1j * Sx)) < 1e-12
        assert np.max(np.abs(Sz @ Sx - Sx @ Sz - 1j * Sy)) < 1e-12

    def test_matches_kron_oracle(self):
        for comp in ("x", "y", "z"):
            S = ed.build_total_spin(3, comp).dense()
            assert np.max(np.abs(S - kron_total_spin(3, comp))) < 1e-12

    @pytest.mark.parametrize("L", range(1, 9))
    def test_casimir_is_real_and_exact(self, L):
        cas = ed.build_total_spin(L, "casimir").csr()
        assert cas.dtype == np.float64
        total = sum(S @ S for S in (ed.build_total_spin(L, ax).dense() for ax in "xyz"))
        assert np.array_equal(cas.toarray(), total)

    @pytest.mark.parametrize("L", range(1, 11))
    def test_casimir_equals_squared_components(self, L):
        # the pair-exchange build stores the entries of the sum of squared
        # components, array for array once both have sorted indices
        cas, ref = ed.build_total_spin(L, "casimir").csr().copy(), loop_references.casimir(L)
        cas.sort_indices()
        ref.sort_indices()
        for name in ("indptr", "indices", "data"):
            a, b = getattr(cas, name), getattr(ref, name)
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_sz_eigenvalue_on_configurations(self):
        L = 5
        Sz = ed.build_total_spin(L, "z").dense()
        for xs in [(), (2,), (1, 4), (2, 3, 5)]:
            v = np.zeros(2 ** L)
            v[config_to_index(L, xs)] = 1.0
            assert np.allclose(Sz @ v, (L - 2 * len(xs)) / 2 * v, atol=1e-12)

    def test_raising_kills_vacuum(self):
        L = 4
        Sp = ed.build_total_spin(L, "raise").dense()
        v0 = np.zeros(2 ** L)
        v0[0] = 1.0
        assert np.linalg.norm(Sp @ v0) == 0

    def test_xxz_breaks_full_su2(self):
        H = ed.build_xxz_hamiltonian(4, 0.5)
        Sx = ed.build_total_spin(4, "x")
        assert ed.commutator_norm(H, Sx) > 0.1
        Hxxx = ed.build_xxx_hamiltonian(4, 1.0)
        assert ed.commutator_norm(Hxxx, Sx) < 1e-12


def _reflection_split_eigvalsh(H, m, L, N):
    """All eigenvalues of the sector Hamiltonian H (dense m), ascending, from
    its blocks even and odd under the site reflection x -> L + 1 - x, which
    reverses the L bits of a code.  The reflection commutes with H (checked
    on the stored entries), so the two blocks' eigenvalues are H's; each
    block is about half the size, a quarter of the eigvalsh work in all.
    The blocks are Q^T m Q for the orthonormal (e_r +- e_p)/|e_r +- e_p| of
    each orbit {r, p}, r <= p; a fixed code (r = p) is even only."""
    states = build_sector_basis(L, N).state_array
    rev = np.zeros_like(states)
    for bit in range(L):
        rev |= ((states >> bit) & 1) << (L - 1 - bit)
    perm = np.searchsorted(states, rev)
    h = H.csr()
    assert abs(h[perm][:, perm] - h).max() <= 1e-12
    r = np.flatnonzero(np.arange(len(perm)) <= perm)
    p = perm[r]
    pair = r != p
    norm = np.where(pair, np.sqrt(2.0), 2.0)
    rows_sum, rows_diff = m[r] + m[p], m[r[pair]] - m[p[pair]]
    even = (rows_sum[:, r] + rows_sum[:, p]) / np.outer(norm, norm)
    odd = (rows_diff[:, r[pair]] - rows_diff[:, p[pair]]) / 2
    return np.sort(np.concatenate([np.linalg.eigvalsh(even), np.linalg.eigvalsh(odd)]))


class TestDiagonalize:
    def test_identity(self):
        w = ed.diagonalize(ed.OperatorMatrix(np.eye(5))).eigenvalues
        assert np.allclose(w, 1.0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            ed.diagonalize(ed.OperatorMatrix(np.array([[0.0, 1.0], [0.0, 0.0]])))

    def test_residual_contract(self):
        H = ed.build_xxx_hamiltonian(6, 1.0, 3)
        spec = ed.diagonalize(H)
        m = H.dense()
        for i in range(spec.eigenvalues.size):
            v = spec.eigenvectors[:, i]
            r = np.linalg.norm(m @ v - spec.eigenvalues[i] * v)
            assert r < 1e-10 * np.linalg.norm(v)

    def test_commutator_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ed.commutator_norm(np.eye(2), np.eye(4))

    def test_multiplets_at_delta_one(self):
        # every XXX level carries complete SU(2) multiplets
        L = 8
        H = ed.build_xxx_hamiltonian(L, 1.0)
        spec = ed.diagonalize(H)
        cas = ed.build_total_spin(L, "casimir")
        levels = ed.multiplet_structure(spec, cas)
        assert sum(mult for _, mult, _ in levels) == 2 ** L
        for _, mult, spins in levels:
            assert mult == sum(int(2 * s + 1) for s in spins)

    def test_rejects_sparse_non_hermitian(self):
        m = sp.eye(5000, format="lil")
        m[0, 1] = 1e-6
        m = m.tocsr()
        with pytest.raises(ValueError):
            ed.diagonalize(ed.OperatorMatrix(m), k=2)
        # the check reads the stored entries: the dense array would be 200 MB
        tracemalloc.start()
        try:
            with pytest.raises(ValueError):
                ed.diagonalize(ed.OperatorMatrix(m))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    def test_sparse_hermiticity_defect(self):
        H = ed.build_xxx_hamiltonian(12, 1.0)  # dim 4096, stored sparse
        assert sp.issparse(H.matrix) and H.hermiticity_defect() == 0.0
        m = H.matrix.tolil()
        m[3, 5] += 0.25
        assert ed.OperatorMatrix(m.tocsr()).hermiticity_defect() == 0.25
        # a non-canonical CSR stores m_01 twice; the two entries are summed
        for upper, defect in [(0.25, 0.0), (0.125, 0.125)]:
            d = sp.csr_matrix((np.array([0.25, upper, 0.5]), np.array([1, 1, 0]),
                               np.array([0, 2, 3])), shape=(2, 2))
            op = ed.OperatorMatrix(d)
            assert not op.csr().has_canonical_format
            assert op.hermiticity_defect() == defect

    def test_rejects_k_below_one(self):
        with pytest.raises(ValueError):
            ed.diagonalize(ed.build_xxx_hamiltonian(4, 1.0), k=0)

    def test_zero_hamiltonian_partial_spectrum(self):
        # the Krylov space of any start vector is one-dimensional here
        spec = ed.diagonalize(ed.build_xxx_hamiltonian(12, 0.0, 6), k=2)
        assert np.array_equal(spec.eigenvalues, [0.0, 0.0])

    @settings(max_examples=20, deadline=None)
    @given(L=st.integers(8, 14), below_half=st.integers(0, 2),
           model=st.sampled_from(["xxx", "xxz"]),
           coupling=st.one_of(st.floats(0.1, 2.0), st.floats(-2.0, -0.1),
                              st.sampled_from([0.0, 1.0, -1.0])),
           k=st.integers(1, 4))
    @example(L=13, below_half=0, model="xxx", coupling=1.0, k=2)  # odd-L doublet, Lanczos
    @example(L=11, below_half=1, model="xxz", coupling=2.0, k=4)  # see ..._a_missed_copy
    @example(L=13, below_half=1, model="xxz", coupling=-1.0, k=3)  # a slow edge pair
    @example(L=9, below_half=0, model="xxx", coupling=1.0, k=2)  # dim 126, dense
    @example(L=11, below_half=0, model="xxx", coupling=1.0, k=2)  # dim 462, Lanczos
    @example(L=7, below_half=0, model="xxx", coupling=1.0, k=2)  # odd-L doublet, dense
    @example(L=9, below_half=0, model="xxx", coupling=1.0, k=3)  # odd-L doublet, dense
    def test_partial_spectrum_matches_eigh(self, L, below_half, model, coupling, k):
        # dims 35 to 3432, on both sides of LANCZOS_MIN_DIM
        assume(model == "xxz" or coupling != 0.0)  # J = 0: test_zero_hamiltonian_...
        N = L // 2 - below_half
        build = ed.build_xxx_hamiltonian if model == "xxx" else ed.build_xxz_hamiltonian
        H = build(L, coupling, N)
        spec = ed.diagonalize(H, k)
        m = H.dense()
        full = _reflection_split_eigvalsh(H, m, L, N)
        assert spec.eigenvalues.shape == (k,)
        assert np.max(np.abs(spec.eigenvalues - full[:k])) < 1e-9
        v = spec.eigenvectors
        assert np.all(np.linalg.norm(m @ v - v * spec.eigenvalues, axis=0)
                      < 1e-10 * np.linalg.norm(v, axis=0))
        assert np.max(np.abs(v.conj().T @ v - np.eye(k))) < 1e-10

    @pytest.mark.parametrize("dropped", [None, 1])
    def test_lanczos_adds_back_a_missed_copy(self, monkeypatch, dropped):
        # eigsh once missed a copy of this operator's ground doublet.  Its
        # dim, 330, is below LANCZOS_MIN_DIM, so _lanczos is called directly;
        # `dropped` removes that copy from the first eigsh result, as the
        # miss did, and the deflated re-check has to add it back
        H = ed.build_xxz_hamiltonian(11, 2.0, 4)
        eigsh = sp.linalg.eigsh
        found = []

        def recording(*args, **kwargs):
            w, x = eigsh(*args, **kwargs)
            if not found and dropped is not None:
                i = np.argsort(w)[dropped]
                w, x = np.delete(w, i), np.delete(x, i, axis=1)
            found.append(len(w))
            return w, x

        monkeypatch.setattr(sp.linalg, "eigsh", recording)
        w, v = ed._lanczos(H.csr(), 4)
        m = H.dense()
        full = np.linalg.eigvalsh(m)
        assert full[1] - full[0] < 1e-9 < full[2] - full[1]
        assert np.max(np.abs(w - full[:4])) < 1e-9
        assert np.all(np.linalg.norm(m @ v - v * w, axis=0) < 1e-10 * np.linalg.norm(v, axis=0))
        assert np.max(np.abs(v.conj().T @ v - np.eye(4))) < 1e-10
        assert found[1] == 1  # the deflated re-check ran
        if dropped is not None:
            assert found[0] == 4 + ed.LANCZOS_GUARD - 1 and len(found) >= 3

    @pytest.mark.parametrize("m", [
        sp.diags(np.arange(500.)),
        sp.block_diag([np.array([[.5, .5], [.5, .5]]), sp.diags(np.arange(3., 501.))])],
        ids=["diagonal", "block"])
    def test_lanczos_finds_an_exact_zero(self, m):
        # eigsh on m itself returned [1, 2] and [1, 3]: its convergence test
        # is relative to the Ritz value, and the re-check kept the null vector
        assert ed._use_lanczos(500, 2)
        spec = ed.diagonalize(ed.OperatorMatrix(m), 2)
        w, v = spec.eigenvalues, spec.eigenvectors
        assert np.max(np.abs(w - [0.0, 1.0])) < 1e-10
        assert np.all(np.linalg.norm(m @ v - v * w, axis=0) < 1e-10 * np.linalg.norm(v, axis=0))

    def test_lanczos_repeatable(self):
        H = ed.build_xxx_hamiltonian(14, 1.0, 7)
        a = ed.diagonalize(H, k=3)
        b = ed.diagonalize(ed.build_xxx_hamiltonian(14, 1.0, 7), k=3)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)


def _sz_conserving_hermitian(L, rng):
    """Random complex Hermitian operator on the 2^L space with no entry
    between two magnetization blocks."""
    pop = np.array([bin(i).count("1") for i in range(2 ** L)])
    a = rng.normal(size=(2 ** L, 2 ** L)) + 1j * rng.normal(size=(2 ** L, 2 ** L))
    a = np.where(pop[:, None] == pop[None, :], a, 0.0)
    return a + a.conj().T


def _eigh_sizes(monkeypatch):
    """Record the matrix size of every dense eigensolve: np.linalg.eigh for
    all pairs of a block, scipy.linalg.eigh for its lowest few."""
    sizes = []
    for module in (np.linalg, scipy.linalg):
        def recording(m, *args, eigh=module.eigh, **kwargs):
            sizes.append(m.shape[0])
            return eigh(m, *args, **kwargs)
        monkeypatch.setattr(module, "eigh", recording)
    return sizes


class TestBlockedSolve:
    """Dense solves run one eigh per popcount class of the indices when no
    stored entry joins two classes, else one eigh; a full-space chain
    operator splits into magnetization blocks."""

    @settings(max_examples=25, deadline=None)
    @given(L=st.integers(1, 10), kind=st.sampled_from(["xxz", "random"]),
           delta=st.floats(-2.0, 2.0), seed=st.integers(0, 2 ** 32 - 1),
           dense=st.booleans())
    def test_matches_dense_eigh(self, L, kind, delta, seed, dense):
        assume(kind == "random" or L >= 2)
        if kind == "xxz":
            m = ed.build_xxz_hamiltonian(L, delta).dense()
        else:
            m = _sz_conserving_hermitian(L, np.random.default_rng(seed))
        op = ed.OperatorMatrix(m if dense else sp.csr_matrix(m))
        assert len(ed._blocks(op)) == L + 1
        spec = ed.diagonalize(op)
        # the reference spectrum per popcount class, which no entry of m joins
        pop = np.bitwise_count(np.arange(2 ** L))
        assert not np.any(m[pop[:, None] != pop])
        w_ref = np.sort(np.concatenate([np.linalg.eigvalsh(m[np.ix_(c, c)]) for c in
                                        (np.flatnonzero(pop == k) for k in range(L + 1))]))
        scale = max(1.0, np.max(np.abs(w_ref)))
        v = spec.eigenvectors
        assert v.shape == m.shape
        assert np.all(np.diff(spec.eigenvalues) >= 0)
        assert np.max(np.abs(spec.eigenvalues - w_ref)) < 1e-12 * scale
        r = np.linalg.norm(m @ v - v * spec.eigenvalues, axis=0)
        assert np.all(r < 1e-10 * np.linalg.norm(v, axis=0))
        assert np.max(np.abs(v.conj().T @ v - np.eye(2 ** L))) < 1e-12

    def test_sx_term_falls_back_to_one_block(self, monkeypatch):
        L = 6
        m = ed.build_xxz_hamiltonian(L, 0.7).csr() + 0.3 * ed.build_total_spin(L, "x").csr()
        op = ed.OperatorMatrix(m)
        assert len(ed._blocks(op)) == 1
        sizes = _eigh_sizes(monkeypatch)
        spec = ed.diagonalize(op)
        assert sizes == [2 ** L]
        d = m.toarray()
        assert np.max(np.abs(spec.eigenvalues - np.linalg.eigvalsh(d))) < 1e-12
        v = spec.eigenvectors
        assert np.max(np.abs(d @ v - v * spec.eigenvalues)) < 1e-10

    def test_diagonal_operator_splits_per_popcount(self, monkeypatch):
        # indices 0 | 1, 2, 4 | 3 by popcount; ranks follow that order.
        # np.eye(5) commutes with index reversal, but reversal maps no block
        # to a block, so a split from any dimension up leaves them alone
        monkeypatch.setattr(ed, "SPLIT_MIN_DIM", 0)
        op = ed.OperatorMatrix(np.eye(5))
        assert [b.tolist() for b in ed._blocks(op)] == [[0], [1, 2, 4], [3]]
        sizes = _eigh_sizes(monkeypatch)
        spec = ed.diagonalize(op)
        assert np.array_equal(spec.eigenvalues, np.ones(5))
        assert np.array_equal(spec.eigenvectors, np.eye(5)[:, [0, 1, 2, 4, 3]])
        assert sizes == [1, 3, 1]

    def test_sector_operator_is_one_block(self, monkeypatch):
        H = ed.build_xxx_hamiltonian(8, 1.0, 4)
        assert len(ed._blocks(H)) == 1
        sizes = _eigh_sizes(monkeypatch)
        ed.diagonalize(H)
        assert sizes == [70]

    def test_dense_and_sparse_storage_agree(self):
        H = ed.build_xxz_hamiltonian(8, 0.3)
        a = ed.diagonalize(H)
        b = ed.diagonalize(ed.OperatorMatrix(H.dense()))
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    @pytest.mark.parametrize("L,k", [(6, 5), (10, 40)])
    def test_k_on_the_eigh_branch(self, monkeypatch, L, k):
        # dim 64 is below SPLIT_MIN_DIM: one eigh per magnetization block.
        # At dim 1024 the blocks above half filling mirror those below it,
        # and the half-filled block of 252 is solved as two halves
        H = ed.build_xxz_hamiltonian(L, 0.7)
        assert not ed._use_lanczos(H.dim, k)
        sizes = _eigh_sizes(monkeypatch)
        spec = ed.diagonalize(H, k)
        assert sizes == {6: [1, 6, 15, 20, 15, 6, 1], 10: [1, 10, 45, 120, 210, 126, 126]}[L]
        m = H.dense()
        assert spec.eigenvalues.shape == (k,) and spec.eigenvectors.shape == (2 ** L, k)
        assert np.max(np.abs(spec.eigenvalues - np.linalg.eigvalsh(m)[:k])) < 1e-12
        v = spec.eigenvectors
        assert np.max(np.abs(m @ v - v * spec.eigenvalues)) < 1e-10

    def test_l12_solves_no_block_above_half_filling(self, monkeypatch):
        sizes = _eigh_sizes(monkeypatch)
        spec = ed.diagonalize(ed.build_xxz_hamiltonian(12, 0.7))
        assert sizes == [1, 12, 66, 220, 495, 792, 462, 462]
        assert spec.eigenvectors.shape == (4096, 4096)

    def test_l12_traced_peak(self):
        # the parent of the spin-flip split peaked at 24.7 MB, and a split
        # that kept its dense halves alive next to the merged vectors at
        # 21.5 MB; the block vectors alone are 14.2 MB
        ed.diagonalize(ed.build_xxx_hamiltonian(4, 1.0))
        H = ed.build_xxz_hamiltonian(12, 0.7)
        tracemalloc.start()
        try:
            spec = ed.diagonalize(H)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6
        assert len(spec.eigenvalues) == 4096

    @settings(max_examples=40, deadline=None)
    @given(sizes=st.lists(st.integers(1, 6), min_size=1, max_size=6),
           complex_entries=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_scrambled_blocks(self, sizes, complex_entries, seed):
        """Random Hermitian blocks under a random permutation of the indices,
        so a block is neither contiguous nor a set of equal popcounts: an
        entry that joins two popcounts makes the operator one block."""
        rng = np.random.default_rng(seed)
        blocks = []
        for n in sizes:
            a = rng.normal(size=(n, n)) + (1j * rng.normal(size=(n, n)) if complex_entries else 0)
            blocks.append(a + a.conj().T)
        perm = rng.permutation(sum(sizes))
        m = sp.block_diag(blocks).toarray()[np.ix_(perm, perm)]
        pop = np.array([bin(i).count("1") for i in range(len(m))])
        joined = np.any((m != 0) & (pop[:, None] != pop[None, :]))
        with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
            spec = ed.diagonalize(ed.OperatorMatrix(m))
        assert eigh.call_count == (1 if joined else len(set(pop)))
        w_ref = np.linalg.eigh(m)[0]
        scale = max(1.0, np.max(np.abs(w_ref)))
        assert np.max(np.abs(spec.eigenvalues - w_ref)) < 1e-12 * scale
        v = spec.eigenvectors
        r = np.linalg.norm(m @ v - v * spec.eigenvalues, axis=0)
        assert np.all(r < 1e-10 * np.linalg.norm(v, axis=0))


def _centrosymmetric_hermitian(n, complex_entries, rng):
    """Random Hermitian n x n array with a[i, j] == a[n-1-i, n-1-j] exactly."""
    a = rng.normal(size=(n, n)) + (1j * rng.normal(size=(n, n)) if complex_entries else 0)
    a = a + a.conj().T
    return (a + a[::-1, ::-1]) / 2


class TestSpinFlipSplit:
    """From SPLIT_MIN_DIM up, a dense solve of an operator that commutes
    with index reversal J (spin inversion of spin codes) takes a block that
    J maps to an earlier one from that block, and solves an even block that
    J maps to itself as its two halves A +- B J."""

    @settings(max_examples=40, deadline=None)
    @given(half=st.integers(1, 24), floor=st.integers(0, 60), complex_entries=st.booleans(),
           k=st.one_of(st.none(), st.integers(1, 50)), seed=st.integers(0, 2 ** 32 - 1))
    def test_halves_match_eigh(self, half, floor, complex_entries, k, seed):
        n = 2 * half
        m = _centrosymmetric_hermitian(n, complex_entries, np.random.default_rng(seed))
        with mock.patch.object(ed, "SPLIT_MIN_DIM", floor), \
                mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as full, \
                mock.patch.object(scipy.linalg, "eigh", wraps=scipy.linalg.eigh) as lowest:
            spec = ed.diagonalize(ed.OperatorMatrix(m), k)
        sizes = [c.args[0].shape[0] for c in full.call_args_list + lowest.call_args_list]
        assert sizes == ([half, half] if n >= floor else [n])
        w_ref = np.linalg.eigh(m)[0][:k]
        scale = max(1.0, np.max(np.abs(w_ref)))
        assert np.max(np.abs(spec.eigenvalues - w_ref)) < 1e-12 * scale
        v = spec.eigenvectors
        assert v.shape == (n, len(w_ref))
        r = np.linalg.norm(m @ v - v * spec.eigenvalues, axis=0)
        assert np.all(r < 1e-10 * np.linalg.norm(v, axis=0))
        assert np.max(np.abs(v.conj().T @ v - np.eye(len(w_ref)))) < 1e-12

    @pytest.mark.parametrize("L,N", [(10, 5), (8, None)])
    def test_one_ulp_takes_the_unsplit_path(self, monkeypatch, L, N):
        H = ed.build_xxz_hamiltonian(L, 0.7, N)
        m = H.csr().copy()
        assert ed._reversal_symmetric(m)
        m.data[m.indptr[3]] = np.nextafter(m.data[m.indptr[3]], np.inf)  # row 3, diagonal
        assert not ed._reversal_symmetric(m)
        sizes = _eigh_sizes(monkeypatch)
        ed.diagonalize(ed.OperatorMatrix(m))
        assert sizes == ([252] if N else [1, 8, 28, 56, 70, 56, 28, 8, 1])

    def test_odd_size_takes_the_unsplit_path(self, monkeypatch):
        m = _centrosymmetric_hermitian(ed.SPLIT_MIN_DIM + 1, False, np.random.default_rng(5))
        assert ed._reversal_symmetric(ed.OperatorMatrix(m).csr())
        sizes = _eigh_sizes(monkeypatch)
        ed.diagonalize(ed.OperatorMatrix(m))
        assert sizes == [ed.SPLIT_MIN_DIM + 1]

    @pytest.mark.parametrize("L", [8, 9])
    def test_mirror_sectors_are_bitwise_reversed(self, L):
        spec = ed.diagonalize(ed.build_xxz_hamiltonian(L, 0.37))
        assert len(spec.blocks) == L + 1
        for p in range((L + 1) // 2):
            a, b = spec.blocks[p], spec.blocks[L - p]
            assert np.array_equal(spec.eigenvalues[a.ranks], spec.eigenvalues[b.ranks])
            assert np.array_equal(b.vectors, a.vectors[::-1])

    @settings(max_examples=20, deadline=None)
    @given(L=st.integers(1, 5).map(lambda h: 2 * h), delta=st.floats(-3.0, 3.0),
           sector=st.booleans(), field=st.floats(0.1, 2.0))
    def test_reversal_commutes_with_xxz(self, L, delta, sector, field):
        # [H, R] = 0 for spin inversion R, which is index reversal on the
        # sorted codes of the full space and of the half-filled sector; a
        # field on the S^z of the full space, or of site 1 in the sector,
        # breaks it
        H = ed.build_xxz_hamiltonian(L, delta, L // 2 if sector else None)
        R = sp.csr_matrix((np.ones(H.dim), np.arange(H.dim)[::-1], np.arange(H.dim + 1)))
        assert ed.commutator_norm(H, R) == 0.0 and ed._reversal_symmetric(H.csr())
        if sector:
            states = build_sector_basis(L, L // 2).state_array
            rows, cols, vals = ed._local_entries(L, states, states, ed._PAULI["z"].real, [(1,)])
            sz = sp.csr_matrix((vals, (rows, cols)), shape=(H.dim,) * 2)
        else:
            sz = ed.build_total_spin(L, "z").csr().real
        broken = H.csr() + field * sz
        assert ed.commutator_norm(broken, R) > 0.0 and not ed._reversal_symmetric(broken)


def _multiplet_outcome(check, spec, cas):
    """The levels `check` reports, or the kind of ValueError it raises."""
    try:
        return check(spec, cas)
    except ValueError as exc:
        return "not S(S+1)" if "not S(S+1)" in str(exc) else str(exc)


class TestBlockedMultiplets:
    """multiplet_structure works per block of the spectrum against the
    one-block check kept in tests/loop_references.py, which reads the dense
    eigenvector array."""

    @settings(max_examples=40, deadline=None)
    @given(L=st.integers(2, 9),
           J=st.one_of(st.floats(-2.0, 2.0), st.sampled_from([0.0, 1.0, -1.0])),
           k=st.one_of(st.none(), st.integers(1, 40)))
    @example(L=9, J=1.0, k=None)
    @example(L=8, J=0.0, k=None)  # H = 0: every state a block of its own
    @example(L=9, J=-0.5, k=3)  # Lanczos, one block
    def test_xxx_levels_match_the_reference(self, L, J, k):
        spec = ed.diagonalize(ed.build_xxx_hamiltonian(L, J), k)
        cas = ed.build_total_spin(L, "casimir")
        got = _multiplet_outcome(ed.multiplet_structure, spec, cas)
        assert "eigenvectors" not in vars(spec)  # the dense array is never built
        want = _multiplet_outcome(loop_references.multiplet_structure, spec, cas)
        if isinstance(want, str):
            assert got == want
            return
        assert [(e.tobytes(), n, spins) for e, n, spins in got] == \
               [(e.tobytes(), n, spins) for e, n, spins in want]
        if k is None:
            assert sum(n for _, n, _ in got) == 2 ** L

    @settings(max_examples=30, deadline=None)
    @given(L=st.integers(2, 9), delta=st.floats(-2.0, 2.0))
    @example(L=9, delta=0.5)
    @example(L=6, delta=-1.0)
    def test_xxz_raises_where_the_reference_raises(self, L, delta):
        assume(abs(delta - 1.0) > 1e-3)
        spec = ed.diagonalize(ed.build_xxz_hamiltonian(L, delta))
        cas = ed.build_total_spin(L, "casimir")
        assert _multiplet_outcome(ed.multiplet_structure, spec, cas) == \
               _multiplet_outcome(loop_references.multiplet_structure, spec, cas)

    def test_casimir_that_joins_blocks_matches_the_reference(self):
        # S^x joins every pair of neighbouring magnetization blocks, so the
        # check runs on all the eigenvectors at once
        L = 6
        spec = ed.diagonalize(ed.build_xxx_hamiltonian(L, 1.0))
        cas = ed.OperatorMatrix(ed.build_total_spin(L, "casimir").csr()
                                + 0.1 * ed.build_total_spin(L, "x").csr())
        with pytest.raises(ValueError, match=r"Casimir eigenvalue 1\.89+\d* is not S\(S\+1\)"):
            ed.multiplet_structure(spec, cas)
        with pytest.raises(ValueError, match=r"Casimir eigenvalue 1\.89+\d* is not S\(S\+1\)"):
            loop_references.multiplet_structure(spec, cas)

    def test_l11_spectrum_builds_no_dense_eigenvector_array(self):
        # the (2048, 2048) array scattered from the blocks took a 37.6 MB
        # traced peak; the block vectors alone are 5.4 MB.  A small solve
        # first, so that no lazy import is traced
        ed.diagonalize(ed.build_xxx_hamiltonian(4, 1.0))
        H = ed.build_xxx_hamiltonian(11, 1.0)
        tracemalloc.start()
        try:
            spec = ed.diagonalize(H)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6
        assert "eigenvectors" not in vars(spec)
        assert sum(b.vectors.size for b in spec.blocks) == math.comb(22, 11)

    def test_l11_cli_spectrum_stays_under_the_same_bound(self, capsys):
        assert cli.main(["ed", "spectrum", "--L", "4"]) == cli.EXIT_OK
        capsys.readouterr()
        tracemalloc.start()
        try:
            assert cli.main(["ed", "spectrum", "--L", "11"]) == cli.EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6
        assert len(json.loads(capsys.readouterr().out)["eigenvalues"]) == 2 ** 11

    def test_eigenvectors_are_assembled_once(self):
        spec = ed.diagonalize(ed.build_xxz_hamiltonian(6, 0.7))
        v = spec.eigenvectors
        assert spec.eigenvectors is v and v.shape == (64, 64)
        for b in spec.blocks:
            assert np.array_equal(v[np.ix_(b.rows, b.ranks)], b.vectors)
        one = ed.diagonalize(ed.build_xxz_hamiltonian(6, 0.7, 3))
        assert len(one.blocks) == 1 and one.eigenvectors is one.blocks[0].vectors


def _splus_matrix(L, N):
    """S^+ from sector N to N-1 as CSR, from the one-site raising terms that
    apply_splus adds."""
    src, dst = (build_sector_basis(L, n).state_array for n in (N, N - 1))
    rows, cols, vals = ed._local_entries(L, src, dst, ed._PAULI["raise"].real,
                                         [(x,) for x in range(1, L + 1)])
    return sp.csr_matrix((vals, (rows, cols)), shape=(len(dst), len(src)))


class TestSectorOperators:
    """The vectorized sector operators against per-state loops."""

    @pytest.mark.parametrize("L,N", [(5, 2), (8, 4), (9, 3)])
    def test_shift_and_splus_match_loops(self, L, N):
        basis = build_sector_basis(L, N)
        lower = build_sector_basis(L, N - 1)
        U = ed.shift_sector_matrix(basis)
        Sp = _splus_matrix(L, N)
        U_ref = np.zeros((basis.dim, basis.dim))
        Sp_ref = np.zeros((lower.dim, basis.dim))
        index = {s: i for i, s in enumerate(basis.states)}
        lower_index = {s: i for i, s in enumerate(lower.states)}
        for i, s in enumerate(basis.states):
            xs = index_to_config(L, s)
            U_ref[index[config_to_index(L, [(x - 2) % L + 1 for x in xs])], i] = 1.0
            for x in xs:
                Sp_ref[lower_index[config_to_index(L, [y for y in xs if y != x])], i] += 1.0
        assert U.dense().shape == U_ref.shape and U.dense().tobytes() == U_ref.tobytes()
        assert Sp.shape == Sp_ref.shape and Sp.toarray().tobytes() == Sp_ref.tobytes()
        v = np.random.default_rng(L).normal(size=basis.dim) + 1j
        assert np.allclose(ed.apply_splus(v, L, N), Sp @ v, atol=1e-13)

    def test_shift_is_applied_as_csr(self):
        # L = 14, N = 6 (dim 3003): a dense U would be 72 MB, and a complex
        # vector would cast it to a 144 MB complex copy
        basis = build_sector_basis(14, 6)
        v = np.random.default_rng(6).standard_normal(basis.dim) * (1 + 0.5j)
        tracemalloc.start()
        try:
            U = ed.shift_sector_matrix(basis)
            Uv = U @ v
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6
        assert U.nbytes == U.csr().data.nbytes + U.csr().indices.nbytes + U.csr().indptr.nbytes
        assert Uv.tobytes() == (U.csr() @ v).tobytes()

    @settings(max_examples=25, deadline=None)
    @given(L=st.integers(3, 10), data=st.data(), delta=st.floats(-2.0, 2.0))
    def test_shift_is_a_symmetry(self, L, data, delta):
        N = data.draw(st.integers(0, L), label="N")
        basis = build_sector_basis(L, N)
        U = ed.shift_sector_matrix(basis)
        assert ed.commutator_norm(ed.build_xxz_hamiltonian(L, delta, basis), U) < 1e-12
        u, one = U.csr(), sp.identity(basis.dim, format="csr")
        assert (u @ u.T != one).nnz == 0
        power = one
        for _ in range(L):
            power = power @ u
        assert (power != one).nnz == 0

    @settings(max_examples=25, deadline=None)
    @given(L=st.integers(3, 10), data=st.data(), J=st.floats(-2.0, 2.0))
    def test_splus_intertwines_xxx_sectors(self, L, data, J):
        N = data.draw(st.integers(1, L), label="N")
        Sp = _splus_matrix(L, N)
        H_N = ed.build_xxx_hamiltonian(L, J, N).csr()
        H_lower = ed.build_xxx_hamiltonian(L, J, N - 1).csr()
        assert abs(Sp @ H_N - H_lower @ Sp).max() < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(L=st.integers(2, 8), data=st.data(), J=st.floats(-2.0, 2.0),
           delta=st.floats(-3.0, 3.0))
    def test_sector_hamiltonian_is_kron_oracle_block(self, L, data, J, delta):
        sector = data.draw(st.one_of(st.none(), st.integers(0, L)), label="sector")
        states = np.arange(2 ** L) if sector is None else build_sector_basis(L, sector).states
        for H, jxy, jz in ((ed.build_xxx_hamiltonian(L, J, sector), J, J),
                           (ed.build_xxz_hamiltonian(L, delta, sector), 1.0, delta)):
            block = kron_spin_hamiltonian(L, jxy, jz)[np.ix_(states, states)]
            assert np.max(np.abs(H.dense() - block)) < 1e-12
            assert H.hermiticity_defect() == 0
        for comp in "xyz":
            S = ed.build_total_spin(L, comp).dense()
            assert np.max(np.abs(S - kron_total_spin(L, comp))) < 1e-12


def _csr_arrays(m):
    m = m.csr() if isinstance(m, ed.OperatorMatrix) else sp.csr_matrix(m)
    return m.dtype, m.indptr.tobytes(), m.indices.tobytes(), m.data.tobytes()


class TestLocalEntries:
    """Every operator of the one local-term builder against the hand-written
    loop it replaced."""

    @pytest.mark.parametrize("L", range(2, 15))
    def test_chain_hamiltonians_are_the_bond_loop_csr(self, L):
        # array for array, as stored: indptr, indices and data, not re-sorted
        for sector in [None, *range(L + 1)]:
            states = (np.arange(2 ** L, dtype=np.int64) if sector is None
                      else build_sector_basis(L, sector).state_array)
            n = len(states)
            builds = [(ed.build_xxx_hamiltonian(L, J, sector), J, J) for J in (1.0, -0.8)]
            builds += [(ed.build_xxz_hamiltonian(L, D, sector), 1.0, D) for D in (0.37, 2.5)]
            for H, jxy, jz in builds:
                rows, cols, vals = xxz_entries(L, states, jxy, jz)
                ref = sp.coo_matrix((vals, (rows, cols)), shape=(n, n))
                assert _csr_arrays(H) == _csr_arrays(ref)

    @pytest.mark.parametrize("L", range(2, 15))
    def test_splus_is_the_site_loop_bitwise(self, L):
        rng = np.random.default_rng(L)
        for N in range(1, L + 1):
            rows, cols, shape = splus_pairs(L, N)
            for v in (rng.standard_normal(shape[1]),
                      rng.standard_normal(shape[1]) + 1j * rng.standard_normal(shape[1])):
                ref = np.zeros(shape[0], v.dtype)
                np.add.at(ref, rows, v[cols])
                out = ed.apply_splus(v, L, N)
                assert out.dtype == ref.dtype and out.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("L", range(1, 13))
    def test_total_spin_equals_the_site_loop(self, L):
        # equal values; the S^z diagonal stores no zeros, the loop's did
        n = 2 ** L
        ops = {"x": SX, "y": SY, "z": SZ, "raise": SX + 1j * SY, "lower": SX - 1j * SY}
        refs = {}
        for alpha, op in ops.items():
            rows, cols, vals = total_spin_entries(L, op)
            refs[alpha] = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
            S = ed.build_total_spin(L, alpha).csr()
            assert S.dtype == refs[alpha].dtype and (S != refs[alpha]).nnz == 0
        casimir = sum((refs[ax] @ refs[ax]).real for ax in "xyz")
        assert (ed.build_total_spin(L, "casimir").csr() != casimir).nnz == 0

    def test_site_order_of_a_term(self):
        # the first site of a tuple is the most significant local bit, so
        # |up down><down up| on (1, 3) takes site 1 down (bit 2) to site 3
        # down (bit 0), whatever site 2 holds; on (3, 1) it does the reverse
        states = np.arange(8, dtype=np.int64)
        h = np.zeros((4, 4))
        h[1, 2] = 1.0
        rows, cols, vals = ed._local_entries(3, states, states, h, [(1, 3)])
        assert rows.tolist() == [1, 3] and cols.tolist() == [4, 6]
        assert vals.tolist() == [1.0, 1.0]
        rows, cols, _ = ed._local_entries(3, states, states, h, [(3, 1)])
        assert rows.tolist() == [4, 6] and cols.tolist() == [1, 3]

    def test_diagonal_is_summed_in_site_order(self):
        # these diagonal values round differently in another order of bonds
        L = 10
        states = build_sector_basis(L, 5).state_array
        h = np.diag([1.0, 1e-16, 3e-16, 0.1])
        bonds = [(j, j % L + 1) for j in range(1, L + 1)]
        ref = np.zeros(len(states))
        for j, k in bonds:
            ref += h.diagonal()[2 * ((states >> (L - j)) & 1) + ((states >> (L - k)) & 1)]
        rows, cols, vals = ed._local_entries(L, states, states, h, bonds)
        assert np.array_equal(rows, np.arange(len(states))) and np.array_equal(cols, rows)
        assert vals.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("block", [1, 7, 100, 252, 1000])
    def test_any_block_size_gives_the_same_operator(self, monkeypatch, block):
        # the same triplets for a bond term, its flips mirrored or not, and
        # for one move (S^+) the same order: placements first, then codes
        L = 10
        states = build_sector_basis(L, 5).state_array
        lower = build_sector_basis(L, 4).state_array
        bonds = [(j, j % L + 1) for j in range(1, L + 1)]
        terms = []
        for flip_back in (-0.7, 0.3):
            h = np.diag([0.25, -0.5, -0.75, 1.0])
            h[1, 2], h[2, 1] = 0.3, flip_back
            terms.append((L, states, states, h, bonds))
        raise_term = (L, states, lower, ed._PAULI["raise"].real, [(x,) for x in range(L, 0, -1)])
        refs = [ed._local_entries(*t) for t in terms + [raise_term]]
        monkeypatch.setattr(ed, "BLOCK", block)
        for t, ref in zip(terms, refs):
            got = ed._local_entries(*t)
            order, ref_order = (np.lexsort((r, c)) for r, c, _ in (got, ref))
            assert all(np.array_equal(a[order], b[ref_order]) for a, b in zip(got, ref))
        got = ed._local_entries(*raise_term)
        assert all(np.array_equal(a, b) for a, b in zip(got, refs[-1]))

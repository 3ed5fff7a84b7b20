"""Exact-diagonalization module: bases, Hamiltonians, symmetries."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bethelab.basis import build_sector_basis, config_to_index, index_to_config
from bethelab import ed
from oracles import kron_spin_hamiltonian, kron_total_spin


class TestSectorBasis:
    @pytest.mark.parametrize("L,N,dim", [(4, 0, 1), (4, 2, 6), (12, 6, 924)])
    def test_dimensions(self, L, N, dim):
        assert build_sector_basis(L, N).dim == dim

    def test_index_inverse_and_order(self):
        b = build_sector_basis(6, 3)
        assert b.states == sorted(b.states)
        for i, s in enumerate(b.states):
            assert b.index[s] == i
            assert config_to_index(6, index_to_config(6, s)) == s

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            build_sector_basis(4, 5)
        with pytest.raises(ValueError):
            build_sector_basis(4, -1)


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
        assert not sp.issparse(ed.build_xxz_hamiltonian(11, 0.7).matrix)
        # partial eigensolve through the sparse path (dim 4096, k = 3)
        spec = ed.diagonalize(H, k=3)
        sector_lows = np.sort(np.concatenate([
            ed.diagonalize(ed.build_xxz_hamiltonian(12, 0.7, N)).eigenvalues[:3]
            for N in range(13)]))[:3]
        assert np.allclose(spec.eigenvalues, sector_lows, atol=1e-9)


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
        with pytest.raises(ValueError):
            ed.diagonalize(ed.OperatorMatrix(m))

    def test_sparse_hermiticity_defect(self):
        H = ed.build_xxx_hamiltonian(12, 1.0)  # dim 4096, stored sparse
        assert sp.issparse(H.matrix) and H.hermiticity_defect() == 0.0
        m = H.matrix.tolil()
        m[3, 5] += 0.25
        assert ed.OperatorMatrix(m.tocsr()).hermiticity_defect() == 0.25

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
    @example(L=13, below_half=0, model="xxx", coupling=1.0, k=2)  # odd-L ground doublet
    @example(L=11, below_half=1, model="xxz", coupling=2.0, k=4)  # a missed doublet copy
    @example(L=13, below_half=1, model="xxz", coupling=-1.0, k=3)  # a slow edge pair
    def test_partial_spectrum_matches_eigh(self, L, below_half, model, coupling, k):
        assume(model == "xxz" or coupling != 0.0)  # J = 0: test_zero_hamiltonian_...
        N = L // 2 - below_half
        build = ed.build_xxx_hamiltonian if model == "xxx" else ed.build_xxz_hamiltonian
        H = build(L, coupling, N)
        spec = ed.diagonalize(H, k)
        m = H.dense()
        full = np.linalg.eigvalsh(m)
        assert spec.eigenvalues.shape == (k,)
        assert np.max(np.abs(spec.eigenvalues - full[:k])) < 1e-9
        for E, v in zip(spec.eigenvalues, spec.eigenvectors.T):
            assert np.linalg.norm(m @ v - E * v) < 1e-10 * np.linalg.norm(v)

    def test_lanczos_repeatable(self):
        H = ed.build_xxx_hamiltonian(14, 1.0, 7)
        a = ed.diagonalize(H, k=3)
        b = ed.diagonalize(ed.build_xxx_hamiltonian(14, 1.0, 7), k=3)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)


class TestSectorOperators:
    """The vectorized sector operators against per-state loops."""

    @pytest.mark.parametrize("L,N", [(5, 2), (8, 4), (9, 3)])
    def test_shift_and_splus_match_loops(self, L, N):
        basis = build_sector_basis(L, N)
        lower = build_sector_basis(L, N - 1)
        U = ed.shift_sector_matrix(basis)
        Sp = ed.splus_sector_matrix(L, N)
        U_ref = np.zeros_like(U)
        Sp_ref = np.zeros_like(Sp)
        for i, s in enumerate(basis.states):
            xs = index_to_config(L, s)
            U_ref[basis.index[config_to_index(L, [(x - 2) % L + 1 for x in xs])], i] = 1.0
            for x in xs:
                Sp_ref[lower.index[config_to_index(L, [y for y in xs if y != x])], i] += 1.0
        assert np.array_equal(U, U_ref)
        assert np.array_equal(Sp, Sp_ref)
        v = np.random.default_rng(L).normal(size=basis.dim) + 1j
        assert np.allclose(ed.apply_splus(v, L, N), Sp @ v, atol=1e-13)

    @pytest.mark.parametrize("L,N,delta", [(6, 3, 1.0), (7, 2, -0.6), (8, 3, 2.5)])
    def test_sector_hamiltonian_is_kron_oracle_block(self, L, N, delta):
        states = build_sector_basis(L, N).states
        block = kron_spin_hamiltonian(L, 1.0, delta)[np.ix_(states, states)]
        H = ed.build_xxz_hamiltonian(L, delta, N).dense()
        assert np.max(np.abs(H - block)) < 1e-12

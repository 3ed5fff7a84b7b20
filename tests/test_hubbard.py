"""Hubbard chain: fermionic ED, Lieb-Wu solver, nested wavefunction."""

import time
import tracemalloc
from math import comb

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import loop_references
from bethelab import ed, hubbard
from oracles import central_difference_jacobian, jw_hubbard_block_eigs, jw_hubbard_full

RNG = np.random.default_rng(31)


class TestFermionBasis:
    def test_dimension(self):
        b = hubbard.FermionBasis(4, 3, 1)
        assert b.dim == 6 * 4  # C(4,2) * C(4,1)

    def test_block_exists_even_when_roots_do_not(self):
        # (N=1, M=1) is a valid Fock block; the 2M <= N <= L restriction
        # constrains nested root sets only
        assert hubbard.FermionBasis(4, 1, 1).dim == 4
        with pytest.raises(ValueError, match=r"^L=4, N=1, M=1: need 0 <= 2M <= N <= L$"):
            hubbard.NestedRoots(4, np.array([0.1]), np.array([0.2]), 1.0)
        with pytest.raises(ValueError, match=r"^L=4, N=9, M=0: spin populations must fit"):
            hubbard.FermionBasis(4, 9, 0)

    def test_masks_fit_int64(self):
        assert hubbard.FermionBasis(62, 2, 1).dim == 62 * 62
        with pytest.raises(ValueError):
            hubbard.FermionBasis(63, 1, 0)


def _blocks(L):
    return [(N, M) for N in range(2 * L + 1) for M in range(L + 1) if 0 <= N - M <= L]


def _assert_block_operators_match_loops(L, N, M):
    """Hamiltonian, translations and S^+ of one block, bit for bit against
    the per-state loops."""
    basis = hubbard.FermionBasis(L, N, M)
    for u in (1.3, -0.7, 0.0):
        H = hubbard.build_hubbard_hamiltonian(L, u, basis).dense()
        assert H.tobytes() == loop_references.hubbard_hamiltonian(L, u, basis).tobytes()
    for direction in (-1, 1, 2, -3):
        assert (hubbard.shift_block(basis, direction).dense().tobytes()
                == loop_references.shift_block(basis, direction).tobytes())
    if M >= 1 and N - M < L:
        Sp, dst = hubbard.spin_raise_block(basis)
        assert (dst.L, dst.N, dst.M) == (L, N, M - 1)
        assert Sp.dense().tobytes() == loop_references.spin_raise_block(basis, dst).tobytes()


class TestBlockOperatorsMatchLoops:
    @pytest.mark.parametrize("L", range(1, 7))
    def test_every_block(self, L):
        for N, M in _blocks(L):
            _assert_block_operators_match_loops(L, N, M)

    def test_sampled_l8_blocks(self):
        blocks = _blocks(8)
        for i in np.random.default_rng(8).choice(len(blocks), 6, replace=False):
            _assert_block_operators_match_loops(8, *blocks[i])
        _assert_block_operators_match_loops(8, 4, 1)

    def test_l8_single_flip_block_stays_dense(self):
        # callers hand .matrix of blocks up to L = 8, N = 4, M = 1 to numpy
        H = hubbard.build_hubbard_hamiltonian(8, 1.0, hubbard.FermionBasis(8, 4, 1)).matrix
        assert isinstance(H, np.ndarray) and H.shape == (448, 448)

    def test_rank_inverts_states(self):
        # basis order: up masks outer, both mask lists ascending
        for L in range(1, 7):
            for N, M in _blocks(L):
                b = hubbard.FermionBasis(L, N, M)
                assert np.array_equal(b.rank(b.up, b.dn), np.arange(b.dim))
                ups, dns = np.unique(b.up), np.unique(b.dn)
                assert len(ups) == comb(L, N - M) and len(dns) == comb(L, M)
                assert np.array_equal(b.up, np.repeat(ups, len(dns)))
                assert np.array_equal(b.dn, np.tile(dns, len(ups)))


class TestHamiltonian:
    def test_single_site_spectrum(self):
        # no hopping at L = 1: four levels {u, -u, -u, u}
        u = 1.7
        w = np.linalg.eigvalsh(jw_hubbard_full(1, u))
        assert np.allclose(w, [-u, -u, u, u], atol=1e-12)
        b00 = hubbard.build_hubbard_hamiltonian(1, u, (0, 0)).dense()
        assert np.allclose(b00, [[u]])
        b10 = hubbard.build_hubbard_hamiltonian(1, u, (1, 0)).dense()
        assert np.allclose(b10, [[-u]])
        b21 = hubbard.build_hubbard_hamiltonian(1, u, (2, 1)).dense()
        assert np.allclose(b21, [[u]])

    def test_free_fermions(self):
        L = 4
        w = ed.diagonalize(hubbard.build_hubbard_hamiltonian(L, 0.0, (2, 1))).eigenvalues
        singles = -2 * np.cos(2 * np.pi * np.arange(L) / L)
        pairs = sorted(su + sd for su in singles for sd in singles)
        assert np.allclose(w, pairs, atol=1e-12)
        # analytic E, P at u = 0 from free momenta agree with the block spectrum
        roots = hubbard.NestedRoots(L, 2 * np.pi * np.array([1, 2]) / L, [], 0.0)
        E, P = hubbard.energy_momentum(roots)
        assert np.min(np.abs(w - E)) < 1e-12
        assert hubbard.liebwu_residual(roots) < 1e-14

    @pytest.mark.parametrize("L,N,M,u", [(2, 2, 1, 1.0), (3, 2, 1, 0.8),
                                         (4, 3, 1, 1.5), (4, 2, 1, 2.0)])
    def test_blocks_match_jw_oracle(self, L, N, M, u):
        w = ed.diagonalize(hubbard.build_hubbard_hamiltonian(L, u, (N, M))).eigenvalues
        oracle = jw_hubbard_block_eigs(L, u, N, M)
        assert np.allclose(w, oracle, atol=1e-10)

    def test_l2_frozen_spectrum(self):
        # L=2, N=2, M=1, u=1 (bond counted twice): computed with the
        # Jordan-Wigner oracle: {-sqrt(20), -2, 2, sqrt(20)}
        w = ed.diagonalize(hubbard.build_hubbard_hamiltonian(2, 1.0, (2, 1))).eigenvalues
        assert np.allclose(w, [-np.sqrt(20), -2.0, 2.0, np.sqrt(20)], atol=1e-10)

    def test_hermitian(self):
        H = hubbard.build_hubbard_hamiltonian(4, 1.3, (3, 1))
        assert H.hermiticity_defect() < 1e-12

    def test_assembly_allocates_no_square_array(self):
        # dim 4900: a dense (dim, dim) float array alone would be 192 MB
        tracemalloc.start()
        try:
            H = hubbard.build_hubbard_hamiltonian(8, 1.0, (8, 4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert H.dim == 4900 and peak < 20e6

    def test_shift_and_spin_raise_allocate_no_square_array(self):
        # dim 1960 (S^+ to dim 448): dense blocks would be 31 MB and 7 MB
        for build in (hubbard.shift_block, lambda b: hubbard.spin_raise_block(b)[0]):
            basis = hubbard.FermionBasis(8, 6, 2)
            tracemalloc.start()
            try:
                op = build(basis)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert op.csr().shape[1] == 1960 and peak < 5e6
            # S^+ has 448 rows: the larger dimension keeps `.matrix` sparse
            assert not isinstance(op.matrix, np.ndarray)

    @settings(max_examples=30, deadline=None)
    @given(L=st.integers(1, 6), data=st.data(), u=st.floats(-3.0, 3.0))
    def test_shift_and_spin_raise_are_symmetries(self, L, data, u):
        N = data.draw(st.integers(0, 2 * L), label="N")
        M = data.draw(st.integers(max(0, N - L), min(N, L)), label="M")
        basis = hubbard.FermionBasis(L, N, M)
        H = hubbard.build_hubbard_hamiltonian(L, u, basis)
        for direction in (-1, 1):
            assert ed.commutator_norm(H, hubbard.shift_block(basis, direction)) < 1e-12
        if M >= 1 and N - M < L:
            Sp, dst = hubbard.spin_raise_block(basis)
            H_dst = hubbard.build_hubbard_hamiltonian(L, u, dst).csr()
            assert abs(Sp.csr() @ H.csr() - H_dst @ Sp.csr()).max() < 1e-12


class TestLiebWu:
    def test_free_momenta_at_m_zero(self):
        L = 6
        k = 2 * np.pi * np.array([0, 1, 4]) / L
        roots = hubbard.NestedRoots(L, k, [], 1.0)
        assert hubbard.liebwu_residual(roots) < 1e-14

    def test_solver_fixed_point(self):
        roots, res, ok = hubbard.solve_liebwu(6, 2, 1, 1.0, (-1, 0), (0,))
        assert ok
        assert hubbard.liebwu_residual(roots) < 1e-11

    def test_perturbed_roots(self):
        roots, _, _ = hubbard.solve_liebwu(6, 2, 1, 1.0, (-1, 0), (0,))
        bad = hubbard.NestedRoots(6, roots.k + 0.1, roots.lam, roots.u)
        assert hubbard.liebwu_residual(bad) > 0.01

    def test_pole_guard(self):
        roots = hubbard.NestedRoots(4, np.array([0.3, 0.5]), np.array([np.sin(0.3) + 1j]), 1.0)
        with pytest.raises(ValueError):
            hubbard.liebwu_residual(roots)

    @pytest.mark.parametrize("u", [1.0, 2.0, 4.0])
    def test_ground_block_energy(self, u):
        L, N, M = 6, 2, 1
        roots, res, ok = hubbard.solve_liebwu(L, N, M, u, (-1, 0), (0,))
        assert ok
        E, P = hubbard.energy_momentum(roots)
        w = ed.diagonalize(hubbard.build_hubbard_hamiltonian(L, u, (N, M))).eigenvalues
        assert abs(E - w[0]) < 1e-9
        assert abs(P) < 1e-12

    def test_strong_coupling_limit(self):
        # u -> infinity: k_j approach the shifted free momenta (2 pi n + pi M)/L
        L, N, M = 6, 2, 1
        roots, _, ok = hubbard.solve_liebwu(L, N, M, 1e3, (-1, 0), (0,))
        assert ok
        pred = (2 * np.pi * np.array([-1, 0]) + np.pi) / L
        assert np.max(np.abs(np.sort(roots.k.real) - np.sort(pred))) < 1e-2

    def test_free_single_particle(self):
        roots, _, ok = hubbard.solve_liebwu(5, 1, 0, 0.7, (2,), ())
        assert ok
        assert abs(roots.k[0].real - 2 * np.pi * 2 / 5) < 1e-12

    @pytest.mark.parametrize("L, N, M, u, qnums, spin_qnums", [
        (8, 6, 2, 1.0, (-2, -1, 0, 1, 2, 3), (-0.5, 0.5)),
        (8, 6, 2, 2.0, (-2, -1, 0, 1, 2, 3), (-0.5, 0.5)),
        (6, 4, 2, 1.5, (-2, -1, 0, 1), (-0.5, 0.5)),
        (6, 2, 1, 1.0, (-0.5, 0.5), (0,))])
    def test_non_integer_quantum_numbers_rejected(self, L, N, M, u, qnums, spin_qnums):
        # the log form folds the parity offsets into its constants: half-odd
        # spin numbers used to "converge" to roots with exp-form residual 2
        with pytest.raises(ValueError, match="integers"):
            hubbard.solve_liebwu(L, N, M, u, qnums, spin_qnums)

    def test_zero_u_rejected(self):
        # the equations divide by u; u = 0 (free fermions) is left to ED
        with pytest.raises(ValueError):
            hubbard.solve_liebwu(6, 2, 1, 0.0, (-1, 0), (0,))

    def test_quantum_number_counts_named(self):
        with pytest.raises(ValueError, match=r"^N=2, M=1: .* per lambda, got 3 and 0$"):
            hubbard.solve_liebwu(6, 2, 1, 1.0, (-1, 0, 1))

    def test_energy_momentum_trivials(self):
        roots = hubbard.NestedRoots(4, [], [], 0.9)
        E, P = hubbard.energy_momentum(roots)
        assert E == pytest.approx(0.9 * 4) and P == 0.0

    @settings(max_examples=60, deadline=None)
    @given(k=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=4))
    @example(k=[-1e-17, 0.0])  # np.mod alone gave exactly 2pi
    def test_momentum_in_zero_to_two_pi(self, k):
        _, P = hubbard.energy_momentum(hubbard.NestedRoots(4, k, [], 1.0))
        assert type(P) is float and 0 <= P < 2 * np.pi


def _loop_liebwu_residual(k, lam, u, L):
    res = 0.0
    for kj in k:
        rhs = np.exp(np.sum(np.log(lam - np.sin(kj) - 1j * u)
                            - np.log(lam - np.sin(kj) + 1j * u)))
        res = max(res, abs(np.exp(1j * kj * L) - rhs))
    for l in range(len(lam)):
        lhs = np.exp(np.sum(np.log(lam[l] - np.sin(k) - 1j * u)
                            - np.log(lam[l] - np.sin(k) + 1j * u)))
        others = np.delete(lam, l)
        rhs = np.exp(np.sum(np.log(lam[l] - others - 2j * u)
                            - np.log(lam[l] - others + 2j * u)))
        res = max(res, abs(lhs - rhs))
    return res


class TestLiebWuProperties:
    @settings(max_examples=40, deadline=None)
    @given(N=st.integers(1, 8), u=st.floats(0.5, 4.0), data=st.data())
    def test_jacobian_matches_central_difference(self, N, u, data):
        L, M = data.draw(st.integers(N, 32)), data.draw(st.integers(0, N // 2))
        ns = np.arange(N, dtype=float) - N // 2
        ss = np.arange(M, dtype=float)
        k = data.draw(st.lists(st.floats(-np.pi, np.pi), min_size=N, max_size=N))
        lam = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=M, max_size=M))
        F, J = hubbard._liebwu_system(L, N, M, u, ns, ss)
        z = np.array(k + lam, float)
        Ja = J(z)
        assert np.max(np.abs(Ja - central_difference_jacobian(F, z))) \
            < 1e-6 * max(1.0, np.max(np.abs(Ja)))

    @settings(max_examples=40, deadline=None)
    @given(N=st.integers(1, 8), u=st.floats(0.5, 4.0), data=st.data())
    def test_residual_matches_loop(self, N, u, data):
        L, M = data.draw(st.integers(N, 32)), data.draw(st.integers(0, N // 2))
        k = np.array(data.draw(st.lists(st.floats(-np.pi, np.pi), min_size=N, max_size=N)))
        lam = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=M, max_size=M)))
        roots = hubbard.NestedRoots(L, k, lam, u)
        ref = _loop_liebwu_residual(roots.k, roots.lam, u, L)
        assert abs(hubbard.liebwu_residual(roots) - ref) <= 1e-10 * max(1.0, ref)


def _nested_wavefunction(xs, spins, roots):
    """Bethe wavefunction psi(x; a | k; lambda) at one configuration, from
    hubbard._nested_amplitudes.

    xs: electron coordinates (1-based, any order, ties allowed for opposite
    spins); spins: 0 = up, 1 = down.  The ordering sector is the stable sort
    of xs (tied coordinates keep their input order), whose sign multiplies
    the sector formula.  The value vanishes when the number of down spins
    differs from M.
    """
    if roots.N > hubbard.FACTORIAL_GUARD_N or roots.M > hubbard.FACTORIAL_GUARD_M:
        raise ValueError("factorial cost guard: N <= 6, M <= 2")
    if len(xs) != roots.N:
        raise ValueError("need one coordinate per charge momentum")
    Q = np.argsort(np.asarray(xs), kind="stable")
    ys = np.flatnonzero(np.asarray(spins)[Q] == 1) + 1
    if len(ys) != roots.M:
        return 0.0 + 0.0j
    inversions = np.count_nonzero(np.triu(Q[:, None] > Q[None, :]))
    amp = hubbard._nested_amplitudes(roots, np.asarray(xs)[Q][None, :], ys[None, :])
    return complex((-1) ** inversions * amp[0])


class TestNestedWavefunction:
    def test_m_zero_is_slater(self):
        L, N = 5, 2
        k = 2 * np.pi * np.array([1, 3]) / L
        roots = hubbard.NestedRoots(L, k, [], 1.0)
        for xs in [(1, 4), (2, 3)]:
            psi = _nested_wavefunction(list(xs), [0, 0], roots)
            slater = np.linalg.det(np.exp(1j * np.outer(k, xs)))
            assert abs(psi - slater) < 1e-12 * abs(slater)

    def test_wrong_down_count_vanishes(self):
        roots, _, _ = hubbard.solve_liebwu(6, 2, 1, 1.0, (-1, 0), (0,))
        assert _nested_wavefunction([2, 5], [0, 0], roots) == 0

    def test_antisymmetry(self):
        roots, _, _ = hubbard.solve_liebwu(6, 2, 1, 1.5, (-1, 0), (0,))
        for (xs, sp) in [(([2, 5]), ([0, 1])), (([1, 4]), ([1, 0]))]:
            a = _nested_wavefunction(xs, sp, roots)
            b = _nested_wavefunction(xs[::-1], sp[::-1], roots)
            assert abs(a + b) < 1e-12 * abs(a)

    def test_tie_continuity(self):
        # coincident coordinates with opposite spins: the two sector formulas
        # agree (the assembled coefficient does not depend on the tie order)
        roots, _, _ = hubbard.solve_liebwu(6, 2, 1, 1.5, (-1, 0), (0,))
        a = _nested_wavefunction([3, 3], [0, 1], roots)
        b = _nested_wavefunction([3, 3], [1, 0], roots)
        assert abs(a + b) < 1e-12 * abs(a)

    def test_guard(self):
        roots = hubbard.NestedRoots(8, np.zeros(7), np.zeros(3), 1.0)
        with pytest.raises(ValueError, match=r"^N=7, M=3: factorial cost guard: N <= 6, M <= 2$"):
            hubbard.assemble_state(roots)
        with pytest.raises(ValueError):
            _nested_wavefunction([1] * 7, [0] * 7, roots)
        roots = hubbard.NestedRoots(8, np.zeros(6), np.zeros(3), 1.0)  # M = 3 > 2
        with pytest.raises(ValueError):
            _nested_wavefunction([1, 2, 3, 4, 5, 6], [0, 0, 0, 1, 1, 1], roots)


class TestAssembledStates:
    @pytest.mark.parametrize("u", [1.0, 2.0])
    def test_eigenvector_and_quantum_numbers(self, u):
        L, N, M = 6, 2, 1
        basis = hubbard.FermionBasis(L, N, M)
        roots, _, ok = hubbard.solve_liebwu(L, N, M, u, (-1, 0), (0,))
        assert ok
        v = hubbard.assemble_state(roots, basis)
        H = hubbard.build_hubbard_hamiltonian(L, u, basis).matrix
        E, P = hubbard.energy_momentum(roots)
        assert np.linalg.norm(H @ v - E * v) < 1e-8
        # momentum: translation eigenvalue e^{iP}
        U = hubbard.shift_block(basis)
        assert np.linalg.norm(U @ v - np.exp(1j * P) * v) < 1e-8
        # highest weight under the total spin
        Sp, _ = hubbard.spin_raise_block(basis)
        assert np.linalg.norm(Sp @ v) < 1e-8

    def test_second_branch_is_eigenvector(self):
        L, N, M, u = 6, 2, 1, 1.0
        roots, _, ok = hubbard.solve_liebwu(L, N, M, u, (0, 1), (0,))
        if not ok:
            pytest.skip("branch did not converge")
        basis = hubbard.FermionBasis(L, N, M)
        v = hubbard.assemble_state(roots, basis)
        H = hubbard.build_hubbard_hamiltonian(L, u, basis).matrix
        E, _ = hubbard.energy_momentum(roots)
        assert np.linalg.norm(H @ v - E * v) < 1e-8
        w = ed.diagonalize(hubbard.build_hubbard_hamiltonian(L, u, basis)).eigenvalues
        assert np.min(np.abs(w - E)) < 1e-8

    def test_shift_block_unitary_order(self):
        basis = hubbard.FermionBasis(4, 2, 1)
        U = hubbard.shift_block(basis).dense()
        assert np.allclose(U @ U.T, np.eye(basis.dim))
        assert np.allclose(np.linalg.matrix_power(U, 4), np.eye(basis.dim))


def _random_nested(data, L, N, M, u):
    """Charge momenta and spin rapidities kept apart from each other and from
    the poles l - sin k = -iu, where the nested sum is ill-conditioned."""
    k = np.array(data.draw(st.lists(st.floats(-np.pi, np.pi), min_size=N, max_size=N)))
    k = k + 1j * np.array(data.draw(st.lists(st.floats(-0.3, 0.3), min_size=N, max_size=N)))
    lam = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=M, max_size=M)))
    assume(np.all(np.abs(np.subtract.outer(k, k))[np.triu_indices(N, 1)] > 0.1))
    assume(np.all(np.abs(np.subtract.outer(lam, lam))[np.triu_indices(M, 1)] > 0.1))
    assume(np.all(np.abs(lam[None, :] - np.sin(k)[:, None] + 1j * u) > 0.1))
    return hubbard.NestedRoots(L, k, lam, u)


class TestNestedKernelMatchesLoops:
    """Batched determinants against the P and R permutation loops of
    tests/loop_references.py."""

    @settings(max_examples=40, deadline=None)
    @given(N=st.integers(1, 4), u=st.floats(0.5, 3.0), data=st.data())
    def test_assembled_state_matches_loop(self, N, u, data):
        L = data.draw(st.integers(N, 6))
        M = data.draw(st.integers(0, N // 2))
        roots = _random_nested(data, L, N, M, u)
        basis = hubbard.FermionBasis(L, N, M)
        ref = loop_references.assemble_state(roots, basis)
        assert np.linalg.norm(hubbard.assemble_state(roots, basis) - ref) <= 1e-10

    @settings(max_examples=40, deadline=None)
    @given(N=st.integers(1, 4), u=st.floats(0.5, 3.0), data=st.data())
    def test_wavefunction_matches_loop_in_any_order(self, N, u, data):
        # unsorted coordinates, ties and wrong down-spin counts included
        L = data.draw(st.integers(N, 6))
        M = data.draw(st.integers(0, N // 2))
        roots = _random_nested(data, L, N, M, u)
        xs = data.draw(st.lists(st.integers(1, L), min_size=N, max_size=N))
        spins = data.draw(st.lists(st.integers(0, 1), min_size=N, max_size=N))
        ref = loop_references.nested_wavefunction(xs, spins, roots)
        psi = _nested_wavefunction(xs, spins, roots)
        assert abs(psi - ref) <= 1e-10 * max(1.0, abs(ref))
        if sum(spins) != M:
            assert psi == 0

    @pytest.mark.parametrize("L, N, M, qnums, spin_qnums", [
        (8, 4, 1, (-1, 0, 1, 2), (0,)), (6, 4, 2, (-2, -1, 0, 1), (-1, 0))])
    def test_onshell_state_matches_loop(self, L, N, M, qnums, spin_qnums):
        roots, _, ok = hubbard.solve_liebwu(L, N, M, 1.5, qnums, spin_qnums)
        assert ok and hubbard.liebwu_residual(roots) < 1e-10
        basis = hubbard.FermionBasis(L, N, M)
        v = hubbard.assemble_state(roots, basis)
        ref = loop_references.assemble_state(roots, basis)
        phase = np.vdot(ref, v) / abs(np.vdot(ref, v))
        assert np.linalg.norm(v - ref) <= 1e-12 and abs(phase - 1) <= 1e-12
        H = hubbard.build_hubbard_hamiltonian(L, 1.5, basis).matrix
        E, _ = hubbard.energy_momentum(roots)
        assert np.linalg.norm(H @ v - E * v) < 1e-8

    def test_six_electrons_two_down_on_eight_sites(self):
        # dim 1960, 720 x 2 permutation terms per state in the loop form
        L, N, M, u = 8, 6, 2, 1.0
        roots, _, ok = hubbard.solve_liebwu(L, N, M, u, (-2, -1, 0, 1, 2, 3), (0, 1))
        assert ok and hubbard.liebwu_residual(roots) < 1e-10
        basis = hubbard.FermionBasis(L, N, M)
        start = time.perf_counter()
        v = hubbard.assemble_state(roots, basis)
        assert time.perf_counter() - start < 1.0
        H = hubbard.build_hubbard_hamiltonian(L, u, basis).matrix
        E, _ = hubbard.energy_momentum(roots)
        assert np.linalg.norm(H @ v - E * v) < 1e-8
        Sp, _ = hubbard.spin_raise_block(basis)
        assert np.linalg.norm(Sp @ v) < 1e-8

"""Six-vertex engine: R-matrix, Yang-Baxter, transfer matrices, partition
functions, the spin-chain link, and square ice."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import loop_references
from bethelab import ed, sixvertex
from bethelab.basis import build_sector_basis

RNG = np.random.default_rng(99)


def transposition_4x4():
    P = np.zeros((4, 4))
    P[0, 0] = P[3, 3] = 1
    P[1, 2] = P[2, 1] = 1
    return P


def _complex(re, im):
    return st.builds(complex, st.floats(*re), st.floats(*im))


class TestRMatrix:
    def test_regularity(self):
        eta, rho = 0.42, 1.3
        R0 = sixvertex.r_matrix(0.0, eta, rho)
        assert np.max(np.abs(R0 - rho * np.sinh(eta) * transposition_4x4())) < 1e-14

    def test_ten_zero_entries(self):
        R = sixvertex.r_matrix(0.31, 0.7, 1.0)
        assert np.sum(R == 0) == 10

    def test_eta_zero_degenerates_to_identity(self):
        lam = 0.9
        R = sixvertex.r_matrix(lam, 0.0, 1.0)
        assert np.max(np.abs(R - np.sinh(lam) * np.eye(4))) < 1e-14

    @settings(max_examples=40, deadline=None)
    @given(abc=st.lists(st.integers(-3, 3) | st.floats(-2.0, 2.0)
                        | _complex((-2.0, 2.0), (-1.0, 1.0)), min_size=3, max_size=3))
    def test_real_exactly_for_real_weights(self, abc):
        R = sixvertex.r_matrix_from_weights(*abc)
        assert np.isrealobj(R) == (not any(isinstance(x, complex) for x in abc))
        a, b, c = abc
        assert np.array_equal(R, [[a, 0, 0, 0], [0, b, c, 0], [0, c, b, 0], [0, 0, 0, a]])

    def test_explicit_matrices_stay_complex(self):
        """Real direct weights give a real transfer action, but the explicit
        monodromy and transfer, and parameterized R-factors, stay complex."""
        w = sixvertex.VertexWeights(1.0, 2.0, 0.5)
        assert sixvertex._transfer_action(0.0, 3, w, np.ones(8)).dtype == float
        assert sixvertex._monodromy_csr(0.0, 3, w).dtype == complex
        assert sixvertex.transfer(0.0, 3, w).csr().dtype == complex
        p = sixvertex.VertexWeights.from_parameters(1.0, 0.0, 0.4)
        assert all(R.dtype == complex for R in sixvertex._r_matrices(0.2, 3, p))
        assert sixvertex._transfer_action(0.2, 3, p, np.ones(8)).dtype == complex

    def test_ice_point_direct_weights(self):
        w = sixvertex.VertexWeights.ice()
        assert (w.a, w.b, w.c) == (1.0, 1.0, 1.0)
        assert not w.parameterized


class TestYangBaxter:
    def test_holds_over_random_draws(self):
        for _ in range(25):
            lam, mu, nu = RNG.uniform(-2, 2, 3) + 1j * RNG.uniform(-2, 2, 3)
            for eta in (0.3, 0.7 + 0.2j):
                assert sixvertex.ybe_residual(lam, mu, nu, eta) < 1e-12

    @pytest.mark.parametrize("batch", [sixvertex.YBE_BATCH, 7])
    def test_stacked_trials_equal_max_of_single_calls(self, batch, monkeypatch):
        monkeypatch.setattr(sixvertex, "YBE_BATCH", batch)
        rng = np.random.default_rng(5)
        lam, mu, nu = rng.uniform(-2, 2, (3, 40)) + 1j * rng.uniform(-2, 2, (3, 40))
        eta = np.where(np.arange(40) % 2 == 0, 0.3, 0.7 + 0.2j)
        single = max(sixvertex.ybe_residual(*args) for args in zip(lam, mu, nu, eta))
        assert abs(sixvertex.ybe_residual(lam, mu, nu, eta) - single) <= 1e-15
        assert sixvertex.ybe_residual(lam[:0], mu[:0], nu[:0], eta[:0]) == 0.0

    def test_three_slot_embeddings_are_embed_pair(self):
        # a generic complex 4 x 4 is not symmetric under the slot swap, so a
        # swapped slot order fails here (the six-vertex R would hide it)
        rng = np.random.default_rng(6)
        R4 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        swap = [0, 2, 1, 3]
        assert not np.array_equal(R4[np.ix_(swap, swap)], R4)
        for p0, p1 in ((0, 1), (0, 2), (1, 2)):
            direct = loop_references.embed_pair(R4, p0, p1, 3).toarray()
            got = sixvertex._three_slot(np.stack([R4, 2 * R4]), p0, p1)
            assert np.array_equal(got[0], direct)
            assert np.array_equal(got[1], 2 * direct)

    def test_coincident_arguments(self):
        assert sixvertex.ybe_residual(0.4, 0.4, 0.4, 0.55) == 0.0

    def test_overflow_is_not_a_pass(self, monkeypatch):
        # sinh(800) overflows, so the residual is nan; a max that dropped
        # the nan would report 0.0, also from a later batch of one trial each
        with np.errstate(over="ignore", invalid="ignore"):
            assert not sixvertex.ybe_residual(800.0, 0.0, 0.1, 0.3) <= 1e-12
            monkeypatch.setattr(sixvertex, "YBE_BATCH", 1)
            lam = np.array([0.1, 800.0, 0.2])
            assert not sixvertex.ybe_residual(lam, 0.0, 0.1, 0.3) <= 1e-12

    def test_negative_control(self):
        # corrupting one Boltzmann weight must break the identity
        lam, mu, nu, eta = 0.3, -0.2, 0.5, 0.7

        def emb(R4, p0, p1):
            return loop_references.embed_pair(R4, p0, p1, 3).toarray()

        R12 = sixvertex.r_matrix(lam - mu, eta)
        R12[1, 1] += 1e-2
        A = emb(R12, 0, 1)
        B = emb(sixvertex.r_matrix(lam - nu, eta), 0, 2)
        C = emb(sixvertex.r_matrix(mu - nu, eta), 1, 2)
        assert np.max(np.abs(A @ B @ C - C @ B @ A)) > 1e-3


class TestMonodromy:
    def test_single_site_is_r(self):
        eta = 0.37
        w = sixvertex.VertexWeights.from_parameters(1.0, 0.0, eta)
        T = sixvertex._monodromy_csr(0.21, 1, w).toarray()
        assert np.max(np.abs(T - sixvertex.r_matrix(0.21, eta))) < 1e-14

    def test_size_guard(self):
        w = sixvertex.VertexWeights.from_parameters(1.0, 0.0, 0.3)
        with pytest.raises(ValueError):
            sixvertex._monodromy_csr(0.1, 15, w)

    def test_rejects_empty_chain(self):
        w = sixvertex.VertexWeights.from_parameters(1.0, 0.0, 0.3)
        for L in (0, -1):
            with pytest.raises(ValueError):
                sixvertex._monodromy_csr(0.1, L, w)
            with pytest.raises(ValueError):
                sixvertex.partition_function(L, 1, 1, 1, 1)
        with pytest.raises(ValueError):
            sixvertex._sector_block(sixvertex._closed_paths(0.0, 0, w), 0, 0)
        with pytest.raises(ValueError):
            sixvertex.ice_entropy(0)

    @pytest.mark.parametrize("L_max", [2, 4])
    def test_ice_entropy_needs_three_sizes(self, L_max):
        # the fit s_inf + a/L^2 + b/L^4 has three unknowns
        with pytest.raises(ValueError, match="three"):
            sixvertex.ice_entropy(L_max)

    @pytest.mark.parametrize("L", [2, 4, 6])
    def test_rtt_relation(self, L):
        xi = RNG.normal(size=L) * 0.3
        w = sixvertex.VertexWeights.from_parameters(1.0, 0.0, 0.5, xi=xi)
        lam, mu = 0.37 + 0.11j, -0.23 + 0.05j
        assert sixvertex.rtt_residual(lam, mu, L, w) < 1e-12

    @pytest.mark.parametrize("aux", [0, 1])
    def test_rtt_operators_act_on_their_aux_slot(self, aux):
        # the RTT relation also holds with T_0 and T_0' on swapped slots (R
        # commutes with the swap), so the slot is checked against the
        # embedded-factor product on (0, 0', chain)
        L = 3
        w = sixvertex.VertexWeights.from_parameters(1.0, 0.0, 0.5, xi=RNG.normal(size=L) * 0.3)
        got = sixvertex._aux_slot_operator(0.37 + 0.11j, L, w, aux)
        ref = loop_references.monodromy_csr(0.37 + 0.11j, L, w, aux, L + 2)
        assert abs(got - ref).max() <= 1e-14 * abs(ref).max()

    def test_trace_at_zero_is_shift(self):
        # homogeneous tr_0 T_0(0) = rho^L sh^L(eta) * (forward pattern shift)
        # = rho^L sh^L(eta) * U^{-1} with U the momentum-convention shift
        L, eta, rho = 5, 0.42, 1.2
        w = sixvertex.VertexWeights.from_parameters(rho, 0.0, eta)
        t0 = np.asarray(sixvertex.transfer(0.0, L, w).matrix)
        U = ed.build_shift_operator(L).dense().real
        assert np.max(np.abs(t0 - (rho * np.sinh(eta)) ** L * U.T)) < 1e-12


class TestTransfer:
    def test_commuting_family(self):
        L = 6
        w = sixvertex.VertexWeights.from_parameters(1.0, 0.0, 0.7 + 0.2j)
        t1 = np.asarray(sixvertex.transfer(0.33 + 0.21j, L, w).matrix)
        t2 = np.asarray(sixvertex.transfer(-0.51 + 0.08j, L, w).matrix)
        assert np.max(np.abs(t1 @ t2 - t2 @ t1)) < 1e-12

    def test_conserves_sz(self):
        L = 4
        w = sixvertex.VertexWeights.ice()
        t = np.asarray(sixvertex.transfer(0.0, L, w).matrix)
        Sz = ed.build_total_spin(L, "z").dense()
        assert np.max(np.abs(t @ Sz - Sz @ t)) < 1e-12

    def test_l2_entries_against_contraction_oracle(self):
        # brute-force 4x4: t[(s1',s2'),(s1,s2)] = sum over the two internal
        # horizontal edges of R[g1 s1' g2 s1] R[g2 s2' g1 s2]
        a, b, c = 1.3, 0.7, 0.45
        R = sixvertex.r_matrix_from_weights(a, b, c).reshape(2, 2, 2, 2)
        w = sixvertex.VertexWeights(a, b, c)
        t = np.asarray(sixvertex.transfer(0.0, 2, w).matrix)
        oracle = np.zeros((4, 4), complex)
        for s1o in range(2):
            for s2o in range(2):
                for s1 in range(2):
                    for s2 in range(2):
                        val = 0.0
                        for g1 in range(2):
                            for g2 in range(2):
                                val += R[g1, s1o, g2, s1] * R[g2, s2o, g1, s2]
                        oracle[2 * s1o + s2o, 2 * s1 + s2] = val
        # aux sweeps site 1 first: T = R_{0,2} R_{0,1}; trace ties the ends
        assert np.max(np.abs(t - oracle)) < 1e-13

    @pytest.mark.parametrize("N", [0, 1, 2, 3])
    def test_sector_block_matches_full(self, N):
        L, eta = 5, 0.42
        w = sixvertex.VertexWeights.from_parameters(1.0, 0.0, eta)
        lam = 0.3
        tfull = np.asarray(sixvertex.transfer(lam, L, w).matrix)
        idx = build_sector_basis(L, N).states
        tb = sixvertex._sector_block(sixvertex._closed_paths(lam, L, w), L, N)
        assert np.max(np.abs(tb - tfull[np.ix_(idx, idx)])) < 1e-12


class TestHamiltonianLink:
    @pytest.mark.parametrize("L", [4, 14])
    def test_reconstruction_accuracy(self, L):
        _, dev = sixvertex.hamiltonian_from_transfer(L, 0.3)
        assert dev < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(L=st.integers(3, 8), imaginary=st.booleans(), x=st.floats(0.05, 2.0),
           rho=st.floats(0.2, 3.0))
    def test_exact_derivative_is_the_limit_of_central_differences(self, L, imaginary, x, rho):
        """The operator with the exact t'(0) against the central difference
        of step h, for real eta = x and for eta = i (1.5 x): they differ by
        O(h^2), the difference falling by a factor 4 when h halves."""
        eta = 1.5j * x if imaginary else x
        h_exact = sixvertex.hamiltonian_from_transfer(L, eta, rho)[0].csr()
        errs = [abs(h_exact - loop_references.hamiltonian_from_transfer_fd(L, eta, rho, h)).max()
                for h in (2e-3, 1e-3)]
        assert abs(errs[0] / errs[1] - 4) < 0.05

    def test_small_eta_approaches_xxx(self):
        for eta, tol in ((0.2, 0.05), (0.05, 3e-3)):
            op, _ = sixvertex.hamiltonian_from_transfer(4, eta)
            hxxx = ed.build_xxx_hamiltonian(4, 1.0).dense()
            assert np.max(np.abs(op.dense() - hxxx)) < tol

    def test_l11_reconstruction(self):
        # the L = 11 transfer (dim 2048) and its monodromy (dim 4096) are CSR,
        # and t(0) is inverted as a scaled shift
        _, dev = sixvertex.hamiltonian_from_transfer(11, 0.3)
        assert dev < 1e-12

    def test_rejects_t0_that_is_not_a_scaled_shift(self, monkeypatch):
        transfer = sixvertex.transfer

        def skewed(lam, L, w):
            t = transfer(lam, L, w)
            return ed.OperatorMatrix(t.csr() * (1 + 1e-9)) if lam == 0 else t

        monkeypatch.setattr(sixvertex, "transfer", skewed)
        with pytest.raises(ValueError, match="inverse shift"):
            sixvertex.hamiltonian_from_transfer(6, 0.3)


class TestPartitionFunction:
    def test_1x1_analytic(self):
        a, b, c = 1.3, 0.7, 0.4
        z = sixvertex.partition_function(1, 1, a, b, c)
        assert abs(z - (2 * a + 2 * b)) < 1e-12
        assert sixvertex.enumerate_partition(1, 1, a, b, c) == pytest.approx(2 * a + 2 * b)

    def test_2x2_enumeration_oracle(self):
        z = sixvertex.partition_function(2, 2, 1, 1, 1)
        ze = sixvertex.enumerate_partition(2, 2, 1, 1, 1)
        assert ze == 18 and abs(z - 18) < 1e-9

    @pytest.mark.parametrize("L,M", [(3, 2), (2, 3), (4, 2), (3, 3), (5, 2)])
    def test_unit_weight_counts(self, L, M):
        z = sixvertex.partition_function(L, M, 1, 1, 1)
        ze = sixvertex.enumerate_partition(L, M, 1, 1, 1)
        assert isinstance(ze, int)
        assert z.real == ze and abs(z.imag) == 0

    @pytest.mark.parametrize("L, M, abc, dtype", [
        (2, 2, (2 ** 14 - 1, -3, 2), np.int64), (2, 2, (2 ** 14, -3, 2), object),
        (1, 1, (2 ** 62, 1, 7), object)])
    def test_int64_and_object_sides_of_the_bound(self, L, M, abc, dtype):
        """L = M = 2 sums in int64 while 2^6 w^4 < 2^62, i.e. w < 2^14, and
        in Python ints from w = 2^14 on; both sides give the exact int, as
        does Z = 2a + 2b = 2^63 + 2 at L = M = 1, past int64."""
        assert sixvertex._enumeration_dtype(L, M, *abc) == dtype
        z = sixvertex.enumerate_partition(L, M, *abc)
        assert type(z) is int and z == loop_references.enumerate_partition(L, M, *abc)

    def test_enumeration_reads_only_the_weight_table(self, monkeypatch):
        """The oracle stays independent of the R-matrix, ice-path and
        transfer code."""
        def unused(*args, **kwargs):
            raise AssertionError("the enumeration oracle called the R-matrix code")

        for name in ("r_matrix_from_weights", "_r_matrices", "_ice_paths", "_closed_paths",
                     "_transfer_action", "_monodromy_action", "_pair_blocks", "_apply_blocks"):
            monkeypatch.setattr(sixvertex, name, unused)
        assert sixvertex.enumerate_partition(3, 2, 1, 2, 3) == \
            loop_references.enumerate_partition(3, 2, 1, 2, 3)

    @pytest.mark.parametrize("args, parent_peak_mb", [((10, 1, 1, 2, 3), 4.75),
                                                      ((12, 1, 1, 1, 1), 42.6)])
    def test_peak_memory(self, args, parent_peak_mb):
        """The traced peak stays below that of the CSR-product transfer
        (4.75 MB and 42.6 MB, tracemalloc on the same calls)."""
        sixvertex.partition_function(*args)  # cached sector ranks out of the count
        tracemalloc.start()
        try:
            sixvertex.partition_function(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= parent_peak_mb * 1e6

    def test_zero_weights(self):
        assert sixvertex.partition_function(2, 2, 0, 0, 0) == 0
        assert sixvertex.enumerate_partition(2, 2, 0, 0, 0) == 0

    def test_generic_weights(self):
        z = sixvertex.partition_function(2, 2, 1.3, 0.7, 0.4)
        ze = sixvertex.enumerate_partition(2, 2, 1.3, 0.7, 0.4)
        assert abs(z - ze) < 1e-10 * abs(z)


class TestIceEntropy:
    def test_l2_block_exact(self):
        # L = 2 half-filled block at the ice point: the 2x2 transfer
        # [[2, 1], [1, 2]] has top eigenvalue 3
        w = sixvertex.VertexWeights.ice()
        tb = sixvertex._sector_block(sixvertex._closed_paths(0.0, 2, w), 2, 1).real
        assert np.allclose(sorted(np.linalg.eigvalsh(tb)), [1, 3])
        table, _ = sixvertex.ice_entropy(6)
        assert table[0] == (2, pytest.approx(np.log(3) / 2, abs=1e-14))

    @pytest.mark.parametrize("L", range(2, 11))
    def test_matrix_free_eigenvalue_matches_block(self, L):
        w = sixvertex.VertexWeights.ice()
        block = sixvertex._sector_block(sixvertex._closed_paths(0.0, L, w), L, L // 2)
        top = np.max(np.linalg.eigvalsh(block.real))
        assert abs(sixvertex._top_sector_eigenvalue(L, L // 2, w) - top) <= 1e-12 * top

    def test_builds_no_monodromy(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("ice_entropy built a monodromy")

        monkeypatch.setattr(sixvertex, "_ice_paths", refuse)
        table, _ = sixvertex.ice_entropy(8)
        assert [L for L, _ in table] == [2, 4, 6, 8]

    def test_sequence_and_extrapolation(self):
        table, s_inf = sixvertex.ice_entropy(10)
        vals = [v for _, v in table]
        assert all(a > b for a, b in zip(vals, vals[1:]))  # monotone toward the limit
        assert abs(s_inf - 1.5 * np.log(4 / 3)) < 2e-4


class TestProperties:
    """Identities of the R-matrix kernel at random parameters."""

    @settings(max_examples=40, deadline=None)
    @given(L=st.integers(1, 7), data=st.data(), parameterized=st.booleans(),
           lam=_complex((-0.5, 0.5), (-0.5, 0.5)))
    def test_sector_block_is_restricted_transfer(self, L, data, parameterized, lam):
        N = data.draw(st.integers(0, L))
        if parameterized:
            xi = data.draw(st.lists(st.floats(-0.5, 0.5), min_size=L, max_size=L))
            eta = data.draw(_complex((0.1, 1.0), (-0.5, 0.5)))
            w = sixvertex.VertexWeights.from_parameters(1.0, 0.0, eta, xi=xi)
        else:
            a, b, c = data.draw(st.lists(st.floats(0.1, 2.0), min_size=3, max_size=3))
            w = sixvertex.VertexWeights(a, b, c)
        tfull = np.asarray(sixvertex.transfer(lam, L, w).matrix)
        idx = build_sector_basis(L, N).states
        tb = sixvertex._sector_block(sixvertex._closed_paths(lam, L, w), L, N)
        scale = max(1.0, np.max(np.abs(tfull)))
        assert np.max(np.abs(tb - tfull[np.ix_(idx, idx)])) <= 1e-12 * scale

    @settings(max_examples=50, deadline=None)
    @given(lam=_complex((-1.0, 1.0), (-1.0, 1.0)), mu=_complex((-1.0, 1.0), (-1.0, 1.0)),
           nu=_complex((-1.0, 1.0), (-1.0, 1.0)), eta=_complex((0.1, 1.0), (-0.5, 0.5)))
    def test_yang_baxter(self, lam, mu, nu, eta):
        assert sixvertex.ybe_residual(lam, mu, nu, eta) < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(L=st.integers(1, 5), data=st.data(), eta=_complex((0.2, 0.8), (-0.3, 0.3)),
           lam=_complex((-0.5, 0.5), (-0.3, 0.3)), mu=_complex((-0.5, 0.5), (-0.3, 0.3)))
    def test_rtt(self, L, data, eta, lam, mu):
        xi = data.draw(st.lists(st.floats(-0.3, 0.3), min_size=L, max_size=L))
        w = sixvertex.VertexWeights.from_parameters(1.0, 0.0, eta, xi=xi)
        assert sixvertex.rtt_residual(lam, mu, L, w) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(L=st.integers(1, 7), data=st.data(), batch=st.sampled_from([None, 1, 3]),
           stacked=st.booleans(), sites=st.sampled_from([1, 2]))
    def test_pair_action_is_embedded_matrix(self, L, data, batch, stacked, sites):
        """The reshape action of any complex 4 x 4 on slots (0, j), or 8 x 8
        on (0, j, j + 1) (six-vertex sparsity or not), equals the embedded CSR
        block times the vector, row by row with a leading batch axis; a
        (batch, 4, 4) or (batch, 8, 8) stack applies its own block to each
        row."""
        assume(sites <= L)
        j = data.draw(st.integers(1, L + 1 - sites))
        seed = data.draw(st.integers(0, 2 ** 32 - 1))
        rng = np.random.default_rng(seed)
        stacked = stacked and batch is not None
        size = 2 ** (sites + 1)
        rshape = (batch, size, size) if stacked else (size, size)
        mask = rng.random(rshape) < data.draw(st.floats(0.0, 1.0))
        R = np.where(mask, rng.normal(size=rshape) + 1j * rng.normal(size=rshape), 0)
        shape = (2 ** (L + 1),) if batch is None else (batch, 2 ** (L + 1))
        x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        got = sixvertex._apply_pair(R, j, x)
        assert got.shape == x.shape
        slots = (0,) + tuple(range(j, j + sites))
        for k, (g, row) in enumerate(zip(np.atleast_2d(got), np.atleast_2d(x))):
            ref = loop_references.embed_block(R[k] if stacked else R, slots, L + 1) @ row
            assert np.linalg.norm(g - ref) <= 1e-14 * max(1.0, np.linalg.norm(ref))

    @staticmethod
    def _draw_weights(data, L):
        """Parameterized weights with random inhomogeneities, or direct ones,
        each of which can be exactly 0 (its moves are then dropped)."""
        if data.draw(st.booleans()):
            xi = data.draw(st.lists(st.floats(-0.5, 0.5), min_size=L, max_size=L))
            eta = data.draw(_complex((0.1, 1.0), (-0.5, 0.5)))
            return sixvertex.VertexWeights.from_parameters(1.0, 0.0, eta, xi=xi)
        weight = st.just(0.0) | st.floats(0.1, 2.0)
        a, b, c = data.draw(st.lists(weight, min_size=3, max_size=3))
        return sixvertex.VertexWeights(a, b, c)

    @settings(max_examples=40, deadline=None)
    @given(L=st.integers(1, 6), data=st.data(), transposed=st.booleans(),
           roots=st.lists(_complex((-1.0, 1.0), (-1.0, 1.0)), max_size=3))
    def test_off_diagonal_products_match_csr_factors(self, L, data, transposed, roots):
        """The B/C products by reshape against the embedded-factor reference,
        for direct weights and for parameterized ones with random
        inhomogeneities."""
        from bethelab import aba
        w = self._draw_weights(data, L)
        got = aba._off_diagonal_product(roots, L, w, transposed)
        ref = loop_references.off_diagonal_product(roots, L, w, transposed)
        assert np.linalg.norm(got - ref) <= 1e-14 * max(1.0, np.linalg.norm(ref))

    @settings(max_examples=40, deadline=None)
    @given(L=st.integers(1, 6), data=st.data(), transposed=st.booleans(),
           K=st.sampled_from([1, 2, 4]), N=st.integers(0, 3))
    def test_stacked_off_diagonal_products_are_rowwise(self, L, data, transposed, K, N):
        """K root sets of shape (K, N) in one call give, row by row, the K
        single-set products and the embedded-factor reference."""
        from bethelab import aba
        w = self._draw_weights(data, L)
        seed = data.draw(st.integers(0, 2 ** 32 - 1))
        rng = np.random.default_rng(seed)
        roots = rng.uniform(-1, 1, (K, N)) + 1j * rng.uniform(-1, 1, (K, N))
        got = aba._off_diagonal_product(roots, L, w, transposed)
        assert got.shape == (K, 2 ** L)
        for row, kroots in zip(got, roots):
            single = aba._off_diagonal_product(kroots, L, w, transposed)
            ref = loop_references.off_diagonal_product(kroots, L, w, transposed)
            scale = max(1.0, np.linalg.norm(ref))
            assert np.linalg.norm(row - single) <= 1e-14 * scale
            assert np.linalg.norm(row - ref) <= 1e-14 * scale

    @settings(max_examples=30, deadline=None)
    @given(L=st.integers(1, 6), data=st.data(), transposed=st.booleans(),
           K=st.sampled_from([1, 2, 4]))
    def test_monodromy_action_with_one_lambda_per_row(self, L, data, transposed, K):
        """T_0(l_k) (or its transpose) applied to row k, for K spectral
        parameters at once, equals the CSR monodromy at l_k times that row."""
        w = self._draw_weights(data, L)
        seed = data.draw(st.integers(0, 2 ** 32 - 1))
        rng = np.random.default_rng(seed)
        lam = rng.uniform(-1, 1, K) + 1j * rng.uniform(-1, 1, K)
        x = rng.normal(size=(K, 2 ** (L + 1))) + 1j * rng.normal(size=(K, 2 ** (L + 1)))
        got = sixvertex._monodromy_action(lam, L, w, x, transposed)
        assert got.shape == x.shape
        for lk, xk, gk in zip(lam, x, got):
            T = loop_references.monodromy_csr(lk, L, w)
            ref = (T.T if transposed else T) @ xk
            assert np.linalg.norm(gk - ref) <= 1e-14 * max(1.0, np.linalg.norm(ref))

    @settings(max_examples=60, deadline=None)
    @given(L=st.integers(1, 9), data=st.data(), transposed=st.booleans(),
           K=st.sampled_from([None, 1, 3]), per_row=st.booleans())
    def test_monodromy_action_is_the_factor_sweep(self, L, data, transposed, K, per_row):
        """The two-site blocks give T_0(l) (or its transpose) as the sweep of
        one reshape action per R-factor does, at odd and even L, for one l or
        one per row, direct weights or inhomogeneous ones."""
        w = self._draw_weights(data, L)
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        shape = (2 ** (L + 1),) if K is None else (K, 2 ** (L + 1))
        x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        lam = rng.uniform(-1, 1, K if per_row and K else None) + 1j * rng.uniform(-1, 1)
        got = sixvertex._monodromy_action(lam, L, w, x, transposed)
        ref = loop_references.monodromy_action_by_factor(lam, L, w, x, transposed)
        assert got.shape == x.shape
        assert np.linalg.norm(got - ref) <= 1e-14 * max(1.0, np.linalg.norm(ref))

    @settings(max_examples=40, deadline=None)
    @given(L=st.integers(1, 7), data=st.data(), lam=_complex((-1.0, 1.0), (-1.0, 1.0)))
    def test_ice_paths_are_the_csr_product(self, L, data, lam):
        """Monodromy and transfer read off the ice paths equal the CSR
        product of the embedded R-factors, for direct weights and for
        parameterized ones with random inhomogeneities; generic weights store
        one entry per path, 2 3^L in all."""
        self._check_ice_paths(lam, L, self._draw_weights(data, L))

    @pytest.mark.parametrize("lam", [2.29e-178j, 2.99e-234j])
    def test_ice_paths_with_an_underflowing_weight(self, lam):
        """sh(l)^2 underflows to 0 at these l: the ice paths keep that path
        with value 0 (18 entries at L = 2), which the CSR product drops."""
        w = sixvertex.VertexWeights.from_parameters(1.0, 0.0, 1.0, xi=(0.0, 0.0))
        assert len(sixvertex._ice_paths(sixvertex._r_matrices(lam, 2, w))[0]) == 2 * 3 ** 2
        assert loop_references.monodromy_csr(lam, 2, w).nnz == 16
        self._check_ice_paths(lam, 2, w)

    @staticmethod
    def _check_ice_paths(lam, L, w):
        """The ice-path monodromy and transfer against the CSR product; the
        nonzero path values are the product's stored entries."""
        ref = loop_references.monodromy_csr(lam, L, w)
        T = sixvertex._monodromy_csr(lam, L, w)
        assert abs(T - ref).max() <= 1e-14 * abs(ref).max()
        d = 2 ** L
        t_ref = ref[:d, :d] + ref[d:, d:]
        t = sixvertex.transfer(lam, L, w).csr()
        assert abs(t - t_ref).max() <= 1e-14 * abs(t_ref).max()
        Rs = sixvertex._r_matrices(lam, L, w)
        _, values, _ = sixvertex._ice_paths(Rs)
        assert np.count_nonzero(values) == ref.nnz and t.nnz == t_ref.nnz
        if all(np.count_nonzero(R) == 6 for R in Rs):
            assert len(values) == 2 * 3 ** L

    @settings(max_examples=40, deadline=None)
    @given(L=st.integers(1, 12), data=st.data(),
           kind=st.sampled_from(["int", "big int", "float", "complex"]))
    def test_enumeration_matches_configuration_loop(self, L, data, kind):
        """The row-table sum against the per-configuration loop: small ints
        (int64) and ints past the int64 bound (Python ints) give the equal
        int, floats and complex weights the same complex."""
        M = data.draw(st.integers(1, 12 // L))
        if kind == "int":
            weights = st.integers(-3, 5)
        elif kind == "big int":
            weights = st.integers(2 ** 62, 2 ** 70) | st.integers(-2 ** 70, -2 ** 62)
        elif kind == "float":
            weights = st.floats(-2.0, 2.0)
        else:
            weights = _complex((-2.0, 2.0), (-1.0, 1.0))
        a, b, c = data.draw(st.lists(weights, min_size=3, max_size=3))
        got = sixvertex.enumerate_partition(L, M, a, b, c)
        ref = loop_references.enumerate_partition(L, M, a, b, c)
        if kind.endswith("int"):
            dtype = sixvertex._enumeration_dtype(L, M, a, b, c)
            assert dtype == (np.int64 if kind == "int" else object)
            assert type(got) is int and got == ref
        else:
            # the terms can cancel far below their size, so the rounding
            # scale is their absolute sum, bounded by Z(|a|, |b|, |c|)
            scale = abs(loop_references.enumerate_partition(L, M, abs(a), abs(b), abs(c)))
            assert type(got) is complex and abs(got - ref) <= 1e-12 * max(1.0, scale)

    def test_cancelling_terms_match_exact_value(self):
        """L = 8, M = 1 with a + b small: |Z| = 7.6e-5 from terms summing to
        1.0e5 in modulus.  Kernel and loop agree with a 50-digit sum over the
        256 configurations to rounding level of the terms, not of |Z|."""
        mpmath = pytest.importorskip("mpmath")
        L, a, b, c = 8, 2, -1.8739160296284645 + 0.25j, 0
        with mpmath.workdps(50):
            W = {(1, 1, 1, 1): a, (0, 0, 0, 0): a, (1, 0, 1, 0): b, (0, 1, 0, 1): b,
                 (1, 0, 0, 1): c, (0, 1, 1, 0): c}
            exact = mpmath.mpc(0)
            for cfg in range(2 ** L):  # M = 1: north row = south row
                row = mpmath.matrix([[1, 0], [0, 1]])
                for j in range(L):
                    s = (cfg >> j) & 1
                    row = row * mpmath.matrix(
                        [[mpmath.mpc(W.get((w, s, e, s), 0)) for e in (0, 1)] for w in (0, 1)])
                exact += row[0, 0] + row[1, 1]
            exact = complex(exact)
        scale = abs(loop_references.enumerate_partition(L, 1, abs(a), abs(b), abs(c)))
        assert 1e5 < scale and abs(exact) < 1e-4
        for value in (sixvertex.enumerate_partition(L, 1, a, b, c),
                      loop_references.enumerate_partition(L, 1, a, b, c)):
            assert abs(value - exact) <= 1e-12 * scale
        assert abs(exact - 2 * (a + b) ** L) <= 1e-15 * scale

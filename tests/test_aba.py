"""Algebraic Bethe Ansatz: block structure, exchange algebra, transfer
eigenvalues, off-shell action, and the pairing determinant formula."""

import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import loop_references
from bethelab import aba, bae, coordinate, ed, sixvertex
from bethelab.basis import build_sector_basis
from oracles import kron_spin_hamiltonian

RNG = np.random.default_rng(2024)
sh = np.sinh


def _dense_blocks(lam, L, eta):
    return aba.MonodromyBlocks(*(b.toarray() for b in aba.monodromy_blocks(lam, L, eta)))


class TestBlocks:
    def test_vacuum_actions_homogeneous(self):
        L, eta = 5, 0.38 + 0.09j
        lam = 0.17 + 0.05j
        bl = aba.monodromy_blocks(lam, L, eta)
        vac = aba.VacuumFunctions(L, eta)
        v0 = aba.pseudo_vacuum(L)
        assert np.linalg.norm(bl.C @ v0) == 0
        assert np.linalg.norm(bl.A @ v0 - vac.a(lam) * v0) < 1e-12 * abs(vac.a(lam))
        assert np.linalg.norm(bl.D @ v0 - vac.d(lam) * v0) < 1e-12 * max(abs(vac.d(lam)), 1e-12)

    def test_vacuum_actions_inhomogeneous(self):
        L, eta = 4, 0.5
        xi = RNG.normal(size=L) * 0.2
        lam = 0.23
        bl = aba.monodromy_blocks(lam, L, eta, xi=xi)
        vac = aba.VacuumFunctions(L, eta, xi=xi)
        v0 = aba.pseudo_vacuum(L)
        assert np.linalg.norm(bl.A @ v0 - vac.a(lam) * v0) < 1e-12 * abs(vac.a(lam))
        assert np.linalg.norm(bl.D @ v0 - vac.d(lam) * v0) < 1e-12 * abs(vac.d(lam))

    @pytest.mark.parametrize("n", [3, 5])
    def test_vacuum_needs_one_inhomogeneity_per_site(self, n):
        # a and d run over len(xi) sites, the energy's -ch(eta) L/2 over L
        with pytest.raises(ValueError, match="one inhomogeneity per site"):
            aba.VacuumFunctions(4, 0.5, xi=np.zeros(n))

    def test_b_lowers_sz(self):
        L, eta = 4, 0.45
        bl = _dense_blocks(0.3, L, eta)
        Sz = ed.build_total_spin(L, "z").dense()
        assert np.max(np.abs(Sz @ bl.B - bl.B @ (Sz - np.eye(2 ** L)))) < 1e-12
        assert np.max(np.abs(Sz @ bl.C - bl.C @ (Sz + np.eye(2 ** L)))) < 1e-12

    def test_exchange_algebra(self):
        # the three quadratic relations used by the algebraic construction
        L, eta = 4, 0.38 + 0.09j
        lam, mu = 0.31 + 0.2j, -0.44 + 0.12j
        bl, bm = _dense_blocks(lam, L, eta), _dense_blocks(mu, L, eta)
        assert np.max(np.abs(bl.B @ bm.B - bm.B @ bl.B)) < 1e-12
        lhs = bl.A @ bm.B
        rhs = sh(mu - lam + eta) / sh(mu - lam) * bm.B @ bl.A \
            - sh(eta) / sh(mu - lam) * bl.B @ bm.A
        assert np.max(np.abs(lhs - rhs)) < 1e-12
        lhs = bl.D @ bm.B
        rhs = sh(lam - mu + eta) / sh(lam - mu) * bm.B @ bl.D \
            - sh(eta) / sh(lam - mu) * bl.B @ bm.D
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_a_plus_d_is_shifted_sixvertex_transfer(self):
        L, eta = 5, 0.38 + 0.09j
        lam = 0.29 - 0.13j
        bl = _dense_blocks(lam, L, eta)
        w = sixvertex.VertexWeights.from_parameters(1.0, 0.0, eta)
        t6 = np.asarray(sixvertex.transfer(lam - eta / 2, L, w).matrix)
        assert np.max(np.abs(bl.A + bl.D - t6)) < 1e-12

    def test_blocks_build_no_dense_monodromy(self):
        # the dense 2^11 x 2^11 monodromy alone takes 67 MB at L = 10
        tracemalloc.start()
        try:
            aba.monodromy_blocks(0.3 + 0.1j, 10, 0.4 + 0.1j)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_blocks_above_explicit_bound_raise(self):
        with pytest.raises(ValueError, match="supported up to L = 14"):
            aba.monodromy_blocks(0.3, 15, 0.4)

    @pytest.mark.parametrize("call, bound", [
        (lambda L: aba.monodromy_blocks(0.3, L, 0.4), 14),
        (lambda L: aba.offshell_action_residual([0.1, 0.3j, 0.5], 0, L, 0.4 + 0.1j), 12),
        (lambda L: aba.dual_action_residual([0.1, 0.3j, 0.5], 0, L, 0.4 + 0.1j), 12),
        (lambda L: aba.pairing_ratio_bruteforce([0.1], [0.2], L, 0.4j), 12),
        (lambda L: aba.b_product_state([0.1], L, 0.4j), 12),
    ], ids=["monodromy_blocks", "offshell_action_residual", "dual_action_residual",
            "pairing_ratio_bruteforce", "b_product_state"])
    def test_length_past_its_bound_raises_before_building(self, call, bound):
        # nothing of size L (inhomogeneities, vacuum values) is built first
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"supported up to L = {bound}"):
                call(10 ** 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


class TestBProducts:
    def test_single_b_components(self):
        L, eta = 6, 0.4 + 0.1j
        lam = 0.27 + 0.33j
        v = aba.b_product_state([lam], L, eta)
        comps = np.array([v[1 << (L - x)] for x in range(1, L + 1)])  # site x
        ref = np.array([sh(lam - eta / 2) ** x * sh(lam + eta / 2) ** (L - x + 1)
                        for x in range(1, L + 1)])
        cos = abs(np.vdot(comps, ref)) / (np.linalg.norm(comps) * np.linalg.norm(ref))
        assert cos > 1 - 1e-12

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_collinear_with_coordinate_form(self, N):
        L, eta = 7, 0.43 + 0.11j
        roots = RNG.normal(size=N) * 0.6 + 1j * RNG.normal(size=N) * 0.3
        bp = aba.b_product_state(roots, L, eta)
        basis = build_sector_basis(L, N)
        bp_sector = np.array([bp[s] for s in basis.states])
        cv = coordinate.xxz_offshell_vector(roots, L, eta)
        cos = abs(np.vdot(bp_sector, cv)) / (np.linalg.norm(bp_sector) * np.linalg.norm(cv))
        assert cos > 1 - 1e-10

    def test_onshell_is_transfer_eigenvector(self):
        L, gamma = 8, 0.6
        eta = 1j * gamma
        mu = aba.onshell_roots(L, 2, gamma)
        vac = aba.VacuumFunctions(L, eta)
        v = aba.b_product_state(mu, L, eta)
        z = 0.213 + 0.17j
        t = aba.aba_transfer(z, L, eta)
        lam_th = aba.transfer_eigenvalue(z, mu, vac)
        assert np.linalg.norm(t @ v - lam_th * v) / np.linalg.norm(v) < 1e-8


def _complex(re, im):
    return st.builds(complex, st.floats(*re), st.floats(*im))


class TestBProductProperties:
    """The vector-at-a-time B/C products against the explicit monodromy blocks."""

    @settings(max_examples=40, deadline=None)
    @given(L=st.integers(1, 6), eta=_complex((0.1, 1.0), (-1.0, 1.0)),
           roots=st.lists(_complex((-1.0, 1.0), (-1.0, 1.0)), max_size=3))
    def test_b_and_c_products_match_blocks(self, L, eta, roots):
        w = aba._weights_homogeneous(L, eta)
        b_ref = c_ref = aba.pseudo_vacuum(L)
        for lam in roots:
            bl = aba.monodromy_blocks(lam, L, eta)
            b_ref = bl.B @ b_ref
            c_ref = bl.C.T @ c_ref
        for got, ref in ((aba.b_product_state(roots, L, eta), b_ref),
                         (aba._off_diagonal_product(roots, L, w, True), c_ref)):
            assert got.shape == ref.shape
            assert np.linalg.norm(got - ref) <= 1e-12 * max(1.0, np.linalg.norm(ref))

    @settings(max_examples=40, deadline=None)
    @given(L=st.integers(1, 7), eta=_complex((0.1, 1.0), (-1.0, 1.0)),
           lam=_complex((-1.0, 1.0), (-1.0, 1.0)), rho=st.floats(0.5, 2.0),
           kind=st.sampled_from(["homogeneous", "inhomogeneous", "direct"]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_transfer_action_matches_aba_transfer(self, L, eta, lam, rho, kind, seed):
        """t(l) applied to a vector (and a covector) factor by factor equals
        the explicit transfer matrix: the A + D of the eta/2 convention, random
        inhomogeneities, or direct (a, b, c) weights."""
        rng = np.random.default_rng(seed)
        v = rng.normal(size=2 ** L) + 1j * rng.normal(size=2 ** L)
        if kind == "homogeneous":
            w = aba._weights_homogeneous(L, eta)
            t = aba.aba_transfer(lam, L, eta)
        else:
            if kind == "inhomogeneous":
                xi = rng.normal(size=L) * 0.3 + 1j * rng.normal(size=L) * 0.3
                w = sixvertex.VertexWeights.from_parameters(rho, 0.0, eta, xi=xi)
            else:
                w = sixvertex.VertexWeights(*(rng.normal(size=3) + 1j * rng.normal(size=3)))
            t = np.asarray(sixvertex.transfer(lam, L, w).matrix)
        for transposed, ref in ((False, t @ v), (True, v @ t)):
            got = sixvertex._transfer_action(sixvertex._pair_blocks(lam, L, w), v, transposed)
            assert np.linalg.norm(got - ref) <= 1e-13 * max(1.0, np.linalg.norm(ref))


class TestQFunction:
    def test_trivials(self):
        assert aba.q_function(0.3, []) == 1.0
        nu = 0.4 + 0.2j
        assert abs(aba.q_function(1.1, [nu]) - sh(1.1 - nu)) < 1e-14
        assert abs(aba.q_function(nu, [nu, 0.9])) == 0


def _complex_list(lo, hi, min_size=0, max_size=4):
    return st.lists(_complex((lo, hi), (lo, hi)), min_size=min_size, max_size=max_size)


@st.composite
def _roots_and_index(draw):
    """Up to 8 complex roots and the index of one of them."""
    roots = draw(_complex_list(-1.0, 1.0, min_size=1, max_size=8))
    return roots, draw(st.integers(0, len(roots) - 1))


def _vacuum_pair(L, eta, seed):
    """(VacuumFunctions, its scalar loop reference at rho = 1) for the
    homogeneous chain (seed None) or random complex inhomogeneities."""
    xi = None
    if seed is not None:
        rng = np.random.default_rng(seed)
        xi = rng.normal(size=L) * 0.3 + 1j * rng.normal(size=L) * 0.3
    return aba.VacuumFunctions(L, eta, xi), loop_references.ScalarVacuum(L, eta, 1.0, xi)


_vacuum_args = dict(L=st.integers(1, 10), eta=_complex((0.1, 1.0), (-1.0, 1.0)),
                    seed=st.none() | st.integers(0, 2 ** 32 - 1))


class TestArrayForms:
    """The array forms of the Q-functions, vacuum functions, residuals,
    action coefficients and determinant matrices against the scalar loops
    kept in tests/loop_references.py."""

    @settings(max_examples=60, deadline=None)
    @given(roots=_complex_list(-1.0, 1.0), ls=_complex_list(-1.5, 1.5, min_size=1))
    def test_q_function_and_derivatives(self, roots, ls):
        ls, roots = np.array(ls, complex), np.array(roots, complex)
        x = ls[:, None] - roots
        bound = len(roots) * np.prod(np.maximum(np.abs(sh(x)), np.abs(np.cosh(x))), axis=-1)
        got = aba.q_function(ls, roots)
        assert got.shape == ls.shape
        assert np.array_equal(got, [loop_references.q_function(l, roots) for l in ls])
        q, dq = aba._q_parts(x)
        assert np.array_equal(q, got)
        want = np.array([loop_references.d_prod_sh(l - roots) for l in ls])
        assert np.all(np.abs(dq - want) <= 1e-13 * bound)

    @settings(max_examples=40, deadline=None)
    @given(roots=_complex_list(-1.0, 1.0, min_size=1))
    def test_q_derivative_at_a_root(self, roots):
        # exactly at a root, Q' is the product of the other factors: every other
        # term is exactly 0; that product has its own order of multiplication
        roots = np.array(roots, complex)
        others = np.diagonal(aba._all_but_one(sh(roots[:, None] - roots)))
        assert np.array_equal(aba._q_parts(aba._shifts(roots, roots))[1], others)
        want = [np.prod(sh(r - np.delete(roots, j))) for j, r in enumerate(roots)]
        assert np.all(np.abs(others - want) <= 1e-14 * np.abs(want))

    @settings(max_examples=60, deadline=None)
    @given(case=_roots_and_index(), ls=_complex_list(-1.5, 1.5))
    @example(case=([0j, 1 + 0j, 0j, 0j], 0), ls=[2.104089513455762e-104j])
    @example(case=([1j], 0), ls=[-0.5781527006678878j])
    def test_products_but_one_match_the_masked_stack(self, case, ls):
        """The prefix-times-suffix products of all factors but one, and Q',
        against the masked (n, n) stack at 50 digits, at generic l and at l
        exactly on one root (one zero factor) or on a root given twice (two
        zero factors, where Q' is exactly 0).  The bound is 1e-14 relative;
        below the smallest normal it is 1e-14 of that normal, since there the
        float products round to the subnormal spacing (the first pinned
        example's 1.09e-311j is one spacing off).  The reference takes ch at
        the exact difference l - n_m, the package at its rounding, so Q' is
        also allowed the first-order effect of that rounding,
        sum_m |sh(l - n_m)| prod_{k != m} |sh(l - n_k)| spacing(|l - n_m|):
        in the second pinned example ch(-1.578j) = -0.0074 is near its zero,
        and the rounding of l - n moves it by 1.1e-16 against 7.4e-17 of
        1e-14 relative."""
        roots, j = np.array(case[0], complex), case[1]
        twice = np.append(roots, roots[j])
        ls = np.append(np.array(ls, complex), roots[j])
        tiny = np.finfo(float).tiny
        for n in (roots, twice):
            x = aba._shifts(ls, n)
            got = aba._all_but_one(sh(x))
            want = loop_references.q_masked(ls, n, lambda x: 1)
            assert got.shape == want.shape == ls.shape + n.shape
            assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(np.abs(want), tiny))
            terms = loop_references.q_masked(ls, n, mpmath.cosh)
            got = aba._q_parts(x)[1]
            scale = np.maximum(np.abs(terms).sum(-1), tiny)
            rounding = (np.abs(sh(x) * want) * np.spacing(np.abs(x))).sum(-1)
            assert np.all(np.abs(got - terms.sum(-1)) <= 1e-14 * scale + rounding)
        assert aba._q_parts(aba._shifts(roots[j], twice))[1] == 0

    @settings(max_examples=60, deadline=None)
    @given(ls=_complex_list(-1.0, 1.0, min_size=1), **_vacuum_args)
    def test_vacuum_functions(self, ls, L, eta, seed):
        ls = np.array(ls, complex)
        vac, ref = _vacuum_pair(L, eta, seed)
        # the derivatives _transfer_numerator takes from _q_parts
        (a, da), (d, dd) = (aba._q_parts(aba._shifts(ls + s, vac.xi)) for s in (eta, 0))
        assert np.array_equal(a, vac.a(ls)) and np.array_equal(d, vac.d(ls))
        funcs = {"a": a, "d": d, "da": da, "dd": dd}
        for name, got in funcs.items():
            want = np.array([getattr(ref, name)(l) for l in ls])
            assert got.shape == ls.shape
            assert np.all(np.abs(got - want) <= 1e-11 * np.maximum(1.0, np.abs(want))), name

    @settings(max_examples=60, deadline=None)
    @given(roots=_complex_list(-1.0, 1.0, min_size=1), **_vacuum_args)
    def test_bae_q_residual(self, roots, L, eta, seed):
        vac, ref = _vacuum_pair(L, eta, seed)
        assert abs(aba.bae_q_residual(roots, vac)
                   - loop_references.bae_q_residual(roots, ref)) <= 1e-11

    @settings(max_examples=60, deadline=None)
    @given(params=_complex_list(-1.0, 1.0, min_size=1, max_size=5), L=st.integers(1, 10),
           eta=_complex((0.1, 1.0), (-1.0, 1.0)))
    def test_action_coefficients(self, params, L, eta):
        params = np.array(params, complex)
        assume(bae._pairwise_min_dist(params) > 1e-3)
        keep, coeffs = aba._action_terms(params, L, eta)
        ref = loop_references.ScalarVacuum(L, eta, 1.0)
        for ell in range(len(params)):
            ref_keep, ref_coeffs = loop_references.action_terms(params, ell, L, eta, 1.0)
            assert np.array_equal(keep, np.reshape(ref_keep, keep.shape))
            # scale: the two terms of each numerator over its denominator
            scale = [(abs(ref.a(l) * loop_references.q_function(l - eta, ref_keep[ell]))
                      + abs(ref.d(l) * loop_references.q_function(l + eta, ref_keep[ell])))
                     / abs(loop_references.q_function(l, kp)) for l, kp in zip(params, ref_keep)]
            assert np.all(np.abs(coeffs[ell] - ref_coeffs) <= 1e-10 * np.array(scale))

    @settings(max_examples=40, deadline=None)
    @given(L=st.sampled_from([2, 4, 6, 8, 10]), N=st.integers(1, 4), gamma=st.floats(0.3, 1.2),
           shifts=_complex_list(-0.5, 0.5, 4, 4))
    @example(L=2, N=1, gamma=0.5, shifts=[0.5j, 0, 0, 0])
    def test_determinant_ratio(self, L, N, gamma, shifts):
        # on-shell mu (the domain of slavnov_ratio) and random complex la
        assume(2 * N <= L)
        try:
            mu = aba.onshell_roots(L, N, gamma)
        except RuntimeError:
            assume(False)
        la = mu + np.array(shifts[:N])
        assume(bae._pairwise_min_dist(np.concatenate([mu, la])) > 0.05)
        got = aba.slavnov_ratio(mu, la, L, 1j * gamma)
        want = loop_references.determinant_ratio(mu, la, L, 1j * gamma, 1.0, reflected=True)
        if np.isfinite(want):
            assert abs(got - want) <= 1e-10 * abs(want)
        else:  # some l at a zero of a or d, or at m_j -+ eta: the loop form divides by 0
            assert np.isfinite(got)


class TestTransferEigenvalue:
    @pytest.mark.parametrize("L, N", [(3, 2), (4, 3), (6, 4), (7, 4), (8, 5)])
    def test_onshell_roots_above_the_equator_rejected(self, L, N):
        # the solver reports run-away roots (about +-14.65 at L = 8, N = 5)
        # as converged there, or does not converge
        with pytest.raises(ValueError, match="2N <= L"):
            aba.onshell_roots(L, N, 0.6)

    def test_onshell_q_residual(self):
        L, gamma = 8, 0.55
        mu = aba.onshell_roots(L, 3, gamma)
        vac = aba.VacuumFunctions(L, 1j * gamma)
        assert aba.bae_q_residual(mu, vac) < 1e-10

    def test_energy_from_log_derivative(self):
        # matches both the spin-chain spectrum and the Bethe-state expectation
        L, gamma = 6, np.arccos(0.5)
        mu = aba.onshell_roots(L, 3, gamma)
        vac = aba.VacuumFunctions(L, 1j * gamma)
        E = aba.xxz_energy_from_eigenvalue(mu, vac)
        assert abs(E.imag) < 1e-9
        w = np.linalg.eigvalsh(kron_spin_hamiltonian(L, 1.0, 0.5))
        assert np.min(np.abs(w - E.real)) < 1e-8
        assert abs(E.real - w[0]) < 1e-8  # ground state for these quantum numbers
        E2 = bae.xxz_kernel(gamma).energy(mu, np.sin(gamma))
        assert abs(E - E2) < 1e-9

    def test_energy_where_n_times_q_underflows(self):
        # |n| ~ 6e-303 and |Q| ~ 1e-10 at l = eta/2: their product is below
        # the float range, their quotients are not
        L, N, gamma = 172, 5, 0.02
        mu = aba.onshell_roots(L, N, gamma)
        E = aba.xxz_energy_from_eigenvalue(mu, aba.VacuumFunctions(L, 1j * gamma))
        E2 = bae.xxz_kernel(gamma).energy(mu, np.sin(gamma))
        assert abs(E - E2) < 1e-12 * abs(E2)

    @settings(max_examples=60, deadline=None)
    @given(roots=_complex_list(-1.0, 1.0, min_size=1), ls=_complex_list(-1.5, 1.5, min_size=1),
           **_vacuum_args)
    def test_array_matches_scalar_loop(self, roots, ls, L, eta, seed):
        ls, roots = np.array(ls, complex), np.array(roots, complex)
        assume(np.min(np.abs(sh(ls[:, None] - roots))) > 1e-3)
        vac, ref = _vacuum_pair(L, eta, seed)
        got = aba.transfer_eigenvalue(ls, roots, vac)
        assert got.shape == ls.shape
        want = loop_references.transfer_eigenvalue(ls, roots, ref)
        # scale: the two terms of the numerator over Q
        scale = np.array([(abs(ref.a(l) * loop_references.q_function(l - eta, roots))
                           + abs(ref.d(l) * loop_references.q_function(l + eta, roots)))
                          / abs(loop_references.q_function(l, roots)) for l in ls])
        assert np.all(np.abs(got - want) <= 1e-11 * scale)

    @settings(max_examples=60, deadline=None)
    @given(roots=_complex_list(-1.0, 1.0, min_size=1), **_vacuum_args)
    def test_bitwise_at_exact_roots(self, roots, L, eta, seed):
        # at l = n_j, Q' is exactly the product of the other factors of Q
        roots = np.array(roots, complex)
        assume(bae._pairwise_min_dist(roots) > 1e-3)
        vac, _ = _vacuum_pair(L, eta, seed)
        others = np.diagonal(aba._all_but_one(sh(roots[:, None] - roots)))
        dwa, dwd = aba._transfer_numerator(roots, roots, vac)[2:4]
        assert np.array_equal(aba.transfer_eigenvalue(roots, roots, vac), (dwa + dwd) / others)
        for r, p in zip(roots, others):  # one l at a time, as before the array form
            dwa, dwd = aba._transfer_numerator(r, roots, vac)[2:4]
            assert aba.transfer_eigenvalue(r, roots, vac) == (dwa + dwd) / p

    @settings(max_examples=40, deadline=None)
    @given(L=st.integers(2, 10), N=st.integers(1, 4), gamma=st.floats(0.3, 1.2),
           offsets=st.lists(_complex((-1.0, 1.0), (-1.0, 1.0)), min_size=1, max_size=4))
    def test_within_1e8_of_a_root(self, L, N, gamma, offsets):
        # on shell the pole at a root is removable: near it the derivative form
        # continues the value at the root
        assume(2 * N <= L)
        try:
            mu = aba.onshell_roots(L, N, gamma)
        except RuntimeError:
            assume(False)
        vac = aba.VacuumFunctions(L, 1j * gamma)
        d = 1e-8 * np.array(offsets) / np.sqrt(2)
        assume(np.all(d != 0))
        ls = mu[np.arange(len(d)) % N] + d
        got = aba.transfer_eigenvalue(ls, mu, vac)
        at_root = aba.transfer_eigenvalue(mu[np.arange(len(d)) % N], mu, vac)
        assert np.all(np.abs(got - at_root) <= 1e-6 * np.abs(at_root))

    @settings(max_examples=60, deadline=None)
    @given(roots=_complex_list(-1.0, 1.0), ls=_complex_list(-1.5, 1.5, min_size=1),
           **_vacuum_args)
    def test_derivative_matches_central_difference(self, roots, ls, L, eta, seed):
        # Lambda' = (n' - Lambda Q')/Q, n = wa + wd, from the derivatives the energy reads
        ls, roots = np.array(ls, complex), np.array(roots, complex)
        assume(np.min(np.abs(sh(ls[:, None] - roots)), initial=np.inf) > 0.1)
        vac, _ = _vacuum_pair(L, eta, seed)
        h = 1e-5
        diff = (aba.transfer_eigenvalue(ls + h, roots, vac)
                - aba.transfer_eigenvalue(ls - h, roots, vac)) / (2 * h)
        wa, wd, dwa, dwd, q, dq = aba._transfer_numerator(ls, roots, vac)
        got = (dwa + dwd - (wa + wd) / q * dq) / q
        assert got.shape == ls.shape
        scale = np.abs(aba.transfer_eigenvalue(ls, roots, vac)) + np.abs(got)
        assert np.all(np.abs(got - diff) <= 1e-6 * scale)

    def test_removable_pole_at_roots(self):
        L, gamma = 8, 0.6
        mu = aba.onshell_roots(L, 2, gamma)
        vac = aba.VacuumFunctions(L, 1j * gamma)
        at_root = aba.transfer_eigenvalue(mu[0], mu, vac)
        nearby = aba.transfer_eigenvalue(mu[0] + 1e-7, mu, vac)
        assert abs(at_root - nearby) < 1e-5 * abs(at_root)


def _linear_system_residual(mu, params, L, eta):
    """Relative residual of the linear system satisfied by the pairings
    X^j = <0|prod C({m})| B({l}_j)|0> for each choice of the dropped l:

        sum_j coeff_j({l}_ell) X^j = Lambda(l_ell|{m}) X^ell .
    """
    w = aba._weights_homogeneous(L, eta)
    keep, coeffs = aba._action_terms(params, L, eta)
    X = aba._off_diagonal_product(keep, L, w, False) @ aba._off_diagonal_product(mu, L, w, True)
    lhs = coeffs @ X
    rhs = aba.transfer_eigenvalue(params, mu, aba.VacuumFunctions(L, eta)) * X
    return float(np.max(np.abs(lhs - rhs) / np.maximum(np.abs(lhs), np.abs(rhs))))


class TestOffshellAction:
    def test_identity_at_random_parameters(self):
        L, eta = 6, 0.4 + 0.1j
        for N in (1, 2):
            params = RNG.normal(size=N + 1) * 0.5 + 1j * RNG.normal(size=N + 1) * 0.3
            assert aba.offshell_action_residual(params, 0, L, eta) < 1e-10

    def test_dual_identity(self):
        L, eta = 6, 0.4 + 0.1j
        params = RNG.normal(size=3) * 0.5 + 1j * RNG.normal(size=3) * 0.3
        assert aba.dual_action_residual(params, 1, L, eta) < 1e-10

    def test_onshell_subset_collapses_sum(self):
        # with an on-shell subset, the coefficients of the j != ell terms are
        # the on-shell combination itself, hence vanish
        L, gamma = 6, 0.6
        eta = 1j * gamma
        mu = aba.onshell_roots(L, 2, gamma)
        z = 0.39 + 0.07j
        params = np.concatenate([mu, [z]])
        vac = aba.VacuumFunctions(L, eta)
        keep_ell = mu  # dropping the extra parameter
        for j in range(2):
            num = (vac.a(params[j]) * aba.q_function(params[j] - eta, keep_ell)
                   + vac.d(params[j]) * aba.q_function(params[j] + eta, keep_ell))
            scale = abs(vac.a(params[j]) * aba.q_function(params[j] - eta, keep_ell))
            assert abs(num) < 1e-9 * scale
        assert aba.offshell_action_residual(params, 2, L, eta) < 1e-10

    def test_coincident_parameters_rejected(self):
        with pytest.raises(ValueError):
            aba.offshell_action_residual(np.array([0.3, 0.3, 0.9]), 0, 4, 0.5)

    @pytest.mark.parametrize("residual", [aba.offshell_action_residual,
                                          aba.dual_action_residual])
    @pytest.mark.parametrize("eta", [0.0, 1j * np.pi])
    def test_vanishing_sh_eta_rejected(self, residual, eta):
        # sh(eta) = 0 makes every B/C product zero and the residual 0/0
        with pytest.raises(ValueError, match="sh\\(eta\\) = 0"):
            residual(np.array([0.1 + 0.2j, -0.3, 0.5j]), 0, 5, eta)

    @pytest.mark.parametrize("residual", [aba.offshell_action_residual,
                                          aba.dual_action_residual])
    def test_nearly_coincident_parameters_rejected(self, residual):
        # 1.9e-16 apart: distinct after rounding to 12 decimals, but inside
        # the pole guard, where the identity is no longer resolved
        params = np.array([0.1234567890124999, 0.1234567890125001, 0.7 + 0.2j])
        with pytest.raises(ValueError):
            residual(params, 2, 6, 0.4 + 0.1j)

    def test_linear_system(self):
        L, gamma = 6, 0.6
        mu = aba.onshell_roots(L, 2, gamma)
        params = mu + RNG.normal(size=2) * 0.25 + 1j * RNG.normal(size=2) * 0.2
        params = np.concatenate([params, [0.51 - 0.12j]])
        assert _linear_system_residual(mu, params, L, 1j * gamma) < 1e-9


class TestSlavnov:
    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_matches_bruteforce(self, N):
        L, gamma = 8, 0.6
        eta = 1j * gamma
        mu = aba.onshell_roots(L, N, gamma)
        for _ in range(4):
            la = mu + RNG.normal(size=N) * 0.2 + 1j * RNG.normal(size=N) * 0.15
            sv = aba.slavnov_ratio(mu, la, L, eta)
            bf = aba.pairing_ratio_bruteforce(mu, la, L, eta)
            assert abs(sv - bf) / abs(bf) < 1e-9

    @pytest.mark.parametrize("sign", [1, -1])
    def test_parameter_at_a_vacuum_zero(self, sign):
        # l = eta/2 is a zero of d and l = -eta/2 one of a
        L, gamma = 8, 0.6
        eta = 1j * gamma
        mu = aba.onshell_roots(L, 2, gamma)
        la = np.array([sign * eta / 2, 0.3 + 0.1j])
        sv = aba.slavnov_ratio(mu, la, L, eta)
        bf = aba.pairing_ratio_bruteforce(mu, la, L, eta)
        assert abs(sv - bf) / abs(bf) < 1e-9

    @pytest.mark.parametrize("L,N,gamma", [(2, 1, 0.5), (8, 2, 0.6), (10, 3, 0.7)])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_parameter_at_a_root_shifted_by_eta(self, L, N, gamma, sign):
        # l_k = m_j +- eta: a pole of e in the kernel, cancelled by the zero of
        # Q(l_k -+ eta) it is multiplied by
        eta = 1j * gamma
        mu = aba.onshell_roots(L, N, gamma)
        la = mu + np.array([0.21 + 0.1j, -0.33 + 0.05j, 0.12 - 0.08j])[:N]
        la[0] = mu[-1] + sign * eta
        sv = aba.slavnov_ratio(mu, la, L, eta)
        bf = aba.pairing_ratio_bruteforce(mu, la, L, eta)
        assert np.isfinite(sv) and abs(sv - bf) / abs(bf) < 1e-9

    def test_limit_to_norm_ratio_one(self):
        L, gamma = 8, 0.6
        mu = aba.onshell_roots(L, 2, gamma)
        delta = np.array([0.7, -0.4])
        eps = 1e-5
        r = aba.slavnov_ratio(mu, mu + eps * delta, L, 1j * gamma)
        assert abs(r - 1) < 1e-3

    def test_permutation_symmetry(self):
        L, gamma = 8, 0.6
        eta = 1j * gamma
        mu = aba.onshell_roots(L, 2, gamma)
        la = mu + np.array([0.21 + 0.1j, -0.33 + 0.05j])
        r = aba.slavnov_ratio(mu, la, L, eta)
        assert abs(r - aba.slavnov_ratio(mu[::-1], la, L, eta)) < 1e-12 * abs(r)
        assert abs(r - aba.slavnov_ratio(mu, la[::-1], L, eta)) < 1e-12 * abs(r)

    def test_requires_onshell_mu(self):
        with pytest.raises(ValueError):
            aba.slavnov_ratio(np.array([0.3, -0.4]), np.array([0.1, 0.7]), 6, 0.5j)

    def test_pole_guard(self):
        L, gamma = 8, 0.6
        mu = aba.onshell_roots(L, 2, gamma)
        with pytest.raises(ValueError):
            aba.slavnov_ratio(mu, mu + 1e-9, L, 1j * gamma)

    def test_repeated_kernel_variant_disagrees(self):
        # regression guard: the kernel with the same argument in both terms is
        # not the pairing ratio (already visible at N = 1)
        L, gamma = 6, 0.55
        eta = 1j * gamma
        mu = aba.onshell_roots(L, 1, gamma)
        la = mu + np.array([0.3 + 0.2j])
        bf = aba.pairing_ratio_bruteforce(mu, la, L, eta)
        good = aba.slavnov_ratio(mu, la, L, eta)
        bad = loop_references.determinant_ratio(mu, la, L, eta, 1.0, reflected=False)
        assert abs(good - bf) / abs(bf) < 1e-12
        assert abs(bad - bf) / abs(bf) > 1e-3

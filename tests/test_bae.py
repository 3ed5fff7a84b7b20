"""Bethe-equation residuals, solvers, and the two-magnon classification."""

import functools
import tracemalloc
from math import comb

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import loop_references
from bethelab import bae, coordinate, ed, hubbard
from oracles import central_difference_jacobian, kron_spin_hamiltonian

RNG = np.random.default_rng(7)


class TestResidualsXXX:
    def test_free_magnon_quantization(self):
        L = 10
        for m in (1, 3, 7):
            k = 2 * np.pi * m / L
            lam = 0.5 / np.tan(k / 2)
            assert bae.bae_residual_xxx([lam], L) < 1e-12

    def test_ground_state_fixed_point(self):
        rep = bae.solve_logbae(8, 4, (1, 2, 3, 4))
        assert rep.converged
        assert bae.bae_residual_xxx(rep.roots.values, 8) < 1e-12

    def test_random_roots_are_off_shell(self):
        roots = RNG.normal(size=3) + 0.3
        assert bae.bae_residual_xxx(roots, 8) > 0.01

    def test_pole_rejected(self):
        with pytest.raises(ValueError):
            bae.bae_residual_xxx([0.5j, 1.0], 6)


class TestLogForm:
    def test_single_root_bisection_oracle(self):
        # N=1: (1/pi) arctg(2 l) = n/L - 1/L; solve independently by bisection
        L, n = 4, 1
        target = n / L - 2 / (2 * L)
        lo, hi = -50.0, 50.0
        for _ in range(200):
            mid = (lo + hi) / 2
            if np.arctan(2 * mid) / np.pi < target:
                lo = mid
            else:
                hi = mid
        rep = bae.solve_logbae(L, 1, (n,))
        assert rep.converged
        assert abs(rep.roots.values[0].real - (lo + hi) / 2) < 1e-10


class TestSolveLogBae:
    def test_empty_sector(self):
        rep = bae.solve_logbae(10, 0, ())
        assert rep.converged and rep.roots.N == 0
        assert coordinate.energy_xxx(rep.roots) == 0.0

    @pytest.mark.parametrize("L", [4, 5, 6, 7, 8, 9, 11, 13])
    def test_ground_energy_matches_ed(self, L):
        rep = bae.solve_logbae(L, L // 2, tuple(range(1, L // 2 + 1)))
        E = coordinate.energy_xxx(rep.roots).real
        w = ed.diagonalize(ed.build_xxx_hamiltonian(L, 1.0, L // 2), k=1).eigenvalues
        assert rep.converged and abs(E - w[0]) < 1e-10
        assert bae.bae_residual_xxx(rep.roots, L) < 1e-10

    def test_symmetric_qnums_give_symmetric_roots(self):
        rep = bae.solve_logbae(8, 4, (1, 2, 3, 4))
        lam = np.sort(rep.roots.values.real)
        assert np.allclose(lam, -lam[::-1], atol=1e-12)
        assert np.all(np.diff(lam) > 0)

    def test_energy_per_site_toward_minus_ln2(self):
        es = []
        for L in (8, 12, 16):
            rep = bae.solve_logbae(L, L // 2, tuple(range(1, L // 2 + 1)))
            es.append(coordinate.energy_xxx(rep.roots).real / L)
        assert es[0] < es[1] < es[2] < -np.log(2)

    def test_qnums_must_increase(self):
        with pytest.raises(ValueError):
            bae.solve_logbae(8, 2, (2, 2))

    def test_distinct_qnums_distinct_roots(self):
        seen = []
        for n1 in range(0, 4):
            for n2 in range(n1 + 1, 5):
                rep = bae.solve_logbae(10, 2, (n1, n2))
                if not rep.converged:
                    continue
                for prev in seen:
                    assert np.max(np.abs(prev - rep.roots.values)) > 1e-6
                seen.append(rep.roots.values)
        assert len(seen) >= 6

    def test_runaway_branch_flagged(self):
        rep = bae.solve_logbae(8, 3, (1, 3, 5))  # no finite real solution
        assert not rep.converged


class TestXXZ:
    def test_scaling_limit_to_xxx(self):
        gamma = 1e-3
        roots = np.array([0.35, -0.2, 0.9])
        r_xxx = bae.bae_residual_xxx(roots, 6)
        r_xxz = bae.bae_residual_xxz(gamma * roots, 6, gamma)
        assert abs(r_xxx - r_xxz) < 2e-3

    def test_free_wave(self):
        # N=1 quantization: sh(l-ig/2)^L/sh(l+ig/2)^L = 1 with the self term
        gamma = 0.7
        L = 6
        rep = bae.solve_logbae_xxz(L, 1, gamma, (2,))
        assert rep.converged
        assert bae.bae_residual_xxz(rep.roots.values, L, gamma) < 1e-12

    def test_ground_state_matches_ed(self):
        L, gamma = 6, np.arccos(0.5)
        rep = bae.solve_logbae_xxz(L, 3, gamma, (1, 2, 3))
        assert rep.converged
        E = bae.xxz_kernel(gamma).energy(rep.roots, np.sin(gamma)).real
        w = np.linalg.eigvalsh(kron_spin_hamiltonian(L, 1.0, 0.5))
        assert abs(E - w[0]) < 1e-10

    def test_solver_roots_satisfy_exponential_form(self):
        L, gamma = 8, 0.9
        rep = bae.solve_logbae_xxz(L, 2, gamma, (1, 3))
        assert rep.converged
        assert bae.bae_residual_xxz(rep.roots.values, L, gamma) < 1e-10

    @pytest.mark.parametrize("L", [5, 7, 9, 11, 13])
    def test_odd_l_ground_state_matches_ed(self, L):
        gamma, N = 0.9, L // 2
        rep = bae.solve_logbae_xxz(L, N, gamma, tuple(range(1, N + 1)))
        w = ed.diagonalize(ed.build_xxz_hamiltonian(L, np.cos(gamma), N), k=1).eigenvalues
        E = bae.xxz_kernel(gamma).energy(rep.roots, np.sin(gamma)).real
        assert rep.converged and abs(E - w[0]) < 1e-10
        assert bae.bae_residual_xxz(rep.roots.values, L, gamma) < 1e-10

    def test_ground_states_converge_up_to_l800(self):
        # seeded from the ground-state counting function
        for L in (40, 96, 200, 400, 800):
            for gamma in np.linspace(0.3, 1.5, 8):
                rep = bae.solve_logbae_xxz(L, L // 2, gamma, tuple(range(1, L // 2 + 1)))
                assert rep.converged
                assert bae.bae_residual_xxz(rep.roots.values, L, gamma) < 1e-10


def _hole_states():
    """(L, qnums): two holes in 0..L/2 at even L, two holes in 1..N+2 with
    N = (L - 1)/2 - 1 at odd L (the perfbench hole-state sizes)."""
    cases = []
    for L in (24, 48, 80, 128):
        for holes in ((0, L // 4), (3, L // 2)):
            cases.append((L, tuple(n for n in range(L // 2 + 1) if n not in holes)))
    for L in (21, 45, 81, 127):
        N = (L - 1) // 2 - 1
        for holes in ((1, N // 2), (N // 3, N + 2)):
            cases.append((L, tuple(n for n in range(1, N + 3) if n not in holes)))
    return cases


def _offshell_states():
    """(L, qnums): three random real-root states of each (L, N), L in
    {8, 10, 12, 14}, N <= min(6, L/2), n_j in N+1-L/2 .. L/2 (the perfbench
    offshell_vector sizes)."""
    rng = np.random.default_rng(11)
    return [(L, tuple(int(n) for n in np.sort(rng.choice(np.arange(N + 1 - L // 2, L // 2 + 1),
                                                         N, replace=False))))
            for L in (8, 10, 12, 14) for N in range(1, min(6, L // 2) + 1) for _ in range(3)]


@functools.lru_cache(maxsize=None)
def _logbae(L, qn):
    """solve_logbae(L, len(qn), qn), once per state: the L = 4096 ground
    state takes about a second."""
    return bae.solve_logbae(L, len(qn), qn)


def _solve_from(seed, chain, L, qn):
    """_damped_newton on the chain's log form from one seed function, with
    the stop rule of _solve_chain."""
    ns = np.asarray(qn, float)
    return bae._damped_newton(*bae._chain_system(chain, L, ns),
                              seed(ns - bae._qnum_offset(L, len(qn)), L),
                              tol=max(bae.TOL, 8 * np.spacing(np.pi * L)))


class TestChainKernel:
    """One log-form system, one exponential residual and one energy over the
    rational (XXX) and trigonometric (XXZ) kernels."""

    @pytest.mark.parametrize("L, qn", [(L, tuple(range(1, L // 2 + 1)))
                                       for L in (64, 128, 192, 256, 320, 512, 2048, 4096)]
                             + _hole_states())
    def test_large_l_solves_hold_the_exponential_form(self, L, qn):
        # the XXX stop rule acts on the phase form L theta_1 - 2 pi I - sum theta_2,
        # floored at 8 ulp(pi L): at L = 4096 a 1e-12 stop stalls
        rep = _logbae(L, qn)
        assert rep.converged
        assert bae.bae_residual_xxx(rep.roots, L) <= 1e-11

    @pytest.mark.parametrize("L", [8, 64, 320, 4096])
    def test_half_filled_ground_states_start_from_hulthen(self, L):
        # from the free-magnon seed alone they take 5, 7, 8 and 11 steps
        rep = _logbae(L, tuple(range(1, L // 2 + 1)))
        assert rep.converged and rep.iterations <= 4

    @pytest.mark.parametrize("L, qn", _hole_states() + _offshell_states())
    def test_seed_choice_keeps_the_roots(self, L, qn):
        # the free-magnon seed alone gives the same stop and, converged, the
        # same roots up to rounding
        lam, _, _, stop = _solve_from(bae.XXX.seeds[0], bae.XXX, L, qn)
        rep = bae.solve_logbae(L, len(qn), qn)
        assert rep.stop == stop
        if stop == "converged":
            assert np.max(np.abs(rep.roots.values - np.sort(lam))) <= 1e-12

    @pytest.mark.parametrize("qn", [(-6, -2, 0, 5, 7), (-5, -4, 0, 5, 7)])
    def test_out_of_range_states_keep_the_free_magnon(self, qn):
        # some |I_j| past Takahashi's (L - N - 1)/2 = 3 at L = 12, N = 5: no
        # finite real solution, and from Hulthen's seed (the smaller max |F|)
        # Newton ran 200 steps to a max_iter stop
        lam, res, iters, stop = _solve_from(bae.XXX.seeds[0], bae.XXX, 12, qn)
        rep = bae.solve_logbae(12, 5, qn)
        assert rep.stop == "run_away" and rep.iterations <= 10
        assert (rep.residual, rep.iterations, rep.stop) == (res, iters, stop)
        assert np.array_equal(rep.roots.values, np.sort(lam).astype(complex))

    @pytest.mark.parametrize("L, N, gamma", [(8, 4, 0.9), (21, 9, 0.4), (80, 40, 1.3)])
    def test_one_seed_solves_from_it(self, L, N, gamma):
        # a single-seed kernel pays no seed choice: XXZ solves are bitwise
        # those from its seed
        chain, qn = bae.xxz_kernel(gamma), tuple(range(1, N + 1))
        lam, res, iters, stop = _solve_from(chain.seeds[0], chain, L, qn)
        rep = bae.solve_logbae_xxz(L, N, gamma, qn)
        assert (rep.residual, rep.iterations, rep.stop) == (res, iters, stop)
        assert np.array_equal(rep.roots.values, np.sort(lam))

    @pytest.mark.parametrize("n", [1, 2])
    def test_rational_limit_of_the_phases(self, n):
        x, g = np.linspace(-3.0, 3.0, 13), 1e-4
        xxz = bae.xxz_kernel(g)
        assert np.max(np.abs(xxz.theta(n, g * x) - bae.XXX.theta(n, x))) < 1e-7
        assert np.max(np.abs(g * xxz.dtheta(n, g * x) - bae.XXX.dtheta(n, x))) < 1e-7

    def test_xxz_energy_is_the_closed_form(self):
        gamma, lam = 0.9, np.array([0.3, -1.1 + 0.2j, 2.0])
        ref = -np.sum(np.sin(gamma) ** 2 / (np.cosh(2 * lam) - np.cos(gamma)))
        assert abs(bae.xxz_kernel(gamma).energy(lam, np.sin(gamma)) - ref) < 1e-14

    def test_xxz_guards(self):
        gamma = 0.9
        with pytest.raises(ValueError, match="coincident"):
            bae.bae_residual_xxz([0.3, 0.3, -0.4], 8, gamma)
        for pole in (0.5j * gamma, -0.5j * gamma):
            with pytest.raises(ValueError, match="pole"):
                bae.bae_residual_xxz([pole, 0.7], 8, gamma)
            with pytest.raises(ValueError, match="pole"):
                bae.xxz_kernel(gamma).energy([pole], np.sin(gamma))

    @pytest.mark.parametrize("roots", [[800.0, 0.3], [-800.0, 0.3], [0.3, 750.0 + 0.2j]])
    def test_xxz_residual_of_a_far_root_is_finite(self, roots):
        # sh overflows past |Re l| ~ 710; the residual was log(inf) - log(inf) = nan
        with np.errstate(over="raise", invalid="raise"):
            res = bae.bae_residual_xxz(roots, 6, 1.0)
        assert np.isfinite(res) and res > 0.1

    @pytest.mark.parametrize("solve", [lambda N, q: bae.solve_logbae(8, N, q),
                                       lambda N, q: bae.solve_logbae_xxz(8, N, 0.7, q)])
    def test_same_quantum_number_rules(self, solve):
        with pytest.raises(ValueError, match="strictly increasing"):
            solve(2, (2, 2))
        with pytest.raises(ValueError, match="N <= L/2"):
            solve(5, (1, 2, 3, 4, 5))


def _qnums_near_ground(data, L):
    """N and N distinct quantum numbers within two of the ground state's
    1..N: most such sets converge (a subset of 0..L does about 1 time in 30)."""
    N = data.draw(st.integers(1, L // 2))
    return N, sorted(data.draw(st.sets(st.integers(-1, N + 2), min_size=N, max_size=N)))


class TestLogFormBranch:
    """A converged log-form solve satisfies the exponential form, at odd and
    even L: the parity offset puts the log form on its principal branch."""

    @settings(max_examples=30, deadline=None)
    @given(L=st.integers(4, 13), data=st.data())
    def test_xxx(self, L, data):
        N, qn = _qnums_near_ground(data, L)
        rep = bae.solve_logbae(L, N, qn)
        assume(rep.converged)
        assert bae.bae_residual_xxx(rep.roots, L) < 1e-10

    @settings(max_examples=30, deadline=None)
    @given(L=st.integers(4, 13), gamma=st.floats(0.3, 1.5), data=st.data())
    def test_xxz(self, L, gamma, data):
        N, qn = _qnums_near_ground(data, L)
        rep = bae.solve_logbae_xxz(L, N, gamma, qn)
        assume(rep.converged)
        assert bae.bae_residual_xxz(rep.roots.values, L, gamma) < 1e-10


class TestBose:
    def test_free_particle(self):
        rep = bae.solve_bose(10.0, 1, 5.0, (3,))
        # N=1: no interaction, k = 2 pi (n - 1)/L exactly
        assert rep.converged
        assert abs(rep.roots.values[0].real - 2 * np.pi * 2 / 10.0) < 1e-14

    def test_strong_coupling_free_fermions(self):
        N, c, Lr = 3, 1e6, 10.0
        rep = bae.solve_bose(Lr, N, c, (1, 2, 3))
        kff = 2 * np.pi * (np.arange(1, N + 1) - (N + 1) / 2) / Lr
        assert np.max(np.abs(rep.roots.values.real - kff)) < 1e-4

    def test_ground_pair_real_and_opposite(self):
        rep = bae.solve_bose(10.0, 2, 1.0, (1, 2))
        k = rep.roots.values
        assert np.max(np.abs(k.imag)) == 0
        assert abs(k[0] + k[1]) < 1e-12
        assert bae.bose_residual(k, 10.0, 1.0) < 1e-10

    @pytest.mark.parametrize("c", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_roots_real_across_couplings(self, c, N):
        rep = bae.solve_bose(8.0, N, c, tuple(range(1, N + 1)))
        assert rep.converged
        assert np.max(np.abs(rep.roots.values.imag)) == 0
        assert bae.bose_residual(rep.roots.values, 8.0, c) < 1e-10

    def test_one_to_one_with_seeds(self):
        seen = []
        for ns in [(1, 2), (0, 2), (1, 3), (0, 3), (2, 3)]:
            rep = bae.solve_bose(9.0, 2, 0.7, ns)
            assert rep.converged
            for prev in seen:
                assert np.max(np.abs(prev - rep.roots.values)) > 1e-6
            seen.append(rep.roots.values)

    def test_energy_reported(self):
        rep = bae.solve_bose(10.0, 2, 1.0, (1, 2))
        assert abs(rep.params["energy"] - np.sum(rep.roots.values.real ** 2)) < 1e-12

    def test_repulsive_only(self):
        with pytest.raises(ValueError):
            bae.solve_bose(10.0, 2, -1.0, (1, 2))


class TestAdmissibility:
    def test_examples(self):
        ok, _ = bae.admissibility(np.array([0.5, -0.5]))
        assert ok
        flag, reasons = bae.admissibility(np.array([0.5j, 1.0]))
        assert not flag and any("i/2" in r for r in reasons)
        lam = 0.3 + 0.1j
        flag, reasons = bae.admissibility(np.array([lam, lam + 1j]))
        assert not flag and any("difference i" in r for r in reasons)


@pytest.fixture(scope="module")
def solutions():
    return bae.classify_two_magnon(8)


class TestTwoMagnon:

    def test_count_covers_all_but_singular_level(self, solutions):
        # binom(8,2) - binom(8,1) = 20 highest-weight levels; the momentum-pi
        # bound state has rapidities exactly at +-i/2 (inadmissible), so the
        # admissible classification finds the other 19
        assert bae.two_magnon_reference_count(8) == 20
        assert len(solutions) == 19
        kinds = [k for _, k in solutions]
        assert kinds.count("real-pair") == 15
        assert kinds.count("bound-pair") == 4

    def test_conjugation_invariance(self, solutions):
        for rs, _ in solutions:
            s1 = np.sort_complex(rs.values)
            s2 = np.sort_complex(np.conj(rs.values))
            assert np.max(np.abs(s1 - s2)) < 1e-9

    def test_all_residuals(self, solutions):
        for rs, _ in solutions:
            assert bae.bae_residual_xxx(rs.values, 8) < 1e-10
            assert bae.admissibility(rs.values)[0]

    def test_bound_pair_wavefunction_decays(self, solutions):
        L = 8
        for rs, kind in solutions:
            if kind != "bound-pair":
                continue
            amps = [abs(coordinate.offshell_wavefunction((1, 1 + d), rs.values, L))
                    for d in range(1, L // 2 + 1)]
            assert all(amps[i + 1] < amps[i] for i in range(len(amps) - 1))

    def test_energies_match_ed_hw_levels(self, solutions):
        # multiset subtraction: energies of the N=2 block minus the N=1 block
        L = 8
        w2 = list(np.round(ed.diagonalize(ed.build_xxx_hamiltonian(L, 1.0, 2)).eigenvalues, 9))
        w1 = ed.diagonalize(ed.build_xxx_hamiltonian(L, 1.0, 1)).eigenvalues
        for e in np.round(w1, 9):
            i = int(np.argmin(np.abs(np.array(w2) - e)))
            assert abs(w2[i] - e) < 1e-7
            w2.pop(i)
        assert len(w2) == 20
        found = sorted(coordinate.energy_xxx(rs.values).real for rs, _ in solutions)
        # every found energy is an hw level ...
        for e in found:
            assert min(abs(np.array(w2) - e)) < 1e-8
        # ... and the single uncovered level is the singular bound state at -J
        uncovered = [e for e in w2 if min(abs(np.array(found) - e)) > 1e-7]
        assert len(uncovered) == 1
        assert abs(uncovered[0] + 1.0) < 1e-9


# counts found by the earlier finite-difference bound-pair search; the
# analytic Jacobian must find at least these
TWO_MAGNON_FLOOR = {4: 1, 6: 8, 8: 19, 10: 32, 12: 50, 14: 72, 16: 97}


class TestTwoMagnonSizes:
    @pytest.mark.parametrize("L", sorted(TWO_MAGNON_FLOOR))
    def test_every_solution_is_an_ed_level(self, L):
        sols = bae.classify_two_magnon(L)
        assert len(sols) >= TWO_MAGNON_FLOOR[L]
        assert len(sols) < bae.two_magnon_reference_count(L)
        w = ed.diagonalize(ed.build_xxx_hamiltonian(L, 1.0, 2)).eigenvalues
        for rs, _ in sols:
            assert np.min(np.abs(w - coordinate.energy_xxx(rs).real)) < 1e-8

    def test_l12_bound_pair(self):
        # missed by the finite-difference search; E matches ED to 7e-16
        bound = [rs.values for rs, k in bae.classify_two_magnon(12) if k == "bound-pair"]
        hit = [v for v in bound if np.min(np.abs(v - (0.57693 + 0.50024j))) < 1e-5]
        assert len(hit) == 1
        assert abs(coordinate.energy_xxx(hit[0]).real + 0.749454) < 1e-6


class TestStopReason:
    def test_converged(self):
        rep = bae.solve_logbae(8, 4, (1, 2, 3, 4))
        assert rep.converged and rep.stop == "converged"

    def test_xxz_failure_is_explained(self):
        rep = bae.solve_logbae_xxz(40, 20, 1.0, tuple(range(3, 23)))
        assert not rep.converged
        assert rep.stop in bae.STOP_REASONS and rep.stop != "converged"

    @pytest.mark.parametrize("L, N, gamma, qn", [(6, 2, 2.2224080032046385, (1, 4)),
                                                 (40, 20, 1.0, tuple(range(3, 23)))])
    def test_xxz_run_away_is_not_singular(self, L, N, gamma, qn):
        # theta_1' is exactly 0 once th l rounds to 1, so the Jacobian row of
        # a root on its way out vanishes before the root reaches ROOT_ESCAPE
        rep = bae.solve_logbae_xxz(L, N, gamma, qn)
        assert not rep.converged and rep.stop == "run_away"
        assert np.max(np.abs(rep.roots.values)) > 19

    def test_rapidities_at_infinity(self):
        rep = bae.solve_logbae(8, 3, (1, 3, 5))
        assert not rep.converged and rep.stop == "run_away"


# ---- property tests of the vectorized layer at random sizes and roots

def _loop_residual_xxx(lam, L):
    res = 0.0
    for l in lam:
        lhs = np.exp(L * (np.log(l - 0.5j) - np.log(l + 0.5j)))
        rhs = np.exp(np.sum(np.log(l - lam - 1j) - np.log(l - lam + 1j)))
        res = max(res, abs(lhs + rhs))
    return res


def _loop_residual_xxz(lam, L, gamma):
    sh = np.sinh
    res = 0.0
    for l in lam:
        lhs = np.exp(L * (np.log(sh(l - 0.5j * gamma)) - np.log(sh(l + 0.5j * gamma))))
        rhs = np.exp(np.sum(np.log(sh(l - lam - 1j * gamma)) - np.log(sh(l - lam + 1j * gamma))))
        res = max(res, abs(lhs + rhs))
    return res


def _loop_residual_bose(k, L_ring, c):
    res = 0.0
    for kj in k:
        rhs = np.exp(np.sum(np.log(kj - k + 1j * c) - np.log(kj - k - 1j * c)))
        res = max(res, abs(np.exp(1j * kj * L_ring) + rhs))
    return res


def _roots(data, n, lo=-2.0, hi=2.0, imag=0.0):
    re = data.draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n))
    im = data.draw(st.lists(st.floats(-imag, imag), min_size=n, max_size=n)) if imag else [0.0] * n
    return np.array(re) + 1j * np.array(im)


def _assume_regular(*factors):
    """Keep draws away from zeros of the product factors, where log gives -inf."""
    for f in factors:
        assume(np.min(np.abs(f), initial=1.0) > 1e-3)


def _assert_fd_jacobian(F, J, x):
    Jfd = central_difference_jacobian(F, x)
    Ja = J(np.array(x, float))
    assert np.max(np.abs(Ja - Jfd)) < 1e-6 * max(1.0, np.max(np.abs(Ja)))


class TestVectorizedProperties:
    @settings(max_examples=40, deadline=None)
    @given(N=st.integers(1, 12), L=st.integers(4, 64), data=st.data())
    def test_logbae_jacobian(self, N, L, data):
        ns = np.arange(1, N + 1, dtype=float)
        _assert_fd_jacobian(*bae._chain_system(bae.XXX, L, ns), _roots(data, N).real)

    @settings(max_examples=40, deadline=None)
    @given(N=st.integers(1, 12), L=st.integers(4, 64), gamma=st.floats(0.2, 2.8),
           data=st.data())
    def test_xxz_jacobian(self, N, L, gamma, data):
        ns = np.arange(1, N + 1, dtype=float)
        _assert_fd_jacobian(*bae._chain_system(bae.xxz_kernel(gamma), L, ns),
                            _roots(data, N).real)

    @settings(max_examples=40, deadline=None)
    @given(N=st.integers(1, 12), ring=st.floats(2.0, 40.0), c=st.floats(0.1, 10.0),
           data=st.data())
    def test_bose_jacobian(self, N, ring, c, data):
        target = 2 * np.pi * (np.arange(1, N + 1) - (N + 1) / 2)
        _assert_fd_jacobian(*bae._bose_system(ring, c, target),
                            _roots(data, N, -3.0, 3.0).real)

    @settings(max_examples=40, deadline=None)
    @given(L=st.sampled_from(range(4, 17, 2)), lr=st.floats(-3.0, 3.0),
           d=st.floats(0.1, 1.5))
    def test_bound_pair_jacobian(self, L, lr, d):
        # the grid search's system, kept as a test reference; at l = i/2 (the
        # singular pair) G = 0, so _damped_newton stops before evaluating J,
        # whose p * (1/(l - i/2) - ...) form is 0 * inf there
        _assume_regular(lr + 1j * d - 0.5j)
        _assert_fd_jacobian(*loop_references.bound_pair_system(L), [lr, d])

    @settings(max_examples=40, deadline=None)
    @given(L=st.sampled_from(range(4, 17, 2)), m=st.integers(1, 7), v=st.floats(0.05, 3.0))
    def test_momentum_jacobian(self, L, m, v):
        assume(m < L / 2)
        c, s = np.array([np.cos(np.pi * m / L)]), np.array([1.0 if m % 2 else -1.0])
        _assert_fd_jacobian(*bae._momentum_system(L, c, s), [v])

    @settings(max_examples=40, deadline=None)
    @given(N=st.integers(0, 10), L=st.integers(2, 40), data=st.data())
    def test_xxx_residual_matches_loop(self, N, L, data):
        lam = _roots(data, N, imag=1.5)
        _assume_regular(lam - 0.5j, lam + 0.5j)
        pairs = [abs(a - b) for i, a in enumerate(lam) for b in lam[i + 1:]]
        assume(min(pairs, default=1.0) > 1e-3)
        d = lam[:, None] - lam[None, :]
        _assume_regular(d - 1j, d + 1j)
        assert np.isclose(bae._pairwise_min_dist(lam), min(pairs, default=np.inf), rtol=1e-14)
        ref = _loop_residual_xxx(lam, L)
        assert abs(bae.bae_residual_xxx(lam, L) - ref) <= 1e-10 * max(1.0, ref)

    @settings(max_examples=40, deadline=None)
    @given(N=st.integers(0, 10), L=st.integers(2, 40), gamma=st.floats(0.2, 2.8),
           data=st.data())
    def test_xxz_residual_matches_loop(self, N, L, gamma, data):
        lam = _roots(data, N, imag=1.0)
        _assume_regular(np.sinh(lam - 0.5j * gamma), np.sinh(lam + 0.5j * gamma))
        # coincident roots raise, as for XXX (TestChainKernel::test_xxz_guards)
        assume(bae._pairwise_min_dist(lam) >= 1e-12)
        d = lam[:, None] - lam[None, :]
        _assume_regular(np.sinh(d - 1j * gamma), np.sinh(d + 1j * gamma))
        ref = _loop_residual_xxz(lam, L, gamma)
        assert abs(bae.bae_residual_xxz(lam, L, gamma) - ref) <= 1e-10 * max(1.0, ref)

    @settings(max_examples=40, deadline=None)
    @given(N=st.integers(0, 10), ring=st.floats(2.0, 40.0), c=st.floats(0.1, 10.0),
           data=st.data())
    def test_bose_residual_matches_loop(self, N, ring, c, data):
        k = _roots(data, N, -3.0, 3.0, imag=0.5)
        d = k[:, None] - k[None, :]
        _assume_regular(d + 1j * c, d - 1j * c)
        ref = _loop_residual_bose(k, ring, c)
        assert abs(bae.bose_residual(k, ring, c) - ref) <= 1e-10 * max(1.0, ref)


# ---- the exponential-form factors in real arithmetic, in row blocks

def _scaled_sh(x):
    """|sh x|/ch(Re x): how far x is from a zero of sh, on the scale of sh."""
    th = np.tanh(x.real)
    return np.sqrt(th ** 2 + np.sin(x.imag) ** 2 * (1 - th ** 2))


class TestRealArithmeticFactors:
    """ChainKernel.log_ratio, log f(x - it) - log f(x + it) from Re x and
    Im x, against complex arithmetic on f; the pole guard against complex
    logs; the blocked residual against the loops, and its memory."""

    @settings(max_examples=200, deadline=None)
    @given(xr=st.floats(-3.0, 3.0), xi=st.floats(-1.5, 1.5), t=st.floats(0.1, 2.8))
    def test_rational_ratio(self, xr, xi, t):
        x = complex(xr, xi)
        assume(min(abs(x - 1j * t), abs(x + 1j * t)) > 1e-3)
        with np.errstate(over="raise", invalid="raise"):
            z = bae.XXX.log_ratio(np.float64(xr), np.float64(xi), t)
        ref = (x - 1j * t) / (x + 1j * t)
        assert abs(np.exp(z) - ref) <= 1e-14 * abs(ref)

    @settings(max_examples=200, deadline=None)
    @given(xr=st.one_of(st.floats(-3.0, 3.0), st.floats(-800.0, 800.0)),
           xi=st.floats(-1.5, 1.5), t=st.floats(0.1, 2.8))
    def test_sh_ratio(self, xr, xi, t):
        x = complex(xr, xi)
        # near a zero of sh the complex-log reference loses digits of its own
        assume(min(_scaled_sh(x - 1j * t), _scaled_sh(x + 1j * t)) > 0.05)
        with np.errstate(over="raise", invalid="raise"):
            z = bae.xxz_kernel(1.0).log_ratio(np.float64(xr), np.float64(xi), t)
            ref = np.exp(loop_references.log_sh(x - 1j * t) - loop_references.log_sh(x + 1j * t))
        assert abs(np.exp(z) - ref) <= 1e-14 * abs(ref)

    @pytest.mark.parametrize("chain", [bae.XXX, bae.xxz_kernel(0.9)], ids=["XXX", "XXZ"])
    def test_self_term_is_minus_one(self, chain):
        # the k = j factor f(-eta)/f(eta) of the module docstring
        z = chain.log_ratio(np.zeros(1), np.zeros(1), chain.eta.imag)
        assert z[0].real == 0.0 and z[0].imag == -np.pi

    @pytest.mark.parametrize("roots", [[1e200, 0.3], [0.3 + 1e200j, 0.1], [1e300, -1e300, 2.0]])
    def test_rational_residuals_of_far_roots_match_loops(self, roots):
        # |x|^2 overflows past |x| ~ 1e154; capped, the factor is the 1 it rounds to
        lam = np.array(roots, complex)
        with np.errstate(over="ignore"):
            res, bose = bae.bae_residual_xxx(lam, 8), bae.bose_residual(lam, 8.0, 1.0)
        assert abs(res - _loop_residual_xxx(lam, 8)) <= 1e-10
        assert abs(bose - _loop_residual_bose(lam, 8.0, 1.0)) <= 1e-10

    @pytest.mark.parametrize("gamma", [None, 0.3, 0.9, np.pi / 2, 2.7])
    def test_pole_guard_matches_complex_logs(self, gamma):
        chain = bae.XXX if gamma is None else bae.xxz_kernel(gamma)
        log_f = np.log if gamma is None else loop_references.log_sh
        for pole in (chain.eta / 2, -chain.eta / 2):
            # l = pole + r e^{i phi} rounds r by up to 1e-4 of it, near Im l = 1/2
            for r in (1e-12 * (1 - 1e-3), 1e-12, 1e-12 * (1 + 1e-3)):
                for phi in np.linspace(0.1, 0.1 + 2 * np.pi, 12, endpoint=False):
                    lam = [pole + r * np.exp(1j * phi), 0.7]
                    expect = loop_references.pole_guard_raises(lam, chain.eta, log_f)
                    if r != 1e-12:
                        assert expect == (r < 1e-12)
                    try:
                        chain.off_poles(lam)
                        raised = False
                    except ValueError:
                        raised = True
                    assert raised == expect
            # on the real axis the distance 1e-12 is exact and is not within
            # it; log_sh rounds log |sh 1e-12| 3.6e-15 below log 1e-12
            for r in (1e-12, -1e-12):
                chain.off_poles([pole + r, 0.7])

    @pytest.mark.parametrize("gamma", [None, 0.9])
    def test_multi_block_residual_matches_loop(self, gamma):
        rng = np.random.default_rng(300)
        lam = rng.uniform(-10.0, 10.0, 300) + 1j * rng.uniform(-0.1, 0.1, 300)
        assert 300 > bae.BLOCK // 300  # rows per block
        if gamma is None:
            res, ref = bae.bae_residual_xxx(lam, 40), _loop_residual_xxx(lam, 40)
        else:
            res, ref = bae.bae_residual_xxz(lam, 40, gamma), _loop_residual_xxz(lam, 40, gamma)
        assert abs(res - ref) <= 1e-10 * max(1.0, ref)

    def test_stacked_blocks_match_single_sets(self):
        rng = np.random.default_rng(3)
        lam = rng.uniform(-5.0, 5.0, (3, 100)) + 1j * rng.uniform(-0.2, 0.2, (3, 100))
        stacked = bae._chain_residuals(bae.XXX, lam, 24)
        assert stacked.shape == (3,)
        for b in range(3):
            assert stacked[b] == bae._chain_residuals(bae.XXX, lam[b], 24)

    @pytest.mark.parametrize("stack", [False, True])
    def test_residual_builds_no_n_by_n_array(self, stack):
        # 2048 roots: one complex N x N array is 67 MB; the unblocked
        # residual peaked at 268 MB, the blocked one at 0.8 MB, and as 16
        # stacked sets of 128 roots at 0.8 MB too
        lam = np.linspace(-30.0, 30.0, 2048)
        tracemalloc.start()
        try:
            if stack:
                bae._chain_residuals(bae.XXX, lam.reshape(16, 128).astype(complex), 4096)
            else:
                bae.bae_residual_xxx(lam, 4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6


# ---- the lane-batched Newton driver against single solves and the serial scan

TWO_MAGNON_COUNTS = {4: 1, 6: 8, 8: 19, 10: 32, 12: 51, 14: 72, 16: 97}


@pytest.mark.parametrize("L", sorted(TWO_MAGNON_COUNTS))
def test_two_magnon_matches_serial_scan(L):
    # real pairs in order; bound pairs as a set, sorted by Re l: the grid
    # search stops at |G| < 1e-13, up to 2.8e-14 (L = 16) from the exact pair
    sols = bae.classify_two_magnon(L)
    ref = loop_references.classify_two_magnon(L)
    assert len(sols) == len(ref) == TWO_MAGNON_COUNTS[L]
    assert [k for _, k in sols] == [k for _, k in ref]
    real = [rs.values for rs, k in sols if k == "real-pair"]
    for a, b in zip(real, [rr.values for rr, k in ref if k == "real-pair"]):
        assert np.max(np.abs(a - b)) <= 1e-14
    bound = np.array([rs.values for rs, k in sols if k == "bound-pair"]).reshape(-1, 2)
    grid = np.array([rr.values for rr, k in ref if k == "bound-pair"]).reshape(-1, 2)
    assert np.all(np.diff(bound[:, 0].real) > 0)
    grid = grid[np.argsort(grid[:, 0].real)]
    assert np.max(np.abs(bound - grid), initial=0.0) <= 1e-13


def _momentum_oracle(L, mpmath):
    """Per momentum index m, 0 < m < L/2: None where the momentum equation
    has no root v > 0, else the exact pair (x, d) of l = x +- i d as mpf,
    from the root of c ch(Lv/2) = ch((L/2 - 1)v) (even m) or
    c sh(Lv/2) = sh((L/2 - 1)v) (odd m), c = cos(pi m/L), at 50 digits."""
    out = {}
    with mpmath.workdps(50):
        for m in range(1, (L + 1) // 2):
            h = mpmath.pi * m / L
            c, f = mpmath.cos(h), mpmath.cosh if m % 2 == 0 else mpmath.sinh

            def G(v):
                return c * f(L * v / 2) - f((L / 2 - 1) * v)
            grid = [mpmath.mpf(k) / 20 for k in range(1, 1201)]  # v in (0, 60]
            if all(G(v) > 0 for v in grid):
                out[m] = None
                continue
            lo = max(v for v in grid if G(v) < 0)
            v = mpmath.findroot(G, (lo, lo + mpmath.mpf(1) / 20), solver="anderson")
            assert lo <= v <= lo + 0.05 and abs(G(v)) < mpmath.mpf(10) ** -45
            den = mpmath.cosh(v) - c
            out[m] = (mpmath.sin(h) / (2 * den), mpmath.sinh(v) / (2 * den))
    return out


class TestMomentumOracle:
    """_bound_pairs and classify_two_magnon against the momentum equation
    solved to 50 digits."""

    @pytest.mark.parametrize("L", sorted(TWO_MAGNON_COUNTS))
    def test_pairs_are_the_rounded_exact_ones(self, L):
        mpmath = pytest.importorskip("mpmath")
        exact = _momentum_oracle(L, mpmath)
        # odd m with c L >= L - 2 has no root, and every other m one
        for m, pair in exact.items():
            assert (pair is None) == (m % 2 == 1 and np.cos(np.pi * m / L) * L >= L - 2)
        xd = sorted((sg * float(p[0]), float(p[1])) for p in exact.values() if p is not None
                    for sg in (-1, 1))
        pairs = bae._bound_pairs(L)
        assert len(pairs) == len(xd)
        x, d = pairs[:, 0].real, pairs[:, 0].imag
        assert np.array_equal(pairs, np.conj(pairs[:, ::-1]))
        rounded = np.array([[xr + 1j * dr, xr - 1j * dr] for xr, dr in xd]).reshape(-1, 2)
        xr, dr = rounded[:, 0].real, rounded[:, 0].imag
        # d correctly rounded where the gate is at its floor, x within 4 ulp
        narrow = np.abs(2 * dr - 1) < 1e-2
        assert np.array_equal(d[narrow], dr[narrow])
        assert np.all(np.abs(x - xr) <= 4 * np.spacing(np.abs(xr)))
        assert np.all(np.abs(d - dr) <= 4 * np.spacing(dr))
        # the kept bound pairs are the rounded exact pairs that are admissible
        # and pass the exp-form gate
        pole, coincident, diff_i = bae._inadmissible(rounded, bae.EQUALITY_TOL)
        keep = ~(pole.any(axis=-1) | coincident.any(axis=(-2, -1)) | diff_i.any(axis=(-2, -1)))
        keep &= ~(bae._chain_residuals(bae.XXX, rounded, L) > 1e-10)
        sols = bae.classify_two_magnon(L)
        kept = np.array([rs.values for rs, k in sols if k == "bound-pair"]).reshape(-1, 2)
        assert np.array_equal(kept, pairs[keep])
        assert len(sols) == TWO_MAGNON_COUNTS[L]


@pytest.mark.parametrize("L", sorted(TWO_MAGNON_COUNTS))
def test_momentum_stack_completes_the_sector(L):
    # real pairs and every momentum-stack pair, kept or dropped, are all the
    # highest-weight levels but the singular pair's; the dropped pairs are
    # genuine levels that fail only the exp-form gate
    sols = bae.classify_two_magnon(L)
    real = [rs.values for rs, k in sols if k == "real-pair"]
    kept = [rs.values for rs, k in sols if k == "bound-pair"]
    pairs = bae._bound_pairs(L)
    assert len(real) + len(pairs) == comb(L, 2) - L - 1
    dropped = [p for p in pairs if not any(np.array_equal(p, q) for q in kept)]
    assert len(dropped) == len(pairs) - len(kept)
    w = ed.diagonalize(ed.build_xxx_hamiltonian(L, 1.0, 2)).eigenvalues
    for p in dropped:
        e = coordinate.energy_xxx(p).real
        assert np.min(np.abs(w - e)) <= 1e-12 * abs(e)


@pytest.mark.parametrize("L", sorted(TWO_MAGNON_COUNTS))
def test_two_magnon_scan_is_the_admissible_range(L):
    # on the loop reference's wider scan, the lanes with |I_j| <= (L - 3)/2,
    # the ones classify_two_magnon solves, converge and all others run away
    qn = range(-L // 2 + 1, L // 2 + 4)
    ns = np.array([(n1, n2) for n1 in qn for n2 in qn if n2 > n1], float)
    I = ns - bae._qnum_offset(L, 2)
    lam, _, _, stop = bae._damped_newton(*bae._chain_system(bae.XXX, L, ns),
                                         bae.XXX.seeds[0](I, L))
    admissible = np.all(np.abs(I) <= (L - 3) / 2, axis=-1)
    assert np.array_equal(stop == "converged", admissible)
    assert np.all(stop[~admissible] == "run_away")
    # classify_two_magnon screens only the bound pairs: the converged real
    # pairs are admissible and at least 1e-3 apart
    real = np.sort(lam[admissible], axis=-1)
    assert all(bae.admissibility(pair)[0] for pair in real)
    gap = np.max(np.abs(real[:, None] - real[None, :]), axis=-1)
    assert np.min(gap[np.triu_indices(len(real), 1)], initial=np.inf) >= 1e-3


def _same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _lane_subset(data, B):
    return np.flatnonzero(data.draw(st.lists(st.booleans(), min_size=B, max_size=B)))


@settings(max_examples=60, deadline=None)
@given(L=st.integers(2, 12), N=st.integers(1, 5), B=st.integers(1, 5),
       u=st.floats(0.2, 4.0), data=st.data())
def test_liebwu_system_writes_the_block_bytes(L, N, B, u, data):
    # per-lane quantum numbers on a (B, N + M) stack and a subset of its
    # lanes, and shared ones on one (N + M,) input
    M = data.draw(st.integers(0, N // 2))
    ns, ss = _increasing_qnums(data, B, N, -3, 3), _increasing_qnums(data, B, M, -2, 2)
    z = np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=B * (N + M),
                                    max_size=B * (N + M)))).reshape(B, N + M)
    lanes = _lane_subset(data, B)
    for (F, J), (Fr, Jr), args in [
            (hubbard._liebwu_system(L, N, M, u, ns, ss),
             loop_references.liebwu_system(L, N, M, u, ns, ss), [(z,), (z[lanes], lanes)]),
            (hubbard._liebwu_system(L, N, M, u, ns[0], ss[0]),
             loop_references.liebwu_system(L, N, M, u, ns[0], ss[0]), [(z[0],)])]:
        for a in args:
            assert _same_bytes(F(*a), Fr(*a)) and _same_bytes(J(*a), Jr(*a))


def _with_stacked_newton(monkeypatch):
    """Swap in the stacked Lieb-Wu system and the driver that gathers
    tolerances and per-lane maxima on every step."""
    monkeypatch.setattr(hubbard, "_liebwu_system", loop_references.liebwu_system)
    for module in (bae, hubbard):
        monkeypatch.setattr(module, "_damped_newton", loop_references.damped_newton)


@pytest.mark.parametrize("L", sorted(TWO_MAGNON_COUNTS))
def test_two_magnon_bytes_match_stacked_newton(L, monkeypatch):
    sols = bae.classify_two_magnon(L)
    _with_stacked_newton(monkeypatch)
    ref = bae.classify_two_magnon(L)
    assert [k for _, k in sols] == [k for _, k in ref]
    assert all(_same_bytes(rs.values, rr.values) for (rs, _), (rr, _) in zip(sols, ref))


# (L, N, M, u, charge numbers, spin numbers): M = 0, 1, 2, weak and strong
# coupling, and a spin rapidity that runs away (unconverged)
LIEBWU_BATTERY = [(4, 2, 0, 1.0, (-1, 0), ()), (6, 2, 1, 1.0, (-1, 0), (0,)),
                  (8, 4, 1, 2.0, (-1, 0, 1, 2), (0,)), (8, 3, 1, 0.3, (-1, 0, 1), (0,)),
                  (6, 4, 2, 1.5, (-2, -1, 0, 1), (0, 1)), (32, 6, 1, 0.7, (-3, -2, -1, 0, 1, 2), (0,)),
                  (12, 5, 2, 4.0, (-2, -1, 0, 1, 2), (-1, 1)), (6, 2, 1, 1.0, (-1, 0), (2,))]


def test_liebwu_bytes_match_stacked_newton(monkeypatch):
    runs = [hubbard.solve_liebwu(*case) for case in LIEBWU_BATTERY]
    _with_stacked_newton(monkeypatch)
    for case, (roots, res, ok) in zip(LIEBWU_BATTERY, runs):
        ref, ref_res, ref_ok = hubbard.solve_liebwu(*case)
        assert (res, ok) == (ref_res, ref_ok)
        assert _same_bytes(roots.k, ref.k) and _same_bytes(roots.lam, ref.lam)
    assert not all(ok for _, _, ok in runs)


def test_damped_newton_bytes_match_the_gathering_driver():
    # the grid search's bound-pair stacks from random seeds at every even L,
    # the momentum stacks and the wide real-pair scans (converged and
    # run-away lanes), with one tolerance per lane; and 1/x, whose step
    # doubles x, next to a nan seed (stalled)
    rng = np.random.default_rng(11)
    calls = []
    for L in range(4, 17, 2):
        z0 = np.stack([rng.uniform(-4, 4, 40), rng.uniform(0.05, 1.5, 40)], axis=-1)
        calls.append((loop_references.bound_pair_system(L), z0, dict(tol=1e-13, max_iter=100)))
        calls.append((loop_references.bound_pair_system(L), z0[0], dict(tol=1e-13, max_iter=100)))
        c = np.cos(np.pi * np.arange(1, L // 2) / L)[:, None]
        s = np.where(np.arange(1, L // 2) % 2, 1.0, -1.0)[:, None]
        calls.append((bae._momentum_system(L, c, s), rng.uniform(0.01, 2.0, (len(c), 1)),
                      dict(tol=1e-15)))
        qn = range(-L // 2 + 1, L // 2 + 4)
        ns = np.array([(n1, n2) for n1 in qn for n2 in qn if n2 > n1], float)
        calls.append((bae._chain_system(bae.XXX, L, ns),
                      bae.XXX.seeds[0](ns - bae._qnum_offset(L, 2), L),
                      dict(tol=np.geomspace(1e-14, 1e-10, len(ns)))))

    def inverse(x, lanes=None):
        return 1 / x
    calls.append(((inverse, lambda x, lanes=None: -1 / x[..., None] ** 2),
                  np.array([[1e4], [np.nan], [3.0]]), {}))
    for system, x0, kw in calls:
        with np.errstate(all="ignore"):
            got = bae._damped_newton(*system, x0, **kw)
            ref = loop_references.damped_newton(*system, x0, **kw)
        assert all(_same_bytes(a, b) for a, b in zip(got, ref))


def _assert_lanes_match_single(system, params, X0, **kw):
    """system(*params) with per-lane params (B, .) solved as one stack from X0
    (B, n), against system(*row b of params) solved from X0[b]."""
    X, res, iters, stop = bae._damped_newton(*system(*params), X0, **kw)
    assert X.shape == X0.shape and res.shape == iters.shape == stop.shape == (len(X0),)
    for b, x0 in enumerate(X0):
        x1, r1, it1, s1 = bae._damped_newton(*system(*(p[b] for p in params)), x0, **kw)
        assert (iters[b], stop[b]) == (it1, s1)
        assert np.array_equal(X[b], x1) and res[b] == r1


def _increasing_qnums(data, B, N, lo, hi):
    return np.array([sorted(data.draw(st.lists(st.integers(lo, hi), min_size=N, max_size=N,
                                               unique=True))) for _ in range(B)], float)


class TestLaneBatchedNewton:
    """Each lane of a stack ends exactly as its own single-lane solve: the
    single call passes the lane's row of the per-lane parameters."""

    @settings(max_examples=25, deadline=None)
    @given(L=st.integers(6, 40), N=st.integers(1, 3), B=st.integers(1, 6), data=st.data())
    def test_logbae_lanes(self, L, N, B, data):
        ns = _increasing_qnums(data, B, N, -L // 2, L // 2 + 3)
        _assert_lanes_match_single(lambda q: bae._chain_system(bae.XXX, L, q), (ns,),
                                   bae.XXX.seeds[0](ns - bae._qnum_offset(L, N), L))

    @settings(max_examples=25, deadline=None)
    @given(L=st.integers(6, 40), N=st.integers(1, 4), B=st.integers(1, 6),
           gamma=st.floats(0.2, 2.8), data=st.data())
    def test_xxz_lanes(self, L, N, B, gamma, data):
        ns = _increasing_qnums(data, B, N, -2, L // 2 + 2)
        chain = bae.xxz_kernel(gamma)
        _assert_lanes_match_single(lambda q: bae._chain_system(chain, L, q), (ns,),
                                   0.3 * (ns - (N + 1) / 2))

    @settings(max_examples=25, deadline=None)
    @given(N=st.integers(1, 5), B=st.integers(1, 6), ring=st.floats(2.0, 20.0),
           c=st.floats(0.1, 10.0), data=st.data())
    def test_bose_lanes(self, N, B, ring, c, data):
        target = 2 * np.pi * (_increasing_qnums(data, B, N, -3, 6) - (N + 1) / 2)
        _assert_lanes_match_single(lambda t: bae._bose_system(ring, c, t), (target,),
                                   target / ring)

    @settings(max_examples=25, deadline=None)
    @given(L=st.integers(4, 12), N=st.integers(1, 4), B=st.integers(1, 5),
           u=st.floats(0.3, 4.0), data=st.data())
    def test_liebwu_lanes(self, L, N, B, u, data):
        M = data.draw(st.integers(0, N // 2))
        ns = _increasing_qnums(data, B, N, -3, 3)
        ss = _increasing_qnums(data, B, M, -1, 1)
        z0 = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=B * (N + M),
                                         max_size=B * (N + M)))).reshape(B, N + M)
        _assert_lanes_match_single(lambda n, s: hubbard._liebwu_system(L, N, M, u, n, s),
                                   (ns, ss), z0, max_iter=300)

    @settings(max_examples=25, deadline=None)
    @given(L=st.sampled_from(range(4, 17, 2)), B=st.integers(1, 8), data=st.data())
    def test_bound_pair_lanes(self, L, B, data):
        lr = data.draw(st.lists(st.floats(-4.0, 4.0), min_size=B, max_size=B))
        d = data.draw(st.lists(st.floats(0.1, 1.5), min_size=B, max_size=B))
        _assert_lanes_match_single(lambda: loop_references.bound_pair_system(L), (),
                                   np.stack([lr, d], axis=-1), tol=1e-13, max_iter=100)

    def test_mixed_batch_ends_in_every_stop_reason(self):
        # per lane: x - 1 (converges); x^2 + 1 from 0 (J = 0, singular);
        # x^2 + 1 with the Jacobian's sign flipped (every step uphill,
        # stalled); 1/x from 1e4 (the step doubles x: run-away); 1/x from 1
        # (still below ROOT_ESCAPE after max_iter); x - 2e4 (converges beyond
        # ROOT_ESCAPE/100: run-away); x - 1 with J = 2^-49 (only the 50th
        # and last trial step, t = 2^-49, lowers |F|: converges) and with
        # J = 2^-50 (that would take a 51st: stalled)
        def system(kind):
            def F(x, lanes=None):
                k = bae._per_lane(kind, lanes)
                with np.errstate(divide="ignore"):
                    return np.select([k == 0, k <= 2, k == 3, k == 4],
                                     [x - 1, x ** 2 + 1, 1 / x, x - 2e4], x - 1)

            def J(x, lanes=None):
                k = bae._per_lane(kind, lanes)
                with np.errstate(divide="ignore"):
                    return np.select([k == 0, k == 1, k == 2, k == 3, k == 4, k == 5],
                                     [np.ones_like(x), 2 * x, -2 * x, -1 / x ** 2,
                                      np.ones_like(x), np.full_like(x, 2.0 ** -49)],
                                     2.0 ** -50)[..., None]
            return F, J

        kind = np.array([[0], [1], [2], [3], [3], [4], [5], [6]])
        x0 = np.array([[0.0], [0.0], [1.0], [1e4], [1.0], [0.0], [0.0], [0.0]])
        X, res, iters, stop = bae._damped_newton(*system(kind), x0, max_iter=10)
        assert list(stop) == ["converged", "singular", "stalled", "run_away", "max_iter",
                              "run_away", "converged", "stalled"]
        assert set(stop) == set(bae.STOP_REASONS)
        assert list(iters) == [1, 1, 1, 7, 10, 1, 1, 1]
        assert X[0, 0] == 1.0 and X[1, 0] == 0.0 and X[2, 0] == 1.0 and X[3, 0] > bae.ROOT_ESCAPE
        assert X[4, 0] == 2.0 ** 10 and X[5, 0] == 2e4 and X[6, 0] == 1.0 and X[7, 0] == 0.0
        _assert_lanes_match_single(system, (kind,), x0, max_iter=10)

    def test_empty_stack(self):
        F, J = loop_references.bound_pair_system(8)
        X, res, iters, stop = bae._damped_newton(F, J, np.empty((0, 2)))
        assert X.shape == (0, 2) and len(res) == len(iters) == len(stop) == 0

    def test_tolerance_per_lane(self):
        # two copies of one system: the lane with tol 0 never converges and
        # halts where no halved step lowers |F|, the other stops at its floor
        F, J = bae._chain_system(bae.XXX, 8192, np.tile(np.arange(1.0, 5.0), (2, 1)))
        x0 = bae.XXX.seeds[0](np.tile(np.arange(1.0, 5.0) - 2.5, (2, 1)), 8192)
        tol = np.array([0.0, bae._stop_floor(8192)])
        X, res, iters, stop = bae._damped_newton(F, J, x0, tol=tol)
        assert stop[0] != "converged" and stop[1] == "converged" and iters[0] > iters[1]
        F1, J1 = bae._chain_system(bae.XXX, 8192, np.arange(1.0, 5.0))
        for b in range(2):
            x1, r1, it1, s1 = bae._damped_newton(F1, J1, x0[b], tol=tol[b])
            assert (iters[b], stop[b], res[b]) == (it1, s1, r1) and np.array_equal(X[b], x1)


def _ground_lanes(Ls):
    return [L // 2 for L in Ls], [range(1, L // 2 + 1) for L in Ls]


def _assert_stack_matches_single(chain, Ls, Ns, qnums):
    """_solve_chains over the lanes against one _solve_chain per lane: the same
    stops and iteration counts, roots within 1e-13, and bitwise equal where a
    lane is alone in its stack.  No stack of two or more lanes holds more
    than BLOCK Jacobian entries."""
    shapes, newton = [], bae._damped_newton

    def spy(F, J, x0, **kw):
        shapes.append(np.shape(x0))
        return newton(F, J, x0, **kw)
    bae._damped_newton = spy
    try:
        reps = bae._solve_chains(chain, Ls, Ns, qnums)
    finally:
        bae._damped_newton = newton
    assert all(B * n * n <= bae.BLOCK for B, n in shapes if B > 1)
    alone = {s[0] for s in bae._lane_stacks(Ns) if len(s) == 1}
    for i, (L, N, q, rep) in enumerate(zip(Ls, Ns, qnums, reps)):
        one = bae._solve_chain(chain, L, N, q)
        assert (rep.stop, rep.iterations, rep.converged) == (one.stop, one.iterations,
                                                              one.converged)
        assert rep.roots.L == L and rep.qnums == one.qnums and rep.params == one.params
        assert np.max(np.abs(rep.roots.values - one.roots.values), initial=0.0) <= 1e-13
        if i in alone:
            assert np.array_equal(rep.roots.values, one.roots.values)
            assert rep.residual == one.residual


class TestStackedChainSolves:
    """Chain solves of different L and N as lanes of few stacks."""

    @settings(max_examples=25, deadline=None)
    @given(Ls=st.lists(st.integers(2, 64).map(lambda h: 2 * h), min_size=1, max_size=10))
    def test_xxx_ground_states(self, Ls):
        _assert_stack_matches_single(bae.XXX, Ls, *_ground_lanes(Ls))

    @settings(max_examples=25, deadline=None)
    @given(Ls=st.lists(st.integers(2, 32).map(lambda h: 2 * h), min_size=1, max_size=10),
           gamma=st.floats(0.3, 1.5))
    def test_xxz_ground_states(self, Ls, gamma):
        _assert_stack_matches_single(bae.xxz_kernel(gamma), Ls, *_ground_lanes(Ls))

    @settings(max_examples=25, deadline=None)
    @given(lanes=st.lists(st.tuples(st.integers(4, 40), st.integers(0, 8)), min_size=1,
                          max_size=8))
    def test_xxx_lowest_states_of_any_sector(self, lanes):
        # odd L too, and N = 0: the lowest state of each (L, N) sector
        Ls = [L for L, _ in lanes]
        Ns = [min(N, L // 2) for L, N in lanes]
        _assert_stack_matches_single(bae.XXX, Ls, Ns, [range(1, N + 1) for N in Ns])

    def test_one_lane_stack_is_the_single_solve(self):
        # N = 100 > sqrt(BLOCK / 2): alone in its stack next to small lanes
        Ls = [16, 200, 12]
        assert bae._lane_stacks(_ground_lanes(Ls)[0]) == [[2, 0], [1]]
        rep = bae._solve_chains(bae.XXX, Ls, *_ground_lanes(Ls))[1]
        one = bae.solve_logbae(200, 100, range(1, 101))
        assert rep.roots.values.tobytes() == one.roots.values.tobytes()
        assert (rep.residual, rep.iterations, rep.stop) == (one.residual, one.iterations,
                                                            one.stop)

    def test_lanes_stop_at_their_own_floors(self, monkeypatch):
        tols, newton = [], bae._damped_newton

        def spy(F, J, x0, tol=bae.TOL, **kw):
            tols.append(np.copy(tol))
            return newton(F, J, x0, tol=tol, **kw)
        monkeypatch.setattr(bae, "_damped_newton", spy)
        reps = bae._solve_chains(bae.XXX, [400, 8192], [4, 4], [range(1, 5)] * 2)
        floors = [bae._stop_floor(400), bae._stop_floor(8192)]
        assert bae.TOL < floors[0] < floors[1]
        assert len(tols) == 1 and list(tols[0]) == floors
        monkeypatch.undo()
        for L, floor, rep in zip((400, 8192), floors, reps):
            one = bae.solve_logbae(L, 4, (1, 2, 3, 4))
            assert rep.converged and rep.residual < floor
            assert np.array_equal(rep.roots.values, one.roots.values)
            assert (rep.residual, rep.iterations) == (one.residual, one.iterations)

    @settings(max_examples=200, deadline=None)
    @given(counts=st.lists(st.integers(0, 200), max_size=40))
    def test_stacks_stay_within_block(self, counts):
        stacks = bae._lane_stacks(counts)
        assert sorted(i for s in stacks for i in s) == list(range(len(counts)))
        assert [counts[i] for s in stacks for i in s] == sorted(counts)
        for s in stacks:
            assert len(s) == 1 or len(s) * max(counts[i] for i in s) ** 2 <= bae.BLOCK

    def test_every_lane_is_checked_before_any_solve(self, monkeypatch):
        monkeypatch.setattr(bae, "_damped_newton", None)  # a solve would raise TypeError
        with pytest.raises(ValueError, match="N <= L/2"):
            bae._solve_chains(bae.XXX, [8, 8], [2, 5], [(1, 2), (1, 2, 3, 4, 5)])
        with pytest.raises(ValueError, match="strictly increasing"):
            bae._solve_chains(bae.XXX, [8, 8], [2, 2], [(1, 2), (2, 1)])
        assert bae._solve_chains(bae.XXX, [], [], []) == []


_ROOT_POOL = [0.5j, -0.5j, 0.3, 0.3 + 1j, 0.3 - 1j, 0.3 + 1e-9, -0.7 + 0.2j, -0.7 + 1.2j,
              -0.7 - 0.8j, 2.0, 0.5j + 1e-9]


class TestAdmissibilityVectorized:
    @settings(max_examples=200, deadline=None)
    @given(roots=st.lists(st.sampled_from(_ROOT_POOL), max_size=6),
           tol=st.sampled_from([bae.EQUALITY_TOL, 1e-12, 0.3, 2.0]))
    def test_matches_loop_form(self, roots, tol):
        lam = np.array(roots, complex)
        assert bae.admissibility(lam, tol) == loop_references.admissibility(lam, tol)


class TestIntegerQuantumNumbers:
    @pytest.mark.parametrize("solve", [
        lambda q: bae.solve_logbae(8, 2, q),
        lambda q: bae.solve_logbae_xxz(8, 2, 0.7, q),
        lambda q: bae.solve_bose(8.0, 2, 1.0, q)])
    @pytest.mark.parametrize("qnums", [(0.5, 1.5), (1, 2.5), (1, np.nan)])
    def test_non_integer_is_rejected(self, solve, qnums):
        with pytest.raises(ValueError, match="integers"):
            solve(qnums)

    @pytest.mark.parametrize("solve", [
        lambda q: bae.solve_logbae_xxz(8, 3, 0.7, q),
        lambda q: bae.solve_bose(8.0, 3, 1.0, q)])
    @pytest.mark.parametrize("qnums", [(1, 2), (1, 2, 3, 4), ()])
    def test_quantum_number_count_must_be_n(self, solve, qnums):
        with pytest.raises(ValueError, match="one quantum number per root"):
            solve(qnums)

    def test_integer_valued_floats_are_accepted(self):
        rep = bae.solve_logbae(8, 2, (1.0, 2.0))
        assert rep.converged and rep.qnums == (1, 2)

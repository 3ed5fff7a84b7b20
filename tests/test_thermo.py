"""Root-density integral equation and thermodynamic-limit observables."""

import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import loop_references
from bethelab import bae, thermo


def _kernel_sums_match_unblocked():
    """interpolate_density and equation_residual against the whole-kernel
    product, bitwise, with the rows in one block, at exactly one block
    (1024 x 32), one entry past it (331 x 99) and past it by one row (a tail
    that joins the block before), and in several blocks."""
    for n, m in ((1, 5), (331, 1), (331, 7), (331, 99), (331, 193), (1024, 32),
                 (1024, 33), (1024, 65), (1024, 528)):
        rd = thermo.solve_root_density(1.3, n)
        lam = np.linspace(-1.7, 1.7, m)
        ref = thermo._driving(lam) - loop_references.kernel_sum(lam, rd.nodes, rd.weights,
                                                                rd.values)
        assert np.array_equal(thermo.interpolate_density(rd, lam), ref), (n, m)
    # 264 fine nodes at q = 1.3: the 200 test points take two blocks
    rd = thermo.solve_root_density(1.3, 129)
    lam = np.linspace(-1.2, 1.2, 200)
    fine_n, fine_w = thermo._panel_grid(1.3, 0.25, 24)
    rho_fine = thermo._driving(fine_n) - loop_references.kernel_sum(
        fine_n, rd.nodes, rd.weights, rd.values)
    values = thermo._driving(lam) - loop_references.kernel_sum(lam, rd.nodes, rd.weights,
                                                               rd.values)
    integral = loop_references.kernel_sum(lam, fine_n, fine_w, rho_fine)
    ref = float(np.max(np.abs(values + integral - thermo._driving(lam))))
    assert thermo.equation_residual(rd, lam) == ref


class TestRootDensity:
    def test_infinite_support_closed_form(self):
        rd = thermo.solve_root_density(np.inf)
        assert np.max(np.abs(rd.values - thermo.closed_form_density(rd.nodes))) == 0

    def test_density_d_at_infinity(self):
        rd = thermo.solve_root_density(np.inf)
        assert abs(thermo.density_D(rd) - 0.5) < 1e-8

    def test_gs_energy_minus_ln2(self):
        rd = thermo.solve_root_density(np.inf)
        assert abs(thermo.gs_energy_density(rd, 1.0) + np.log(2)) < 1e-8
        assert abs(thermo.gs_energy_density(rd, -1.0) - np.log(2)) < 1e-8

    def test_finite_q_close_to_closed_form(self):
        rd = thermo.solve_root_density(4.0)
        assert np.max(np.abs(rd.values - thermo.closed_form_density(rd.nodes))) < 1e-3

    def test_small_q_driving_term(self):
        rd = thermo.solve_root_density(1e-3, n_nodes=16)
        rho0 = thermo.interpolate_density(rd, np.array([0.0]))[0]
        assert abs(rho0 - 2 / np.pi) < 5e-3

    def test_density_monotone_in_q(self):
        ds = [thermo.density_D(thermo.solve_root_density(q))
              for q in (0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(a < b for a, b in zip(ds, ds[1:]))

    def test_node_doubling_converged(self):
        lam = np.array([-1.7, -0.3, 0.0, 0.9, 2.2])
        a = thermo.interpolate_density(thermo.solve_root_density(4.0, 128), lam)
        b = thermo.interpolate_density(thermo.solve_root_density(4.0, 256), lam)
        assert np.max(np.abs(a - b)) < 1e-9

    def test_symmetry_and_positivity(self):
        rd = thermo.solve_root_density(3.0)
        assert np.all(rd.values > 0)
        assert np.array_equal(rd.values, rd.values[::-1])  # even by construction
        assert np.array_equal(rd.nodes, -rd.nodes[::-1])

    def test_equation_residual_off_grid(self):
        rd = thermo.solve_root_density(4.0)
        mids = 0.5 * (rd.nodes[40:80:4] + rd.nodes[41:81:4])
        assert thermo.equation_residual(rd, mids) < 1e-8

    def test_quadrature_rule_cached_read_only(self):
        x, w = thermo._gauss_legendre(64)
        assert thermo._gauss_legendre(64)[0] is x
        assert not x.flags.writeable and not w.flags.writeable
        a = thermo.solve_root_density(2.0, 64)
        b = thermo.solve_root_density(2.0, 64)
        assert np.array_equal(a.values, b.values)

    def test_infinite_support_grid_cached_read_only(self):
        # every q = inf solve (one per condensation scan) shares one grid
        a, b = thermo.solve_root_density(np.inf), thermo.solve_root_density(np.inf)
        assert a.nodes is b.nodes and a.weights is b.weights
        assert not a.nodes.flags.writeable and not a.weights.flags.writeable
        fresh = thermo._panel_grid(thermo.INF_CUTOFF, thermo.INF_PANEL,
                                   thermo.INF_NODES_PER_PANEL)
        assert np.array_equal(a.nodes, fresh[0]) and np.array_equal(a.weights, fresh[1])
        assert len(a.nodes) == 28 * thermo.INF_NODES_PER_PANEL

    @pytest.mark.parametrize("q", [0.7, 2.3, 3.9, 20.0, 100.0])
    @pytest.mark.parametrize("n", [1, 2, 3, 127, 128, 1024])
    def test_folded_solve_matches_full_system(self, n, q):
        # the solve runs on the nodes l >= 0; the full n x n Nystrom system on
        # the same rule is the reference (q = 20 and 100 take the most
        # conjugate-gradient steps, 17 and 20 at n = 1024)
        rd = thermo.solve_root_density(q, n)
        nodes, weights = rd.nodes, rd.weights
        K = 1.0 / (np.pi * (1.0 + (nodes[:, None] - nodes[None, :]) ** 2)) * weights[None, :]
        rho = np.linalg.solve(np.eye(n) + K, thermo._driving(nodes))
        assert rd.values.shape == (n,)
        assert np.max(np.abs(rd.values - rho)) <= 1e-14

    @pytest.mark.parametrize("q", [-1.0, 0.0, np.nan, -np.inf])
    def test_invalid_q(self, q):
        with pytest.raises(ValueError, match="^support half-width q must be positive$"):
            thermo.solve_root_density(q)

    def test_underflowing_weight_raises(self):
        # q w_i = 0 would divide by zero in the symmetrized solve; subnormal
        # but nonzero weights still solve, to the q -> 0 limit 2/pi
        with pytest.raises(ValueError, match="^q = 1e-320 with n_nodes = 1024 underflows"):
            thermo.solve_root_density(1e-320, 1024)
        rd = thermo.solve_root_density(1e-318, 1024)
        assert np.all(rd.weights > 0)
        assert np.max(np.abs(rd.values - 2 / np.pi)) <= 1e-15

    @pytest.mark.parametrize("q", [2.0, np.inf])
    @pytest.mark.parametrize("n", [0, -3, 2.0])
    def test_invalid_n_nodes(self, n, q):
        with pytest.raises(ValueError, match=f"n_nodes must be a positive integer, got {n}"):
            thermo.solve_root_density(q, n)

    def test_cg_cap_raises(self, monkeypatch):
        # a solve that misses its tolerance within the step cap raises, naming
        # the residual it reached; q = 2 at n = 128 takes 7 steps
        monkeypatch.setattr(thermo, "CG_MAX_ITER", 6)
        with pytest.raises(np.linalg.LinAlgError,
                           match=r"^conjugate gradients: residual \S+ > \S+ after 6 steps$"):
            thermo.solve_root_density(2.0, 128)
        monkeypatch.setattr(thermo, "CG_MAX_ITER", 7)
        thermo.solve_root_density(2.0, 128)

    def test_solve_memory(self):
        # the symmetrized fold is one (n/2) x (n/2) array, 2.1 MB at n = 1024,
        # of which the upper triangle is filled, plus one 256 KB kernel block
        # and a few vectors (the full matrix was 8.4 MB)
        thermo._gauss_legendre(1024)
        tracemalloc.start()
        try:
            thermo.solve_root_density(2.0, 1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.6e6

    def test_residual_memory(self):
        # 528 fine nodes at q = 2.75 against 1024 solve nodes: one kernel block
        # of 32 x 1024, where the whole kernel is 4.3 MB
        rd = thermo.solve_root_density(2.75, 1024)
        lam = np.linspace(-2.5, 2.5, 7)
        assert len(thermo._panel_grid(2.75, 0.25, 24)[0]) == 528
        tracemalloc.start()
        try:
            thermo.equation_residual(rd, lam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    @pytest.mark.parametrize("n", [1, 2, 3, 361, 363, 364, 2047])
    def test_symmetrized_fold_matches_unblocked(self, n):
        # n/2 = 1, 2, 181 (one block of whole columns), 182 (two) and 1024;
        # the upper triangle, which is all that dsymv reads, bitwise, and
        # within rounding of D^1/2 A D^-1/2 of the dense folded system A
        x, w = thermo._gauss_legendre(n)
        lam, wts = 1.7 * x[n // 2:], 1.7 * w[n // 2:]
        d = wts.copy()
        d[0] *= 1 - 0.5 * (n % 2)  # the folded weights: l = 0 of an odd rule once
        r = np.sqrt(d)
        S = thermo._symmetrized_fold(lam, r)
        assert S.flags.f_contiguous
        ref = np.triu(loop_references.symmetrized_fold(lam, r))
        assert np.array_equal(np.triu(S), ref)
        A = loop_references.folded_system(lam, wts, n % 2)
        assert np.allclose(np.triu(A * r[:, None] / r), ref, rtol=4 * np.finfo(float).eps, atol=0)

    def test_blocked_kernel_sums_match_unblocked(self):
        # bitwise under one BLAS thread, in a fresh process: with more threads
        # OpenBLAS splits a large gemv between them at a row that depends on
        # its height (seen at n = 2048 with two threads), so the unblocked
        # product itself changes with the thread count
        tests = Path(__file__).resolve().parent
        src = Path(thermo.__file__).resolve().parents[1]
        path = os.pathsep.join(filter(None, [str(src), str(tests),
                                             os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1",
               "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
        code = "import test_thermo; test_thermo._kernel_sums_match_unblocked()"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr


    def test_counting_function_derivative(self):
        # n(l) := driving - integral term; its derivative reproduces rho
        rd = thermo.solve_root_density(4.0)

        def counting(lam):
            lam = np.atleast_1d(lam)
            kern = np.arctan(lam[:, None] - rd.nodes[None, :]) / np.pi
            return np.arctan(2 * lam) / np.pi - kern @ (rd.weights * rd.values)

        h = 1e-4
        pts = np.array([-2.0, -0.5, 0.0, 1.3])
        deriv = (counting(pts + h) - counting(pts - h)) / (2 * h)
        rho_at = thermo.interpolate_density(rd, pts)
        assert np.max(np.abs(deriv - rho_at)) < 1e-6


class TestGaussLegendre:
    @pytest.mark.parametrize("n", [1, 2, 3, 24, 127, 128, 1024])
    def test_weights_sum_nodes_antisymmetric(self, n):
        x, w = thermo._gauss_legendre(n)
        assert x.shape == w.shape == (n,)
        assert np.all(np.diff(x) > 0) and np.all(w > 0)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        assert abs(np.sum(w) - 2.0) < 1e-14

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 24, 64, 127, 128, 224, 255, 256])
    def test_nodes_match_leggauss(self, n):
        # two units in the last place of 1.0: near x = 0 the nodes of both
        # rules lie a few ulp of their own size from the exact roots
        x, _ = thermo._gauss_legendre(n)
        assert np.max(np.abs(x - np.polynomial.legendre.leggauss(n)[0])) <= 2 * np.spacing(1.0)

    @pytest.mark.parametrize("n", [128, 512, 1024])
    def test_runge_integral(self, n):
        x, w = thermo._gauss_legendre(n)
        assert abs(w @ (1.0 / (1.0 + 25.0 * x ** 2)) - 2.0 * np.arctan(5.0) / 5.0) < 1e-14

    @pytest.mark.parametrize("n, edge_weight", [(256, 1.1278901782227218e-04),
                                                (1024, 7.07007641018259e-06)])
    def test_edge_weight(self, n, edge_weight):
        # 50-digit recurrence values of the weight at the node nearest -1
        # (leggauss: 1.1e-11 and 1.2e-9 relative)
        _, w = thermo._gauss_legendre(n)
        assert abs(w[0] / edge_weight - 1.0) < 1e-11

    def test_build_memory(self):
        # no (n, n) array: the companion-matrix eigensolve held 8.4 MB at n = 1024
        tracemalloc.start()
        try:
            thermo._gauss_legendre.__wrapped__(1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


def _energy(lam):
    return -0.5 / (lam ** 2 + 0.25)


def _per_l_sum(L):
    """(1/L) sum_j e(l_j) over the roots of one solve_logbae ground state."""
    rep = bae.solve_logbae(L, L // 2, tuple(range(1, L // 2 + 1)))
    return float(np.sum(_energy(rep.roots.values.real)) / L)


class TestCondensation:
    def test_constant_observable_gives_filling(self):
        rows = thermo.condensation_check([8, 12], lambda lam: np.ones_like(lam))
        for r in rows:
            assert abs(r["sum"] - 0.5) < 1e-12   # N/L at half filling
            assert abs(r["integral"] - 0.5) < 1e-10
            assert r["gap"] < 1e-10

    def test_energy_observable_gap_decays(self):
        rows = thermo.condensation_check([8, 12, 16],
                                         lambda lam: -0.5 / (lam ** 2 + 0.25))
        gaps = [r["gap"] for r in rows]
        assert gaps[0] > gaps[1] > gaps[2]
        assert abs(rows[-1]["integral"] + np.log(2)) < 1e-10

    def test_large_l_gap_scaling(self):
        # gap ~ (pi^2/12)/L^2 with log corrections, solved up to N = 1000 roots
        Ls = [8, 16, 32, 64, 128, 250, 500, 1000, 2000]
        rows = thermo.condensation_check(Ls, lambda lam: -0.5 / (lam ** 2 + 0.25))
        gaps = [r["gap"] for r in rows]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert all(r["gap"] < 1 / r["L"] ** 2 for r in rows)

    def test_odd_observable_vanishes(self):
        rows = thermo.condensation_check([8, 10], lambda lam: lam)
        for r in rows:
            assert abs(r["sum"]) < 1e-12
            assert abs(r["integral"]) < 1e-12

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            thermo.condensation_check([7], lambda lam: lam)

    def test_odd_length_rejected_before_any_solve(self, monkeypatch):
        monkeypatch.setattr(bae, "_solve_chains", None)  # a solve would raise TypeError
        with pytest.raises(ValueError, match="^L=9: condensation scan expects even L$"):
            thermo.condensation_check([8, 10, 9, 7], lambda lam: lam)

    def test_rows_in_input_order(self):
        Ls = [16, 8, 12, 8, 16]
        rows = thermo.condensation_check(Ls, _energy)
        assert [r["L"] for r in rows] == Ls
        assert rows[0] == rows[4] and rows[1] == rows[3]
        for r in rows:
            assert abs(r["sum"] - _per_l_sum(r["L"])) <= 1e-15

    def test_error_names_first_failing_length(self, monkeypatch):
        solve = bae._solve_chains

        def failing(chain, Ls, Ns, qnums):
            reps = solve(chain, Ls, Ns, qnums)
            return [replace(r, converged=False) if L in (8, 12) else r for L, r in zip(Ls, reps)]
        monkeypatch.setattr(bae, "_solve_chains", failing)
        with pytest.raises(RuntimeError, match="^ground-state solve failed at L=12$"):
            thermo.condensation_check([16, 12, 10, 8], _energy)

    def test_lone_lanes_are_the_single_solves(self):
        # from N = 64 on each length of the large-L scan is alone in its
        # stack, and its row is bitwise the one of its own solve_logbae;
        # L = 8..64 share a stack and agree to rounding
        Ls = [8, 16, 32, 64, 128, 250, 500, 1000, 2000]
        assert bae._lane_stacks([L // 2 for L in Ls]) == [[0, 1, 2, 3], [4], [5], [6], [7], [8]]
        for r in thermo.condensation_check(Ls, _energy):
            if r["L"] >= 128:
                assert r["sum"] == _per_l_sum(r["L"])
            else:
                assert abs(r["sum"] - _per_l_sum(r["L"])) <= 1e-15

"""Acceptance suite: every top-level claim at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
"""

import time
import tracemalloc

import numpy as np
import pytest

from bethelab import aba, bae, coordinate, ed, hubbard, sixvertex, thermo
from bethelab.basis import build_sector_basis


def _report(num, text):
    print(f"\n[PASS] criterion {num}: {text}")


def test_criterion_01_xxx_ground_state_oracle_equivalence():
    """Ground-state energies from the logarithmic solver match ED to 1e-9."""
    for L in (4, 6, 8, 10):
        t0 = time.time()
        N = L // 2
        rep = bae.solve_logbae(L, N, tuple(range(1, N + 1)))
        assert rep.converged
        E = coordinate.energy_xxx(rep.roots).real
        w0 = ed.diagonalize(ed.build_xxx_hamiltonian(L, 1.0, N)).eigenvalues[0]
        assert abs(E - w0) < 1e-9, f"L={L}: {E} vs {w0}"
        elapsed = time.time() - t0
        assert elapsed < 10.0, f"L={L} took {elapsed:.1f}s"
    _report(1, "ground-state Bethe energy = ED for L = 4, 6, 8, 10 (|dE| < 1e-9)")


@pytest.mark.parametrize("L", [16, 18])
def test_criterion_01_sparse_sizes(L):
    """Criterion 1 at dim 12870 and 48620, through Lanczos on the sparse
    Hamiltonian: no dense copy is made, so the peak stays far below the
    dense matrix (1.3 GB at L = 16, 18.9 GB at L = 18)."""
    N = L // 2
    rep = bae.solve_logbae(L, N, tuple(range(1, N + 1)))
    assert rep.converged
    E = coordinate.energy_xxx(rep.roots).real
    tracemalloc.start()
    try:
        w0 = ed.diagonalize(ed.build_xxx_hamiltonian(L, 1.0, N), k=2).eigenvalues[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(E - w0) < 1e-9, f"L={L}: {E} vs {w0}"
    assert peak < 300e6, f"L={L}: peak {peak / 1e6:.0f} MB"
    _report(1, f"ground-state Bethe energy = ED at L = {L} (|dE| < 1e-9, "
               f"peak {peak / 1e6:.0f} MB)")


def test_criterion_02_eigenvector_residuals_all_sectors_l8():
    """Every converged admissible solution found at L = 8 (N <= 4) gives an
    eigenvector, is highest weight, and its energy sits in the ED spectrum."""
    L = 8
    found = {0: [np.array([], complex)]}
    for N in range(1, 5):
        sols = []
        for ns in _increasing_tuples(range(-L // 2 + 1, L // 2 + N + 1), N):
            rep = bae.solve_logbae(L, N, ns)
            if not rep.converged:
                continue
            lam = rep.roots.values
            if not bae.admissibility(lam)[0]:
                continue
            if bae.bae_residual_xxx(lam, L) > 1e-10:
                continue
            if any(np.max(np.abs(np.sort_complex(lam) - np.sort_complex(p))) < 1e-6
                   for p in sols):
                continue
            sols.append(lam)
        found[N] = sols
    for rs, kind in bae.classify_two_magnon(L):
        if not any(np.max(np.abs(np.sort_complex(rs.values) - np.sort_complex(p))) < 1e-6
                   for p in found[2]):
            found[2].append(rs.values)

    checked = 0
    for N, sols in found.items():
        if N == 0:
            continue
        H = ed.build_xxx_hamiltonian(L, 1.0, N).matrix
        spec = ed.diagonalize(ed.build_xxx_hamiltonian(L, 1.0, N)).eigenvalues
        for lam in sols:
            v = coordinate.offshell_vector(lam, L)
            E = coordinate.energy_xxx(lam)
            assert abs(complex(E).imag) < 1e-9
            r = np.linalg.norm(H @ v - complex(E).real * v) / np.linalg.norm(v)
            assert r < 1e-8, f"N={N} roots={lam}: eigenvector residual {r}"
            hw = coordinate.highest_weight_residual(v, L, N)
            assert hw < 1e-8, f"N={N} roots={lam}: S+ residual {hw}"
            assert np.min(np.abs(spec - complex(E).real)) < 1e-8
            checked += 1
    # 7 one-root + 19 two-root (15 real + 4 bound) + 10 three-root real
    # + 1 four-root real (at half filling the other levels carry complex pairs
    # beyond the real scan)
    assert checked == 37
    _report(2, f"{checked} admissible L=8 solutions: H-residual, S+ residual, "
               "ED energy match all < 1e-8")


def _increasing_tuples(rng, N):
    from itertools import combinations
    return combinations(rng, N)


def test_criterion_03_thermodynamic_limit():
    """e(inf) = -ln 2 to 1e-8; q = 4 density within 1e-3 of the closed form;
    finite-size energies rise monotonically toward -ln 2."""
    rd = thermo.solve_root_density(np.inf)
    assert abs(thermo.gs_energy_density(rd, 1.0) + np.log(2)) < 1e-8
    rd4 = thermo.solve_root_density(4.0)
    dev = np.max(np.abs(rd4.values - thermo.closed_form_density(rd4.nodes)))
    assert dev < 1e-3
    es = []
    for L in (8, 10, 12, 14, 16):
        rep = bae.solve_logbae(L, L // 2, tuple(range(1, L // 2 + 1)))
        assert rep.converged
        es.append(coordinate.energy_xxx(rep.roots).real / L)
    assert all(a < b for a, b in zip(es, es[1:]))
    assert all(e < -np.log(2) for e in es)
    assert abs(es[-1] + np.log(2)) < 5e-3
    _report(3, "e(inf) = -ln 2 (1e-8); q=4 density within 1e-3 of closed form; "
               "E/L monotone toward -ln 2 over L = 8..16")


def test_criterion_04_yang_baxter_and_commutation():
    """YBE < 1e-12 over 100 draws; commuting transfers up to L = 8; RTT < 1e-12
    up to L = 6 with random inhomogeneities; all under 60 s."""
    t0 = time.time()
    rng = np.random.default_rng(12345)
    worst = 0.0
    for i in range(100):
        lam, mu, nu = rng.uniform(-2, 2, 3) + 1j * rng.uniform(-2, 2, 3)
        eta = 0.3 if i % 2 == 0 else 0.7 + 0.2j
        worst = max(worst, sixvertex.ybe_residual(lam, mu, nu, eta))
    assert worst < 1e-12
    for L in (4, 6, 8):
        w = sixvertex.VertexWeights.from_parameters(1.0, 0.0, 0.7 + 0.2j)
        t1 = np.asarray(sixvertex.transfer(0.33 + 0.2j, L, w).matrix)
        t2 = np.asarray(sixvertex.transfer(-0.4 + 0.1j, L, w).matrix)
        assert np.max(np.abs(t1 @ t2 - t2 @ t1)) < 1e-12
    for L in (3, 5, 6):
        xi = rng.normal(size=L) * 0.3
        w = sixvertex.VertexWeights.from_parameters(1.0, 0.0, 0.5, xi=xi)
        assert sixvertex.rtt_residual(0.21 + 0.17j, -0.33 + 0.06j, L, w) < 1e-12
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(4, f"YBE (100 draws) + [t,t] (L<=8) + RTT (L<=6) all < 1e-12 "
               f"in {elapsed:.1f}s")


def test_criterion_05_hamiltonian_link():
    """The transfer-matrix reconstruction of the spin Hamiltonian, with the
    exact t'(0), matches the direct build to 1e-12 of its largest entry at
    L = 4, eta = 0.3 (the step^2 convergence of the central difference
    towards it is TestHamiltonianLink's property test)."""
    _, dev = sixvertex.hamiltonian_from_transfer(4, 0.3)
    assert dev < 1e-12
    _report(5, f"reconstructed H deviates {dev:.2e} (< 1e-12, relative)")


def test_criterion_06_square_ice():
    """Partition function equals exact enumeration for all L*M <= 12 at unit
    weights; entropy extrapolation reproduces (3/2) ln(4/3) within 2e-4."""
    t0 = time.time()
    for L in range(1, 13):
        for M in range(1, 12 // L + 1):
            z = sixvertex.partition_function(L, M, 1, 1, 1)
            ze = sixvertex.enumerate_partition(L, M, 1, 1, 1)
            assert isinstance(ze, int)
            assert z.real == ze and z.imag == 0, f"L={L} M={M}: {z} vs {ze}"
    table, s_inf = sixvertex.ice_entropy(12)
    target = 1.5 * np.log(4 / 3)
    assert abs(s_inf - target) < 2e-4
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _report(6, f"Z(transfer) == Z(enumeration) exactly for all L*M <= 12; "
               f"entropy extrapolates to {s_inf:.5f} vs {target:.5f} "
               f"({elapsed:.0f}s)")


def test_criterion_07_slavnov_determinant():
    """The determinant formula reproduces the explicit pairing to 1e-9 for
    N = 1, 2, 3 at L = 8 over 20 random off-shell draws each."""
    L, gamma = 8, 0.6
    eta = 1j * gamma
    rng = np.random.default_rng(777)
    worst = 0.0
    for N in (1, 2, 3):
        mu = aba.onshell_roots(L, N, gamma)
        for _ in range(20):
            la = mu + rng.normal(size=N) * 0.2 + 1j * rng.normal(size=N) * 0.15
            sv = aba.slavnov_ratio(mu, la, L, eta)
            bf = aba.pairing_ratio_bruteforce(mu, la, L, eta)
            rel = abs(sv - bf) / abs(bf)
            worst = max(worst, rel)
            assert rel < 1e-9, f"N={N}: rel err {rel}"
    _report(7, f"determinant pairing vs explicit matrices: worst rel err "
               f"{worst:.2e} over 60 draws (< 1e-9)")


def test_criterion_08_algebraic_coordinate_consistency():
    """Products of B operators generate the coordinate off-shell vectors:
    collinearity better than 1 - 1e-10 for N <= 3, L <= 8, random roots."""
    rng = np.random.default_rng(4242)
    worst = 0.0
    for L, eta in ((5, 0.45 + 0.15j), (7, 0.3 - 0.2j), (8, 0.52)):
        for N in (1, 2, 3):
            roots = rng.normal(size=N) * 0.6 + 1j * rng.normal(size=N) * 0.3
            bp = aba.b_product_state(roots, L, eta)
            basis = build_sector_basis(L, N)
            bp_sec = np.array([bp[s] for s in basis.states])
            cv = coordinate.xxz_offshell_vector(roots, L, eta)
            cos = abs(np.vdot(bp_sec, cv)) / (np.linalg.norm(bp_sec) * np.linalg.norm(cv))
            worst = max(worst, 1 - cos)
            assert cos > 1 - 1e-10
    _report(8, f"B-product states collinear with coordinate vectors "
               f"(worst deficit {worst:.1e} < 1e-10)")


def test_criterion_09_hubbard_nested_ansatz():
    """For (L, N, M) = (6, 2, 1) and u in {1, 2, 4}: the assembled nested
    state is an ED eigenvector to 1e-8 with the analytic E and P."""
    t0 = time.time()
    L, N, M = 6, 2, 1
    basis = hubbard.FermionBasis(L, N, M)
    H = hubbard.build_hubbard_hamiltonian(L, 1.0, basis)
    for u in (1.0, 2.0, 4.0):
        roots, res, ok = hubbard.solve_liebwu(L, N, M, u, (-1, 0), (0,))
        assert ok and hubbard.liebwu_residual(roots) < 1e-10
        Hm = hubbard.build_hubbard_hamiltonian(L, u, basis).matrix
        v = hubbard.assemble_state(roots, basis)
        E, P = hubbard.energy_momentum(roots)
        r = np.linalg.norm(Hm @ v - E * v)
        assert r < 1e-8, f"u={u}: residual {r}"
        w = np.linalg.eigvalsh(Hm)
        assert np.min(np.abs(w - E)) < 1e-9
        U = hubbard.shift_block(basis)
        assert np.linalg.norm(U @ v - np.exp(1j * P) * v) < 1e-8
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _report(9, f"nested eigenvectors verified for u = 1, 2, 4 "
               f"(residuals < 1e-8, E and P analytic; {elapsed:.1f}s)")


def test_criterion_10_bose_gas():
    """Real roots across couplings; strong-coupling limit hits the
    free-fermion momenta to 1e-4 at c = 1e6."""
    for c in (0.1, 1.0, 10.0):
        for N in (2, 3, 4):
            rep = bae.solve_bose(9.0, N, c, tuple(range(1, N + 1)))
            assert rep.converged
            assert np.max(np.abs(rep.roots.values.imag)) == 0
            assert bae.bose_residual(rep.roots.values, 9.0, c) < 1e-10
    N, Lr = 4, 9.0
    rep = bae.solve_bose(Lr, N, 1e6, tuple(range(1, N + 1)))
    kff = 2 * np.pi * (np.arange(1, N + 1) - (N + 1) / 2) / Lr
    err = np.max(np.abs(rep.roots.values.real - kff))
    assert err < 1e-4
    _report(10, f"Bose roots real for N <= 4, c in {{0.1, 1, 10}}; "
                f"c = 1e6 free-fermion error {err:.1e} < 1e-4")

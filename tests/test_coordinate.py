"""Coordinate Bethe vectors: wavefunction identities and observables."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import loop_references
from bethelab import bae, coordinate, ed
from bethelab.basis import build_sector_basis

RNG = np.random.default_rng(20240817)


def random_roots(n, scale=0.8):
    return RNG.normal(size=n) * scale + 1j * RNG.normal(size=n) * scale / 2


def _mod_2pi(x):
    """Distance of the real x from 0 mod 2pi."""
    return abs(np.remainder(x + np.pi, 2 * np.pi) - np.pi)


class TestRapidityMap:
    # the momentum of one root is its quasi-momentum k, e^{ik} = (l + i/2)/(l - i/2)
    def test_zero_gives_pi(self):
        assert abs(coordinate.momentum_xxx([0.0]) - np.pi) < 1e-14
        assert abs(loop_references.rapidity_to_momentum(0.0) - np.pi) < 1e-14

    def test_large_rapidity_gives_zero(self):
        assert _mod_2pi(coordinate.momentum_xxx([1e9])) < 1e-8
        assert abs(loop_references.rapidity_to_momentum(1e9)) < 1e-8

    def test_half(self):
        # (1/2 + i/2)/(1/2 - i/2) = i, so k = pi/2
        assert abs(coordinate.momentum_xxx([0.5]) - np.pi / 2) < 1e-14

    def test_pole(self):
        # both poles raise (the principal log gave nan at +i/2)
        for pole in (-0.5j, 0.5j):
            for roots in ([pole], np.array([0.3, pole])):
                with pytest.raises(ValueError, match="pole"):
                    coordinate.momentum_xxx(roots)

    def test_array_matches_scalars(self):
        rng = np.random.default_rng(5)
        roots = rng.normal(size=6) + 0.5j * rng.normal(size=6)
        P = coordinate.momentum_xxx(roots)
        ks = [coordinate.momentum_xxx([l]) for l in roots]
        assert isinstance(P, complex) and all(isinstance(k, complex) for k in ks)
        refs = [loop_references.rapidity_to_momentum(l) for l in roots]
        for k, ref in zip(ks, refs):
            assert _mod_2pi(k.real - ref.real) < 1e-14 and abs(k.imag - ref.imag) < 1e-14
        total = sum(refs)
        assert _mod_2pi(P.real - total.real) < 1e-13 and abs(P.imag - total.imag) < 1e-13

    def test_branch(self):
        lam = 0.3 + 0.2j
        k, ref = coordinate.momentum_xxx([lam]), loop_references.rapidity_to_momentum(lam)
        assert 0 <= k.real < 2 * np.pi and -np.pi < ref.real <= np.pi
        z = (lam + 0.5j) / (lam - 0.5j)
        assert abs(np.exp(1j * k) - z) < 1e-14 and abs(np.exp(1j * ref) - z) < 1e-14


_KERNELS = {"xxx": (coordinate.XXX, lambda x: x),
            "xxz": (coordinate.xxz_kernel(0.9), np.sinh),
            "xxz_wide": (coordinate.xxz_kernel(2.6), np.sinh)}


class TestKernelMomentum:
    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(sorted(_KERNELS)), data=st.data(),
           re=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=6))
    def test_exp_momentum_is_the_product(self, kind, data, re):
        # e^{iP} = prod_j f(l_j + eta/2)/f(l_j - eta/2)
        kernel, f = _KERNELS[kind]
        im = data.draw(st.lists(st.floats(-1.4, 1.4), min_size=len(re), max_size=len(re)))
        lam = np.array(re) + 1j * np.array(im)
        up, down = f(lam + kernel.eta / 2), f(lam - kernel.eta / 2)
        assume(min(np.abs(up).min(), np.abs(down).min()) > 1e-3)
        P = kernel.momentum(lam)
        assert 0 <= np.real(P) < 2 * np.pi
        prod = np.prod(up / down)
        assert abs(np.exp(1j * P) / prod - 1) < 1e-11

    @pytest.mark.parametrize("kind", sorted(_KERNELS))
    def test_small_imaginary_part_is_kept(self, kind):
        # Im P = 8e-11 for XXX: a float return broke e^{iP} = prod by 8e-11
        kernel, f = _KERNELS[kind]
        lam = np.array([0, 0, 0, 1 + 1e-10j])
        P = kernel.momentum(lam)
        assert isinstance(P, complex) and P.imag != 0
        prod = np.prod(f(lam + kernel.eta / 2) / f(lam - kernel.eta / 2))
        assert abs(np.exp(1j * P) / prod - 1) < 1e-11

    @pytest.mark.parametrize("kind", sorted(_KERNELS))
    def test_poles_raise(self, kind):
        kernel, _ = _KERNELS[kind]
        for pole in (kernel.eta / 2, -kernel.eta / 2):
            for roots in ([pole], [0.4, pole + 1e-13]):
                with pytest.raises(ValueError, match="pole"):
                    kernel.momentum(roots)

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(sorted(_KERNELS)),
           roots=st.lists(st.complex_numbers(max_magnitude=3.0), min_size=1, max_size=6))
    @example(kind="xxx", roots=[-4.9e-98 + 1j])  # np.mod alone gave exactly 2pi
    def test_momentum_in_zero_to_two_pi(self, kind, roots):
        try:
            P = _KERNELS[kind][0].momentum(roots)
        except ValueError:  # a root at a pole
            return
        assert 0 <= np.real(P) < 2 * np.pi

    def test_empty_and_self_conjugate(self):
        for kernel, _ in _KERNELS.values():
            assert kernel.momentum([]) == 0.0 and type(kernel.momentum([])) is float
            assert type(kernel.momentum([0.3 + 0.2j, 0.3 - 0.2j])) is float


class TestWavefunction:
    def test_single_magnon_formula(self):
        L, lam = 7, 0.4 + 0.25j
        for x in range(1, L + 1):
            direct = (lam + 0.5j) ** x * (lam - 0.5j) ** (L - x + 1)
            assert abs(coordinate.offshell_wavefunction((x,), [lam], L) - direct) < 1e-12 * abs(direct)

    def test_vanishes_for_equal_roots(self):
        L = 8
        lam = 0.3 + 0.1j
        v = coordinate.offshell_vector([lam, lam], L, normalize=False)
        scale = abs(coordinate.offshell_wavefunction((1, 2), [lam, lam + 1.0], L))
        assert np.max(np.abs(v)) < 1e-10 * scale
        # every amplitude is an exact zero here: normalizing it raises
        with pytest.raises(ValueError, match="vanishes: coincident rapidities"):
            coordinate.offshell_vector([lam, lam], L)

    def test_difference_i_collapses_to_single_term(self):
        # a pair at distance exactly i zeroes every permutation term with the
        # pair in one orientation; the survivor is a bare product (so the set
        # is excluded by admissibility, even though the vector is nonzero)
        L, lam = 6, 0.37 - 0.21j
        roots = [lam, lam + 1j]
        for x1, x2 in [(1, 3), (2, 5)]:
            psi = coordinate.offshell_wavefunction((x1, x2), roots, L)
            survivor = -2j * (lam + 1.5j) ** x1 * (lam + 0.5j) ** (L - x1 + 1) \
                * (lam + 0.5j) ** x2 * (lam - 0.5j) ** (L - x2 + 1)
            assert abs(psi - survivor) < 1e-12 * abs(survivor)
        assert not bae.admissibility(roots)[0]

    def test_vanishes_at_pole_roots(self):
        L = 6
        for root in (0.5j, -0.5j):
            v = coordinate.offshell_vector([root, 0.7], L, normalize=False)
            assert np.max(np.abs(v)) == 0
            with pytest.raises(ValueError, match="vanishes: a rapidity at a pole"):
                coordinate.offshell_vector([root, 0.7], L)

    def test_symmetric_in_roots(self):
        L = 7
        roots = random_roots(3)
        for xs in [(1, 3, 6), (2, 4, 5)]:
            a = coordinate.offshell_wavefunction(xs, roots, L)
            b = coordinate.offshell_wavefunction(xs, roots[[2, 0, 1]], L)
            assert abs(a - b) < 1e-12 * abs(a)

    def test_wave_equation_off_shell(self):
        # interior configurations satisfy the lattice wave equation with the
        # additive magnon energy, for arbitrary rapidities
        L, roots = 8, random_roots(3)
        E = coordinate.energy_xxx(roots)
        for xs in [(2, 4, 7), (3, 5, 7)]:
            acc = 0.0
            for j in range(3):
                up = list(xs); up[j] += 1
                dn = list(xs); dn[j] -= 1
                acc += (coordinate.offshell_wavefunction(tuple(up), roots, L)
                        - 2 * coordinate.offshell_wavefunction(xs, roots, L)
                        + coordinate.offshell_wavefunction(tuple(dn), roots, L))
            lhs = acc / 2
            rhs = E * coordinate.offshell_wavefunction(xs, roots, L)
            assert abs(lhs - rhs) < 1e-10 * max(abs(rhs), 1e-30)

    def test_reflection_condition_off_shell(self):
        L, roots = 8, random_roots(3)
        # x_1 + 1 = x_2 at (3,4,6)
        val = (coordinate.offshell_wavefunction((4, 4, 6), roots, L)
               - 2 * coordinate.offshell_wavefunction((3, 4, 6), roots, L)
               + coordinate.offshell_wavefunction((3, 3, 6), roots, L))
        scale = abs(coordinate.offshell_wavefunction((3, 4, 6), roots, L))
        assert abs(val) < 1e-10 * max(scale, 1e-30)

    def test_boundary_identity_on_shell(self):
        # Psi(0, x2, ..., xN) = Psi(x2, ..., xN, L) holds only on shell
        L = 8
        rep = bae.solve_logbae(L, 3, (1, 2, 3))
        roots = rep.roots.values
        a = coordinate.offshell_wavefunction((0, 2, 5), roots, L)
        b = coordinate.offshell_wavefunction((2, 5, L), roots, L)
        assert abs(a - b) < 1e-8 * abs(a)
        off = random_roots(3)
        a = coordinate.offshell_wavefunction((0, 2, 5), off, L)
        b = coordinate.offshell_wavefunction((2, 5, L), off, L)
        assert abs(a - b) > 1e-3 * abs(a)

    def test_conjugate_root_set(self):
        # complex conjugation of the vector corresponds to negated-conjugate
        # rapidities (a constant global phase; the literal conjugate set gives
        # a genuinely different ray)
        L = 7
        roots = random_roots(3)
        v1 = np.conj(coordinate.offshell_vector(roots, L))
        v2 = coordinate.offshell_vector(-np.conj(roots), L)
        cos = abs(np.vdot(v1, v2))
        assert cos > 1 - 1e-12
        v3 = coordinate.offshell_vector(np.conj(roots), L)
        assert abs(np.vdot(v1, v3)) < 1 - 1e-3

    def test_factorial_guard(self):
        with pytest.raises(ValueError):
            coordinate.offshell_vector(np.ones(11) + np.arange(11), 12)


class TestOnShellVectors:
    def test_vacuum_sector(self):
        v = coordinate.offshell_vector([], 5)
        assert np.allclose(v, [1.0])

    @pytest.mark.parametrize("L,N,qn", [(6, 2, (1, 2)), (8, 3, (1, 2, 4)),
                                        (8, 4, (1, 2, 3, 4))])
    def test_eigenvector_and_symmetries(self, L, N, qn):
        rep = bae.solve_logbae(L, N, qn)
        assert rep.converged
        roots = rep.roots
        v = coordinate.offshell_vector(roots, L)
        H = ed.build_xxx_hamiltonian(L, 1.0, N).matrix
        E = coordinate.energy_xxx(roots)
        assert abs(complex(E).imag) < 1e-10
        assert np.linalg.norm(H @ v - complex(E).real * v) < 1e-8
        # highest weight and S^z content
        assert coordinate.highest_weight_residual(v, L, N) < 1e-8
        # shift eigenvalue e^{iP}
        P = coordinate.momentum_xxx(roots)
        U = ed.shift_sector_matrix(build_sector_basis(L, N))
        assert np.linalg.norm(U @ v - np.exp(1j * complex(P)) * v) < 1e-8

    def test_offshell_not_highest_weight(self):
        L = 6
        v = coordinate.offshell_vector(random_roots(2), L)
        assert coordinate.highest_weight_residual(v, L, 2) > 0.01

    def test_descendant_not_highest_weight(self):
        L = 6
        rep = bae.solve_logbae(L, 2, (1, 2))
        v = coordinate.offshell_vector(rep.roots, L)
        src, dst = (build_sector_basis(L, n).state_array for n in (3, 2))
        rows, cols, _ = ed._local_entries(L, src, dst, ed._PAULI["raise"],
                                          [(x,) for x in range(1, L + 1)])
        w = np.zeros(len(src), complex)
        np.add.at(w, cols, v[rows])  # S^- v = (S^+)^T v : N=2 -> N=3
        assert coordinate.highest_weight_residual(w, L, 3) > 0.01

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            coordinate.highest_weight_residual(np.zeros(15), 6, 2)


class TestObservables:
    def test_energy_trivials(self):
        assert coordinate.energy_xxx([]) == 0.0
        assert abs(coordinate.energy_xxx([0.0], 1.0) + 2.0) < 1e-14

    def test_energy_magnon_form(self):
        roots = random_roots(4, scale=1.3)
        E = coordinate.energy_xxx(roots, 0.9)
        ks = [loop_references.rapidity_to_momentum(l) for l in roots]
        assert abs(E - 0.9 * sum(np.cos(k) - 1 for k in ks)) < 1e-10

    def test_energy_pole(self):
        with pytest.raises(ValueError):
            coordinate.energy_xxx([0.5j])

    def test_momentum_trivials(self):
        assert coordinate.momentum_xxx([]) == 0.0
        assert abs(coordinate.momentum_xxx([0.0]) - np.pi) < 1e-14

    def test_momentum_real_for_conjugate_pair(self):
        lam = 0.7 + 0.4j
        P = coordinate.momentum_xxx([lam, np.conj(lam)])
        assert isinstance(P, float)
        assert 0 <= P < 2 * np.pi


def _model(kind, eta):
    """(package wavefunction, package kernel factors, reference factors, pole,
    string spacing) of the rational or the hyperbolic form."""
    if kind == "xxx":
        return (coordinate.offshell_wavefunction,
                lambda r: coordinate._factors(r, -1j),
                loop_references.xxx_factors(), 0.5j, 1j)
    return (lambda xs, r, L: coordinate._at(coordinate._factors(r, eta, np.sinh), xs, L),
            lambda r: coordinate._factors(r, eta, np.sinh),
            loop_references.xxz_factors(eta), eta / 2, eta)


def _assert_kernel_matches_loop(kind, eta, roots, L, pole_edge=False):
    """_bethe_sum's scaled values against the loop reference's, both brought
    to the reference's scale (unscaled amplitudes can be subnormal or
    overflow); an exact 0 is 0 at any scale."""
    _, kernel_factors, factors, _, _ = _model(kind, eta)
    sites = build_sector_basis(L, len(roots)).sites
    ref, scale = loop_references.log_terms(roots, L, sites.tolist(), *factors)
    vals, log_scale = coordinate._bethe_sum(kernel_factors(roots), L, sites)
    live = vals != 0
    scaled = np.zeros_like(vals)
    scaled[live] = vals[live] * np.exp(log_scale[live] - scale)
    assert np.max(np.abs(scaled - ref)) <= 1e-10
    if pole_edge:
        assert not live.any()


def _with_edge(roots, edge, pole, spacing):
    """roots with one edge case imposed on its first entries."""
    roots = roots.copy()
    if edge == "coincident" and len(roots) >= 2:
        roots[1] = roots[0]
    elif edge == "string" and len(roots) >= 2:
        roots[1] = roots[0] + spacing
    elif edge in ("pole+", "pole-"):
        roots[0] = pole if edge == "pole+" else -pole
    return roots


_COMPLEX = st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
# an XXZ eta whose string edge case makes a level of partial sums subnormal
SUBNORMAL_ETA = 1 + 1.0044e-299j


class TestKernelMatchesPermutationSum:
    """The subset recursion against the explicit N!-term loops of
    tests/loop_references.py, at random complex roots and at the edge cases:
    coincident roots, a root at a pole (+-i/2, or +-eta/2 for XXZ), a pair at
    distance i (eta), and the extended configurations x = 0 and x = L + 1."""

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(["xxx", "xxz"]), roots=st.lists(_COMPLEX, min_size=1, max_size=6),
           edge=st.sampled_from(["none", "coincident", "pole+", "pole-", "string"]),
           eta=_COMPLEX.filter(lambda z: abs(z) > 0.1), L=st.integers(1, 10))
    @example(kind="xxz", roots=[0.5j, 0j, 0j, 0.5j], edge="string", eta=SUBNORMAL_ETA, L=4)
    def test_vector_matches_loop(self, kind, roots, edge, eta, L):
        assume(L >= len(roots))
        _, _, _, pole, spacing = _model(kind, eta)
        roots = _with_edge(np.array(roots), edge, pole, spacing)
        _assert_kernel_matches_loop(kind, eta, roots, L, edge.startswith("pole"))

    def test_subnormal_level_matches_direct_sum(self):
        # the last level of partial sums has largest modulus 4.97e-316:
        # dividing by it overflowed, and the amplitude came out nan
        eta, xs, L = SUBNORMAL_ETA, (1, 2, 3, 4), 4
        roots = np.array([0.5j, 0.5j + eta, 0, 0.5j])
        ref, largest = loop_references.direct_sum(xs, roots, L,
                                                   *loop_references.xxz_factors(eta))
        with np.errstate(over="raise", invalid="raise"):
            psi = coordinate._at(coordinate._factors(roots, eta, np.sinh), xs, L)
        assert abs(psi - ref) <= 1e-10 * largest

    @pytest.mark.parametrize("L", range(1, 11))
    def test_root_a_subnormal_distance_from_the_pole(self, L):
        # the amplitudes are subnormal (log scale about -719.6 at L = 1)
        _assert_kernel_matches_loop("xxx", None, np.array([2.2250738585e-313 + 0.5j]), L)

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(["xxx", "xxz"]), N=st.integers(1, 5),
           edge=st.sampled_from(["none", "coincident", "pole+", "pole-", "string"]),
           eta=_COMPLEX.filter(lambda z: abs(z) > 0.1), data=st.data())
    def test_extended_configurations_match_direct_products(self, kind, N, edge, eta, data):
        L = data.draw(st.integers(N, 10))
        wavefunction, _, factors, pole, spacing = _model(kind, eta)
        roots = _with_edge(np.array(data.draw(st.lists(_COMPLEX, min_size=N, max_size=N))),
                           edge, pole, spacing)
        ends = st.sampled_from([0, L + 1])
        xs = tuple(data.draw(st.lists(st.one_of(ends, st.integers(0, L + 1)),
                                      min_size=N, max_size=N)))
        ref, largest = loop_references.direct_sum(xs, roots, L, *factors)
        assert abs(wavefunction(xs, roots, L) - ref) <= 1e-10 * largest

    def test_pole_root_at_its_extended_configuration(self):
        # (l + i/2)^0 = 1: a root at -i/2 survives only at x = 0, one at +i/2
        # only at x = L + 1
        L = 6
        for pole, x in ((-0.5j, 0), (0.5j, L + 1)):
            roots = np.array([pole, 0.3 + 0.2j])
            psi = coordinate.offshell_wavefunction((x, 3), roots, L)
            ref, _ = loop_references.direct_sum((x, 3), roots, L,
                                                *loop_references.xxx_factors())
            assert psi != 0 and abs(psi - ref) <= 1e-12 * abs(ref)
            assert coordinate.offshell_wavefunction((x + (1 if x == 0 else -1), 3),
                                                    roots, L) == 0


class TestKernelScaling:
    def test_memory_at_seven_roots_on_sixteen_sites(self):
        roots = random_roots(7)
        tracemalloc.start()
        try:
            v = coordinate.offshell_vector(roots, 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(v) == 11440 and abs(np.linalg.norm(v) - 1) < 1e-12
        assert peak < 5e6

    @pytest.mark.parametrize("L, N, block", [(14, 7, None), (8, 4, 6), (8, 4, 12), (9, 4, 18)])
    def test_sector_blocks_match_one_sum(self, L, N, block, monkeypatch):
        # the configurations are independent, so row blocks give the one-block
        # sum bitwise: (14, 7) takes four blocks of 936 rows (C(7, 3) = 35
        # partial sums each), the smaller BLOCKs one to three rows
        if block:
            monkeypatch.setattr(coordinate, "BLOCK", block)
        for factors in (coordinate._factors(random_roots(N), -1j),
                        coordinate._factors(random_roots(N), 0.4 + 0.3j, np.sinh)):
            vals, log_scale = coordinate._bethe_sum(factors, L, build_sector_basis(L, N).sites)
            assert np.array_equal(coordinate._over_sector(factors, L, False),
                                  vals * np.exp(log_scale))

    def test_large_roots_do_not_overflow(self):
        # raw amplitudes ~ |l|^(N (L+1)) = 1e960: only the running scale holds them
        L, roots = 14, 1e20 * (1 + np.arange(3)) + 0.3j
        v = coordinate.offshell_vector(roots, L)
        assert np.all(np.isfinite(v)) and abs(np.linalg.norm(v) - 1) < 1e-12
        w = coordinate.offshell_vector(roots[:2], 4)
        assert np.all(np.isfinite(w))

    def test_ground_state_eight_magnons_sixteen_sites(self):
        L, N = 16, 8
        rep = bae.solve_logbae(L, N, tuple(range(1, N + 1)))
        assert rep.converged
        v = coordinate.offshell_vector(rep.roots, L)
        H = ed.build_xxx_hamiltonian(L, 1.0, N)
        E = complex(coordinate.energy_xxx(rep.roots)).real
        assert np.linalg.norm(H.csr() @ v - E * v) <= 1e-8
        assert coordinate.highest_weight_residual(v, L, N) <= 1e-8
        assert abs(ed.diagonalize(H, k=1).eigenvalues[0] - E) <= 1e-8

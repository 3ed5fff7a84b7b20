"""Permutation-sum forms of the wavefunction kernels, kept as test references.

The package builds coordinate Bethe vectors by a recursion over subsets of
placed rapidities and nested Hubbard states by batched determinants.  These
are the explicit N!-term loops those kernels replace: the coordinate sum term
by term in log form (with a direct product loop when a site factor vanishes),
and the nested sum over charge permutations P and spin orderings R per
configuration.  Cost grows like N! (times M! for the nested state); use them
at small N only.

The two-magnon classification is kept as the serial grid search it
replaced: one solve_logbae per quantum-number pair, one single-lane
_damped_newton per bound-pair seed on a 0.1-step grid of Re l (on its own
bound_pair_system in (Re l, Im l)), and admissibility, residual and
de-duplication checked candidate by candidate, with the double-loop
admissibility test, where the package solves Bethe's momentum equation, one
unknown per total momentum.

The Hubbard block operators (Hamiltonian, S^+ and the one-site translation)
are kept as their per-state loops over up/down bit masks, with dict ranking
and fermion signs counted bit by bit on the interleaved orbital mask.  The
spin-chain basis is ranked bit by bit too (config_to_index and its inverse).

The sparse embedding of an operator on any tensor slots (embed_block, and
embed_pair for two) is the reference for the package's reshape action and
its Yang-Baxter Kronecker stacks.  The monodromy is kept as the CSR product
of its embedded R-factors (each R(l - xi_j) a sparse 2^(L+1) matrix built by
embed_pair), the B/C products in the same embedded-matrix form (each factor
applied as R @ x), the monodromy action as the sweep of one reshape action
per 4 x 4 R-factor (monodromy_action_by_factor), where the package applies
the factors of two sites at a time, and the edge enumeration in its
per-configuration loop.
The transfer-to-Hamiltonian link is kept with t'(0) from the central
difference of two transfer matrices (hamiltonian_from_transfer_fd), where the
package sums the exact derivative site by site.

The algebraic Bethe layer is kept in its scalar form: the closed-form
homogeneous vacuum rho^L sh^L(l +- eta/2) with its derivatives, the
inhomogeneous vacuum through the per-term zero-safe derivative d_prod_sh, the
transfer eigenvalue one l at a time, the Q-form residual and the action
coefficients root by root, the determinant matrices of the pairing
formula entry by entry (with the kernel variant that repeats e(m_j - l_k)),
and the products of all factors of Q but one as an (n, n) stack masked on
the diagonal at 50 digits (q_masked), where the package multiplies exclusive
prefix and suffix products in floats.

The Nystrom kernels of the root-density equation are kept unblocked: the
whole (m, n) kernel times the weights, then one product with the values, and
the folded solve matrix and its symmetrized form from two whole (n/2) x (n/2)
kernels.

The spin-chain operators are kept as one hand-written loop each, over sorted
bit codes with site x in bit L - x: the XXZ bonds (xxz_entries, diagonal
summed bond by bond), the total spin site by site (total_spin_entries) and
S^+ between sectors (splus_pairs), where the package runs one local-term
builder for all three.  The Casimir is kept as the sum of the squares of the
three full-space components (casimir), where the package sums the exchange
terms of all site pairs.

The SU(2) multiplet check is kept in its one-block form (multiplet_structure):
the spectrum's whole (dim, k) eigenvector array, the Casimir applied to it
level by level, and the S(S+1) bookkeeping eigenvalue by eigenvalue, where
the package works per connected block of the spectrum.

The exponential-form factors of the Bethe equations are kept as complex
logs: log sh without overflow (log_sh), and the pole guard that compares
log |f(l -+ eta/2)| with log 1e-12 (pole_guard_raises), where the package
works in real arithmetic from Re and Im of its arguments.  The XXX
quasi-momentum is kept root by root as the principal complex log of
(l + i/2)/(l - i/2) (rapidity_to_momentum), where the package sums the
chain kernel's real-arithmetic log ratio.

The Newton systems are kept in their stacked form: the grid search's
bound-pair F and J (bound_pair_system) by np.stack of real and imaginary
parts, the Lieb-Wu F by np.concatenate and its J by np.block
(liebwu_system), where the package writes Lieb-Wu's into one preallocated
array.  The damped-Newton driver is kept
as it gathered the running lanes' tolerances on every step, selected rows
by boolean masks and took every per-lane maximum over the last axis
(damped_newton), where the package slices the tolerances as lanes retire,
takes rows by index and tests for run-away against the stack-wide maximum
first.

Canonical JSON is kept in its recursive isinstance form (dumps): one call per
value, numpy arrays through their nested lists, each float checked and
formatted alone, where the package looks up a writer by type and formats a
float or complex array in one sweep.
"""

import json
from itertools import permutations

import numpy as np
import scipy.sparse as sp

from bethelab import aba, bae, ed, hubbard, sixvertex
from bethelab.basis import build_sector_basis
from bethelab.coordinate import RapiditySet


def config_to_index(L, xs):
    """Index of the basis state with down spins at sites xs (1-based) in the
    full 2^L space."""
    i = 0
    for x in xs:
        i |= 1 << (L - x)
    return i


def index_to_config(L, i):
    """Down-spin sites (1-based, increasing) of a full-space basis index."""
    return tuple(x for x in range(1, L + 1) if (i >> (L - x)) & 1)


def signed_permutations(n):
    """Yield (permutation tuple, sign) via Heap's algorithm with incremental
    sign tracking; every step is a single transposition."""
    perm = list(range(n))
    sign = 1
    yield tuple(perm), sign
    c = [0] * n
    i = 1
    while i < n:
        if c[i] < i:
            if i % 2 == 0:
                perm[0], perm[i] = perm[i], perm[0]
            else:
                perm[c[i]], perm[i] = perm[i], perm[c[i]]
            sign = -sign
            yield tuple(perm), sign
            c[i] += 1
            i = 1
        else:
            c[i] = 0
            i += 1


def log_terms(roots, L, xs_list, pair_factor, plus_half, minus_half):
    """Per-permutation sum sign(Q) exp(sum of complex logs) at each
    configuration, with a common scale: returns (values, log_scale) with
    amplitude = values * exp(log_scale).  Terms with a vanishing factor are
    dropped, so configurations that need 0^0 = 1 go through `direct_sum`."""
    N = len(roots)
    if N == 0:
        return np.ones(len(xs_list), complex), 0.0
    xs_arr = np.asarray(xs_list, dtype=float)
    lp = np.array([plus_half(l) for l in roots])
    lm = np.array([minus_half(l) for l in roots])
    zero_mask = (np.abs(lp) == 0) | (np.abs(lm) == 0)
    log_p = np.log(np.where(np.abs(lp) == 0, 1.0, lp).astype(complex))
    log_m = np.log(np.where(np.abs(lm) == 0, 1.0, lm).astype(complex))
    d = log_p - log_m
    base = (L + 1) * np.sum(log_m)
    exps, signs = [], []
    for perm, sign in signed_permutations(N):
        pair = 0.0 + 0.0j
        pair_zero = False
        for a in range(N):
            for b in range(a + 1, N):
                f = pair_factor(roots[perm[a]] - roots[perm[b]])
                if f == 0:
                    pair_zero = True
                pair += np.log(complex(f)) if f != 0 else 0.0
        if pair_zero or any(zero_mask[list(perm)]):
            continue
        exps.append(pair + base + xs_arr @ d[list(perm)])
        signs.append(sign)
    if not exps:
        return np.zeros(len(xs_list), complex), 0.0
    scale = max(float(np.max(e.real)) for e in exps)
    out = np.zeros(len(xs_list), complex)
    for sign, e in zip(signs, exps):
        out += sign * np.exp(e - scale)
    return out, scale


def direct_sum(xs, roots, L, pair_factor, plus_half, minus_half):
    """The permutation sum at one configuration as plain products (0^0 = 1),
    with the largest term modulus: (sum, largest)."""
    total = 0.0 + 0.0j
    largest = 0.0
    for perm, sign in signed_permutations(len(roots)):
        term = complex(sign)
        for a in range(len(roots)):
            for b in range(a + 1, len(roots)):
                term *= pair_factor(roots[perm[a]] - roots[perm[b]])
        for k, x in enumerate(xs):
            l = roots[perm[k]]
            term *= plus_half(l) ** x * minus_half(l) ** (L - x + 1)
        total += term
        largest = max(largest, abs(term))
    return complex(total), largest


def xxx_factors():
    return (lambda u: u + 1j), (lambda l: l + 0.5j), (lambda l: l - 0.5j)


def xxz_factors(eta):
    return (lambda u: np.sinh(u - eta)), (lambda l: np.sinh(l - eta / 2)), \
        (lambda l: np.sinh(l + eta / 2))


def perm_sign(p):
    s = 1
    p = list(p)
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                s = -s
    return s


def spin_amplitude(aQ, kP, lam, u):
    """Nested spin amplitude: sum over spin-rapidity orderings R of
    A(lam R) prod_l F_{kP}(lam_{R(l)}; y_l), with y_l the (1-based) positions
    of the down spins in aQ; zero when the down-spin count differs from M."""
    M = len(lam)
    ys = [i + 1 for i, a in enumerate(aQ) if a == 1]
    if len(ys) != M:
        return 0.0 + 0.0j
    sk = np.sin(np.asarray(kP, complex))
    total = 0.0 + 0.0j
    for R in permutations(range(M)):
        lR = [lam[r] for r in R]
        amp = 1.0 + 0.0j
        for m in range(M):
            for nn in range(m + 1, M):
                amp *= (lR[m] - lR[nn] - 2j * u) / (lR[m] - lR[nn])
        for ell in range(M):
            y = ys[ell]
            l = lR[ell]
            f = 2j * u / (l - sk[y - 1] + 1j * u)
            for j in range(y - 1):
                f *= (l - sk[j] - 1j * u) / (l - sk[j] + 1j * u)
            amp *= f
        total += amp
    return total


def nested_wavefunction(xs, spins, roots):
    """Sum over charge permutations P of sign(P) sign(Q) spin_amplitude
    e^{i sum_j k_Pj x_Qj}, Q the stable sort of xs."""
    N = roots.N
    Q = tuple(sorted(range(N), key=lambda i: (xs[i], i)))
    xQ = [xs[q] for q in Q]
    aQ = [spins[q] for q in Q]
    sgnQ = perm_sign(Q)
    total = 0.0 + 0.0j
    for P in permutations(range(N)):
        kP = [roots.k[p] for p in P]
        amp = spin_amplitude(aQ, kP, roots.lam, roots.u)
        if amp == 0.0:
            continue
        phase = np.exp(1j * sum(kP[j] * xQ[j] for j in range(N)))
        total += perm_sign(P) * sgnQ * amp * phase
    return complex(total)


def assemble_state(roots, basis):
    """nested_wavefunction at every basis state read in orbital order, times
    (-1)^(K(K-1)/2), normalized."""
    L, K = roots.L, roots.N
    v = np.zeros(basis.dim, complex)
    for i, (um, dm) in enumerate(_fermion_states(basis)):
        orbs = []
        for x in range(L):
            if (um >> x) & 1:
                orbs.append((x + 1, 0))
            if (dm >> x) & 1:
                orbs.append((x + 1, 1))
        v[i] = (-1) ** (K * (K - 1) // 2) * nested_wavefunction(
            [x for x, _ in orbs], [s for _, s in orbs], roots)
    nrm = np.linalg.norm(v)
    return v / nrm if nrm > 0 else v


def admissibility(roots, tol=bae.EQUALITY_TOL):
    """(flag, reasons) of an XXX root set, pair by pair."""
    lam = np.asarray(getattr(roots, "values", roots), complex)
    reasons = []
    n = len(lam)
    for j in range(n):
        if abs(lam[j] - 0.5j) < tol or abs(lam[j] + 0.5j) < tol:
            reasons.append(f"root at +-i/2 (index {j})")
    for j in range(n):
        for k in range(n):
            if j == k:
                continue
            if j < k and abs(lam[j] - lam[k]) < tol:
                reasons.append(f"coincident roots ({j},{k})")
            if abs(lam[j] - lam[k] - 1j) < tol:
                reasons.append(f"difference i ({j},{k})")
    return len(reasons) == 0, reasons


def classify_two_magnon(L, qn_range=None, grid=None, delta0=0.5):
    """bae.classify_two_magnon, one solve and one candidate at a time."""
    if qn_range is None:
        qn_range = range(-L // 2 + 1, L // 2 + 4)
    found = []
    keys = np.empty((0, 2), complex)  # sorted root pairs of found

    def add(roots, kind):
        nonlocal keys
        if not admissibility(roots)[0]:
            return
        if bae.bae_residual_xxx(roots, L) > 1e-10:
            return
        key = np.sort_complex(roots)
        if np.any(np.max(np.abs(keys - key), axis=1) < 1e-6):
            return
        keys = np.vstack([keys, key])
        found.append((RapiditySet("XXX", L, roots), kind))

    for n1 in qn_range:
        for n2 in qn_range:
            if n2 <= n1:
                continue
            rep = bae.solve_logbae(L, 2, (n1, n2))
            if rep.converged:
                add(rep.roots.values, "real-pair")

    if grid is None:
        reach = max(3.0, 1.0 / np.tan(np.pi / L) + 1.5)
        grid = np.arange(-reach, reach + 1e-9, 0.1)
    F, J = bound_pair_system(L)
    for lr0 in grid:
        z, _, _, stop = bae._damped_newton(F, J, (lr0, delta0), tol=1e-13, max_iter=100)
        if stop == "converged" and abs(z[1]) >= 1e-4:
            add(np.array([z[0] + 1j * z[1], z[0] - 1j * z[1]]), "bound-pair")
    return found


def bound_pair_system(L):
    """(F, J) of the N = 2 bound-pair equation in z = (l_r, d), l = l_r + i d:
    G = ((l - i/2)/(l + i/2))^L - (2d - 1)/(2d + 1), split into (Re G, Im G)
    and stacked from real and imaginary parts.  G is holomorphic in l up to
    the d-dependent constant, whose d-derivative is 4/(2d + 1)^2.  z has
    shape (2,) or (B, 2)."""

    def p(z):
        l = z[..., 0] + 1j * z[..., 1]
        return l, np.exp(L * (np.log(l - 0.5j) - np.log(l + 0.5j)))

    def F(z, lanes=None):
        g = p(z)[1] - (2 * z[..., 1] - 1) / (2 * z[..., 1] + 1)
        return np.stack([g.real, g.imag], axis=-1)

    def J(z, lanes=None):
        l, pl = p(z)
        dl = pl * L * (1 / (l - 0.5j) - 1 / (l + 0.5j))
        dd = 1j * dl - 4 / (2 * z[..., 1] + 1) ** 2
        return np.stack([np.stack([dl.real, dd.real], axis=-1),
                         np.stack([dl.imag, dd.imag], axis=-1)], axis=-2)
    return F, J


def liebwu_system(L, N, M, u, ns, ss):
    """hubbard._liebwu_system with F concatenated and J assembled by np.block."""
    off_c = hubbard._charge_offset(M)
    off_s = np.pi * (M - 1 - N)
    off_s -= 2 * np.pi * np.round(off_s / (2 * np.pi))
    i = np.arange(N)

    def F(z, lanes=None):
        k, lam = z[..., :N], z[..., N:]
        a = 2 * np.arctan((np.sin(k)[..., :, None] - lam[..., None, :]) / u)  # N x M
        G = k * L - 2 * np.pi * bae._per_lane(ns, lanes) - off_c + a.sum(axis=-1)
        Hs = (-a.sum(axis=-2) - np.sum(2 * np.arctan(bae._diff(lam) / (2 * u)), axis=-1)
              - off_s - 2 * np.pi * bae._per_lane(ss, lanes))
        return np.concatenate([G, Hs], axis=-1)

    def J(z, lanes=None):
        k, lam = z[..., :N], z[..., N:]
        ck = np.cos(k)
        A = 2 * u / (u ** 2 + (np.sin(k)[..., :, None] - lam[..., None, :]) ** 2)  # N x M
        spin = bae._jacobian(A.sum(axis=-2), 4 * u / (4 * u ** 2 + bae._diff(lam) ** 2))
        charge = np.zeros(k.shape + (N,))
        charge[..., i, i] = L + ck * A.sum(axis=-1)
        return np.block([[charge, -A], [-(A * ck[..., :, None]).swapaxes(-1, -2), spin]])
    return F, J


def damped_newton(F, J, x0, tol=bae.TOL, max_iter=bae.MAX_ITER, f0=None):
    """bae._damped_newton as it gathered tol[lanes] on every step, selected
    rows by boolean masks and took the per-lane maxima over the last axis."""
    x = np.array(x0, float, ndmin=2)
    tol = np.full(len(x), tol)
    out, res_out = np.empty_like(x), np.empty(len(x))
    iters, stop = np.empty(len(x), int), np.empty(len(x), int)
    lanes, sub = np.arange(len(x)), None

    def retire(drop, why, it, *more):
        nonlocal lanes, sub
        sel, keep = lanes[drop], ~drop
        out[sel], res_out[sel], iters[sel], stop[sel] = x[drop], res[drop], it, why
        lanes = sub = lanes[keep]
        return [a[keep] for a in more]

    f = F(x, sub) if f0 is None else np.array(f0, float, ndmin=2)
    res = np.abs(f).max(axis=-1, initial=0.0)
    for it in range(1, max_iter + 1):
        done = res < tol[lanes]
        if done.any():
            far = np.abs(x[done]).max(axis=-1, initial=0.0) > 0.01 * bae.ROOT_ESCAPE
            x, f, res = retire(done, np.where(far, bae.RUN_AWAY, bae.CONVERGED), it - 1, x, f, res)
            if not len(x):
                break
        Jx = J(x, sub)
        try:
            step = np.linalg.solve(Jx, -f[..., None])[..., 0]
        except np.linalg.LinAlgError:
            step, bad = np.zeros_like(x), np.zeros(len(x), bool)
            for r in range(len(x)):
                try:
                    step[r] = np.linalg.solve(Jx[r], -f[r])
                except np.linalg.LinAlgError:
                    bad[r] = True
            x, f, res, step = retire(bad, bae.SINGULAR, it, x, f, res, step)
            if not len(x):
                break
        x_new = x + step
        f_new = F(x_new, sub)
        res_new = np.abs(f_new).max(axis=-1)
        ok = res_new < res
        if not ok.all():
            p, t = np.flatnonzero(~ok), 1.0
            for _ in range(49):
                t /= 2
                xp = x[p] + t * step[p]
                fp = F(xp, lanes[p])
                rp = np.abs(fp).max(axis=-1)
                ok = rp < res[p]
                q = p[ok]
                x_new[q], f_new[q], res_new[q] = xp[ok], fp[ok], rp[ok]
                p = p[~ok]
                if not len(p):
                    break
            else:
                stalled = np.zeros(len(x), bool)
                stalled[p] = True
                x_new, f_new, res_new = retire(stalled, bae.STALLED, it, x_new, f_new, res_new)
        x, f, res = x_new, f_new, res_new
        away = np.abs(x).max(axis=-1) > bae.ROOT_ESCAPE
        if away.any():
            x, f, res = retire(away, bae.RUN_AWAY, it, x, f, res)
        if not len(x):
            break
    else:
        retire(np.ones(len(x), bool), bae.MAX_ITER_STOP, max_iter)
    if np.ndim(x0) == 1:
        return out[0], float(res_out[0]), int(iters[0]), bae.STOP_REASONS[stop[0]]
    return out, res_out, iters, np.array(bae.STOP_REASONS)[stop]


def embed_block(R, slots, n):
    """Sparse embedding of an operator on the tensor slots `slots` (the first
    slowest in R's index) out of n slots, slot 0 slowest."""
    bits = [1 << (n - 1 - pos) for pos in slots]  # of the index, per slot
    digits = [1 << (len(slots) - 1 - i) for i in range(len(slots))]  # of R's index
    idx = np.arange(2 ** n)
    block = sum(d * ((idx & b) > 0) for b, d in zip(bits, digits))  # block state of each index
    rest = idx & ~sum(bits)
    place = np.array([sum(b for b, d in zip(bits, digits) if k & d)
                      for k in range(2 ** len(slots))])
    rows, cols, vals = [np.empty(0, int)], [np.empty(0, int)], [np.empty(0, complex)]
    for out, inp in zip(*np.nonzero(R)):
        src = idx[block == inp]
        rows.append(rest[src] | place[out])
        cols.append(src)
        vals.append(np.full(src.shape, R[out, inp], complex))
    return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(2 ** n, 2 ** n)).tocsr()


def embed_pair(R4, pos0, pos1, n):
    """Sparse embedding of a two-site operator on tensor slots (pos0, pos1)
    out of n slots, slot 0 slowest."""
    return embed_block(R4, (pos0, pos1), n)


def r_factors(lam, L, weights, aux=0, n=None):
    """The embedded CSR R_{aux,j}(l - xi_j), j = 1..L, in the order they act
    (site 1 first), with the chain in the last L of n slots (default L + 1:
    aux (x) chain)."""
    n = L + 1 if n is None else n
    return [embed_pair(R4, aux, n - L - 1 + j, n)
            for j, R4 in enumerate(sixvertex._r_matrices(lam, L, weights), start=1)]


def monodromy_csr(lam, L, weights, aux=0, n=None):
    """sixvertex._monodromy_csr as the CSR product R_{aux,L} ... R_{aux,1} of
    the embedded factors (on n slots, as in r_factors)."""
    T = None
    for R in r_factors(lam, L, weights, aux, n):
        T = R if T is None else R @ T
    return T


def monodromy_action_by_factor(lam, L, weights, x, transposed=False):
    """sixvertex._monodromy_action as one reshape action per 4 x 4 R-factor,
    site 1 first (site L first for T_0(l)^T: R is symmetric)."""
    factors = list(enumerate(sixvertex._r_matrices(lam, L, weights), start=1))
    for j, R4 in factors[::-1] if transposed else factors:
        x = sixvertex._apply_pair(R4, j, x)
    return x


def off_diagonal_product(roots, L, weights, transposed):
    """aba._off_diagonal_product with the embedded CSR R-factors, applied in
    reverse order for the transposed (C) product."""
    v = np.zeros(2 ** L, complex)
    v[0] = 1.0
    for lam in np.atleast_1d(np.asarray(roots, complex)):
        x = np.concatenate([np.zeros_like(v), v])
        factors = r_factors(lam, L, weights)
        for R in factors[::-1] if transposed else factors:
            x = R @ x
        v = x[:len(v)]
    return v


def hamiltonian_from_transfer_fd(L, eta, rho, step):
    """The operator of sixvertex.hamiltonian_from_transfer with t'(0) taken
    as the central difference (t(step) - t(-step)) / (2 step): it differs
    from the exact one by O(step^2)."""
    w = sixvertex.VertexWeights.from_parameters(rho, 0.0, eta)
    tp, tm = (sixvertex.transfer(x, L, w).csr() for x in (step, -step))
    U = ed.build_shift_operator(L).csr()
    tprime = (tp - tm) / (2 * step)
    return (np.sinh(eta) / 2 * ((U / w.c ** L) @ tprime)
            - np.cosh(eta).real * L / 2 * sp.identity(2 ** L, format="csr"))


def enumerate_partition(L, M, a, b, c):
    """sixvertex.enumerate_partition one configuration at a time, each row's
    2x2 product carried site by site for every configuration (the package
    tabulates a row once per (south, north) pair), in Python ints for
    integer weights at any size."""
    exact = all(isinstance(x, (int, np.integer)) for x in (a, b, c))
    W = np.zeros((2, 2, 2, 2), dtype=object if exact else complex)
    # (west, south, east, north); 1 = arrow in the positive direction
    W[1, 1, 1, 1] = W[0, 0, 0, 0] = a
    W[1, 0, 1, 0] = W[0, 1, 0, 1] = b
    W[1, 0, 0, 1] = W[0, 1, 1, 0] = c
    total = 0 if exact else 0.0 + 0.0j
    for cfg in range(2 ** (L * M)):
        v = [(cfg >> i) & 1 for i in range(L * M)]
        wgt = 1 if exact else 1.0 + 0.0j
        for i in range(M):
            s_row = v[i * L:(i + 1) * L]
            n_row = v[((i + 1) % M) * L:((i + 1) % M) * L + L]
            m00 = m11 = 1 if exact else 1.0
            m01 = m10 = 0 if exact else 0.0
            for j in range(L):
                a00 = W[0, s_row[j], 0, n_row[j]]
                a01 = W[0, s_row[j], 1, n_row[j]]
                a10 = W[1, s_row[j], 0, n_row[j]]
                a11 = W[1, s_row[j], 1, n_row[j]]
                m00, m01, m10, m11 = (m00 * a00 + m01 * a10, m00 * a01 + m01 * a11,
                                      m10 * a00 + m11 * a10, m10 * a01 + m11 * a11)
            wgt *= m00 + m11
            if wgt == 0:
                break
        total += wgt
    return total


def _combined_mask(L, um, dm):
    """Interleaved orbital mask: bit 2x is the up spin at x, bit 2x+1 the
    down spin."""
    m = 0
    for x in range(L):
        if (um >> x) & 1:
            m |= 1 << (2 * x)
        if (dm >> x) & 1:
            m |= 1 << (2 * x + 1)
    return m


def _fermion_states(basis):
    """The (up, dn) mask pairs of a hubbard.FermionBasis, in basis order."""
    return list(zip(basis.up.tolist(), basis.dn.tolist()))


def _fermion_index(basis):
    """Dict from (up, dn) mask pairs to their ordinals in the basis."""
    return {s: i for i, s in enumerate(_fermion_states(basis))}


def _popcount_below(mask, p):
    return bin(mask & ((1 << p) - 1)).count("1")


def hubbard_hamiltonian(L, u, basis):
    """hubbard.build_hubbard_hamiltonian(...).matrix state by state."""
    dim = basis.dim
    H = np.zeros((dim, dim))
    index = _fermion_index(basis)
    for i, (um, dm) in enumerate(_fermion_states(basis)):
        diag = 0.0
        for x in range(L):
            nu = (um >> x) & 1
            nd = (dm >> x) & 1
            diag += u * (1 - 2 * nu) * (1 - 2 * nd)
        H[i, i] += diag
        if L == 1:
            continue
        for j in range(L):
            jp = (j + 1) % L
            for s, mask in ((0, um), (1, dm)):
                for src, dst in ((jp, j), (j, jp)):
                    if not ((mask >> src) & 1) or ((mask >> dst) & 1):
                        continue
                    cm = _combined_mask(L, um, dm)
                    sgn = (-1) ** _popcount_below(cm, 2 * src + s)
                    cm2 = cm & ~(1 << (2 * src + s))
                    sgn *= (-1) ** _popcount_below(cm2, 2 * dst + s)
                    new = mask ^ (1 << src) | (1 << dst)
                    key = (new, dm) if s == 0 else (um, new)
                    H[index[key], i] -= sgn
    return H


def spin_raise_block(basis, dst):
    """hubbard.spin_raise_block(basis)[0] state by state (dst: the (N, M-1)
    basis)."""
    m = np.zeros((dst.dim, basis.dim))
    index = _fermion_index(dst)
    for i, (um, dm) in enumerate(_fermion_states(basis)):
        for x in range(basis.L):
            if ((dm >> x) & 1) and not ((um >> x) & 1):
                cm = _combined_mask(basis.L, um, dm)
                sgn = (-1) ** _popcount_below(cm, 2 * x + 1)
                cm2 = cm & ~(1 << (2 * x + 1))
                sgn *= (-1) ** _popcount_below(cm2, 2 * x)
                key = (um | (1 << x), dm & ~(1 << x))
                m[index[key], i] += sgn
    return m


def shift_block(basis, direction=-1):
    """hubbard.shift_block state by state, the sign as the parity of the
    permutation sorting the shifted orbital string."""
    L = basis.L
    m = np.zeros((basis.dim, basis.dim))
    index = _fermion_index(basis)
    for i, (um, dm) in enumerate(_fermion_states(basis)):
        orbs = []
        for x in range(L):
            if (um >> x) & 1:
                orbs.append(2 * x)
            if (dm >> x) & 1:
                orbs.append(2 * x + 1)
        shifted = [2 * (((p // 2) + direction) % L) + (p % 2) for p in orbs]
        perm = np.argsort(shifted, kind="stable")
        sgn = 1
        seen = [False] * len(perm)
        for start in range(len(perm)):
            if seen[start]:
                continue
            length = 0
            jj = start
            while not seen[jj]:
                seen[jj] = True
                jj = perm[jj]
                length += 1
            if length % 2 == 0:
                sgn = -sgn
        um2 = dm2 = 0
        for p in shifted:
            if p % 2 == 0:
                um2 |= 1 << (p // 2)
            else:
                dm2 |= 1 << (p // 2)
        m[index[(um2, dm2)], i] = sgn
    return m


def d_prod_sh(args):
    """d/dl prod_m sh(args_m) for args = l - const, in the zero-safe form
    sum_m ch(args_m) prod_{n != m} sh(args_n)."""
    terms = np.sinh(args)
    return sum(np.cosh(args[m]) * np.prod(np.delete(terms, m)) for m in range(len(args)))


def q_masked(lam, roots, own):
    """own(l - n_m) prod_{k != m} sh(l - n_k) for every m (on the last axis),
    as the (..., n, n) stack of factors masked on its diagonal, for a scalar
    or an array of l; own maps an mpmath number to one.  Every entry is taken
    at 50 digits with mpmath and rounded once, so it is the reference below
    the smallest normal too, where float products round to the subnormal
    spacing."""
    import mpmath
    lam, roots = np.asarray(lam, complex), np.asarray(roots, complex)
    out = np.empty(lam.shape + roots.shape, complex)
    with mpmath.workdps(50):
        for i in np.ndindex(lam.shape):
            x = [mpmath.mpc(lam[i]) - mpmath.mpc(r) for r in roots]
            s = [mpmath.sinh(v) for v in x]
            for m in range(len(x)):
                out[i + (m,)] = complex(own(x[m]) * mpmath.fprod(s[:m] + s[m + 1:]))
    return out


class ScalarVacuum:
    """aba.VacuumFunctions at one scalar l: the homogeneous (xi = eta/2)
    closed forms rho^L sh^L(l +- eta/2), or the products over explicit xi."""

    def __init__(self, L, eta, rho=1.0, xi=None):
        self.L, self.eta, self.rho = L, eta, rho
        self.xi = None if xi is None else np.asarray(xi, complex)

    def a(self, l):
        if self.xi is None:
            return self.rho ** self.L * np.sinh(l + self.eta / 2) ** self.L
        return self.rho ** self.L * np.prod(np.sinh(l - self.xi + self.eta))

    def d(self, l):
        if self.xi is None:
            return self.rho ** self.L * np.sinh(l - self.eta / 2) ** self.L
        return self.rho ** self.L * np.prod(np.sinh(l - self.xi))

    def dlog_a(self, l):
        if self.xi is None:
            return self.L / np.tanh(l + self.eta / 2)
        return np.sum(1 / np.tanh(l - self.xi + self.eta))

    def dlog_d(self, l):
        if self.xi is None:
            return self.L / np.tanh(l - self.eta / 2)
        return np.sum(1 / np.tanh(l - self.xi))

    def da(self, l):
        if self.xi is None:
            return self.rho ** self.L * self.L * np.sinh(l + self.eta / 2) ** (self.L - 1) \
                * np.cosh(l + self.eta / 2)
        return self.rho ** self.L * d_prod_sh(l - self.xi + self.eta)

    def dd(self, l):
        if self.xi is None:
            return self.rho ** self.L * self.L * np.sinh(l - self.eta / 2) ** (self.L - 1) \
                * np.cosh(l - self.eta / 2)
        return self.rho ** self.L * d_prod_sh(l - self.xi)


def q_function(lam, roots):
    return complex(np.prod(np.sinh(lam - np.asarray(roots, complex))))


def bae_q_residual(roots, vac):
    """aba.bae_q_residual root by root (vac: a ScalarVacuum)."""
    roots = np.asarray(roots, complex)
    res = 0.0
    for m in roots:
        t1 = vac.a(m) * q_function(m - vac.eta, roots)
        t2 = vac.d(m) * q_function(m + vac.eta, roots)
        res = max(res, abs(t1 + t2) / max(abs(t1), abs(t2), 1e-300))
    return float(res)


def action_terms(params, ell, L, eta, rho):
    """({l}_j for each dropped j, the coefficient of the {l}_j term in the
    action of t(l_ell) on the {l}_ell product), root by root (no pole guard)."""
    params = np.asarray(params, complex)
    vac = ScalarVacuum(L, eta, rho)
    keep = [np.delete(params, j) for j in range(len(params))]
    coeffs = [(vac.a(params[j]) * q_function(params[j] - eta, keep[ell])
               + vac.d(params[j]) * q_function(params[j] + eta, keep[ell]))
              / q_function(params[j], keep[j]) for j in range(len(params))]
    return keep, coeffs


def transfer_eigenvalue(lam, roots, vac):
    """aba.transfer_eigenvalue one l at a time (vac: a ScalarVacuum): within
    1e-8 of a root the derivative of the numerator over the product of the
    other factors of Q."""
    roots = np.asarray(roots, complex)
    out = []
    for l in np.atleast_1d(np.asarray(lam, complex)):
        qm, qp = q_function(l - vac.eta, roots), q_function(l + vac.eta, roots)
        dist = np.abs(l - roots)
        if np.min(dist, initial=np.inf) > 1e-8:
            out.append((vac.a(l) * qm + vac.d(l) * qp) / q_function(l, roots))
            continue
        num = (vac.da(l) * qm + vac.a(l) * d_prod_sh(l - vac.eta - roots)
               + vac.dd(l) * qp + vac.d(l) * d_prod_sh(l + vac.eta - roots))
        out.append(num / q_function(l, np.delete(roots, np.argmin(dist))))
    return np.array(out, complex)


def e_function(lam, eta):
    """e(l) = cth(l) - cth(l + eta), the kernel of the pairing numerator."""
    return aba.cth(lam) - aba.cth(lam + eta)


def determinant_ratio(mu, la, L, eta, rho, reflected):
    """aba.slavnov_ratio's determinant expression with the three N x N
    matrices filled entry by entry from scalar counting functions; with
    reflected=False, the kernel repeats e(m_j - l_k) in its second term."""
    n = len(mu)
    vac = ScalarVacuum(L, eta, rho)

    def afun(l):
        return vac.d(l) * q_function(l + eta, mu) / (vac.a(l) * q_function(l - eta, mu))

    def dafun(l):
        dlog = vac.dlog_d(l) - vac.dlog_a(l) + np.sum(1 / np.tanh(l + eta - mu)) \
            - np.sum(1 / np.tanh(l - eta - mu))
        return afun(l) * dlog

    log_pref = 0.0 + 0.0j
    for j in range(n):
        log_pref += np.log(transfer_eigenvalue(la[j], mu, vac)[0]) \
            - np.log(transfer_eigenvalue(mu[j], mu, vac)[0])
    af = [afun(lk) for lk in la]
    daf = [dafun(mk) for mk in mu]
    num = np.empty((n, n), complex)
    den_gaudin = np.eye(n, dtype=complex)
    den_cauchy = np.empty((n, n), complex)
    for j in range(n):
        for k in range(n):
            second = la[k] - mu[j] if reflected else mu[j] - la[k]
            num[j, k] = (e_function(mu[j] - la[k], eta) / (1 + af[k])
                         - e_function(second, eta) / (1 + 1 / af[k]))
            den_cauchy[j, k] = 1 / np.sinh(mu[j] - la[k])
            den_gaudin[j, k] -= aba.k_function(mu[j] - mu[k], eta) / daf[k]
    return complex(np.linalg.det(num) / (np.linalg.det(den_gaudin) * np.linalg.det(den_cauchy))
                   * np.exp(log_pref))


def nystrom_kernel(d):
    """1 / (pi (1 + d^2)), the root-density kernel."""
    return 1.0 / (np.pi * (1.0 + d ** 2))


def kernel_sum(lam, nodes, weights, values):
    """sum_j K(lam_i - nodes_j) weights_j values_j through the whole
    (len(lam), len(nodes)) kernel."""
    return (nystrom_kernel(lam[:, None] - nodes[None, :]) * weights[None, :]) @ values


def folded_system(lam, wts, odd):
    """1 + (K(l_i - l_j) + K(l_i + l_j)) w_j on the nodes l >= 0 from two whole
    kernels, the l = 0 column of an odd rule halved."""
    A = nystrom_kernel(lam[:, None] - lam[None, :])
    A += nystrom_kernel(lam[:, None] + lam[None, :])
    A *= wts
    if odd:
        A[:, 0] *= 0.5
    A[np.diag_indices(len(lam))] += 1.0
    return A


def symmetrized_fold(lam, r):
    """1 + r_i (K(l_i - l_j) + K(l_i + l_j)) r_j on the nodes l >= 0 from two
    whole kernels, r the square roots of the folded weights."""
    S = nystrom_kernel(lam[:, None] - lam[None, :])
    S += nystrom_kernel(lam[:, None] + lam[None, :])
    S *= r[:, None]
    S *= r
    S[np.diag_indices(len(lam))] += 1.0
    return S


def xxz_entries(L, states, jxy, jz):
    """COO triplets of sum_j [ jxy/2 (s+s- + s-s+) + jz (s^z s^z - 1/4) ] on the
    periodic bonds over the sorted codes states; flips first, then the
    nonzero diagonal summed bond by bond in site order."""
    diag = np.zeros(len(states))
    rows, cols = [], []
    for j in range(1, L + 1):
        b1 = L - j
        b2 = L - (j % L + 1)
        anti = np.flatnonzero(((states >> b1) ^ (states >> b2)) & 1)
        diag[anti] += -0.5 * jz  # parallel bonds: zz - 1/4 = 0, no flip
        rows.append(np.searchsorted(states, states[anti] ^ ((1 << b1) | (1 << b2))))
        cols.append(anti)
    nz = np.flatnonzero(diag)
    flips = np.full(sum(map(len, cols)), 0.5 * jxy)
    return (np.concatenate(rows + [nz]), np.concatenate(cols + [nz]),
            np.concatenate([flips, diag[nz]]))


def total_spin_entries(L, op):
    """COO triplets of sum_x op_x on the full 2^L space, site by site; op is
    2 x 2 in the local basis (up, down) = (0, 1)."""
    states = np.arange(2 ** L, dtype=np.int64)
    rows, cols, vals = [], [], []
    for x in range(1, L + 1):
        b = L - x
        bit = (states >> b) & 1
        for out in range(2):
            v = op[out, bit]
            keep = np.flatnonzero(v)
            rows.append((states[keep] & ~(1 << b)) | (out << b))
            cols.append(keep)
            vals.append(v[keep])
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def casimir(L):
    """(S^x)^2 + (S^y)^2 + (S^z)^2 on the full 2^L space as a real CSR: each
    component squared by a sparse product, the real parts summed."""
    total = sp.csr_matrix((2 ** L, 2 ** L))
    for ax in ("x", "y", "z"):
        m = ed.build_total_spin(L, ax).csr()
        total = total + (m @ m).real
    return total


def splus_pairs(L, N):
    """(rows, cols, shape) of the unit entries of S^+ from sector N to N-1,
    bit by bit from bit 0 (site L): clearing a set bit (a down spin) of a
    column state gives its row state."""
    src = build_sector_basis(L, N).state_array
    dst = build_sector_basis(L, N - 1).state_array
    rows, cols = [], []
    for b in range(L):
        down = np.flatnonzero((src >> b) & 1)
        rows.append(np.searchsorted(dst, src[down] ^ (1 << b)))
        cols.append(down)
    return np.concatenate(rows), np.concatenate(cols), (len(dst), len(src))


def log_sh(x):
    """log sh x on some branch, finite where sh x overflows: with s the sign
    of Re x, sh x = s e^{s x} (1 - e^{-2 s x})/2 and |e^{-2 s x}| <= 1."""
    s = np.where(np.real(x) < 0, -1, 1)
    return s * x + np.log(-s * np.expm1(-2 * s * x) / 2)


def rapidity_to_momentum(lam):
    """Quasi-momentum k of one XXX rapidity, e^{ik} = (l + i/2)/(l - i/2),
    on the principal branch: Re k in (-pi, pi]."""
    lam = complex(lam)
    return complex(-1j * np.log((lam + 0.5j) / (lam - 0.5j)))


def pole_guard_raises(roots, eta, log_f):
    """Whether some root l has log |f(l -+ eta/2)| < log 1e-12, with log_f a
    complex log of f (np.log for XXX, log_sh for XXZ)."""
    lam = np.asarray(roots, complex)
    with np.errstate(divide="ignore"):  # log 0 at a pole itself
        logf = log_f(lam[:, None] + [-eta / 2, eta / 2])
    return bool(np.any(logf.real < np.log(1e-12)))


def multiplet_structure(spectrum, casimir):
    """(energy, multiplicity, spin list) per degenerate level: the dense
    eigenvector columns of each level, the eigenvalues of the Casimir between
    them, and the complete 2S+1 multiplets they count.  Raises at the first
    level with a Casimir eigenvalue that is not S(S+1) or an incomplete
    multiplet."""
    w = spectrum.eigenvalues
    v = spectrum.eigenvectors
    cas = casimir.csr()
    levels = []
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i] - w[start] > ed.MULTIPLET_DEGENERACY_TOL:
            block = v[:, start:i]
            c_eigs = np.linalg.eigvalsh(block.conj().T @ (cas @ block)).real
            spins = {}
            for ce in c_eigs:
                s_val = (-1 + np.sqrt(1 + 4 * max(ce, 0))) / 2
                s_round = round(2 * s_val) / 2
                if abs(s_val - s_round) > 1e-6:
                    raise ValueError(f"Casimir eigenvalue {ce} is not S(S+1)")
                spins[s_round] = spins.get(s_round, 0) + 1
            content = []
            for s_round, count in sorted(spins.items()):
                n_mult, rem = divmod(count, int(2 * s_round + 1))
                if rem:
                    raise ValueError("incomplete SU(2) multiplet in level")
                content += [s_round] * n_mult
            levels.append((w[start], i - start, content))
            start = i
    return levels


def _format_float(x):
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError("non-finite value in canonical JSON")
    return repr(0.0) if x == 0 else f"{x:.17g}"


def dumps(obj, indent=0):
    """Canonical JSON text: sorted keys, fixed float format, complex -> [re, im]."""
    pad = " " * indent
    if isinstance(obj, dict):
        items = sorted(obj.items())
        if not items:
            return "{}"
        body = ",\n".join(f'{pad}  {json.dumps(str(k))}: {dumps(v, indent + 2)}'
                          for k, v in items)
        return "{\n" + body + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        return "[" + ", ".join(dumps(v, indent) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        return dumps(obj.tolist(), indent)
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        return dumps([obj.real, obj.imag], indent)
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj)!r}")

"""Coordinate Bethe Ansatz wavefunctions for the XXX chain (and the XXZ analog).

The regularized N-magnon wavefunction used everywhere is

    Psi(x | {l}) = sum_Q sign(Q) [ prod_{k<l} (l_Qk - l_Ql + i) ]
                   prod_k (l_Qk + i/2)^{x_k} (l_Qk - i/2)^{L - x_k + 1},

a symmetric function of the rapidities that vanishes identically when two
rapidities coincide or when a rapidity equals +-i/2.  (When a pair differs by
exactly i the sum does not vanish; it collapses onto the permutations with
that pair reversed, so such sets are excluded from admissibility on the
solver side instead.)  It solves the lattice wave equation and the reflection
condition for arbitrary complex rapidities ("off-shell"); imposing
periodicity yields the Bethe equations (see the bethe-equations module) and
turns the vector into a Hamiltonian eigenvector.

Amplitudes are accumulated in log-magnitude/phase form: each permutation term
is exp(sum of complex logs), summed after subtracting a common scale, because
the raw factors grow like |l|^(L+1) per magnon.
"""

from dataclasses import dataclass, field

import numpy as np

from .basis import build_sector_basis

FACTORIAL_GUARD = 10  # permanent-style N! sums are rejected beyond this N


@dataclass
class RapiditySet:
    """Ordered rapidities (or quasi-momenta) with their model tag.

    model: 'XXX' | 'XXZ' | 'BOSE' | 'HUBBARD_CHARGE_SPIN'
    params: extra couplings, e.g. {'gamma': ...} for XXZ or {'c': ...} for the
    Bose gas.
    """
    model: str
    L: int
    values: np.ndarray
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values, complex)

    @property
    def N(self):
        return len(self.values)


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


def rapidity_to_momentum(lam):
    """Quasi-momentum k of a rapidity, e^{ik} = (l + i/2)/(l - i/2).

    Principal branch: Re(k) in (-pi, pi], Im(k) = -ln|e^{ik}|.  The map has a
    pole at l = -i/2 (and k -> 0 as l -> infinity)."""
    lam = complex(lam)
    if abs(lam + 0.5j) < 1e-14:
        raise ValueError("rapidity at the pole -i/2")
    k = -1j * np.log((lam + 0.5j) / (lam - 0.5j))
    return complex(k)


def _log_terms(roots, L, xs_list, pair_factor, plus_half, minus_half):
    """Scaled permutation sums of the regularized wavefunction.

    Generic core shared by the XXX (rational) and XXZ (hyperbolic) forms:
    pair factor pair_factor(l_Qk - l_Ql), site factors plus_half(l)^x *
    minus_half(l)^(L-x+1).  Returns (values, log_scale) with
    amplitude = values * exp(log_scale).
    """
    N = len(roots)
    if N == 0:
        return np.ones(len(xs_list), complex), 0.0
    if N > FACTORIAL_GUARD:
        raise ValueError(f"N={N} exceeds the N! cost guard ({FACTORIAL_GUARD})")
    xs_arr = np.asarray(xs_list, dtype=float)  # (ncfg, N)
    # per-root logs; exact zeros handled outside the log
    lp = np.array([plus_half(l) for l in roots])
    lm = np.array([minus_half(l) for l in roots])
    zero_mask = (np.abs(lp) == 0) | (np.abs(lm) == 0)
    safe_lp = np.where(np.abs(lp) == 0, 1.0, lp)
    safe_lm = np.where(np.abs(lm) == 0, 1.0, lm)
    log_p = np.log(safe_lp.astype(complex))
    log_m = np.log(safe_lm.astype(complex))
    terms = []
    consts = []
    perms = []
    for perm, sign in signed_permutations(N):
        pair = 0.0 + 0.0j
        pair_zero = False
        for a in range(N):
            for b in range(a + 1, N):
                f = pair_factor(roots[perm[a]] - roots[perm[b]])
                if f == 0:
                    pair_zero = True
                    break
                pair += np.log(complex(f))
            if pair_zero:
                break
        consts.append((sign, pair, pair_zero))
        perms.append(perm)
    # scale: max real part over terms and configurations
    ncfg = len(xs_list)
    out = np.zeros(ncfg, complex)
    # s(x) = const + sum_k x_k (log_p - log_m)[perm_k] + (L+1) sum log_m[perm]
    d = log_p - log_m
    base = (L + 1) * np.sum(log_m)
    exps = []
    for (sign, pair, pair_zero), perm in zip(consts, perms):
        if pair_zero or any(zero_mask[list(perm)]):
            exps.append(None)
            continue
        exps.append(pair + base + xs_arr @ d[list(perm)])
    finite = [e for e in exps if e is not None]
    if not finite:
        return np.zeros(ncfg, complex), 0.0
    scale = max(float(np.max(e.real)) for e in finite)
    for (sign, _, _), e in zip(consts, exps):
        if e is not None:
            out += sign * np.exp(e - scale)
    return out, scale


def offshell_wavefunction(xs, roots, L):
    """Value of the regularized XXX wavefunction at configuration xs.

    xs may be any integer tuple (the formula is defined off the fundamental
    simplex too, which the reflection-condition checks exploit)."""
    roots = np.asarray(getattr(roots, "values", roots), complex)
    if np.any(np.abs(roots + 0.5j) == 0) or np.any(np.abs(roots - 0.5j) == 0):
        # a vanishing site factor: evaluate directly (0^0 = 1 at extended configs)
        total = 0.0 + 0.0j
        for perm, sign in signed_permutations(len(roots)):
            term = complex(sign)
            for a in range(len(roots)):
                for b in range(a + 1, len(roots)):
                    term *= roots[perm[a]] - roots[perm[b]] + 1j
            for k, x in enumerate(xs):
                l = roots[perm[k]]
                term *= (l + 0.5j) ** x * (l - 0.5j) ** (L - x + 1)
            total += term
        return complex(total)
    vals, scale = _log_terms(roots, L, [tuple(xs)], lambda u: u + 1j,
                             lambda l: l + 0.5j, lambda l: l - 0.5j)
    return complex(vals[0] * np.exp(scale))


def offshell_vector(roots, L, normalize=True):
    """Off-shell Bethe vector over SectorBasis(L, N), component x ->
    offshell_wavefunction(x).  Normalized by default (the raw amplitudes can
    overflow double precision for large |l| and L)."""
    roots = np.asarray(getattr(roots, "values", roots), complex)
    basis = build_sector_basis(L, len(roots))
    xs_list = [xs for _, xs in basis.configs()]
    vals, scale = _log_terms(roots, L, xs_list, lambda u: u + 1j,
                             lambda l: l + 0.5j, lambda l: l - 0.5j)
    if normalize:
        n = np.linalg.norm(vals)
        return vals / n if n > 0 else vals
    return vals * np.exp(scale)


def xxz_offshell_wavefunction(xs, roots, L, eta):
    """Hyperbolic (XXZ) analog of the regularized wavefunction, normalized as
    generated by products of monodromy B-operators:

        sum_Q sign(Q) [prod_{k<l} sh(l_Qk - l_Ql - eta)]
              prod_k sh(l_Qk - eta/2)^{x_k} sh(l_Qk + eta/2)^{L - x_k + 1}.
    """
    roots = np.asarray(getattr(roots, "values", roots), complex)
    vals, scale = _log_terms(roots, L, [tuple(xs)], lambda u: np.sinh(u - eta),
                             lambda l: np.sinh(l - eta / 2),
                             lambda l: np.sinh(l + eta / 2))
    return complex(vals[0] * np.exp(scale))


def xxz_offshell_vector(roots, L, eta, normalize=True):
    """Vector of xxz_offshell_wavefunction over SectorBasis(L, N)."""
    roots = np.asarray(getattr(roots, "values", roots), complex)
    basis = build_sector_basis(L, len(roots))
    xs_list = [xs for _, xs in basis.configs()]
    vals, scale = _log_terms(roots, L, xs_list, lambda u: np.sinh(u - eta),
                             lambda l: np.sinh(l - eta / 2),
                             lambda l: np.sinh(l + eta / 2))
    if normalize:
        n = np.linalg.norm(vals)
        return vals / n if n > 0 else vals
    return vals * np.exp(scale)


def energy_xxx(roots, J=1.0):
    """Magnon energy E = -(J/2) sum_j 1/(l_j^2 + 1/4); equals
    J sum_j (cos k_j - 1) under the rapidity map."""
    roots = np.asarray(getattr(roots, "values", roots), complex)
    if len(roots) == 0:
        return 0.0
    if np.any(np.abs(roots - 0.5j) < 1e-14) or np.any(np.abs(roots + 0.5j) < 1e-14):
        raise ValueError("rapidity at a pole +-i/2")
    return complex(-J / 2 * np.sum(1.0 / (roots ** 2 + 0.25)))


def momentum_xxx(roots):
    """Lattice momentum P = [-i sum_j ln((l_j + i/2)/(l_j - i/2))] mod 2pi.

    Principal log per root, result reduced into [0, 2pi).  Real (float) for
    self-conjugate root sets; complex otherwise."""
    roots = np.asarray(getattr(roots, "values", roots), complex)
    if len(roots) == 0:
        return 0.0
    p = complex(np.sum([rapidity_to_momentum(l) for l in roots]))
    real_part = np.mod(p.real, 2 * np.pi)
    if abs(p.imag) < 1e-10:
        return float(real_part)
    return real_part + 1j * p.imag


def highest_weight_residual(vector, L, N):
    """||S^+ v|| / ||v|| with S^+ taken sector N -> N-1."""
    from .ed import apply_splus
    v = np.asarray(vector)
    nrm = np.linalg.norm(v)
    if nrm == 0:
        raise ValueError("zero vector")
    if N < 1:
        raise ValueError("need at least one down spin")
    return float(np.linalg.norm(apply_splus(v, L, N)) / nrm)

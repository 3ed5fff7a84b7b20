"""Coordinate Bethe Ansatz wavefunctions for the XXX chain (and the XXZ
analog), and the chain kernels the bae module solves over.

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

The sum over the N! orderings Q is never expanded.  It is built position by
position as a recursion over the set S of rapidities already placed: the
partial sum over S gains root j at the next position x_k with the factor
(-1)^{#{s in S: s > j}} prod_{s in S} f(l_s - l_j) g_j(x_k), for every
configuration at once.  That is N 2^(N-1) vector operations instead of N!,
holding at most C(N, N/2) partial sums per configuration.  The raw site
factors grow like |l|^(L+1), so each position's factors are divided by their
largest modulus and each level of partial sums by the power of two just
above its largest modulus, per configuration, with the logs kept as a
running scale.  Vanishing factors are exact zeros (with 0^0 = 1 at the
extended configurations x = 0, L + 1).
"""

from dataclasses import dataclass, field
from functools import cache
from math import comb

import numpy as np

from .basis import build_sector_basis

FACTORIAL_GUARD = 10  # wavefunctions of more roots than this are rejected
LN2 = np.log(2.0)
FLOAT_MAX = np.finfo(float).max
BLOCK = 1 << 15       # entries per level array: (16, 8) takes 127-134 ms, unblocked 181-199


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


@dataclass(frozen=True)
class ChainKernel:
    """The Bethe-equation kernel of a periodic spin-1/2 chain: the log form's
    phases theta(n, x) and derivatives dtheta(n, x); the exponential form's
    shift eta (see the bae module) and phase function f, given in real
    arithmetic of x = xr + i xi, finite at every finite x, as
    log_ratio(xr, xi, t) = log f(x - it) - log f(x + it) for real t, a
    complex array on some branch, and abs_f(xr, xi) = |f(x)|;
    and the Newton seeds, a tuple of functions seed(I, L) at
    I_j = n_j - offset.  A solve with more than one seed starts from the one
    with the smallest max |F_j| of the log form (see bae._solve_chains).  XXX
    is the gamma -> 0 limit of xxz_kernel(gamma) at l_XXZ = gamma l_XXX."""
    model: str
    eta: complex
    log_ratio: object
    abs_f: object
    theta: object
    dtheta: object
    seeds: tuple
    params: dict = field(default_factory=dict)

    def off_poles(self, roots):
        """The rapidities as a complex array; ValueError if one lies within
        1e-12 of a pole +-eta/2 (a zero of f(l -+ eta/2))."""
        lam = _roots(roots)
        t = self.eta.imag / 2
        if self.abs_f(lam.real[:, None], lam.imag[:, None] + (-t, t)).min(initial=np.inf) < 1e-12:
            raise ValueError(f"rapidity at a pole +-{self.eta / 2}")
        return lam

    def energy(self, roots, eps):
        """E = -(eps/2) sum_j theta_1'(l_j): eps = J for XXX, sin(gamma) for
        XXZ, where theta_1' = 2 sin(gamma)/(ch(2l) - cos(gamma))."""
        lam = self.off_poles(roots)
        return complex(-eps / 2 * self.dtheta(1, lam).sum()) if len(lam) else 0.0

    def momentum(self, roots):
        """P = i sum_j log f(l_j - eta/2)/f(l_j + eta/2), so that e^{iP} is
        prod_j f(l_j + eta/2)/f(l_j - eta/2), with Re P reduced into
        [0, 2pi) by _angle_mod_2pi: a float when |Im P| < 1e-12
        (self-conjugate root sets, where it is rounding), complex otherwise,
        so that dropping Im P scales e^{iP} by at most 1e-12 relative.  For XXX,
        e^{ik_j} = (l_j + i/2)/(l_j - i/2)."""
        lam = self.off_poles(roots)
        p = 1j * complex(np.sum(self.log_ratio(lam.real, lam.imag, self.eta.imag / 2)))
        real_part = _angle_mod_2pi(p.real)
        return real_part if abs(p.imag) < 1e-12 else real_part + 1j * p.imag


def _angle_mod_2pi(x):
    """The real x reduced into [0, 2pi) as a float.  np.mod rounds a tiny
    negative x up to exactly 2pi, which is taken as 0."""
    r = float(np.mod(x, 2 * np.pi))
    return 0.0 if r == 2 * np.pi else r


def _free_magnon(I, L):
    """l_j = tg(pi I_j/L)/2, the XXX root of one magnon (exact at N = 1)."""
    return 0.5 * np.tan(np.pi * I / L)


def _counting_seed(I, L, gamma, outside):
    """Where the half-filled ground state's counting function, density
    1/(2 gamma ch(pi l/gamma)), reaches I_j/L: l_j = (2 gamma/pi)
    arth(tg(pi I_j/L)) for |tg| < 1, else outside.  The rapidities are
    gamma times XXX ones, whose density is Hulthen's 1/(2 ch pi l)."""
    t = np.tan(np.pi * I / L)
    inside = np.abs(t) < 1
    return np.where(inside, 2 * gamma / np.pi * np.arctanh(np.where(inside, t, 0.0)), outside)


def _log_polar(q, y, x):
    """log(sqrt(q)) + i arctan2(y, x), written into one complex array."""
    z = np.empty(np.shape(q), complex)
    np.log(np.sqrt(q), out=z.real)
    np.arctan2(y, x, out=z.imag)
    return z


def _rational_ratio(xr, xi, t):
    """log(x - it) - log(x + it): half the log of |x - it|^2/|x + it|^2, and
    arg((x - it) conj(x + it)) by one arctan2, exactly -pi at x = 0.  Past
    |x| ~ 1e154 the squares overflow: both are capped at the largest double,
    which gives the ratio 1 that they round to."""
    r2, a, b = xr * xr, xi - t, xi + t
    return _log_polar(np.minimum(r2 + a * a, FLOAT_MAX) / np.minimum(r2 + b * b, FLOAT_MAX),
                      (-2 * t) * xr, r2 + a * b)


# theta_n(x) = 2 arctg(2x/n), f the identity, eta = i; seeded at the free
# magnon and at Hulthen's counting function (the free magnon outside it)
XXX = ChainKernel("XXX", 1j, _rational_ratio, np.hypot,
                  lambda n, x: 2 * np.arctan(2 / n * x),
                  lambda n, x: n / (x ** 2 + n ** 2 / 4),
                  (_free_magnon, lambda I, L: _counting_seed(I, L, 1.0, _free_magnon(I, L))))


def _sh_ratio(xr, xi, t):
    """log sh(x - it) - log sh(x + it).  With th = th xr,
    sh(x -+ it) = ch xr (th cos(xi -+ t) + i sin(xi -+ t)), the sine and
    cosine of xi -+ t by angle addition from those of xi and t: the modulus
    ratio squared is (th^2 + sin^2(xi - t) sech^2)/(th^2 + sin^2(xi + t)
    sech^2) with sech^2 = 1 - th^2, and the phase is the arg of the first
    bracket times the conjugate second, by one arctan2.  No ch is formed, so
    nothing overflows."""
    th, s, c, st, ct = np.tanh(xr), np.sin(xi), np.cos(xi), np.sin(t), np.cos(t)
    s1, c1, s2, c2 = s * ct - c * st, c * ct + s * st, s * ct + c * st, c * ct - s * st
    th2 = th * th
    sech2 = 1 - th2
    return _log_polar((th2 + s1 * s1 * sech2) / (th2 + s2 * s2 * sech2),
                      -np.sin(2 * t) * th, th2 * c1 * c2 + s1 * s2)


def _abs_sh(xr, xi):
    """|sh x| = hypot(sh xr, sin xi), with xr clipped to |xr| <= 20, where
    |sh x| is far above any pole threshold and sh cannot overflow."""
    return np.hypot(np.sinh(np.clip(xr, -20.0, 20.0)), np.sin(xi))


def xxz_kernel(gamma):
    """Delta = cos(gamma), 0 < gamma < pi: theta_n(x) = 2 arctg(cot(n gamma/2)
    th x), f = sh, eta = i gamma; seeded at the ground-state counting
    function, l_j = 0.3 I_j outside it."""
    def cot(n):
        return np.tan(np.pi / 2 - n * gamma / 2)

    def dtheta(n, x):
        c, t = cot(n), np.tanh(x)
        return 2 * c * (1 - t ** 2) / (1 + (c * t) ** 2)
    return ChainKernel("XXZ", 1j * gamma, _sh_ratio, _abs_sh,
                       lambda n, x: 2 * np.arctan(cot(n) * np.tanh(x)), dtheta,
                       (lambda I, L: _counting_seed(I, L, gamma, 0.3 * I),), {"gamma": gamma})


@cache
def _placements(N):
    """Tables of the subset recursion over N roots, cached per N.  Level n
    lists the n-subsets T of roots (ascending bit masks) and, for each member
    j of T: the index of T minus j in level n - 1 (`prev`), j, the members of
    T minus j as a boolean row over the roots (`rest`), and the sign
    (-1)^{#{s in T: s > j}} of appending j to an ordering of T minus j."""
    masks = np.arange(1 << N)
    bits = (masks[:, None] >> np.arange(N)) & 1
    size = bits.sum(axis=1)
    rank = np.zeros(1 << N, np.intp)
    levels = []
    for n in range(1, N + 1):
        T = masks[size == n]
        j = np.nonzero(bits[T])[1].reshape(len(T), n)
        S = T[:, None] & ~(1 << j)
        sign = 1 - 2 * (size[T[:, None] >> (j + 1)] % 2)
        levels.append((rank[S], j, bits[S].astype(bool), sign))
        rank[T] = np.arange(len(T))
    return levels


def _site_factors(plus, minus, x, L):
    """g_j(x) = plus_j^x minus_j^(L-x+1) for every root j (rows) and every
    coordinate x in the array x (columns), divided per column by the largest
    modulus.  Returns (factors, log of that modulus).  A zero base gives an
    exact zero unless its exponent is 0 (0^0 = 1); a column of zeros keeps
    scale 1."""
    lp, lm = (np.log(np.where(z == 0, 1.0, z)) for z in (plus, minus))
    lg = np.outer(lp, x) + np.outer(lm, L + 1 - x)
    vanish = np.outer(plus == 0, x != 0) | np.outer(minus == 0, x != L + 1)
    top = np.where(vanish, -np.inf, lg.real).max(axis=0, initial=-np.inf)
    top[np.isinf(top)] = 0.0
    return np.where(vanish, 0.0, np.exp(lg - top)), top


def _bethe_sum(factors, L, xs):
    """Psi at each row of xs (an (ncfg, N) integer array) as (values,
    log_scale), Psi = values * exp(log_scale), by the subset recursion.

    factors = (F, plus, minus) with F[s, j] = f(l_s - l_j) the pair factor
    and plus, minus the site-factor bases of each root.
    """
    F, plus, minus = factors
    N = len(plus)
    if N > FACTORIAL_GUARD:
        raise ValueError(f"N={N} exceeds the root-count guard ({FACTORIAL_GUARD})")
    part = np.ones((1, len(xs)), complex)
    log_scale = np.zeros(len(xs))
    low = xs.min(initial=0)
    table, tops = _site_factors(plus, minus, np.arange(low, xs.max(initial=0) + 1), L)
    for k, (prev, j, rest, sign) in enumerate(_placements(N)):
        g, top = table[:, xs[:, k] - low], tops[xs[:, k] - low]
        coef = sign * np.prod(np.where(rest, F.T[j], 1.0), axis=-1)
        nxt = np.zeros((len(prev), len(xs)), complex)
        for m in range(k + 1):
            nxt += coef[:, m, None] * part[prev[:, m]] * g[j[:, m]]
        # divide by 2^e with 2^(e-1) <= the largest modulus < 2^e (e = 0 for
        # a zero column): exact, and no overflow where that modulus is subnormal
        e = np.frexp(np.abs(nxt).max(axis=0))[1]
        part = np.empty_like(nxt)
        np.ldexp(nxt.real, -e, out=part.real)
        np.ldexp(nxt.imag, -e, out=part.imag)
        log_scale += top + LN2 * e
    return part[0], log_scale


def _factors(roots, eta, f=lambda x: x):
    """(F, plus, minus) = (f(l_s - l_j - eta), f(l_j - eta/2), f(l_j + eta/2)):
    f = sh with the caller's eta for XXZ, f the identity with eta = -i for XXX
    (the wavefunction's sign convention, opposite to the bae kernels' eta)."""
    return f(roots[:, None] - roots[None, :] - eta), f(roots - eta / 2), f(roots + eta / 2)


def _roots(roots):
    return np.asarray(getattr(roots, "values", roots), complex)


def _at(factors, xs, L):
    """Psi at the one configuration xs."""
    vals, log_scale = _bethe_sum(factors, L, np.array([tuple(xs)], np.int64))
    return complex(vals[0] * np.exp(log_scale[0]))


def _over_sector(factors, L, normalize):
    """Psi over SectorBasis(L, N), normalized or raw.  The configurations are
    independent, so they go through the recursion in row blocks whose widest
    level, C(N, N/2) partial sums per row, has at most BLOCK entries.  A raw
    Psi may vanish; normalizing one whose every amplitude is an exact zero
    (a rapidity at a pole, or coincident rapidities) raises ValueError."""
    N = len(factors[1])
    sites = build_sector_basis(L, N).sites
    step = max(1, BLOCK // comb(N, N // 2))
    vals, log_scale = np.empty(len(sites), complex), np.empty(len(sites))
    for i in range(0, len(sites), step):
        vals[i:i + step], log_scale[i:i + step] = _bethe_sum(factors, L, sites[i:i + step])
    if not normalize:
        return vals * np.exp(log_scale)
    live = vals != 0
    if not live.any():
        pole = not (factors[1].all() and factors[2].all())
        raise ValueError("every amplitude vanishes: "
                         + ("a rapidity at a pole" if pole else "coincident rapidities"))
    vals = vals * np.exp(np.where(live, log_scale - log_scale[live].max(), 0.0))
    return vals / np.linalg.norm(vals)


def offshell_wavefunction(xs, roots, L):
    """Value of the regularized XXX wavefunction at configuration xs.

    xs may be any integer tuple (the formula is defined off the fundamental
    simplex too, which the reflection-condition checks exploit)."""
    return _at(_factors(_roots(roots), -1j), xs, L)


def offshell_vector(roots, L, normalize=True):
    """Off-shell Bethe vector over SectorBasis(L, N), component x ->
    offshell_wavefunction(x).  Normalized by default (the raw amplitudes can
    overflow double precision for large |l| and L)."""
    return _over_sector(_factors(_roots(roots), -1j), L, normalize)


def xxz_offshell_vector(roots, L, eta):
    """Hyperbolic (XXZ) analog of offshell_vector, normalized: the
    wavefunction as generated by products of monodromy B-operators,

        sum_Q sign(Q) [prod_{k<l} sh(l_Qk - l_Ql - eta)]
              prod_k sh(l_Qk - eta/2)^{x_k} sh(l_Qk + eta/2)^{L - x_k + 1},

    over SectorBasis(L, N)."""
    return _over_sector(_factors(_roots(roots), eta, np.sinh), L, True)


def energy_xxx(roots, J=1.0):
    """Magnon energy E = -(J/2) sum_j 1/(l_j^2 + 1/4); equals
    J sum_j (cos k_j - 1) under the rapidity map."""
    return XXX.energy(roots, J)


def momentum_xxx(roots):
    """Lattice momentum P of XXX rapidities, ChainKernel.momentum of XXX."""
    return XXX.momentum(roots)


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

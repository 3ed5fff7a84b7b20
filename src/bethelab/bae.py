"""Bethe Ansatz equations: residuals, Newton solvers, and classification.

Exponential-form residuals use the product over *all* k (the self term
contributes a factor -1, which absorbs the minus sign of the textbook form):

  XXX:   ((l_j - i/2)/(l_j + i/2))^L + prod_k (l_j - l_k - i)/(l_j - l_k + i)
  XXZ:   same with rational factors replaced by sh(..., gamma) per Delta=cos(gamma)
  Bose:  e^{i k_j L'} + prod_l (k_j - k_l + ic)/(k_j - k_l - ic)

Logarithmic form for real roots (integers n_j, principal arctan):

  (1/pi) arctg(2 l_j) = n_j/L - (N+1)/(2L) + sum_k arctg(l_j - l_k)/(pi L)

Every residual and Jacobian is an N x N broadcast over the differences
l_j - l_k; no Python loop runs over roots.  All solves, the bound-pair search
of classify_two_magnon included, go through one damped-Newton routine with
analytic Jacobians: step-halving damping, an initial guess from the
non-interacting part, tolerance 1e-12, max 200 steps.  It says why it
stopped (STOP_REASONS).  Iterates that run away to |x| > ROOT_ESCAPE, or
converge beyond ROOT_ESCAPE/100, are reported as unconverged: for the
log-form solves these are solutions with rapidities at infinity
(spin-lowered descendants); in the bound-pair search they are seeds that walk
off to |l| -> infinity, where both sides of the equation tend to 1.
"""

from dataclasses import dataclass, field

import numpy as np

from .coordinate import RapiditySet

TOL = 1e-12
MAX_ITER = 200
ROOT_ESCAPE = 1e6
EQUALITY_TOL = 1e-8  # root-coincidence threshold for admissibility
STOP_REASONS = ("converged", "singular", "stalled", "run_away", "max_iter")


@dataclass
class QuantumNumbers:
    """Integer labels of the logarithmic Bethe equations (strictly increasing
    for real-root branches)."""
    n: tuple
    L: int
    N: int

    def __post_init__(self):
        self.n = tuple(self.n)
        if len(self.n) != self.N:
            raise ValueError("need one quantum number per root")


@dataclass
class SolveReport:
    """Outcome of a Bethe-equation solve; converged implies residual < tol.
    stop says why _damped_newton stopped (one of STOP_REASONS)."""
    roots: RapiditySet
    residual: float
    iterations: int
    converged: bool
    qnums: tuple = ()
    params: dict = field(default_factory=dict)
    stop: str = "converged"


def _diff(x):
    """N x N matrix of differences x_j - x_k."""
    return x[:, None] - x[None, :]


def _jacobian(drive, K):
    """Jacobian of F_j = f(x_j) - sum_{k != j} g(x_j - x_k) from drive = f'(x_j)
    and K = g'(x_j - x_k): K off the diagonal, drive - (row sum of K) on it.
    K is overwritten."""
    np.fill_diagonal(K, 0.0)
    np.fill_diagonal(K, drive - K.sum(axis=1))
    return K


def _pairwise_min_dist(vals):
    d = np.abs(_diff(np.asarray(vals)))
    np.fill_diagonal(d, np.inf)
    return float(d.min(initial=np.inf))


def _exp_residual(lhs, num, den):
    """max_j |lhs_j + prod_k num_jk/den_jk|, the products taken in log form to
    keep |...|^L in range."""
    rhs = np.exp(np.sum(np.log(num) - np.log(den), axis=1))
    return float(np.max(np.abs(lhs + rhs), initial=0.0))


def bae_residual_xxx(roots, L):
    """Max exponential-form residual of the XXX Bethe equations."""
    lam = np.asarray(getattr(roots, "values", roots), complex)
    if np.any(np.abs(lam - 0.5j) < 1e-12) or np.any(np.abs(lam + 0.5j) < 1e-12):
        raise ValueError("rapidity at a pole +-i/2")
    if _pairwise_min_dist(lam) < 1e-12:
        raise ValueError("coincident rapidities")
    d = _diff(lam)
    return _exp_residual(np.exp(L * (np.log(lam - 0.5j) - np.log(lam + 0.5j))),
                         d - 1j, d + 1j)


def bae_residual_xxz(roots, L, gamma):
    """Max exponential-form residual of the XXZ Bethe equations, Delta = cos(gamma)."""
    lam = np.asarray(getattr(roots, "values", roots), complex)
    sh = np.sinh
    if np.any(np.abs(sh(lam - 0.5j * gamma)) < 1e-12) or np.any(np.abs(sh(lam + 0.5j * gamma)) < 1e-12):
        raise ValueError("rapidity at a zero of sh")
    d = _diff(lam)
    lhs = np.exp(L * (np.log(sh(lam - 0.5j * gamma)) - np.log(sh(lam + 0.5j * gamma))))
    return _exp_residual(lhs, sh(d - 1j * gamma), sh(d + 1j * gamma))


def bose_residual(roots, L_ring, c):
    """Max exponential-form residual of the delta-Bose-gas equations."""
    k = np.asarray(getattr(roots, "values", roots), complex)
    d = _diff(k)
    return _exp_residual(np.exp(1j * k * L_ring), d + 1j * c, d - 1j * c)


def _logbae_F(lam, L, N, ns):
    return (np.arctan(2 * lam) / np.pi - ns / L + (N + 1) / (2 * L)
            - np.arctan(_diff(lam)).sum(axis=1) / (np.pi * L))


def logbae_residual(roots, L, qnums):
    """Max residual of the logarithmic XXX equations at real roots."""
    lam = np.asarray(getattr(roots, "values", roots))
    if np.iscomplexobj(lam) and np.max(np.abs(lam.imag)) > 1e-10:
        raise ValueError("logarithmic form requires real roots")
    lam = lam.real.astype(float)
    ns = np.asarray(getattr(qnums, "n", qnums), float)
    return float(np.max(np.abs(_logbae_F(lam, L, len(lam), ns)))) if len(lam) else 0.0


def _damped_newton(F, J, x0, tol=TOL, max_iter=MAX_ITER):
    """Newton iteration with step-halving damping.

    Returns (x, maxres, iters, reason), reason one of STOP_REASONS:
    'converged' (max |F| < tol), 'singular' (the Jacobian solve failed),
    'stalled' (50 halvings did not lower max |F|), 'run_away' (an iterate
    beyond ROOT_ESCAPE, or a converged one beyond ROOT_ESCAPE/100) or
    'max_iter'.
    """
    x = np.array(x0, float)
    f = F(x)
    res = np.abs(f).max(initial=0.0)
    for it in range(1, max_iter + 1):
        if res < tol:
            far = np.abs(x).max(initial=0.0) > 0.01 * ROOT_ESCAPE
            return x, float(res), it - 1, "run_away" if far else "converged"
        try:
            step = np.linalg.solve(J(x), -f)
        except np.linalg.LinAlgError:
            return x, float(res), it, "singular"
        t = 1.0
        for _ in range(50):
            f_new = F(x + t * step)
            res_new = np.abs(f_new).max()
            if res_new < res:
                break
            t /= 2
        else:
            return x, float(res), it, "stalled"
        x, f, res = x + t * step, f_new, res_new
        if np.abs(x).max() > ROOT_ESCAPE:
            return x, float(res), it, "run_away"
    return x, float(res), max_iter, "max_iter"


def _logbae_system(L, ns):
    """(F, J) of the logarithmic XXX equations."""
    N = len(ns)

    def F(lam):
        return _logbae_F(lam, L, N, ns)

    def J(lam):
        return _jacobian(2 / np.pi / (1 + 4 * lam ** 2),
                         1 / (np.pi * L) / (1 + _diff(lam) ** 2))
    return F, J


def solve_logbae(L, N, qnums):
    """Solve the logarithmic XXX equations for real roots.

    qnums: strictly increasing integers (QuantumNumbers or a plain tuple);
    the lowest state of the N-sector has n_j = 1..N.  Returns a SolveReport;
    run-away iterates (rapidities at infinity) are flagged unconverged.
    """
    ns = np.asarray(getattr(qnums, "n", qnums), float)
    if len(ns) != N:
        raise ValueError("need one quantum number per root")
    if N > 0 and np.any(np.diff(ns) <= 0):
        raise ValueError("quantum numbers must be strictly increasing")
    if N > L / 2:
        raise ValueError("real-root branch requires N <= L/2")
    if N == 0:
        return SolveReport(RapiditySet("XXX", L, []), 0.0, 0, True, ())
    lam0 = 0.5 * np.tan(np.pi * (ns / L - (N + 1) / (2 * L)))
    lam, res, iters, stop = _damped_newton(*_logbae_system(L, ns), lam0)
    roots = RapiditySet("XXX", L, np.sort(lam).astype(complex))
    return SolveReport(roots, res, iters, stop == "converged",
                       tuple(int(n) for n in ns), stop=stop)


def _theta(n, lam, gamma):
    """theta_n(l) = 2 arctg(cot(n gamma/2) th l); the XXX limit is 2 arctg(2l/n)."""
    return 2 * np.arctan(np.tan(np.pi / 2 - n * gamma / 2) * np.tanh(lam))


def _dtheta(n, lam, gamma):
    c = np.tan(np.pi / 2 - n * gamma / 2)
    t = np.tanh(lam)
    return 2 * c * (1 - t ** 2) / (1 + (c * t) ** 2)


def _xxz_system(L, gamma, ns):
    """(F, J) of the logarithmic XXZ equations."""
    N = len(ns)

    def F(lam):
        return (L * _theta(1, lam, gamma) - 2 * np.pi * ns + np.pi * (N + 1)
                - np.sum(_theta(2, _diff(lam), gamma), axis=1))

    def J(lam):
        return _jacobian(L * _dtheta(1, lam, gamma), _dtheta(2, _diff(lam), gamma))
    return F, J


def solve_logbae_xxz(L, N, gamma, qnums):
    """Real-root XXZ solve in the gapless parameterization Delta = cos(gamma),
    0 < gamma < pi: L theta_1(l_j) = 2 pi n_j - pi (N+1) + sum_k theta_2(l_j - l_k)."""
    ns = np.asarray(getattr(qnums, "n", qnums), float)
    if N == 0:
        return SolveReport(RapiditySet("XXZ", L, [], {"gamma": gamma}), 0.0, 0, True, ())
    lam0 = 0.3 * (ns - (N + 1) / 2)
    lam, res, iters, stop = _damped_newton(*_xxz_system(L, gamma, ns), lam0)
    roots = RapiditySet("XXZ", L, np.sort(lam).astype(complex), {"gamma": gamma})
    return SolveReport(roots, res, iters, stop == "converged",
                       tuple(int(n) for n in ns), {"gamma": gamma}, stop)


def xxz_energy(roots, gamma):
    """Bethe-state energy of the XXZ chain at Delta = cos(gamma):
    E = - sum_j sin(gamma)^2 / (ch(2 l_j) - cos(gamma))."""
    lam = np.asarray(getattr(roots, "values", roots), complex)
    if len(lam) == 0:
        return 0.0
    return complex(-np.sum(np.sin(gamma) ** 2 / (np.cosh(2 * lam) - np.cos(gamma))))


def _bose_system(L_ring, c, target):
    """(F, J) of the logarithmic delta-Bose-gas equations."""

    def F(k):
        return k * L_ring + np.sum(2 * np.arctan(_diff(k) / c), axis=1) - target

    def J(k):
        return _jacobian(L_ring, -2 * c / (c ** 2 + _diff(k) ** 2))
    return F, J


def solve_bose(L_ring, N, c, qnums):
    """Delta-interacting Bose gas on a ring of length L_ring, coupling c > 0.

    Logarithmic form  k_j L' + sum_l 2 arctg((k_j - k_l)/c) = 2 pi (n_j - (N+1)/2)
    with integer seeds n_j; at c -> infinity the roots become the free-fermion
    momenta 2 pi (n_j - (N+1)/2)/L'.  The report's params carry E = sum k_j^2.
    """
    if c <= 0:
        raise ValueError("repulsive coupling c > 0 required")
    ns = np.asarray(getattr(qnums, "n", qnums), float)
    if N == 0:
        return SolveReport(RapiditySet("BOSE", 0, [], {"c": c, "L_ring": L_ring}),
                           0.0, 0, True, (), {"c": c, "energy": 0.0})
    target = 2 * np.pi * (ns - (N + 1) / 2)
    k, res, iters, stop = _damped_newton(*_bose_system(L_ring, c, target), target / L_ring)
    roots = RapiditySet("BOSE", 0, np.sort(k).astype(complex), {"c": c, "L_ring": L_ring})
    energy = float(np.sum(k ** 2))
    return SolveReport(roots, res, iters, stop == "converged", tuple(int(n) for n in ns),
                       {"c": c, "L_ring": L_ring, "energy": energy}, stop)


def admissibility(roots, tol=EQUALITY_TOL):
    """Admissibility of an XXX root set: pairwise distinct, no difference i,
    no root at +-i/2.  Returns (flag, list of reasons)."""
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


def _bound_pair_roots(z):
    return np.array([z[0] + 1j * z[1], z[0] - 1j * z[1]])


def _bound_pair_system(L):
    """(F, J) of the N = 2 bound-pair equation in z = (l_r, d), l = l_r + i d:
    G = ((l - i/2)/(l + i/2))^L - (2d - 1)/(2d + 1), split into (Re G, Im G).
    G is holomorphic in l up to the d-dependent constant, whose d-derivative
    is 4/(2d + 1)^2."""

    def p(z):
        l = z[0] + 1j * z[1]
        return l, np.exp(L * (np.log(l - 0.5j) - np.log(l + 0.5j)))

    def F(z):
        g = p(z)[1] - (2 * z[1] - 1) / (2 * z[1] + 1)
        return np.array([g.real, g.imag])

    def J(z):
        l, pl = p(z)
        dl = pl * L * (1 / (l - 0.5j) - 1 / (l + 0.5j))
        dd = 1j * dl - 4 / (2 * z[1] + 1) ** 2
        return np.array([[dl.real, dd.real], [dl.imag, dd.imag]])
    return F, J


def classify_two_magnon(L, qn_range=None, grid=None, delta0=0.5):
    """Enumerate admissible N = 2 solutions: real pairs from a quantum-number
    scan and conjugate ("bound") pairs l = l_r +- i d from a Newton search.

    Real seeds: all strictly increasing integer pairs in qn_range (default
    covers every branch that converges at this L).  Bound seeds: l_r on a
    step-0.1 grid with d0 = 0.5; the default grid spans +-(cot(pi/L) + 1.5)
    because the smallest-momentum bound pair sits at center cot(pi/L), beyond
    +-3 once L >= 10.  The bound-pair search runs on the shared _damped_newton
    (tolerance 1e-13, 100 steps); its run-away rule discards seeds that walk
    off to |l| -> infinity, where the equation holds only asymptotically.
    Solutions are verified by bae_residual_xxx and deduplicated at distance
    1e-6.  The exactly singular pair {+i/2, -i/2} (a genuine two-magnon level
    at momentum pi for even L) is inadmissible and intentionally not returned.

    Returns a list of (RapiditySet, kind) with kind 'real-pair' | 'bound-pair'.
    """
    if L % 2 or not (4 <= L <= 16):
        raise ValueError("L must be even, 4 <= L <= 16")
    if qn_range is None:
        qn_range = range(-L // 2 + 1, L // 2 + 4)
    found = []
    keys = np.empty((0, 2), complex)  # sorted root pairs of found

    def add(roots, kind):
        nonlocal keys
        if not admissibility(roots)[0]:
            return  # the singular pair {+-i/2} lands here
        if bae_residual_xxx(roots, L) > 1e-10:
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
            rep = solve_logbae(L, 2, (n1, n2))
            if rep.converged:
                add(rep.roots.values, "real-pair")

    if grid is None:
        reach = max(3.0, 1.0 / np.tan(np.pi / L) + 1.5)
        grid = np.arange(-reach, reach + 1e-9, 0.1)
    F, J = _bound_pair_system(L)
    for lr0 in grid:
        z, _, _, stop = _damped_newton(F, J, (lr0, delta0), tol=1e-13, max_iter=100)
        if stop == "converged" and abs(z[1]) >= 1e-4:
            add(_bound_pair_roots(z), "bound-pair")
    return found


def two_magnon_reference_count(L):
    """Highest-weight level count of the N = 2 sector, binom(L,2) - binom(L,1).
    Admissible solutions cover all of them except the singular momentum-pi
    bound state (energy -J), which has rapidities exactly at +-i/2."""
    from math import comb
    return comb(L, 2) - comb(L, 1)

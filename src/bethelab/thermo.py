"""Ground-state root density of the Heisenberg antiferromagnet.

The density rho(l|q) on the symmetric support (-q, q) solves the linear
integral equation

    rho(l|q) = 2 / (pi (1 + 4 l^2))
               - (1/pi) int_{-q}^{q} dm rho(m|q) / (1 + (l - m)^2),

discretized by Gauss-Legendre Nystrom collocation.  The rule comes from
Newton's method on the Legendre three-term recurrence, started from Tricomi's
asymptotic roots: O(n^2) work on arrays of the ceil(n/2) roots in [0, 1),
mirrored, where `numpy.polynomial.legendre.leggauss` solves for the
eigenvalues of an n x n companion matrix in O(n^3).  The rule is computed once
per node count and cached (read-only arrays).  The kernel and the driving term
are even in l and the nodes symmetric, so rho is even: the solve folds the
equation onto the nodes l >= 0, a ceil(n/2) system (1 + G D) rho = f with
G_ij = K(l_i - l_j) + K(l_i + l_j) and D the folded weights (the l = 0 weight
of an odd n halved).  Its symmetrized form S = 1 + D^1/2 G D^1/2 is positive
definite, as the Lorentzian kernel is, with its spectrum in [1, 2) where the
rule resolves the kernel (int K < 1), so conjugate gradients solve
S y = D^1/2 f, rho = D^-1/2 y, in 1-21 steps for q <= 100, n <= 2047, with no
LU (rules with nodes much further apart than the kernel is wide take more: 123
at q = 1e8, n = 1024; past CG_MAX_ITER, as at q >= 1e7, n = 4096, the solve
raises).  Every kernel is evaluated in blocks of at most BLOCK entries (256 KB,
which stay in L2), so no n x m kernel is built at any size: the upper triangle
of S, all that BLAS dsymv reads, is filled by blocks of columns into one
Fortran-order array, and the off-grid sums (interpolation and the residual
check's integral) run over blocks of rows.  Best of 15 calls, one BLAS thread,
on a busy 2-vCPU Xeon host, for n = 128 / 256 / 512 / 1024: the rule takes
1.4-2.5 / 2.2-4.1 / 5.0-8.3 / 12-17 ms (leggauss: 1.9-3.2 / 5.8-8.5 / 25-33 /
138-164 ms, with an 8.4 MB matrix at n = 1024) and the solve 0.16-0.30 /
0.32-0.50 / 0.88-1.21 / 3.1-4.2 ms (LAPACK's dgesv on the folded matrix, in
alternating runs: 0.09-0.15 / 0.33-0.49 / 1.40-1.96 / 7.2-10.1 ms; the full
system: 0.18-0.28 / 1.2-1.7 / 6.2-8.8 / 43-46 ms; traced peak 2.5 against
8.4 MB at n = 1024).
The residual check at 7 points, on a 528-node panelled grid, takes 0.32-0.45
/ 0.53-0.68 / 0.91-0.95 / 1.8-1.9 ms with a 0.67 MB traced peak (whole
kernels: 0.59-0.86 / 1.6 / 2.4-3.0 / 3.6-4.5 ms, 8.7 MB at n = 1024).
At q = infinity the Fourier-transform solution is rho(l) = 1/(2 ch(pi l));
then the filled-root fraction is D = 1/2 and the energy per site is
e = -J ln 2.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

N_NODES_DEFAULT = 128
INF_CUTOFF = 14.0       # |l| beyond which 1/(2 ch(pi l)) < 1e-19
INF_PANEL = 1.0
INF_NODES_PER_PANEL = 24
BLOCK = 1 << 15         # kernel entries per block: n = 1024 checks in 1.7 ms, 2.9 at 2^18
ROW_GROUP = 16          # block rows come in 16s: OpenBLAS's gemv sums rows in groups of 8
CG_MAX_ITER = 200       # conjugate-gradient steps: at most 21 for q <= 100, n <= 2047


@dataclass
class RootDensity:
    """Quadrature-sampled root density: nodes/weights on (-q, q) (panelled on
    a truncated line for q = infinity) and the values rho(l|q)."""
    q: float
    nodes: np.ndarray
    weights: np.ndarray
    values: np.ndarray


def _driving(lam):
    return 2.0 / (np.pi * (1.0 + 4.0 * lam ** 2))


def _kernel(d):
    """1 / (pi (1 + d^2)), evaluated in place: `d` is a fresh float array of
    differences and is overwritten, so an n x n kernel needs one n x n array."""
    np.square(d, out=d)
    d += 1.0
    d *= np.pi
    return np.divide(1.0, d, out=d)


def _kernel_sum(lam, nodes, weights, values):
    """sum_j K(lam_i - nodes_j) weights_j values_j, in row blocks of about
    BLOCK entries, so the (len(lam), len(nodes)) kernel is never built.

    Each block is a whole number of ROW_GROUPs and none but a lone row is one
    row long (numpy sends a one-row product to dot, not gemv), so with one
    BLAS thread every sum is bitwise the one of the unblocked product."""
    m = len(lam)
    out = np.empty(m)
    step = max(ROW_GROUP, BLOCK // len(nodes) // ROW_GROUP * ROW_GROUP)
    cuts = list(range(0, max(m - 1, 1), step)) + [m]
    for i, j in zip(cuts, cuts[1:]):
        k = _kernel(lam[i:j, None] - nodes)
        k *= weights
        np.matmul(k, values, out=out[i:j])
    return out


def _symmetrized_fold(lam, r):
    """The upper triangle of S = 1 + r_i (K(l_i - l_j) + K(l_i + l_j)) r_j on
    the nodes l >= 0, r the square roots of the folded weights, in Fortran
    order for BLAS dsymv.  Filled in column blocks of at most BLOCK entries,
    each down to the foot of its diagonal block, so the two kernels are never
    built whole and the strict lower triangle below the diagonal blocks is
    left unset."""
    m = len(lam)
    S = np.empty((m, m), order="F")
    step = max(1, BLOCK // m)
    for j in range(0, m, step):
        k = j + step
        a = S[:k, j:k]
        _kernel(np.subtract(lam[:k, None], lam[j:k], out=a))
        a += _kernel(lam[:k, None] + lam[j:k])
        a *= r[:k, None]
        a *= r[j:k]
    S[np.diag_indices(m)] += 1.0
    return S


def _conjugate_gradients(S, b, r_inv, tol):
    """y with S y = b, S symmetric positive definite and given by its upper
    triangle, by conjugate gradients from y = 0.  Stops once the recurred
    residual, scaled by r_inv, is at most tol in every entry; LinAlgError
    naming that residual if CG_MAX_ITER steps do not get there."""
    from scipy.linalg.blas import dsymv  # here: slow to import cold; the CLI starts without it
    y, res, p = np.zeros_like(b), b.copy(), b.copy()
    rr = res @ res
    for steps in range(CG_MAX_ITER + 1):
        err = np.max(np.abs(res) * r_inv)
        if err <= tol:
            return y
        if steps == CG_MAX_ITER:
            raise np.linalg.LinAlgError(f"conjugate gradients: residual {err:.3g} > {tol:.3g} "
                                        f"after {steps} steps")
        Sp = dsymv(1.0, S, p)
        alpha = rr / (p @ Sp)
        y += alpha * p
        res -= alpha * Sp
        rr, rr_old = res @ res, rr
        p *= rr / rr_old
        p += res


def closed_form_density(lam):
    """rho(l) = 1/(2 ch(pi l)), the q = infinity solution."""
    return 1.0 / (2.0 * np.cosh(np.pi * np.asarray(lam, float)))


def _legendre(n, x):
    """P_n(x) and P_n'(x) by the three-term recurrence, elementwise on x."""
    p0, p1, t = np.ones_like(x), x.copy(), np.empty_like(x)
    for k in range(2, n + 1):  # p1 <- ((2k - 1) x p1 - (k - 1) p0) / k
        np.multiply(x, p1, out=t)
        t *= (2 * k - 1) / k
        p0 *= (k - 1) / k
        np.subtract(t, p0, out=p0)
        p0, p1 = p1, p0
    return p1, n * (x * p1 - p0) / (x * x - 1.0)


@lru_cache(maxsize=32)
def _gauss_legendre(n):
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1], read-only.

    Newton's method on the ceil(n/2) roots in [0, 1), from Tricomi's
    asymptotic guesses (at most 4 steps at every n <= 1024); the centre root of an
    odd n is exactly 0, where P_n vanishes exactly.  The weights
    2 / ((1 - x^2) P_n'(x)^2) take the derivative at the converged nodes, and
    both halves are mirrored, so the nodes are exactly antisymmetric.
    """
    i = np.arange(1, (n + 1) // 2 + 1)
    x = (1 - (n - 1) / (8.0 * n ** 3)) * np.cos(np.pi * (i - 0.25) / (n + 0.5))
    if n % 2:
        x[-1] = 0.0
    for _ in range(20):
        p, dp = _legendre(n, x)
        dx = p / dp
        x -= dx
        if np.max(np.abs(dx)) < 1e-15:  # the next step is below rounding
            break
    else:
        raise RuntimeError(f"Gauss-Legendre nodes did not converge for n = {n}")
    _, dp = _legendre(n, x)
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    x = np.concatenate((-x[: n // 2], x[::-1]))
    w = np.concatenate((w[: n // 2], w[::-1]))
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _panel_grid(half_width, panel, per_panel):
    x, w = _gauss_legendre(per_panel)
    nodes, weights = [], []
    a = -half_width
    while a < half_width - 1e-12:
        b = min(a + panel, half_width)
        nodes.append((a + b) / 2 + (b - a) / 2 * x)
        weights.append((b - a) / 2 * w)
        a = b
    return np.concatenate(nodes), np.concatenate(weights)


@lru_cache(maxsize=1)
def _infinite_support_grid():
    """The panelled grid of q = infinity, built once, as read-only arrays
    (the residual check's grids depend on q and are not kept)."""
    nodes, weights = _panel_grid(INF_CUTOFF, INF_PANEL, INF_NODES_PER_PANEL)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def solve_root_density(q, n_nodes=N_NODES_DEFAULT):
    """Solve the root-density integral equation on (-q, q).

    Finite q: Gauss-Legendre Nystrom discretization, folded by parity onto
    the nodes l_i >= 0: rho_i + sum_j (K(l_i - l_j) + K(l_i + l_j)) w_j rho_j
    = f(l_i), the l = 0 weight of an odd n counted once, solved by conjugate
    gradients on its symmetrized form until max |f - A rho| (recurred) is
    below eps f(0); that gives the full system's rho to rounding, and its
    mirror is even exactly.  LinAlgError if CG_MAX_ITER steps do not get
    there.  q = inf: the closed form on a panelled grid over [-14, 14]
    (exponential tail below 1e-19), so the returned quadrature integrates it
    to machine precision.
    """
    if not isinstance(n_nodes, (int, np.integer)) or n_nodes < 1:
        raise ValueError(f"n_nodes must be a positive integer, got {n_nodes}")
    if not q > 0:  # nan and -inf too
        raise ValueError("support half-width q must be positive")
    if np.isinf(q):
        nodes, weights = _infinite_support_grid()
        return RootDensity(np.inf, nodes, weights, closed_form_density(nodes))
    x, w = _gauss_legendre(n_nodes)
    nodes = q * x
    weights = q * w
    lam, d = nodes[n_nodes // 2:], weights[n_nodes // 2:].copy()  # l >= 0, ascending
    if n_nodes % 2:
        d[0] *= 0.5  # l = 0 is its own mirror: K(l_i) w_0 once (exact halving)
    r, f = np.sqrt(d), _driving(lam)  # f is largest at lam[0]
    y = _conjugate_gradients(_symmetrized_fold(lam, r), r * f, 1.0 / r,
                             np.finfo(float).eps * f[0])
    half = y / r
    rho = np.concatenate((half[n_nodes % 2:][::-1], half))
    return RootDensity(q, nodes, weights, rho)


def interpolate_density(rd, lam):
    """Evaluate a finite-q solution off-grid through the integral equation
    itself (Nystrom natural interpolation)."""
    lam = np.asarray(lam, float)
    return _driving(lam) - _kernel_sum(lam, rd.nodes, rd.weights, rd.values)


def equation_residual(rd, lam_test):
    """Residual of the integral equation at off-grid points, with the integral
    term recomputed on an independent panelled quadrature (so the check is not
    the Nystrom identity restated; it measures the actual discretization
    error of the solved density)."""
    lam_test = np.asarray(lam_test, float)
    fine_n, fine_w = _panel_grid(rd.q, max(rd.q / 16, 0.25), 24)
    rho_fine = interpolate_density(rd, fine_n)
    integral = _kernel_sum(lam_test, fine_n, fine_w, rho_fine)
    values = interpolate_density(rd, lam_test)
    return float(np.max(np.abs(values + integral - _driving(lam_test))))


def density_D(rd):
    """Filled-root fraction D = int rho(l|q) dl."""
    return float(rd.weights @ rd.values)


def gs_energy_density(rd, J=1.0):
    """Energy per site e = -(J/2) int rho(l|q)/(l^2 + 1/4) dl;
    -J ln 2 at q = infinity."""
    return float(-J / 2 * np.sum(rd.weights * rd.values / (rd.nodes ** 2 + 0.25)))


def condensation_check(L_list, f):
    """Compare the finite-size sums (1/L) sum_j f(l_j) over ground-state roots
    with the thermodynamic integral int rho f for each L.

    Every L must be even; the ground states of all of them are solved as
    lanes of few Newton stacks (bae._solve_chains).  Returns a list of dicts
    with keys L, sum, integral, gap, in the order of L_list.  Signals the
    condensation property: the gap decays as L grows.
    """
    from .bae import XXX, _solve_chains
    Ls = list(L_list)
    for L in Ls:
        if L % 2:
            raise ValueError(f"L={L}: condensation scan expects even L")
    rd = solve_root_density(np.inf)
    integral = float(np.sum(rd.weights * rd.values * f(rd.nodes)))
    reps = _solve_chains(XXX, Ls, [L // 2 for L in Ls], [np.arange(1, L // 2 + 1) for L in Ls])
    rows = []
    for L, rep in zip(Ls, reps):
        if not rep.converged:
            raise RuntimeError(f"ground-state solve failed at L={L}")
        s = float(np.sum(f(rep.roots.values.real)) / L)
        rows.append({"L": L, "sum": s, "integral": integral,
                     "gap": abs(s - integral)})
    return rows

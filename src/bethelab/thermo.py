"""Ground-state root density of the Heisenberg antiferromagnet.

The density rho(l|q) on the symmetric support (-q, q) solves the linear
integral equation

    rho(l|q) = 2 / (pi (1 + 4 l^2))
               - (1/pi) int_{-q}^{q} dm rho(m|q) / (1 + (l - m)^2),

discretized by Gauss-Legendre Nystrom collocation; the rule for each node
count is computed once and cached (read-only arrays).  At q = infinity the
Fourier-transform solution is rho(l) = 1/(2 ch(pi l)); then the filled-root
fraction is D = 1/2 and the energy per site is e = -J ln 2.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

N_NODES_DEFAULT = 128
INF_CUTOFF = 14.0       # |l| beyond which 1/(2 ch(pi l)) < 1e-19
INF_PANEL = 1.0
INF_NODES_PER_PANEL = 24


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


def closed_form_density(lam):
    """rho(l) = 1/(2 ch(pi l)), the q = infinity solution."""
    return 1.0 / (2.0 * np.cosh(np.pi * np.asarray(lam, float)))


@lru_cache(maxsize=32)
def _gauss_legendre(n):
    """Gauss-Legendre nodes and weights on [-1, 1], read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
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


def solve_root_density(q, n_nodes=N_NODES_DEFAULT):
    """Solve the root-density integral equation on (-q, q).

    Finite q: Gauss-Legendre Nystrom discretization, dense solve.  q = inf:
    the closed form on a panelled grid over [-14, 14] (exponential tail below
    1e-19), so the returned quadrature integrates it to machine precision.
    """
    if np.isinf(q):
        nodes, weights = _panel_grid(INF_CUTOFF, INF_PANEL, INF_NODES_PER_PANEL)
        return RootDensity(np.inf, nodes, weights, closed_form_density(nodes))
    if q <= 0:
        raise ValueError("support half-width q must be positive")
    x, w = _gauss_legendre(n_nodes)
    nodes = q * x
    weights = q * w
    A = _kernel(nodes[:, None] - nodes[None, :])
    A *= weights  # K_ij = kernel(l_i - l_j) w_j
    A[np.diag_indices(n_nodes)] += 1.0  # I + K in place: no second n x n array
    rho = np.linalg.solve(A, _driving(nodes))
    return RootDensity(q, nodes, weights, rho)


def interpolate_density(rd, lam):
    """Evaluate a finite-q solution off-grid through the integral equation
    itself (Nystrom natural interpolation)."""
    lam = np.asarray(lam, float)
    K = _kernel(lam[:, None] - rd.nodes[None, :]) * rd.weights[None, :]
    return _driving(lam) - K @ rd.values


def equation_residual(rd, lam_test):
    """Residual of the integral equation at off-grid points, with the integral
    term recomputed on an independent panelled quadrature (so the check is not
    the Nystrom identity restated; it measures the actual discretization
    error of the solved density)."""
    lam_test = np.asarray(lam_test, float)
    fine_n, fine_w = _panel_grid(rd.q, max(rd.q / 16, 0.25), 24)
    rho_fine = interpolate_density(rd, fine_n)
    integral = (_kernel(lam_test[:, None] - fine_n[None, :]) * fine_w[None, :]) @ rho_fine
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

    Returns a list of dicts with keys L, sum, integral, gap.  Signals the
    condensation property: the gap decays as L grows.
    """
    from .bae import solve_logbae
    rd = solve_root_density(np.inf)
    integral = float(np.sum(rd.weights * rd.values * f(rd.nodes)))
    rows = []
    for L in L_list:
        if L % 2:
            raise ValueError("condensation scan expects even L")
        N = L // 2
        rep = solve_logbae(L, N, tuple(range(1, N + 1)))
        if not rep.converged:
            raise RuntimeError(f"ground-state solve failed at L={L}")
        s = float(np.sum(f(rep.roots.values.real)) / L)
        rows.append({"L": L, "sum": s, "integral": integral,
                     "gap": abs(s - integral)})
    return rows

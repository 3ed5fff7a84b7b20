"""Nested Bethe Ansatz for the one-dimensional Hubbard model.

    H = - sum_{j,s} (c+_{j,s} c_{j+1,s} + c+_{j+1,s} c_{j,s})
        + u sum_j (1 - 2 n_{j,up})(1 - 2 n_{j,dn}),

periodic (c_{L+1} = c_1; the bond sum is taken literally, so L = 2 hops count
twice; L = 1 has no hopping and its four levels are {u, -u, -u, u}).

Fermion conventions: orbital p = 2(x-1) + s, site-major with up before down;
basis states are ascending creation strings, and c+_p / c_p carry the sign
(-1)^(number of occupied orbitals below p).  The (N, M) block lists its states
with the up masks outer and both mask lists ascending (`basis._sector_states`);
one builder, `_one_body`, gives the hops of H and the on-site flips of S^+.

Eigenstates in the (N electrons, M down spins) block carry N charge momenta
k_j and M spin rapidities l_l solving

    e^{i k_j L} = prod_l (l_l - sin k_j - iu)/(l_l - sin k_j + iu),
    prod_j (l_l - sin k_j - iu)/(l_l - sin k_j + iu)
        = prod_{m != l} (l_l - l_m - 2iu)/(l_l - l_m + 2iu),

with E = -2 sum cos k_j + u(L - 2N) and P = sum k_j in [0, 2pi).  The nested
wavefunction's sum over charge permutations is, for each ordering of the spin
rapidities, one determinant, so whole occupation bases are assembled by one
batched `np.linalg.det` (`_nested_amplitudes`).
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations

import numpy as np
import scipy.sparse as sp

from .bae import _damped_newton, _diff, _integer_qnums, _jacobian, _per_lane
from .basis import _sector_states
from .coordinate import _angle_mod_2pi
from .ed import OperatorMatrix

FACTORIAL_GUARD_N = 6
FACTORIAL_GUARD_M = 2
LIEBWU_TOL = 1e-12  # Newton residual at which solve_liebwu stops
LIEBWU_MAX_ITER = 300


@dataclass
class NestedRoots:
    """Charge momenta and spin rapidities of one nested Bethe state."""
    L: int
    k: np.ndarray
    lam: np.ndarray
    u: float

    def __post_init__(self):
        self.k = np.asarray(self.k, complex)
        self.lam = np.asarray(self.lam, complex)
        if 2 * self.M > self.N or self.N > self.L:
            raise ValueError(f"L={self.L}, N={self.N}, M={self.M}: need 0 <= 2M <= N <= L")

    @property
    def N(self):
        return len(self.k)

    @property
    def M(self):
        return len(self.lam)


class FermionBasis:
    """Occupation basis of the (N, M) block: pairs of up/down bit masks with
    bit x-1 set when site x is occupied.  (The Fock block exists whenever both
    spin populations fit on the lattice; the 2M <= N <= L restriction applies
    to nested root sets, not to the basis.)

    `up` and `dn` hold the masks as int64 arrays in basis order: up masks
    outer, each list ascending (`basis._sector_states`), so `rank` maps mask
    arrays back to ordinals by one searchsorted per spin."""

    def __init__(self, L, N, M):
        if not (0 <= M <= L and 0 <= N - M <= L):
            raise ValueError(f"L={L}, N={N}, M={M}: spin populations must fit on the lattice")
        if L > 62:
            raise ValueError(f"L={L}: the bit masks are int64, need L <= 62")
        self.L, self.N, self.M = L, N, M
        self._ups, self._dns = _sector_states(L, N - M), _sector_states(L, M)
        self.up = np.repeat(self._ups, len(self._dns))
        self.dn = np.tile(self._dns, len(self._ups))

    @property
    def dim(self):
        return len(self.up)

    def rank(self, up, dn):
        """Ordinals of the states with masks (up, dn), arrays of basis states."""
        return np.searchsorted(self._ups, up) * len(self._dns) + np.searchsorted(self._dns, dn)

    @cached_property
    def occupations(self):
        """(dim, 2L) int64 array of 0/1: occupation of orbital p = 2(x-1) + s
        (s = 0 up, 1 down) in each state."""
        sites = np.arange(self.L)
        occ = np.stack([(self.up[:, None] >> sites) & 1, (self.dn[:, None] >> sites) & 1],
                       axis=-1)
        return occ.reshape(self.dim, 2 * self.L)

    @cached_property
    def occupied_below(self):
        """(dim, 2L + 1) int64 array: the number of occupied orbitals below
        orbital p in each state, the masked bit counts behind fermion signs."""
        below = np.zeros((self.dim, 2 * self.L + 1), np.int64)
        np.cumsum(self.occupations, axis=1, out=below[:, 1:])
        return below


def _one_body(basis, dst, pairs):
    """COO triplets (rows, cols, signs) of sum_{(p, q) in pairs} c+_q c_p from
    the `basis` block to the `dst` block.  Each state with orbital p filled and
    q empty moves its electron, with the sign (-1)^(occupied orbitals below p
    + those below q once p is emptied)."""
    occ, below = basis.occupations, basis.occupied_below
    rows, cols, signs = [], [], []
    for p, q in pairs:
        hit = np.flatnonzero(occ[:, p] > occ[:, q])  # p filled, q empty
        masks = [basis.up[hit], basis.dn[hit]]
        masks[p % 2] = masks[p % 2] ^ (1 << (p // 2))
        masks[q % 2] = masks[q % 2] | (1 << (q // 2))
        rows.append(dst.rank(*masks))
        cols.append(hit)
        signs.append(1 - 2 * ((below[hit, p] + below[hit, q] - (p < q)) & 1))
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(signs).astype(float)


def build_hubbard_hamiltonian(L, u, sector):
    """Hubbard Hamiltonian in the (N, M) block (sector a tuple or FermionBasis).

    The diagonal is summed site by site; the hops c+_{j,s} c_{j',s} of every
    bond come from `_one_body` as COO triplets (at L = 1 no state can hop from
    site 0 to itself; the repeated hops of L = 2 add up)."""
    if L > 8:
        raise ValueError(f"L={L}: full blocks supported up to L = 8")
    basis = sector if isinstance(sector, FermionBasis) else FermionBasis(L, *sector)
    dim = basis.dim
    occ = basis.occupations
    diag = np.zeros(dim)
    for x in range(L):
        diag += u * (1 - 2 * occ[:, 2 * x]) * (1 - 2 * occ[:, 2 * x + 1])
    hops = [(2 * src + s, 2 * dst + s) for j in range(L) for s in (0, 1)
            for src, dst in (((j + 1) % L, j), (j, (j + 1) % L))]
    rows, cols, signs = _one_body(basis, basis, hops)
    on_site = np.arange(dim)
    entries = (np.concatenate([diag, -signs]),
               (np.concatenate([on_site, rows]), np.concatenate([on_site, cols])))
    return OperatorMatrix(sp.coo_matrix(entries, shape=(dim, dim)))


def spin_raise_block(basis):
    """S^+ = sum_j c+_{j,up} c_{j,dn} mapping the (N, M) block to (N, M-1):
    (OperatorMatrix, the (N, M-1) FermionBasis)."""
    dst = FermionBasis(basis.L, basis.N, basis.M - 1)
    rows, cols, signs = _one_body(basis, dst, [(2 * x + 1, 2 * x) for x in range(basis.L)])
    return OperatorMatrix(sp.coo_matrix((signs, (rows, cols)), shape=(dst.dim, basis.dim))), dst


def shift_block(basis, direction=-1):
    """One-site translation (all orbitals move site x -> x + direction) with
    the fermionic reordering sign, as an OperatorMatrix; direction -1 matches
    the spin-chain convention whose Bethe-state eigenvalue is e^{+iP}.

    Moving every site by r = direction mod L rotates the L-bit masks left by
    r; the n orbitals on the top r sites wrap to the bottom past the other
    N - n, so the sign is (-1)^(n (N - n))."""
    L = basis.L
    r = direction % L
    full = (1 << L) - 1

    def rotate(m):
        return ((m << r) | (m >> (L - r))) & full

    n = basis.occupied_below[:, 2 * L] - basis.occupied_below[:, 2 * (L - r)]
    dim = basis.dim
    rows = basis.rank(rotate(basis.up), rotate(basis.dn))
    signs = (1 - 2 * ((n * (basis.N - n)) & 1)).astype(float)
    return OperatorMatrix(sp.coo_matrix((signs, (rows, np.arange(dim))), shape=(dim, dim)))


def liebwu_residual(roots):
    """Max exponential-form residual over both equation families."""
    L, k, lam, u = roots.L, roots.k, roots.lam, roots.u
    d = lam[None, :] - np.sin(k)[:, None]  # l_l - sin k_j, N x M
    if np.any(np.abs(d - 1j * u) < 1e-12) or np.any(np.abs(d + 1j * u) < 1e-12):
        raise ValueError("pole configuration l - sin k = +-iu")
    log_s = np.log(d - 1j * u) - np.log(d + 1j * u)
    dl = lam[:, None] - lam[None, :]
    log_l = np.log(dl - 2j * u) - np.log(dl + 2j * u)
    np.fill_diagonal(log_l, 0.0)  # the products run over m != l
    charge = np.exp(1j * k * L) - np.exp(log_s.sum(axis=1))
    spin = np.exp(log_s.sum(axis=0)) - np.exp(log_l.sum(axis=1))
    return float(max(np.max(np.abs(charge), initial=0.0),
                     np.max(np.abs(spin), initial=0.0)))


def _charge_offset(M):
    """pi M reduced mod 2pi."""
    return np.pi * M - 2 * np.pi * np.round(M / 2)


def _liebwu_system(L, N, M, u, ns, ss):
    """(F, J) of the logarithmic Lieb-Wu equations in z = (k, lambda), z of
    shape (N + M,) or (B, N + M); ns and ss (N,), (M,) or per lane (B, .).
    F is written into one (..., N + M) array, charge rows first, and J into
    one (..., N + M, N + M) array block by block."""
    off_c = _charge_offset(M)
    off_s = np.pi * (M - 1 - N)
    off_s -= 2 * np.pi * np.round(off_s / (2 * np.pi))
    i = np.arange(N)

    def F(z, lanes=None):
        k, lam = z[..., :N], z[..., N:]
        f = np.empty(z.shape)
        a = 2 * np.arctan((np.sin(k)[..., :, None] - lam[..., None, :]) / u)  # N x M
        np.add(k * L - 2 * np.pi * _per_lane(ns, lanes) - off_c, a.sum(axis=-1), out=f[..., :N])
        np.subtract(-a.sum(axis=-2) - np.sum(2 * np.arctan(_diff(lam) / (2 * u)), axis=-1)
                    - off_s, 2 * np.pi * _per_lane(ss, lanes), out=f[..., N:])
        return f

    def J(z, lanes=None):
        k, lam = z[..., :N], z[..., N:]
        ck = np.cos(k)
        jac = np.zeros(z.shape + z.shape[-1:])
        A = 2 * u / (u ** 2 + (np.sin(k)[..., :, None] - lam[..., None, :]) ** 2)  # N x M
        jac[..., i, i] = L + ck * A.sum(axis=-1)
        np.negative(A, out=jac[..., :N, N:])
        np.negative((A * ck[..., :, None]).swapaxes(-1, -2), out=jac[..., N:, :N])
        spin = np.divide(4 * u, 4 * u ** 2 + _diff(lam) ** 2, out=jac[..., N:, N:])
        _jacobian(A.sum(axis=-2), spin)
        return jac
    return F, J


def solve_liebwu(L, N, M, u, charge_qnums, spin_qnums=()):
    """Newton solve of the logarithmic real-root equations.

    Charge:  k_j L = 2 pi n_j + [pi M] - sum_l 2 arctg((sin k_j - l_l)/u)
    Spin:    sum_j 2 arctg((l_l - sin k_j)/u)
             = [pi (M-1-N)] + 2 pi s_l + sum_{m != l} 2 arctg((l_l - l_m)/(2u))

    with the bracketed constants reduced mod 2pi; they carry the parity
    offsets, so n_j and s_l must be integers, and L >= 2 (the one-site block
    has no hop); ValueError otherwise.  Seeds: k0 from the decoupled charge
    part, l0 from the strong-coupling spin chain.  Returns (NestedRoots,
    residual, converged); run-away spin rapidities (the spin-lowered
    descendants) are flagged unconverged.
    """
    if L < 2:
        raise ValueError(f"L={L}: need at least two sites")
    if not (0 <= 2 * M <= N <= L):
        raise ValueError(f"L={L}, N={N}, M={M}: need 0 <= 2M <= N <= L")
    if u == 0:
        raise ValueError("u = 0 makes the Lieb-Wu equations singular")
    ns = _integer_qnums(charge_qnums)
    ss = _integer_qnums(spin_qnums)
    if len(ns) != N or len(ss) != M:
        raise ValueError(f"N={N}, M={M}: need one charge number per k and one spin number "
                         f"per lambda, got {len(ns)} and {len(ss)}")
    k0 = (2 * np.pi * ns + _charge_offset(M)) / L
    phase = np.pi * ss / N
    lam0 = np.where(np.abs(phase) < 1.4, u * np.tan(phase), 3.0 * np.sign(phase))
    z, res, _, stop = _damped_newton(*_liebwu_system(L, N, M, u, ns, ss),
                                     np.concatenate([k0, lam0]), tol=LIEBWU_TOL,
                                     max_iter=LIEBWU_MAX_ITER)
    roots = NestedRoots(L, z[:N].astype(complex), z[N:].astype(complex), u)
    return roots, res, stop == "converged"


def energy_momentum(roots):
    """E = -2 sum cos k_j + u (L - 2N); P = Re sum k_j reduced into [0, 2pi)."""
    E = -2 * np.sum(np.cos(roots.k)) + roots.u * (roots.L - 2 * roots.N)
    P = _angle_mod_2pi(np.sum(roots.k).real)
    return complex(E).real if abs(complex(E).imag) < 1e-10 else complex(E), P


def _nested_amplitudes(roots, xs, ys):
    """Nested wavefunction in its ordering sector, for a stack of states.

    xs: (n, N) ordered electron coordinates; ys: (n, M) 1-based positions
    (in that order) of the down spins.  For each ordering R of the spin
    rapidities, the sum over charge permutations P of sign(P) prod_j
    G_R[P_j, j] is det G_R, with

        G_R[p, j] = e^{i k_p x_j} prod_l s_l(k_p, j),
        s_l = (l_Rl - sin k_p - iu)/(l_Rl - sin k_p + iu)   if j < y_l,
              2iu/(l_Rl - sin k_p + iu)                      if j = y_l,
              1                                              if j > y_l,

    weighted by A(l_R) = prod_{m<n} (l_Rm - l_Rn - 2iu)/(l_Rm - l_Rn).
    One batched determinant over the (M!, n) stack of N x N matrices.
    """
    if roots.N > FACTORIAL_GUARD_N or roots.M > FACTORIAL_GUARD_M:
        raise ValueError(f"N={roots.N}, M={roots.M}: factorial cost guard: "
                         f"N <= {FACTORIAL_GUARD_N}, M <= {FACTORIAL_GUARD_M}")
    u, M = roots.u, roots.M
    lamR = roots.lam[np.array(list(permutations(range(M))), np.intp)]  # (M!, M)
    d = lamR[:, :, None] - np.sin(roots.k)                       # (M!, M, N)
    below, at = (d - 1j * u) / (d + 1j * u), 2j * u / (d + 1j * u)
    G = np.exp(1j * roots.k[:, None] * xs[:, None, :])[None]      # (1, n, N, N)
    j = np.arange(1, roots.N + 1)
    for l in range(M):
        y = ys[:, l, None, None]                                  # (n, 1, 1)
        s = np.where(j < y, below[:, l, None, :, None], 1.0)
        G = G * np.where(j == y, at[:, l, None, :, None], s)
    m, n = np.triu_indices(M, 1)
    dl = lamR[:, m] - lamR[:, n]
    A = np.prod((dl - 2j * u) / dl, axis=1)
    return A @ np.linalg.det(G)


def assemble_state(roots, basis=None):
    """Expand the nested wavefunction over the (N, M) occupation basis.

    Each basis state is read as the canonical tuple (orbitals ascending: site
    by site, up before down), which is already in its ordering sector; the
    factor (-1)^(K(K-1)/2) converts between the ascending creation string and
    the wavefunction's coordinate-ordering convention.  All states go through
    one batched `_nested_amplitudes` call.  Normalized (the overall scale of
    the nested construction is left free).
    """
    K = roots.N
    basis = basis or FermionBasis(roots.L, K, roots.M)
    if basis.N != K:
        raise ValueError("need one coordinate per charge momentum")
    if basis.M != roots.M:
        return np.zeros(basis.dim, complex)
    orbs = np.nonzero(basis.occupations)[1].reshape(basis.dim, K)
    downs = np.nonzero(orbs % 2)[1].reshape(basis.dim, roots.M) + 1
    v = (-1) ** (K * (K - 1) // 2) * _nested_amplitudes(roots, orbs // 2 + 1, downs)
    nrm = np.linalg.norm(v)
    return v / nrm if nrm > 0 else v

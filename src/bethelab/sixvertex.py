"""Six-vertex model: R-matrix, Yang-Baxter checks, monodromy and transfer
matrices, partition functions, the spin-chain link, and square-ice entropy.

R-matrix in the basis (++, +-, -+, --), first factor = auxiliary/horizontal:

        [ a          ]
    R = [   b  c     ]      a = rho sh(l + eta),  b = rho sh(l),  c = rho sh(eta)
        [   c  b     ]
        [          a ]

Conventions: the monodromy T_0(l) = R_{0,L}(l - xi_L) ... R_{0,1}(l - xi_1)
acts on aux (x) site_1 (x) ... (x) site_L with the auxiliary slot slowest;
operator products apply right to left, so the aux space sweeps site 1 first.
At l = 0 (homogeneous, xi = 0) the trace over the auxiliary space is
rho^L sh^L(eta) times the cyclic shift that moves the spin pattern forward by
one site, i.e. the inverse of the momentum-convention shift operator built in
the ed module.

The R-factors R(l - xi_j) come from one place (_r_matrices).  Explicit
matrices are read off the ice-rule paths of their list (_ice_paths): an
entering aux value, a chain-in state and a chain-out state allow at most one
path of horizontal edges, so T_0 stores at most 2 3^L entries, each a product
of one R entry per site, kept in two blocks by the current aux value.
_monodromy_csr takes all of them and `transfer` the paths that leave with the
aux value they entered with, each put in CSR order by one stable sort by row;
the dense sector blocks of partition_function, those of the torus's shorter
side, are filled from the latter by sector rank, and the RTT check inserts
the idle aux slot into the monodromy's CSR.  `transfer` hands its CSR to
ed.OperatorMatrix, whose one rule (dense below DENSE_DIM_LIMIT = 512) makes
`.matrix` dense for L <= 8.
hamiltonian_from_transfer inverts t(0) as the scaled shift it is, sums t'(0)
exactly (L walks) and stays CSR.  Vectors meet the reshape action _apply_pair,
which stores nothing: vectors are rows, (..., 2^n), and each block, an 8 x 8
on (aux, s_j, s_j+1) or a 4 x 4 on (aux, s_j), or a stack with one block per
row, is one matmul on its slots brought to the front.  _pair_blocks
multiplies the R-factors of each two consecutive sites into one 8 x 8 (one
einsum for all pairs, for one l, one per row or one per root position), and
_apply_blocks applies them in turn, L/2 passes over the rows instead of L.
They give the aba module's B/C products for a whole stack of root sets, the
matrix-free square-ice eigenvalue, and the aba action residuals; t(l) v
has one entry point, _transfer_action on the blocks.  The Yang-Baxter and
RTT checks' R-matrices are Kronecker products with identities: the 8 x 8
stacks of _three_slot and the sparse R (x) 1 of rtt_residual.
"""

from dataclasses import dataclass
from functools import cache
from math import comb

import numpy as np
import scipy.sparse as sp

from .basis import build_sector_basis
from .ed import OperatorMatrix, build_shift_operator, build_xxz_hamiltonian

YBE_BATCH = 4096  # Yang-Baxter trials per stacked product: 4 MB per (B, 8, 8) array
EXPLICIT_L_MAX = 14  # explicit matrices: 2 3^L entries, codes of 2L + 1 bits in int32


@dataclass
class VertexWeights:
    """Boltzmann weights (a, b, c), optionally carrying the normalization
    rho and crossing parameter eta of the hyperbolic parameterization and
    inhomogeneities xi."""
    a: complex
    b: complex
    c: complex
    rho: complex = None
    eta: complex = None
    xi: tuple = None

    @classmethod
    def from_parameters(cls, rho, lam, eta, xi=None):
        a = rho * np.sinh(lam + eta)
        b = rho * np.sinh(lam)
        c = rho * np.sinh(eta)
        return cls(a, b, c, rho=rho, eta=eta, xi=tuple(xi) if xi is not None else None)

    @classmethod
    def ice(cls):
        """The ice point a = b = c = 1, built directly from the weights (the
        hyperbolic parameterization is bypassed there on purpose)."""
        return cls(1.0, 1.0, 1.0)

    @property
    def parameterized(self):
        return self.eta is not None

    def inhomogeneities(self, L):
        if self.xi is None:
            return np.zeros(L, complex)
        if len(self.xi) != L:
            raise ValueError("need one inhomogeneity per site")
        return np.asarray(self.xi, complex)


def r_matrix_from_weights(a, b, c):
    """The 4 x 4 R-matrix of weights (a, b, c); array weights give a stack
    (..., 4, 4).  It is real when a, b and c are, and complex otherwise."""
    R = np.zeros(np.broadcast_shapes(np.shape(a), np.shape(b), np.shape(c)) + (4, 4),
                 np.result_type(a, b, c, float))
    R[..., 0, 0] = R[..., 3, 3] = a
    R[..., 1, 1] = R[..., 2, 2] = b
    R[..., 1, 2] = R[..., 2, 1] = c
    return R


def r_matrix(lam, eta, rho=1.0):
    """R(l) in the hyperbolic parameterization; R(0) = rho sh(eta) P with P
    the transposition, and eta = 0 degenerates to rho sh(l) times the identity."""
    return r_matrix_from_weights(rho * np.sinh(lam + eta), rho * np.sinh(lam),
                                 rho * np.sinh(eta))


def _check_length(L):
    """Raise ValueError for an L outside 1..EXPLICIT_L_MAX; callers check
    before they build anything of size L."""
    if not 1 <= L <= EXPLICIT_L_MAX:
        raise ValueError(f"L={L}: chains from L = 1 are supported up to L = {EXPLICIT_L_MAX}")


def _r_matrices(lam, L, weights):
    """The R(l - xi_j), j = 1..L, in the order they act (site 1 first), as
    one array: (L, 4, 4) for a scalar l, (L, ..., 4, 4) for an array of l;
    direct weights give copies of one 4 x 4 in that shape."""
    _check_length(L)
    if weights.parameterized:
        shifts = np.asarray(lam)[..., None] - weights.inhomogeneities(L)
        return np.moveaxis(r_matrix(shifts, weights.eta, weights.rho), -3, 0)
    R = r_matrix_from_weights(weights.a, weights.b, weights.c)
    return np.full((L,) + np.shape(lam) + (4, 4), R)


def _apply_pair(R, j, x):
    """R on tensor slots (0, j) of n, or (0, j, j + 1) for an 8 x 8 R, applied
    to each row of x without building the 2^n matrix: x of shape (..., 2^n),
    aux slot 0 slowest, is viewed as (..., 2, A, k, B) with A = 2^(j-1), k = 2
    or 4 the dimension of the sites and B the rest, the (aux, sites) block is
    brought to the front as (..., 2k, A B), and one matmul applies R, a
    2k x 2k or a (K, 2k, 2k) stack with one R per row."""
    k = R.shape[-1] // 2
    A = 2 ** (j - 1)
    xs = x.reshape(*x.shape[:-1], 2, A, k, -1).swapaxes(-3, -2)
    y = R @ xs.reshape(*x.shape[:-1], 2 * k, -1)
    return y.reshape(xs.shape).swapaxes(-3, -2).reshape(x.shape)


def _pair_blocks(lam, L, weights):
    """T_0(l) as the blocks that act in turn, site 1 first: (j, P) with P the
    8 x 8 R_{0,j+1} R_{0,j} on (aux, s_j, s_j+1), all pairs built by one
    einsum, and at odd L (L, R_{0,L}), a 4 x 4 on (aux, s_L).  l of any shape
    gives a stack of that shape per block."""
    Rs = _r_matrices(lam, L, weights)
    blocks = [(L, Rs[-1])] * (L % 2)
    if L > 1:  # an einsum over no pairs costs about as much as the action at L = 1
        r = Rs.reshape(Rs.shape[:-2] + (2,) * 4)  # (out aux, out site, in aux, in site)
        pairs = np.einsum("j...qTpt,j...pSas->j...qSTast", r[1::2], r[:L - 1:2])
        blocks[:0] = zip(range(1, L, 2), pairs.reshape(pairs.shape[:-6] + (8, 8)))
    return blocks


def _apply_blocks(blocks, x, transposed=False):
    """The product of _pair_blocks applied to each row of x, one _apply_pair
    per block, L/2 passes over the rows; transposed=True applies its
    transpose, the blocks transposed in reverse order."""
    for j, R in [(j, R.swapaxes(-1, -2)) for j, R in blocks[::-1]] if transposed else blocks:
        x = _apply_pair(R, j, x)
    return x


def _transfer_action(blocks, v, transposed=False):
    """t(l) @ v = sum_a <a|T_0(l)|a> v, or t(l)^T @ v with transposed=True,
    for blocks = _pair_blocks(l, L, weights): one _apply_blocks on the two
    rows |a> (x) v, a = 0, 1; equals transfer(l, L, weights).matrix @ v
    without building it.  A real v under real blocks stays real; complex
    R-factors make it complex."""
    d = len(v)
    x = np.zeros((2, 2 * d), np.result_type(v, float))
    x[0, :d] = x[1, d:] = v
    y = _apply_blocks(blocks, x, transposed)
    return y[0, :d] + y[1, d:]


def _ice_paths(Rs, a=None):
    """The nonzero entries of the monodromy of the R-factors Rs, one per path.

    By the ice rule the aux value after site j is h_j = h_(j-1) + s_j - s'_j,
    so an entering aux value, a chain-in state s and a chain-out state s'
    allow at most one path of horizontal edges, and T_0 stores at most
    2 3^L entries.  The L = len(Rs) sites are walked in order, the paths kept
    in two blocks by their aux value h; a path moves on in three ways,
    weighted by the matching entry of the site's R-factor (T_0(l) for
    Rs = _r_matrices(l, L, weights)):
      a: both arrows pass (s_j = s'_j = h),            R[3h, 3h];
      b: the other arrow passes (s_j = s'_j = 1 - h),  R[1 + h, 1 + h];
      c: the arrows turn (s_j = 1 - h, s'_j = h),      R[2 - h, 1 + h],
         and h becomes 1 - h.
    A new block is the moves of nonzero weight of whole old blocks in turn.

    Returns (codes, values, n0), the paths that leave with aux value 0 (n0 of
    them) before those that leave with 1.  The int32 code of an entry is
    s' << (L + 1) | a << L | s, with a the entering aux value.  A stable sort
    by row gives the CSR, each row in the order of its moves.  a=None enters
    with both aux values; a=0 or 1 enters with a alone and keeps only the
    paths that leave with a: the entries of <a|T_0|a>, whose sum over a is
    the transfer matrix."""
    L = len(Rs)
    codes = [np.array([h << L] if a in (None, h) else [], np.int32) for h in (0, 1)]
    values = [np.ones(len(c), complex) for c in codes]
    for j, R in enumerate(Rs, start=1):
        R = R.tolist()
        s, out = 1 << (L - j), 1 << (2 * L + 1 - j)  # the bits of s_j and s'_j
        # (old block, weight, code offset) of the parts of the new block 0, then 1
        parts = [[(0, R[0][0], 0), (0, R[1][1], out | s), (1, R[1][2], out)],
                 [(0, R[2][1], s), (1, R[3][3], out | s), (1, R[2][2], 0)]]
        if j == L and a is not None:
            parts[1 - a] = []
        parts = [[(h, w, off) for h, w, off in p if w != 0] for p in parts]
        codes = [np.concatenate([codes[0][:0]] + [codes[h] + off for h, _, off in p])
                 for p in parts]
        values = [np.concatenate([values[0][:0]] + [values[h] * w for h, w, _ in p])
                  for p in parts]
    return np.concatenate(codes), np.concatenate(values), len(codes[0])


def _row_sorted_csr(rows, columns, values, dim):
    """The CSR matrix of the entries (rows, columns, values), each row's
    entries in their given order.  The stable sort of uint16 row keys is a
    radix sort; rows below dim <= 2^(L + 1) fit while EXPLICIT_L_MAX <= 15, as
    the int32 codes already need."""
    order = np.argsort(rows.astype(np.uint16), kind="stable")
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=dim)))).astype(np.int32)
    return sp.csr_matrix((values[order], columns[order], indptr), shape=(dim, dim))


def _monodromy_csr(lam, L, weights):
    """T_0(l) on aux (x) chain as CSR, read off its ice paths: row
    (exit aux, s'), column (a, s)."""
    codes, values, n0 = _ice_paths(_r_matrices(lam, L, weights))
    rows = codes >> (L + 1)
    rows[n0:] |= 1 << L
    d = 2 ** (L + 1)
    return _row_sorted_csr(rows, codes & (d - 1), values, d)


def transfer(lam, L, weights):
    """Transfer matrix tr_0 T_0(l) on the 2^L chain space, as the
    OperatorMatrix of the CSR sum of <0|T_0|0> and <1|T_0|1>, built one
    after the other."""
    d = 2 ** L
    Rs = _r_matrices(lam, L, weights)
    t0, t1 = (_row_sorted_csr(codes >> (L + 1), codes & (d - 1), values, d)
              for codes, values, _ in (_ice_paths(Rs, a) for a in (0, 1)))
    return OperatorMatrix(t0 + t1)


@cache
def _sector_ranks(L):
    """Read-only: the position of each L-bit state in the order of
    build_sector_basis(L, N).state_array, N its number of set bits."""
    rank = np.empty(2 ** L, np.intp)
    for N in range(L + 1):
        states = build_sector_basis(L, N).state_array
        rank[states] = np.arange(len(states))
    rank.flags.writeable = False
    return rank


def _closed_paths(lam, L, weights):
    """The ice paths of <0|T_0(l)|0> and <1|T_0(l)|1>, the entries of the
    transfer matrix, as (codes, sector, values) per aux value, sector the
    number of down spins of s.  A path that leaves with the aux value it
    entered with keeps the arrow number, so s' lies in the same sector."""
    Rs = _r_matrices(lam, L, weights)
    paths = [_ice_paths(Rs, a) for a in (0, 1)]
    return [(codes, np.bitwise_count(codes & (2 ** L - 1)), values) for codes, values, _ in paths]


def _sector_block(paths, L, N):
    """The dense block of the transfer matrix on the N-down-spins sector, in
    the order of build_sector_basis(L, N).states, filled from _closed_paths
    by sector rank."""
    rank = _sector_ranks(L)
    dim = comb(L, N)
    block = np.zeros(dim * dim, complex)
    for codes, sector, values in paths:
        hit = np.flatnonzero(sector == N)
        c = codes[hit]
        np.add.at(block, rank[c >> (L + 1)] * dim + rank[c & (2 ** L - 1)], values[hit])
    return block.reshape(dim, dim)


def _three_slot(R, pos0, pos1):
    """A (B, 4, 4) stack of two-slot operators on tensor slots (pos0, pos1) of
    three, slot 0 slowest, as the (B, 8, 8) stack of Kronecker products with
    the identity on the idle slot: one copy of R per value of that slot."""
    idle = 3 - pos0 - pos1
    out = np.zeros((len(R),) + (2,) * 6, complex)  # (B, slots 0-2 out, slots 0-2 in)
    for x in (0, 1):
        at = [slice(None)] * 7
        at[1 + idle] = at[4 + idle] = x
        out[tuple(at)] = R.reshape(-1, 2, 2, 2, 2)
    return out.reshape(-1, 8, 8)


def ybe_residual(lam, mu, nu, eta):
    """Max-entry magnitude of R12 R13 R23 - R23 R13 R12 on the 8-dim space,
    with arguments l - m, l - n, m - n.  lam, mu, nu (and eta) may be
    equal-length arrays, one entry per trial; the max runs over all trials,
    evaluated as stacks of YBE_BATCH, and is nan when any trial is (an
    overflowed sinh must not read as a pass)."""
    lam, mu, nu, eta = (np.ravel(a) for a in np.broadcast_arrays(lam, mu, nu, eta))
    args = ((lam - mu, 0, 1), (lam - nu, 0, 2), (mu - nu, 1, 2))
    worst = 0.0
    for w in (slice(s, s + YBE_BATCH) for s in range(0, len(lam), YBE_BATCH)):
        R12, R13, R23 = (_three_slot(r_matrix(x[w], eta[w]), p0, p1) for x, p0, p1 in args)
        worst = np.maximum(worst, np.max(np.abs(R12 @ R13 @ R23 - R23 @ R13 @ R12)))
    return float(worst)


def _max_entry(m):
    """Largest |entry| of a sparse matrix, 0.0 when it stores none."""
    return float(np.max(np.abs(m.data), initial=0.0))


def _aux_slot_operator(lam, L, weights, aux):
    """T_0(l) on the spaces (0, 0', chain), acting on aux slot `aux` (0 or 1)
    and the chain: the monodromy's entries with the idle slot's bit inserted."""
    T = _monodromy_csr(lam, L, weights).tocoo()
    rows, cols, values = T.row, T.col, T.data
    p = L + aux  # the idle slot's bit: 0' for aux 0, 0 for aux 1

    def insert(i, x):
        return (i >> p) << (p + 1) | x << p | i & ((1 << p) - 1)

    rows, cols = (np.concatenate([insert(i, x) for x in (0, 1)]) for i in (rows, cols))
    return sp.csr_matrix((np.tile(values, 2), (rows, cols)), shape=(2 ** (L + 2),) * 2)


def rtt_residual(lam, mu, L, weights):
    """Max-entry magnitude of R_00'(l-m) T_0(l) T_0'(m) - T_0'(m) T_0(l) R_00'(l-m),
    with the spaces ordered (0, 0', chain)."""
    T0 = _aux_slot_operator(lam, L, weights, 0)
    T0p = _aux_slot_operator(mu, L, weights, 1)
    R = sp.kron(r_matrix(lam - mu, weights.eta, weights.rho), sp.identity(2 ** L), format="csr")
    return _max_entry(R @ T0 @ T0p - T0p @ T0 @ R)


def hamiltonian_from_transfer(L, eta, rho=1.0):
    """Reconstruct the XXZ Hamiltonian from the homogeneous transfer matrix:

        H = sh(eta)/2 * t(0)^{-1} t'(0) - ch(eta) L/2,   Delta = ch(eta),

    with the exact t'(0): over sites j, the sum of the closed ice paths of the
    R(0) with R'(0), of weights (rho ch eta, rho, 0), at site j.  R(0) =
    rho sh(eta) P, so t(0) = c U^{-1} with c = (rho sh eta)^L and U the shift
    operator of the ed module; t(0)^{-1} t'(0) is then U t'(0) / c, and
    everything stays CSR.  Returns (OperatorMatrix, max entry deviation from
    the directly built H relative to its largest entry).  Raises ValueError
    when c is 0, subnormal or infinite at finite rho and eta, and when t(0)
    is not c U^{-1} to 1e-12 |c|.
    """
    if L < 3:
        raise ValueError("needs L >= 3 (distinct-site shift)")
    w = VertexWeights.from_parameters(rho, 0.0, eta)
    if abs(np.sinh(eta)) < 1e-12:
        raise ValueError("sh(eta) = 0 makes t(0) singular")
    c = w.c ** L
    if np.isfinite([rho, eta]).all() and not np.finfo(float).tiny <= abs(c) < np.inf:
        raise ValueError(f"rho={rho}, eta={eta}: (rho sh eta)^{L} is 0, subnormal or infinite")
    delta = complex(np.cosh(eta))
    if abs(delta.imag) > 1e-12:
        raise ValueError("ch(eta) must be real to compare with the XXZ chain")
    U = build_shift_operator(L).csr()
    if _max_entry(transfer(0.0, L, w).csr() - c * U.T) > 1e-12 * abs(c):
        raise ValueError("t(0) is not (rho sh eta)^L times the inverse shift")
    Rs = list(_r_matrices(0.0, L, w))
    dR = r_matrix_from_weights(rho * np.cosh(eta), rho, 0)
    walks = [_ice_paths(Rs[:j] + [dR] + Rs[j + 1:]) for j in range(L)]
    codes, values, exits = (np.concatenate(x) for x in
                            zip(*[(k, v, np.arange(len(k)) >= n0) for k, v, n0 in walks]))
    closed = (codes >> L & 1) == exits  # left with the aux value it entered with
    codes, d = codes[closed], 2 ** L
    tprime = _row_sorted_csr(codes >> (L + 1), codes & (d - 1), values[closed], d)
    h_rec = (np.sinh(eta) / 2 * ((U / c) @ tprime)
             - delta.real * L / 2 * sp.identity(d, format="csr"))
    h_dir = build_xxz_hamiltonian(L, delta.real).csr()
    return OperatorMatrix(h_rec), _max_entry(h_rec - h_dir) / _max_entry(h_dir)


def partition_function(L, M, a, b, c):
    """Z_{L,M}(a,b,c) = tr (tr_0 T_0)^M on the L x M torus via the sector
    blocks of one transfer matrix (the transfer conserves the arrow number,
    so the trace is the sum of block traces), taken along the shorter side:
    turning the torus by 90 degrees swaps rows and columns and a with b, so
    for M < L it is Z_{M,L}(b,a,c), min(L, M) sites to the max(L, M)-th
    power."""
    if M < 1:
        raise ValueError("M >= 1 required")
    if min(L, M) > EXPLICIT_L_MAX:
        raise ValueError(f"L={L}, M={M}: the shorter side of the torus is supported "
                         f"up to {EXPLICIT_L_MAX}")
    if M < L:
        L, M, a, b = M, L, b, a
    paths = _closed_paths(0.0, L, VertexWeights(a, b, c))
    return complex(sum(np.trace(np.linalg.matrix_power(_sector_block(paths, L, N), M))
                       for N in range(L + 1)))


def _vertex_weight_table(a, b, c, dtype):
    W = np.zeros((2, 2, 2, 2), dtype)
    # (west, south, east, north); 1 = arrow in the positive direction
    W[1, 1, 1, 1] = W[0, 0, 0, 0] = a
    W[1, 0, 1, 0] = W[0, 1, 0, 1] = b
    W[1, 0, 0, 1] = W[0, 1, 1, 0] = c
    return W


def _enumeration_dtype(L, M, a, b, c):
    """int64 for integer weights while every partial sum and product of the
    enumeration stays below 2^62, object (Python ints) for larger integer
    weights, and the weights' own float or complex type otherwise.  A row
    has at most two horizontal-edge paths (the west edge fixes the rest), so
    |row| <= 2 w^L with w = max(|a|, |b|, |c|), and |Z| <= 2^(LM + M) w^(LM)
    bounds every term, prefix product and partial sum."""
    if not all(isinstance(x, (int, np.integer)) for x in (a, b, c)):
        return np.result_type(a, b, c, float)
    w = max(abs(int(x)) for x in (a, b, c))
    return np.int64 if 2 ** (L * M + M) * w ** (L * M) < 2 ** 62 else object


def enumerate_partition(L, M, a, b, c):
    """Brute-force partition function: the sum over all 2^(L*M) vertical-edge
    configurations of the product of their M row weights.  A row with south
    edges s and north edges n (site j = bit j) weighs the trace of the
    product of its L 2x2 site weights, summing its horizontal edges around
    the periodic row; that weight is tabulated once per (s, n), for the 2^L
    rows n = s at M = 1 and the 4^L pairs at M >= 2, and each configuration
    adds the product of M table lookups.

    Independent of the R-matrix/transfer code path: the only input is
    _vertex_weight_table.  Integer weights give an exact int (summed in
    int64 below the bound of _enumeration_dtype, in Python ints above it);
    other weights give a complex.
    """
    if L * M > 16:
        raise ValueError("enumeration guard: L*M <= 16")
    dtype = _enumeration_dtype(L, M, a, b, c)
    if dtype == object:
        a, b, c = int(a), int(b), int(c)
    W = _vertex_weight_table(a, b, c, dtype)
    site = W.transpose(1, 3, 0, 2)  # (south, north, west, east)
    site = site[[0, 1], [0, 1]] if M == 1 else site.reshape(4, 2, 2)
    m = np.eye(2, dtype=dtype)[None]
    for _ in range(L):  # m[q] for q = sum_j q_j b^j, q_j = s_j (M = 1) or 2 s_j + n_j
        m = (m[None] @ site[:, None]).reshape(-1, 2, 2)
    table = m[:, 0, 0] + m[:, 1, 1]
    cfg = np.arange(2 ** (L * M))
    rows = [(cfg >> (i * L)) & (2 ** L - 1) for i in range(M)]  # row i+1 is row i's north
    if M == 1:
        terms = table[rows[0]]
    else:
        s = np.arange(2 ** L)
        spread = (((s[:, None] >> np.arange(L)) & 1) << 2 * np.arange(L)).sum(axis=1)
        rows = [spread[r] for r in rows]
        terms = np.prod([table[2 * rows[i] + rows[(i + 1) % M]] for i in range(M)], axis=0)
    total = terms.sum()
    return int(total) if dtype in (np.int64, object) else complex(total)


def _top_sector_eigenvalue(L, N, weights):
    """Largest eigenvalue of a real symmetric transfer block of sector N
    (the ice point has one), by Lanczos on the matrix-free block: each matvec
    puts the sector vector on the whole space, applies _transfer_action with
    the monodromy's blocks (built once) and reads the sector back.  ARPACK
    raises when it does not converge."""
    idx = build_sector_basis(L, N).state_array
    dim = len(idx)
    blocks = _pair_blocks(0.0, L, weights)  # real, as the ice weights are

    def matvec(v):
        u = np.zeros(2 ** L)
        u[idx] = v
        return _transfer_action(blocks, u)[idx]

    op = sp.linalg.LinearOperator((dim, dim), matvec, dtype=float)
    # ncv = 8 converges in 8-13 matvecs for L = 4..14; the default ncv = 20 takes 21
    return sp.linalg.eigsh(op, k=1, which="LA", v0=np.ones(dim), ncv=min(8, dim),
                           return_eigenvectors=False)[0]


def ice_entropy(L_max):
    """(1/L) ln Lambda_0 at the ice point for even 2 <= L <= L_max, with
    Lambda_0 the top eigenvalue of the half-filled arrow sector, found
    matrix-free (no monodromy or transfer block is built), plus the
    least-squares extrapolation s_inf + alpha/L^2 + beta/L^4 of a periodic
    strip, whose finite-size corrections run in even powers of 1/L; the fit
    needs at least three sizes (L_max >= 6).

    Returns (table, s_inf) where table is a list of (L, value).  The exact
    two-dimensional limit is (3/2) ln(4/3) = 0.43152...
    """
    if L_max % 2 or L_max > 14:
        raise ValueError(f"L_max={L_max}: even L_max <= 14 required")
    if L_max < 6:
        sizes = ", ".join(map(str, range(2, L_max + 1, 2))) or "none"
        raise ValueError(f"L_max={L_max} gives fewer than three sizes (L = {sizes}); "
                         "the three-term fit needs L_max >= 6")
    w = VertexWeights.ice()
    table = [(L, float(np.log(_top_sector_eigenvalue(L, L // 2, w)) / L))
             for L in range(2, L_max + 1, 2)]
    Ls = np.array([row[0] for row in table], float)
    y = np.array([row[1] for row in table])
    A = np.vstack([np.ones_like(Ls), 1 / Ls ** 2, 1 / Ls ** 4]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    return table, float(coef[0])

"""Exact diagonalization for periodic XXX/XXZ spin-1/2 chains.

Hamiltonians (periodic boundary, site L+1 = site 1, bond sum j = 1..L taken
literally, so L = 2 counts its single bond twice):

    H_XXX = J sum_j ( s^x_j s^x_{j+1} + s^y_j s^y_{j+1} + s^z_j s^z_{j+1} - 1/4 )
    H_XXZ =   sum_j ( s^x_j s^x_{j+1} + s^y_j s^y_{j+1} + Delta (s^z_j s^z_{j+1} - 1/4) )

The module is the ground-truth oracle for the Bethe-Ansatz constructions: it
builds sector-resolved and full-space Hamiltonians, the shift operator, the
total-spin operators, and diagonalizes them.  A state is an int64 code with
site x in bit L - x and a set bit a down spin, so 0 .. 2^L - 1 is a Kronecker
product with site 1 slowest.  Every operator but the shift is a list of
few-site terms that one builder, _local_entries, applies to sorted codes.
"""

from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .basis import SectorBasis, build_sector_basis

# OperatorMatrix.matrix is a dense array below this dimension and the CSR from
# it up.  `m @ v` for a complex v on XXX sector Hamiltonians, dense m vs CSR m
# (one BLAS thread, 2-vCPU host): dim 126 8.9 us vs 3.7 us, 462 0.26 ms vs
# 6.7 us, 924 1.03 ms vs 11 us, 3003 19.1 ms vs 33 us.  Below 512 an implicit
# dense view is at most 2 MB real (4 MB complex), and the Hubbard blocks that
# callers hand to numpy (up to dim 448 at L = 8) stay ndarrays.
DENSE_DIM_LIMIT = 512

# diagonalize uses Lanczos for the k lowest eigenpairs from LANCZOS_MIN_DIM up,
# for k <= dim // LANCZOS_MAX_K_FRACTION; elsewhere a dense eigh of the k
# lowest pairs is faster.  One BLAS thread, XXX half-filled sectors, k = 2,
# dense subset eigh vs _lanczos, two sets of runs: dim 252 2.4-2.8 ms vs
# 4.0-6.1 ms, dim 462 9.2-9.8 ms vs 7.7-9.7 ms, dim 924 62-69 ms vs 6.1-10.4 ms.
LANCZOS_MIN_DIM = 400
LANCZOS_MAX_K_FRACTION = 32
LANCZOS_GUARD = 2  # extra eigenpairs solved for and dropped
LANCZOS_SEED = 1101  # seeds the fixed Lanczos start vectors
LANCZOS_DEGENERACY_TOL = 1e-10  # how far below the k-th a missed copy must lie
MULTIPLET_DEGENERACY_TOL = 1e-9  # eigenvalue gap that separates two levels
BLOCK = 1 << 15  # pairs per block: (16, 8) bonds 5.0 ms, 5.2 at 2^13 and at 2^17


class OperatorMatrix:
    """Real or complex matrix, stored once, as CSR, whatever form it is given
    in: a square operator, or a map between two sectors (S^+).

    `op @ x` applies the CSR and `nbytes` is its size (data, indices and
    indptr).  `matrix` is that CSR when either dimension is DENSE_DIM_LIMIT
    (512) or more and, below it, a read-only dense array made from the CSR
    when `matrix` is first read and kept, so `matrix @ v` never densifies
    more than 2 MB of real entries.  `dense()` is a new array each call.
    diagonalize reads only the CSR.
    """

    def __init__(self, matrix):
        self._csr = sp.csr_matrix(matrix)

    @cached_property
    def matrix(self):
        if max(self._csr.shape) >= DENSE_DIM_LIMIT:
            return self._csr
        m = self._csr.toarray()
        m.flags.writeable = False
        return m

    @property
    def dim(self):
        return self._csr.shape[0]

    def dense(self):
        return self._csr.toarray()

    def csr(self):
        return self._csr

    def __matmul__(self, x):
        return self._csr @ x

    @property
    def nbytes(self):
        m = self._csr
        return m.data.nbytes + m.indices.nbytes + m.indptr.nbytes

    def hermiticity_defect(self):
        """Largest |m_ij - conj(m_ji)| over the stored entries; no dense
        matrix is built.  The conjugate transpose is the CSC of the CSR's own
        arrays, made a CSR; when a canonical CSR stores its entries where the
        transpose does, the data arrays are compared as they are, else they
        are subtracted as sparse matrices."""
        m = self._csr
        h = sp.csc_matrix((m.data.conj(), m.indices, m.indptr), shape=m.shape[::-1]).tocsr()
        same = m.has_canonical_format and all(map(np.array_equal, (m.indptr, m.indices),
                                                  (h.indptr, h.indices)))
        return float(np.abs(m.data - h.data if same else (m - h).data).max(initial=0.0))


class SpectrumBlock(NamedTuple):
    """The eigenvectors of one block of indices: vectors[:, j] is the
    eigenvector of eigenvalue ranks[j] (ascending) on the indices rows, and
    zero on every other index."""
    rows: np.ndarray
    ranks: np.ndarray
    vectors: np.ndarray


class Spectrum:
    """Eigenvalues in ascending order and their eigenvectors, held per
    block of indices that the operator does not join to another (see
    diagonalize) as `blocks` (SpectrumBlock).  `eigenvectors`, the
    (dim, k) array of all of them, is assembled when first read and kept; a
    one-block spectrum's is its block's array as it is."""

    def __init__(self, eigenvalues, blocks):
        self.eigenvalues = np.asarray(eigenvalues, float)
        self.blocks = blocks

    @cached_property
    def eigenvectors(self):
        if len(self.blocks) == 1:
            return self.blocks[0].vectors
        dim = sum(len(b.rows) for b in self.blocks)
        v = np.zeros((dim, len(self.eigenvalues)),
                     np.result_type(*(b.vectors for b in self.blocks)))
        for b in self.blocks:
            v[np.ix_(b.rows, b.ranks)] = b.vectors
        return v


def _local_entries(L, src, dst, h, sites):
    """COO triplets (rows, cols, vals) of sum_t h on the site tuple sites[t],
    from the sorted int64 codes src to the sorted codes dst.

    h is 2^k x 2^k on k sites, the first site of a tuple its most significant
    local bit; it must send src into dst.  Entries that flip the same bits by
    the same value move their codes together, in blocks of at most BLOCK
    (placement, code) pairs in placement order.  When src is dst, a pair
    h[b, a] = h[a, b] is ranked once and mirrored, and the diagonal is summed
    per code one placement at a time and comes last.
    """
    k = len(sites[0])
    pos = L - np.asarray(sites, np.int64)  # (T, k) bit positions
    local_bits = (np.arange(2 ** k)[:, None] >> np.arange(k - 1, -1, -1)) & 1
    flips = (local_bits[None] << pos[:, None]).sum(axis=2)  # flips[t, a ^ b] takes a to b
    square = src is dst
    moves = {}  # (a ^ b, h[b, a], mirrored) -> mask of the local indices a it moves
    for b, a in zip(*np.nonzero(h)):
        mirrored = square and h[a, b] == h[b, a]
        if not (square and (a == b or mirrored and a > b)):
            moves.setdefault((a ^ b, h[b, a], mirrored), np.zeros(2 ** k, bool))[a] = True
    diag = np.zeros(len(src), h.dtype)
    rows, cols, vals = [], [], []
    step = max(1, BLOCK // len(src))
    for t0 in range(0, len(pos), step):
        p, f = pos[t0:t0 + step, :, None], flips[t0:t0 + step, :, None]
        for i0 in range(0, len(src), BLOCK):
            c = src[i0:i0 + BLOCK]
            local = (c >> p[:, 0]) & 1
            for j in range(1, k):
                local = (local << 1) | ((c >> p[:, j]) & 1)
            if square:
                for d in np.diag(h)[local]:
                    diag[i0:i0 + len(c)] += d
            col = np.broadcast_to(np.arange(i0, i0 + len(c)), local.shape)
            for (x, v, mirrored), moved in moves.items():
                hit = moved[local]
                r, i = np.searchsorted(dst, (c ^ f[:, x])[hit]), col[hit]
                rows += [r, i] if mirrored else [r]
                cols += [i, r] if mirrored else [i]
                vals.append(np.full(len(i) * (1 + mirrored), v))
    nz = np.flatnonzero(diag)
    return (np.concatenate(rows + [nz]), np.concatenate(cols + [nz]),
            np.concatenate(vals + [diag[nz]]))


def _chain_states(L, sector=None):
    """Sorted codes of the full space (None), sector N or a SectorBasis."""
    if L < 2:
        raise ValueError(f"L={L}: need at least two sites")
    if sector is None:
        return np.arange(2 ** L, dtype=np.int64)
    basis = sector if isinstance(sector, SectorBasis) else build_sector_basis(L, int(sector))
    return basis.state_array


def _build_spin_hamiltonian(L, jxy, jz, sector):
    """sum_j [ jxy/2 (s+s- + s-s+) + jz (s^z s^z - 1/4) ] on the bonds (j, j+1)."""
    states = _chain_states(L, sector)
    h = np.zeros((4, 4))
    h[1, 2] = h[2, 1] = 0.5 * jxy
    h[1, 1] = h[2, 2] = -0.5 * jz  # parallel bonds: zz - 1/4 = 0
    bonds = [(j, j % L + 1) for j in range(1, L + 1)]
    rows, cols, vals = _local_entries(L, states, states, h, bonds)
    return OperatorMatrix(sp.coo_matrix((vals, (rows, cols)), shape=(len(states),) * 2))


def build_xxx_hamiltonian(L, J=1.0, sector=None):
    """Heisenberg chain, H = J sum_j (s_j . s_{j+1} - 1/4).

    sector: None for the full 2^L space, an integer N, or a SectorBasis.
    For J < 0 the spectrum is non-negative and the all-up state has energy 0.
    """
    return _build_spin_hamiltonian(L, J, J, sector)


def build_xxz_hamiltonian(L, Delta, sector=None):
    """Heisenberg-Ising chain with anisotropy Delta; Delta = 1 is XXX at J = 1."""
    return _build_spin_hamiltonian(L, 1.0, Delta, sector)


def _shift_matrix(L, states):
    """Translation of the sorted codes states by -1 site: a left bit rotation."""
    n = len(states)
    rotated = ((states << 1) | (states >> (L - 1))) & ((1 << L) - 1)
    return OperatorMatrix(sp.coo_matrix(
        (np.ones(n), (np.searchsorted(states, rotated), np.arange(n))), shape=(n, n)))


def build_shift_operator(L):
    """One-site translation U with U|x1,...,xN> = |x1-1,...,xN-1 (mod L)>.

    The direction is fixed so that an on-shell Bethe vector with lattice
    momentum P is an eigenvector with eigenvalue e^{iP}.  U^L = identity and
    [U, H] = 0.  The trace of the monodromy matrix at zero spectral parameter
    gives the inverse of this operator (see the six-vertex module).
    """
    return _shift_matrix(L, _chain_states(L))


def shift_sector_matrix(basis):
    """The translation of build_shift_operator restricted to a SectorBasis,
    as an OperatorMatrix."""
    return _shift_matrix(basis.L, basis.state_array)


_PAULI = {
    "x": np.array([[0, 1], [1, 0]], complex) / 2,
    "y": np.array([[0, -1j], [1j, 0]], complex) / 2,
    "z": np.array([[1, 0], [0, -1]], complex) / 2,
    "raise": np.array([[0, 1], [0, 0]], complex),
    "lower": np.array([[0, 0], [1, 0]], complex),
}


def build_total_spin(L, alpha):
    """Total spin operator S^alpha = sum_j s_j^alpha on the full 2^L space.

    alpha: 'x' | 'y' | 'z' | 'raise' | 'lower' | 'casimir'.
    'raise'/'lower' are S^+/S^- = S^x +- i S^y; 'casimir' is (S^x)^2 + (S^y)^2
    + (S^z)^2 with eigenvalues S(S+1), stored real, built as
    3L/4 + sum_{i<j} (P_ij - 1/2) with P_ij the exchange of sites i and j.
    """
    if L < 1:
        raise ValueError("need at least one site")
    states = np.arange(2 ** L, dtype=np.int64)
    if alpha == "casimir":
        h = np.diag([0.5, -0.5, -0.5, 0.5])  # P_ij - 1/2 in the pair's local basis
        h[1, 2] = h[2, 1] = 1.0
        pairs = [(i, j) for i in range(1, L + 1) for j in range(i + 1, L + 1)]
        entries = [_local_entries(L, states, states, h, pairs)] if pairs else []
        constant = (states, states, np.full(len(states), 0.75 * L))
        rows, cols, vals = map(np.concatenate, zip(*entries, constant))
    elif alpha in _PAULI:
        rows, cols, vals = _local_entries(L, states, states, _PAULI[alpha],
                                          [(x,) for x in range(1, L + 1)])
    else:
        raise ValueError(f"unknown spin component {alpha!r}")
    return OperatorMatrix(sp.coo_matrix((vals, (rows, cols)), shape=(len(states),) * 2))


def apply_splus(vector, L, N):
    """S^+ v for v in the N block, as a vector of the N-1 block; no matrix is
    built.  The entries of S^+ are 1, so only where they sit is read; the
    one-site raising terms run over sites L..1, and each entry of the result
    sums its terms in that order."""
    src, dst = (build_sector_basis(L, n).state_array for n in (N, N - 1))
    sites = [(x,) for x in range(L, 0, -1)]
    rows, cols, _ = _local_entries(L, src, dst, _PAULI["raise"] != 0, sites)
    v = np.asarray(vector)
    out = np.zeros(len(dst), np.result_type(v, float))
    np.add.at(out, rows, v[cols])
    return out


def _use_lanczos(dim, k):
    """True when the k lowest eigenpairs are cheaper from Lanczos (eigsh) than
    from a full dense eigh; a function of (dim, k) only."""
    return k is not None and dim >= LANCZOS_MIN_DIM and k <= dim // LANCZOS_MAX_K_FRACTION


def _lanczos(m, k):
    """The k lowest eigenpairs of the Hermitian sparse matrix m by ARPACK's
    implicitly restarted Lanczos (eigsh) from seeded start vectors.

    LANCZOS_GUARD extra pairs are solved for and dropped: the pair at the edge
    of the solved set converges last, and when it is one copy of a degenerate
    level its residual can stay near 1e-10.  Lanczos from one start vector
    sees a second copy of a degenerate eigenvalue only through rounding, so it
    can miss one.  The lowest eigenvalue of m with the found pairs shifted
    above them exposes such a copy; copies are added until none is left below
    the k-th eigenvalue.

    eigsh misses an eigenvalue that is exactly 0 (on the diagonal 0, 1, 2, ...
    it returns 1, 2), and so does the re-check, whose operator keeps that
    null vector: ARPACK's convergence test is relative to the Ritz value.
    Both therefore run on m - sigma 1, which has the same Krylov spaces:
    with [g, G] the interval holding every Gershgorin disc of m, sigma =
    g - (G - g) / 10 leaves no eigenvalue below a tenth of the spread, and a
    shift of that size adds little rounding to the eigenvalues when sigma is
    added back.
    """
    dim = m.shape[0]
    diag = m.diagonal().real
    radius = np.asarray(abs(m).sum(axis=1)).ravel() - np.abs(diag)
    low, high = (diag - radius).min(), (diag + radius).max()
    sigma = low - (high - low) / 10

    def shifted(x):
        x = np.ravel(x)
        return m @ x - sigma * x

    rng = np.random.default_rng(LANCZOS_SEED)
    w, v = sp.linalg.eigsh(sp.linalg.LinearOperator(m.shape, shifted, dtype=m.dtype),
                           k=k + LANCZOS_GUARD, which="SA", v0=rng.standard_normal(dim))
    while True:
        order = np.argsort(w)
        w, v = w[order], v[:, order]
        shift = w[-1] + 1.0 - w

        def deflated(x):
            x = np.ravel(x)
            return shifted(x) + v @ (shift * (v.conj().T @ x))

        mu, x = sp.linalg.eigsh(sp.linalg.LinearOperator(m.shape, deflated, dtype=m.dtype),
                                k=1, which="SA", v0=rng.standard_normal(dim))
        if mu[0] >= w[k - 1] - LANCZOS_DEGENERACY_TOL:
            return w[:k] + sigma, v[:, :k]
        w, v = np.append(w, mu), np.hstack([v, x])


def _blocks(op):
    """Index arrays, ascending, of the sets of op's indices with equal
    popcount, in ascending popcount, when no stored entry of op joins two of
    them (a full-space chain operator's magnetization sectors); else one
    array of every index."""
    m = op.csr()
    pop = np.bitwise_count(np.arange(m.shape[0]))
    if not np.array_equal(np.repeat(pop, np.diff(m.indptr)), pop[m.indices]):
        return [np.arange(m.shape[0])]
    order = np.argsort(pop, kind="stable")
    return np.split(order, np.cumsum(np.bincount(pop))[:-1])


def _diagonal_blocks(m, blocks):
    """The diagonal blocks of the CSR m on the ascending index arrays
    `blocks`, which partition its indices and which no stored entry joins,
    each a CSR with its columns numbered as its rows are.  m is permuted
    once, each block's rows in turn; a single block is m itself."""
    if len(blocks) == 1:
        return [m]
    position = np.empty(m.shape[0], np.intp)
    for r in blocks:
        position[r] = np.arange(len(r))
    permuted = m[np.concatenate(blocks)]
    local = position[permuted.indices]
    out, a = [], 0
    for r in blocks:
        lo, hi = permuted.indptr[a], permuted.indptr[a + len(r)]
        out.append(sp.csr_matrix((permuted.data[lo:hi], local[lo:hi],
                                  permuted.indptr[a:a + len(r) + 1] - lo), shape=(len(r),) * 2))
        a += len(r)
    return out


def _eigh(a, k):
    """The min(k, n) lowest (all for k None) eigenpairs of the dense
    Hermitian n x n array a, in ascending order."""
    if k is None or k >= len(a):
        return np.linalg.eigh(a)
    from scipy.linalg import eigh  # here: slow to import cold, and the CLI starts without it
    return eigh(a, subset_by_index=[0, k - 1])


def diagonalize(op, k=None):
    """Eigen-decomposition of a Hermitian OperatorMatrix.

    k: number of smallest eigenpairs, or None for the full spectrum.

    The solver depends only on (dim, k): ARPACK's implicitly restarted
    Lanczos (scipy eigsh) on the stored CSR for dim >= LANCZOS_MIN_DIM and
    k <= dim // LANCZOS_MAX_K_FRACTION, and dense eigh otherwise (k = None,
    larger k, smaller dim).  Lanczos starts from a fixed seeded pseudo-random
    vector, so repeated solves are bit-identical; the all-ones vector would
    not do, it is the ferromagnetic eigenvector.  Where ARPACK stops without
    a result (an operator with too few distinct eigenvalues, such as H = 0)
    the dense eigh answers instead.

    The dense solve runs one eigh per block of _blocks: the magnetization
    sectors of a full-space chain operator, whose indices are its spin
    codes, and one block of every index for any operator whose stored
    entries join two popcount classes (sector and Hubbard operators).  Each
    block gives the min(k, n) lowest pairs of its n indices when k is given.
    The eigenvalues are merged by a stable argsort, and each block keeps its
    own vectors with their ranks in the merged order (Spectrum.blocks), so
    no (dim, k or dim) array is built unless `eigenvectors` is read.  A
    dense solve finds every copy of a degenerate level, so it needs no
    re-check.

    Hermiticity is checked once, on the stored entries, before any solve.
    Raises ValueError for non-Hermitian input or k < 1.  Every returned pair
    satisfies ||H v - E v|| < 1e-10 ||v||.
    """
    if k is not None and k < 1:
        raise ValueError(f"k={k}: need at least one eigenpair")
    if op.hermiticity_defect() > 1e-12:
        raise ValueError("matrix is not Hermitian")
    m, pairs = op.csr(), None
    if _use_lanczos(op.dim, k):
        try:
            blocks, pairs = [np.arange(op.dim)], [_lanczos(m, k)]
        except sp.linalg.ArpackError:
            # ARPACK stops when the Krylov space of its start vector is an
            # invariant subspace it cannot extend (H = 0, H = c 1)
            pass
    if pairs is None:
        blocks = _blocks(op)
        pairs = [_eigh(b.toarray(), k) for b in _diagonal_blocks(m, blocks)]
    w = np.concatenate([p[0] for p in pairs])
    order = np.argsort(w, kind="stable")[:k]
    rank = np.full(len(w), -1)
    rank[order] = np.arange(len(order))
    spectrum_blocks = []
    start = 0
    for idx, (wb, vb) in zip(blocks, pairs):
        r = rank[start:start + len(wb)]
        r = r[r >= 0]  # a prefix: the stable sort keeps each block's ascending order
        spectrum_blocks.append(SpectrumBlock(idx, r, vb[:, :len(r)]))
        start += len(wb)
    return Spectrum(w[order], spectrum_blocks)


def commutator_norm(A, B):
    """Largest entry magnitude of AB - BA."""
    a, b = (X.csr() if isinstance(X, OperatorMatrix) else sp.csr_matrix(X) for X in (A, B))
    if a.shape != b.shape:
        raise ValueError("dimension mismatch")
    return float(abs(a @ b - b @ a).max())


def _level_starts(w):
    """Index of the first eigenvalue of each degenerate level of the
    ascending w: a level runs on while w[i] - w[first] <= the tolerance."""
    starts, a = [], 0
    while a < len(w):
        starts.append(a)
        a += int(np.searchsorted(w[a:] - w[a], MULTIPLET_DEGENERACY_TOL, "right"))
    return np.array(starts)


def _casimir_blocks(spectrum, cas):
    """(vectors, ranks, c) per block of the spectrum: its eigenvectors on its
    rows, their ranks, and c, the CSR cas restricted to its rows.  If a
    stored entry of cas joins two blocks, one triple over the dense
    `spectrum.eigenvectors` and cas itself."""
    blocks = spectrum.blocks
    label = np.empty(cas.shape[0], np.intp)
    for b, block in enumerate(blocks):
        label[block.rows] = b
    if not np.array_equal(np.repeat(label, np.diff(cas.indptr)), label[cas.indices]):
        return [(spectrum.eigenvectors, np.arange(len(spectrum.eigenvalues)), cas)]
    return [(b.vectors, b.ranks, c)
            for b, c in zip(blocks, _diagonal_blocks(cas, [b.rows for b in blocks]))]


def multiplet_structure(spectrum, casimir):
    """Group eigenvalues into degenerate levels and report SU(2) content.

    Returns a list of (energy, multiplicity, spin list) where the spin list
    gives the S values of complete 2S+1 multiplets inside the level.  Raises
    if a level does not decompose into complete multiplets; the first level
    that does not raises, a Casimir eigenvalue that is not S(S+1) before an
    incomplete multiplet.

    A level runs from an eigenvalue while the next ones lie within
    MULTIPLET_DEGENERACY_TOL of it.  The Casimir is applied per spectrum
    block (the magnetization sectors of a full-space chain), and each
    level's Casimir matrix is formed over its columns in one block at a
    time, since it has no entry between two blocks; a Casimir that joins two
    blocks is applied once to all the eigenvectors.  A one-column matrix is
    its Rayleigh quotient, and the matrices of each size go to one batched
    eigvalsh.
    """
    w = spectrum.eigenvalues
    starts = _level_starts(w)
    sizes = np.diff(np.append(starts, len(w)))
    level = np.repeat(np.arange(len(starts)), sizes)
    mats = {}  # column count n -> [(the level of each matrix, (runs, n, n) matrices)]
    for v, ranks, c in _casimir_blocks(spectrum, casimir.csr()):
        cv = c @ v
        lev = level[ranks]
        first = np.flatnonzero(np.diff(lev, prepend=-1))  # the columns of a level are a run
        count = np.diff(np.append(first, len(lev)))
        for n in np.unique(count):
            cols = first[count == n, None] + np.arange(n)
            m = v[:, cols].transpose(1, 2, 0).conj() @ cv[:, cols].transpose(1, 0, 2)
            mats.setdefault(n, []).append((lev[cols[:, 0]], m))
    c_level, c_eigs = [], []
    for n, parts in mats.items():
        m = np.concatenate([p[1] for p in parts])
        c_level.append(np.repeat(np.concatenate([p[0] for p in parts]), n))
        c_eigs.append(m[:, 0, 0].real if n == 1 else np.linalg.eigvalsh(m).ravel())
    c_level, c_eigs = np.concatenate(c_level), np.concatenate(c_eigs)
    s_val = (-1 + np.sqrt(1 + 4 * np.maximum(c_eigs, 0))) / 2
    twice = np.rint(2 * s_val).astype(np.int64)  # 2S
    not_spin = np.abs(s_val - twice / 2) > 1e-6
    base = twice.max() + 1
    key, count = np.unique(c_level * base + twice, return_counts=True)  # by level, then S
    key_level, key_twice = np.divmod(key, base)
    copies, rem = np.divmod(count, key_twice + 1)
    bad = min(c_level[not_spin].min(initial=len(starts)),
              key_level[rem > 0].min(initial=len(starts)))
    if bad < len(starts):
        ce = c_eigs[not_spin & (c_level == bad)]
        if ce.size:
            raise ValueError(f"Casimir eigenvalue {ce.min()} is not S(S+1)")
        raise ValueError("incomplete SU(2) multiplet in level")
    spins = np.repeat(key_twice / 2, copies).tolist()
    at = np.cumsum(np.bincount(np.repeat(key_level, copies), minlength=len(starts))).tolist()
    return [(w[start], size, spins[a:b]) for start, size, a, b in
            zip(starts.tolist(), sizes.tolist(), [0] + at, at)]

"""Exact diagonalization for periodic XXX/XXZ spin-1/2 chains.

Hamiltonians (periodic boundary, site L+1 = site 1, bond sum j = 1..L taken
literally, so L = 2 counts its single bond twice):

    H_XXX = J sum_j ( s^x_j s^x_{j+1} + s^y_j s^y_{j+1} + s^z_j s^z_{j+1} - 1/4 )
    H_XXZ =   sum_j ( s^x_j s^x_{j+1} + s^y_j s^y_{j+1} + Delta (s^z_j s^z_{j+1} - 1/4) )

The module is the ground-truth oracle for the Bethe-Ansatz constructions: it
builds sector-resolved and full-space Hamiltonians, the shift operator, the
total-spin operators, and diagonalizes them.
"""

import numpy as np
import scipy.sparse as sp

from .basis import DENSE_DIM_LIMIT, SectorBasis, build_sector_basis

FULL_SPACE = "full"
# diagonalize uses Lanczos for the k lowest eigenpairs from LANCZOS_MIN_DIM up,
# for k <= dim // LANCZOS_MAX_K_FRACTION; elsewhere a full dense eigh is faster
# (single-thread timings of both on XXX sector Hamiltonians, dim 126 to 3003)
LANCZOS_MIN_DIM = 250
LANCZOS_MAX_K_FRACTION = 32
LANCZOS_GUARD = 2  # extra eigenpairs solved for and dropped
LANCZOS_SEED = 1101  # seeds the fixed Lanczos start vectors
LANCZOS_DEGENERACY_TOL = 1e-10  # how far below the k-th a missed copy must lie


class OperatorMatrix:
    """Complex matrix together with the basis it acts on.

    Storage (`matrix`) is dense below DENSE_DIM_LIMIT and scipy sparse (CSR)
    above.  An operator assembled from sparse entries keeps its CSR form; below
    the limit its dense `matrix` is made when `matrix` is first read.  The
    Hermiticity check runs on the CSR form when there is one, and diagonalize
    chooses between Lanczos from a fixed seeded start vector and a dense eigh
    by (dim, k) alone, so a partial spectrum needs no dense copy.
    `basis` is a SectorBasis or the FULL_SPACE tag.
    """

    def __init__(self, matrix, basis=FULL_SPACE, hermitian=False):
        self._matrix = matrix
        self._csr = matrix if sp.issparse(matrix) and matrix.format == "csr" else None
        self.basis = basis
        self.hermitian = hermitian

    @property
    def matrix(self):
        if self._matrix is None:
            self._matrix = self._csr.toarray()
        return self._matrix

    @property
    def dim(self):
        return (self._csr if self._matrix is None else self._matrix).shape[0]

    def dense(self):
        m = self.matrix
        return m.toarray() if sp.issparse(m) else np.asarray(m)

    def csr(self):
        """CSR form: the stored one, else a conversion of the dense matrix."""
        return self._csr if self._csr is not None else sp.csr_matrix(self._matrix)

    def hermiticity_defect(self):
        """Largest |m_ij - conj(m_ji)|.  A sparse operator is checked over its
        stored entries; its dense matrix is never built."""
        m = self._csr if self._csr is not None else self._matrix
        d = m - m.conj().T
        if sp.issparse(d):
            return float(abs(d).max())
        return float(np.max(np.abs(d)))


class Spectrum:
    """Eigenvalues in ascending order with optional eigenvector columns."""

    def __init__(self, eigenvalues, eigenvectors=None):
        self.eigenvalues = np.asarray(eigenvalues, float)
        self.eigenvectors = eigenvectors


def _pack(matrix, basis, hermitian):
    """OperatorMatrix under the storage policy of OperatorMatrix."""
    dim = matrix.shape[0]
    if sp.issparse(matrix):
        op = OperatorMatrix(matrix.tocsr(), basis, hermitian)
        if dim < DENSE_DIM_LIMIT:
            op._matrix = None  # dense form made on first read of `matrix`
        return op
    if dim >= DENSE_DIM_LIMIT:
        matrix = sp.csr_matrix(matrix)
    return OperatorMatrix(matrix, basis, hermitian)


def _resolve_sector(L, sector):
    if sector is None or sector == FULL_SPACE:
        return None
    if isinstance(sector, SectorBasis):
        return sector
    return build_sector_basis(L, int(sector))


def _xxz_entries(L, states, jxy, jz):
    """COO triplets of sum_j [ jxy/2 (s+s- + s-s+) + jz (s^z s^z - 1/4) ] on bonds.

    states: sorted int64 bit configurations spanning the space; rows and
    columns are ordinals in it.  A flipped configuration is ranked with
    np.searchsorted.  The diagonal is summed bond by bond in site order.
    """
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


def _build_spin_hamiltonian(L, jxy, jz, sector):
    basis = _resolve_sector(L, sector)
    states = np.arange(2 ** L, dtype=np.int64) if basis is None else basis.state_array
    rows, cols, vals = _xxz_entries(L, states, jxy, jz)
    n = len(states)
    m = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    return _pack(m, basis if basis is not None else FULL_SPACE, hermitian=True)


def build_xxx_hamiltonian(L, J=1.0, sector=None):
    """Heisenberg chain, H = J sum_j (s_j . s_{j+1} - 1/4).

    sector: None for the full 2^L space, an integer N, or a SectorBasis.
    For J < 0 the spectrum is non-negative and the all-up state has energy 0.
    """
    if L < 2:
        raise ValueError("need at least two sites")
    return _build_spin_hamiltonian(L, J, J, sector)


def build_xxz_hamiltonian(L, Delta, sector=None):
    """Heisenberg-Ising chain with anisotropy Delta; Delta = 1 is XXX at J = 1."""
    if L < 2:
        raise ValueError("need at least two sites")
    return _build_spin_hamiltonian(L, 1.0, Delta, sector)


def _shift_states(states, L, direction):
    """Bit configurations with every down spin moved by `direction` sites
    (mod L): site x sits in bit L - x, so this rotates the L-bit word."""
    r = (-direction) % L
    return ((states << r) | (states >> (L - r))) & ((1 << L) - 1)


def shift_permutation(L, direction=-1):
    """Permutation i -> i' of full-space indices moving every down-spin
    coordinate by `direction` (mod L)."""
    return _shift_states(np.arange(2 ** L, dtype=np.int64), L, direction)


def build_shift_operator(L):
    """One-site translation U with U|x1,...,xN> = |x1-1,...,xN-1 (mod L)>.

    The direction is fixed so that an on-shell Bethe vector with lattice
    momentum P is an eigenvector with eigenvalue e^{iP}.  U^L = identity and
    [U, H] = 0.  The trace of the monodromy matrix at zero spectral parameter
    gives the inverse of this operator (see the six-vertex module).
    """
    if L < 2:
        raise ValueError("need at least two sites")
    perm = shift_permutation(L, direction=-1)
    n = 2 ** L
    m = sp.coo_matrix((np.ones(n), (perm, np.arange(n))), shape=(n, n)).tocsr()
    return _pack(m, FULL_SPACE, hermitian=False)


def shift_sector_matrix(basis, direction=-1):
    """Translation restricted to a SectorBasis (dense ndarray)."""
    states = basis.state_array
    m = np.zeros((basis.dim, basis.dim))
    m[np.searchsorted(states, _shift_states(states, basis.L, direction)),
      np.arange(basis.dim)] = 1.0
    return m


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
    + (S^z)^2 with eigenvalues S(S+1).

    Basis note: a set bit is a down spin, so the single-site raising operator
    clears a bit.
    """
    if L < 1:
        raise ValueError("need at least one site")
    n = 2 ** L
    if alpha == "casimir":
        total = sp.csr_matrix((n, n), dtype=complex)
        for ax in ("x", "y", "z"):
            m = build_total_spin(L, ax).csr()
            total = total + m @ m
        return _pack(total, FULL_SPACE, hermitian=True)
    if alpha not in _PAULI:
        raise ValueError(f"unknown spin component {alpha!r}")
    states = np.arange(n, dtype=np.int64)
    op = _PAULI[alpha]
    rows, cols, vals = [], [], []
    for x in range(1, L + 1):
        b = L - x
        bit = (states >> b) & 1  # local basis (up, down) = (0, 1)
        for out in range(2):
            v = op[out, bit]
            keep = np.flatnonzero(v)
            rows.append((states[keep] & ~(1 << b)) | (out << b))
            cols.append(keep)
            vals.append(v[keep])
    m = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n, n)).tocsr()
    return _pack(m, FULL_SPACE, hermitian=alpha in ("x", "y", "z"))


def _splus_pairs(L, N):
    """(rows, cols, shape) of the unit entries of S^+ from sector N to N-1:
    clearing a set bit (a down spin) of a column state gives its row state."""
    src = build_sector_basis(L, N).state_array
    dst = build_sector_basis(L, N - 1).state_array
    rows, cols = [], []
    for b in range(L):
        down = np.flatnonzero((src >> b) & 1)
        rows.append(np.searchsorted(dst, src[down] ^ (1 << b)))
        cols.append(down)
    return np.concatenate(rows), np.concatenate(cols), (len(dst), len(src))


def splus_sector_matrix(L, N):
    """S^+ restricted to sectors: maps the N block to the N-1 block."""
    rows, cols, shape = _splus_pairs(L, N)
    m = np.zeros(shape)
    m[rows, cols] = 1.0
    return m


def apply_splus(vector, L, N):
    """S^+ v for v in the N block, as a vector of the N-1 block; no matrix is
    built."""
    rows, cols, shape = _splus_pairs(L, N)
    v = np.asarray(vector)
    out = np.zeros(shape[0], np.result_type(v, float))
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
    """
    dim = m.shape[0]
    rng = np.random.default_rng(LANCZOS_SEED)
    w, v = sp.linalg.eigsh(m, k=k + LANCZOS_GUARD, which="SA", v0=rng.standard_normal(dim))
    while True:
        order = np.argsort(w)
        w, v = w[order], v[:, order]
        shift = w[-1] + 1.0 - w

        def deflated(x):
            x = np.ravel(x)
            return m @ x + v @ (shift * (v.conj().T @ x))

        mu, x = sp.linalg.eigsh(sp.linalg.LinearOperator(m.shape, deflated, dtype=m.dtype),
                                k=1, which="SA", v0=rng.standard_normal(dim))
        if mu[0] >= w[k - 1] - LANCZOS_DEGENERACY_TOL:
            return w[:k], v[:, :k]
        w, v = np.append(w, mu), np.hstack([v, x])


def diagonalize(op, k=None):
    """Eigen-decomposition of a Hermitian OperatorMatrix.

    k: number of smallest eigenpairs, or None for the full spectrum.

    The solver depends only on (dim, k), whatever the storage: ARPACK's
    implicitly restarted Lanczos (scipy eigsh) on the CSR form for
    dim >= LANCZOS_MIN_DIM and k <= dim // LANCZOS_MAX_K_FRACTION, and a full
    numpy eigh otherwise (k = None, larger k, smaller dim).  Lanczos
    starts from a fixed seeded pseudo-random vector, so repeated solves are
    bit-identical; the all-ones vector would not do, it is the ferromagnetic
    eigenvector.  The Hermiticity check runs on the stored sparse entries of a
    sparse operator, and Lanczos converts a dense matrix to CSR once at most.

    Where ARPACK stops without a result (an operator with too few distinct
    eigenvalues, such as H = 0) the dense eigh answers instead.

    Raises ValueError for non-Hermitian input or k < 1.  Every returned pair
    satisfies ||H v - E v|| < 1e-10 ||v||.
    """
    if not isinstance(op, OperatorMatrix):
        op = OperatorMatrix(op)
    if k is not None and k < 1:
        raise ValueError(f"k={k}: need at least one eigenpair")
    if op.hermiticity_defect() > 1e-12:
        raise ValueError("matrix is not Hermitian")
    if _use_lanczos(op.dim, k):
        try:
            return Spectrum(*_lanczos(op.csr(), k))
        except sp.linalg.ArpackError:
            # ARPACK stops when the Krylov space of its start vector is an
            # invariant subspace it cannot extend (H = 0, H = c 1)
            pass
    w, v = np.linalg.eigh(op.dense())
    if k is not None:
        w, v = w[:k], v[:, :k]
    return Spectrum(w, v)


def commutator_norm(A, B):
    """Largest entry magnitude of AB - BA."""
    a = A.matrix if isinstance(A, OperatorMatrix) else A
    b = B.matrix if isinstance(B, OperatorMatrix) else B
    if a.shape != b.shape:
        raise ValueError("dimension mismatch")
    c = a @ b - b @ a
    if sp.issparse(c):
        return float(np.max(np.abs(c.toarray()))) if c.nnz else 0.0
    return float(np.max(np.abs(c)))


def multiplet_structure(spectrum, casimir, degeneracy_tol=1e-9):
    """Group eigenvalues into degenerate levels and report SU(2) content.

    Returns a list of (energy, multiplicity, spin list) where the spin list
    gives the S values of complete 2S+1 multiplets inside the level.  Raises
    if a level does not decompose into complete multiplets.
    """
    w = spectrum.eigenvalues
    v = spectrum.eigenvectors
    cas = casimir.csr()
    levels = []
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i] - w[start] > degeneracy_tol:
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

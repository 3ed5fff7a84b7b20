"""Independent brute-force constructions used as ground truth by the tests.

Everything here is built from explicit Kronecker products of single-site
operators (spins) or Jordan-Wigner strings (fermions), deliberately avoiding
the bitmask code paths of the package.  Jacobians of the Bethe-equation
solvers are checked against plain central differences of their residual
functions.
"""

import numpy as np

SX = np.array([[0, 1], [1, 0]], complex) / 2
SY = np.array([[0, -1j], [1j, 0]], complex) / 2
SZ = np.array([[1, 0], [0, -1]], complex) / 2
I2 = np.eye(2, dtype=complex)


def kron_chain(ops):
    out = np.array([[1.0 + 0j]])
    for o in ops:
        out = np.kron(out, o)
    return out


def kron_spin_hamiltonian(L, jxy, jz):
    """sum_j [ jxy (sx sx + sy sy) + jz (sz sz - 1/4) ] with periodic bonds,
    site 1 the slowest Kronecker factor."""
    dim = 2 ** L
    H = np.zeros((dim, dim), complex)
    for j in range(L):
        jp = (j + 1) % L
        for op, w in ((SX, jxy), (SY, jxy), (SZ, jz)):
            ops = [I2] * L
            ops[j] = op
            ops[jp] = op
            H += w * kron_chain(ops)
        H -= jz / 4 * np.eye(dim)
    return H


def kron_total_spin(L, component):
    op = {"x": SX, "y": SY, "z": SZ}[component]
    dim = 2 ** L
    S = np.zeros((dim, dim), complex)
    for j in range(L):
        ops = [I2] * L
        ops[j] = op
        S += kron_chain(ops)
    return S


def jw_fermion_ops(n_orbitals):
    """Jordan-Wigner annihilators on n_orbitals orbitals, orbital 0 slowest."""
    a = np.array([[0, 1], [0, 0]], complex)  # |occupied> -> |empty>
    Z = np.diag([1.0, -1.0]).astype(complex)
    ops = []
    for p in range(n_orbitals):
        ops.append(kron_chain([Z] * p + [a] + [I2] * (n_orbitals - p - 1)))
    return ops


def jw_hubbard_full(L, u):
    """Full-Fock Hubbard Hamiltonian; orbital of (site x, spin s) is 2x + s
    (x 0-based), matching the package convention.  L = 1 carries only the
    interaction term."""
    K = 2 * L
    c = jw_fermion_ops(K)
    cd = [m.conj().T for m in c]
    dim = 4 ** L
    H = np.zeros((dim, dim), complex)
    if L > 1:
        for j in range(L):
            jp = (j + 1) % L
            for s in (0, 1):
                H -= cd[2 * j + s] @ c[2 * jp + s] + cd[2 * jp + s] @ c[2 * j + s]
    eye = np.eye(dim)
    for x in range(L):
        nu = cd[2 * x] @ c[2 * x]
        nd = cd[2 * x + 1] @ c[2 * x + 1]
        H += u * (eye - 2 * nu) @ (eye - 2 * nd)
    return H


def jw_hubbard_block_eigs(L, u, N, M):
    """Eigenvalues of the (N electrons, M down spins) block of the oracle."""
    H = jw_hubbard_full(L, u)
    K = 2 * L
    keep = []
    for idx in range(4 ** L):
        nu = nd = 0
        for p in range(K):
            if (idx >> (K - 1 - p)) & 1:
                if p % 2 == 0:
                    nu += 1
                else:
                    nd += 1
        if nu + nd == N and nd == M:
            keep.append(idx)
    block = H[np.ix_(keep, keep)]
    return np.linalg.eigvalsh(block)


def central_difference_jacobian(F, x, h=1e-6):
    """Jacobian of F at x by central differences, one column per coordinate."""
    x = np.asarray(x, float)
    cols = []
    for b in range(len(x)):
        e = np.zeros_like(x)
        e[b] = h
        cols.append((F(x + e) - F(x - e)) / (2 * h))
    return np.array(cols).T

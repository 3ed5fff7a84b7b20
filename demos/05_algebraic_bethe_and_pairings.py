"""Algebraic construction of Bethe vectors and the determinant formula for
their pairings.

Run:  python demos/05_algebraic_bethe_and_pairings.py
"""

import numpy as np

from bethelab import aba, coordinate
from bethelab.basis import build_sector_basis

L, gamma = 8, 0.6
eta = 1j * gamma
vac = aba.VacuumFunctions(L, eta)

print("== monodromy blocks ==")
bl = aba.monodromy_blocks(0.3 + 0.1j, L, eta)
v0 = aba.pseudo_vacuum(L)
print("C(l)|0>           :", np.linalg.norm(bl.C @ v0))
print("A(l)|0> - a(l)|0> :", np.linalg.norm(bl.A @ v0 - vac.a(0.3 + 0.1j) * v0))

print("\n== products of B operators generate coordinate Bethe vectors ==")
rng = np.random.default_rng(3)
roots = rng.normal(size=2) * 0.5 + 1j * rng.normal(size=2) * 0.3
bp = aba.b_product_state(roots, L, eta)
basis = build_sector_basis(L, 2)
bp_sec = np.array([bp[s] for s in basis.states])
cv = coordinate.xxz_offshell_vector(roots, L, eta)
cos = abs(np.vdot(bp_sec, cv)) / (np.linalg.norm(bp_sec) * np.linalg.norm(cv))
print("collinearity with the coordinate construction:", cos)

print("\n== on-shell: eigenvectors of the commuting transfer family ==")
mu = aba.onshell_roots(L, 2, gamma)
print("on-shell rapidities:", np.round(mu.real, 8))
print("Q-form residual:", aba.bae_q_residual(mu, vac))
z = 0.21 + 0.17j
t = aba.aba_transfer(z, L, eta)
v = aba.b_product_state(mu, L, eta)
lam = aba.transfer_eigenvalue(z, mu, vac)
print("transfer eigenvector residual:",
      np.linalg.norm(t @ v - lam * v) / np.linalg.norm(v))
E = aba.xxz_energy_from_eigenvalue(mu, vac)
print("energy from the eigenvalue's log-derivative:", E.real)

print("\n== pairing of on-shell with off-shell vectors ==")
for N in (1, 2, 3):
    mu = aba.onshell_roots(L, N, gamma)
    la = mu + rng.normal(size=N) * 0.2 + 1j * rng.normal(size=N) * 0.1
    det_val = aba.slavnov_ratio(mu, la, L, eta)
    brute = aba.pairing_ratio_bruteforce(mu, la, L, eta)
    print(f"N = {N}: determinant formula {det_val:.8f}")
    print(f"       explicit vectors    {brute:.8f}   "
          f"rel err {abs(det_val - brute) / abs(brute):.1e}")

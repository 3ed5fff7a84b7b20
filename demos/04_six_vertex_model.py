"""Six-vertex model: commuting transfer matrices, partition functions,
square-ice entropy, and the link to the spin chain.

Run:  python demos/04_six_vertex_model.py
"""

import numpy as np

from bethelab import sixvertex

print("== Yang-Baxter equation ==")
rng = np.random.default_rng(1)
worst = max(sixvertex.ybe_residual(*(rng.uniform(-2, 2, 3) + 1j * rng.uniform(-2, 2, 3)),
                                   eta)
            for eta in (0.3, 0.7 + 0.2j) for _ in range(20))
print("max residual over random spectral parameters:", worst)

L = 6
w = sixvertex.VertexWeights.from_parameters(1.0, 0.0, 0.42)
t1 = np.asarray(sixvertex.transfer(0.31, L, w).matrix)
t2 = np.asarray(sixvertex.transfer(-0.27, L, w).matrix)
print(f"\n[t(l), t(m)] max entry at L = {L}:", np.max(np.abs(t1 @ t2 - t2 @ t1)))

print("\n== partition functions (transfer trace vs edge enumeration) ==")
for (Lp, M) in ((2, 2), (4, 2), (3, 3)):
    z = sixvertex.partition_function(Lp, M, 1, 1, 1)
    ze = sixvertex.enumerate_partition(Lp, M, 1, 1, 1)
    print(f"Z_{{{Lp}x{M}}}(1,1,1) = {z.real:.0f}  (enumeration: {ze})")
z = sixvertex.partition_function(2, 2, 1.3, 0.7, 0.4)
ze = sixvertex.enumerate_partition(2, 2, 1.3, 0.7, 0.4)
print(f"Z_{{2x2}}(1.3, 0.7, 0.4) = {z.real:.8f}  (enumeration: {ze.real:.8f})")

print("\n== residual entropy of square ice ==")
table, s_inf = sixvertex.ice_entropy(12)
for Lp, s in table:
    print(f"  L = {Lp:2}: (1/L) ln Lambda0 = {s:.8f}")
print(f"extrapolated: {s_inf:.6f}   exact 2d value (3/2) ln(4/3) = "
      f"{1.5 * np.log(4 / 3):.6f}")

print("\n== spin chain from the transfer matrix ==")
for Lh in (4, 8):
    _, dev = sixvertex.hamiltonian_from_transfer(Lh, 0.3)
    print(f"L = {Lh}: max deviation of sh(eta)/2 t(0)^-1 t'(0) - ch(eta) L/2 from the "
          f"direct Hamiltonian = {dev:.2e} of its largest entry")

"""The four benchmark workloads: seeded operation lists and oracle checks.

A workload is a fixed *round* of operations.  The kinds and sizes in a round
are the same for every seed; the seed draws the continuous parameters, the
quantum numbers and the order.  A run repeats whole rounds, so every run
measures the same mix.

A result is one computation plus its oracle check.  Every check compares
with an independent construction at the tolerance the repository's tests
use: exact diagonalization, edge enumeration, explicit B/C matrices, the
exponential-form Bethe residual, SU(2) counting.  `Check.close` records a
sharp comparison (it feeds `oracle_digits_min`); `Check.require` records a
pass/fail condition: a convergence flag, a count, or a physical bound that is
not expected to reach machine precision (finite-size -ln 2, the square-ice
extrapolation, a finite-difference derivative).

Inputs that sit on a known defect carry the defect's name in `Op.expect`
(see KNOWN_DEFECTS); they are run and checked like every other input, and
their failures are counted in fail_frac.  A failure of an input without such
a tag makes the run incorrect.
"""

import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from bethelab import aba, bae, basis, cli, coordinate, ed, hubbard, sixvertex, thermo

KNOWN_DEFECTS = {
    "odd_L_false_convergence":
        "solve_logbae / solve_logbae_xxz report odd-L real-root solves as "
        "converged; their exp-form residual is 2.0",
    "xxz_unconverged":
        "solve_logbae_xxz ground states fail to converge for a gamma-dependent "
        "share of draws that grows with L: about 1% at L = 28-38, 10% at "
        "L = 50-60, most draws at L >= 100",
    "cli_k_flag_typeerror":
        "`ed spectrum --k 2` hands the string '2' to diagonalize; a TypeError "
        "escapes cli.main",
}
# XXZ ground states below L = 28 converged for 150 draws of gamma in [0.3, 1.5]
# per even L; above, gamma is fixed per L to these values
XXZ_UNSTABLE_GAMMAS = tuple(float(g) for g in np.linspace(0.3, 1.5, 8))
LN2 = math.log(2)
ICE_ENTROPY = 1.5 * math.log(4 / 3)


@dataclass
class Op:
    kind: str
    params: dict
    expect: str = None  # a KNOWN_DEFECTS key when the input sits on that defect


class Check:
    """Collects the comparisons of one result."""

    def __init__(self):
        self.failures = []
        self.worst = None  # largest relative deviation over sharp comparisons

    def close(self, name, deviation, tol, scale=1.0):
        """Sharp comparison: pass when deviation <= tol; its relative size
        deviation/scale enters oracle_digits_min."""
        deviation = float(deviation)
        rel = deviation / scale if scale else deviation
        self.worst = rel if self.worst is None else max(self.worst, rel)
        if not deviation <= tol:  # also catches NaN
            self.failures.append(f"{name}={deviation:.3g}>{tol:.0e}")

    def require(self, name, ok):
        """Pass/fail condition: a convergence flag, a count, a physical bound."""
        if not ok:
            self.failures.append(name)


def exp_tol(L):
    """Exp-form Bethe residual tolerance: the tests' 1e-10 at L = 8, grown
    linearly with L because the residual is a phase accumulated over L factors
    from a log-form solve at fixed tolerance."""
    return 1e-10 * max(1.0, L / 8)


def _exp_residual(check, ctx, rep, L, residual_fn):
    res = residual_fn(rep.roots.values, L)
    if rep.converged and not res <= exp_tol(L):
        ctx.count("bae.false_converged")
    check.close("exp_residual", res, exp_tol(L))


def _uniform(rng, lo, hi):
    return float(rng.uniform(lo, hi))


def _increasing(rng, lo, hi, n):
    """n distinct sorted integers from lo..hi."""
    return tuple(int(x) for x in np.sort(rng.choice(np.arange(lo, hi + 1), n, replace=False)))


def _realpair_qnums(rng, L, N):
    """Random admissible quantum numbers of an even-L real-root XXX state:
    strictly increasing n_j in N+1-L/2 .. L/2 (|I_j| <= (L-N-1)/2)."""
    return _increasing(rng, N + 1 - L // 2, L // 2, N)


def _hubbard_qnums(rng, N):
    """N consecutive charge quantum numbers around 0, shifted by -1, 0 or +1
    (with spin number 0 and M = 1 these all converged in probes up to L = 32)."""
    base = np.arange(-(N // 2), N - N // 2)
    return tuple(int(x) for x in base + int(rng.integers(-1, 2)))


# ===================================================== chain_eigenstates


def chain_round(rng):
    ops = []
    for L, reps in ((10, 10), (12, 3), (14, 1)):
        ops += [Op("xxx_ground_vs_ed", {"L": L, "J": _uniform(rng, 0.5, 2.0)})
                for _ in range(reps)]
    ops += [Op("xxx_ground_vs_ed", {"L": L, "J": _uniform(rng, 0.5, 2.0)},
               "odd_L_false_convergence") for L in (9, 11, 13)]
    ops.append(Op("sparse_l15", {"J": _uniform(rng, 0.5, 2.0)}))
    for _ in range(2):
        for L in (8, 10, 12, 14):
            for N in range(2, min(6, L // 2) + 1):
                ops.append(Op("offshell_vector", {
                    "L": L, "N": N, "qnums": _realpair_qnums(rng, L, N)}))
    ops += [Op("multiplets", {"L": L, "J": _uniform(rng, 0.5, 2.0)})
            for L in (8, 8, 8, 8, 10)]
    for _ in range(2):
        for L in (6, 8):
            for N in (2, 3, 4):
                ops.append(Op("hubbard_nested", {
                    "L": L, "N": N, "u": _uniform(rng, 0.5, 4.0),
                    "qnums": _hubbard_qnums(rng, N)}))
    return ops


def chain_warmup(rng):
    return [Op("xxx_ground_vs_ed", {"L": 10, "J": 1.0}),
            Op("offshell_vector", {"L": 8, "N": 2, "qnums": _realpair_qnums(rng, 8, 2)}),
            Op("multiplets", {"L": 8, "J": 1.0}),
            Op("hubbard_nested", {"L": 6, "N": 2, "u": 1.0, "qnums": (-1, 0)})]


def run_xxx_ground_vs_ed(p, ctx):
    L, J = p["L"], p["J"]
    N = L // 2
    rep = bae.solve_logbae(L, N, tuple(range(1, N + 1)))
    E = coordinate.energy_xxx(rep.roots, J).real
    w = ed.diagonalize(ed.build_xxx_hamiltonian(L, J, N), k=2).eigenvalues
    c = Check()
    c.require("converged", rep.converged)
    _exp_residual(c, ctx, rep, L, bae.bae_residual_xxx)
    c.close("energy_vs_ed", abs(E - w[0]), 1e-9, abs(w[0]))
    return c


def run_sparse_l15(p, ctx):
    """L = 15, N = 7 (dim 6435): the sparse eigsh path.  The ground level is
    the S = 1/2 doublet of momenta +-p, so both returned vectors are
    eigenpairs, degenerate and annihilated by S^+."""
    L, N = 15, 7
    H = ed.build_xxx_hamiltonian(L, p["J"], N)
    spec = ed.diagonalize(H, k=2)
    w, v = spec.eigenvalues, spec.eigenvectors
    c = Check()
    for i in range(2):
        r = np.linalg.norm(H.matrix @ v[:, i] - w[i] * v[:, i]) / np.linalg.norm(v[:, i])
        c.close(f"eigenpair_{i}", r, 1e-10, abs(w[i]))
    c.close("doublet", abs(w[1] - w[0]), 1e-8, abs(w[0]))
    c.close("highest_weight", coordinate.highest_weight_residual(v[:, 0], L, N), 1e-8)
    return c


def run_offshell_vector(p, ctx):
    L, N = p["L"], p["N"]
    rep = bae.solve_logbae(L, N, p["qnums"])
    c = Check()
    c.require("converged", rep.converged)
    roots = rep.roots.values
    c.require("admissible", bae.admissibility(roots)[0])
    _exp_residual(c, ctx, rep, L, bae.bae_residual_xxx)
    v = coordinate.offshell_vector(roots, L)
    E = complex(coordinate.energy_xxx(roots))
    H = ed.build_xxx_hamiltonian(L, 1.0, N).matrix
    c.close("eigenvector", np.linalg.norm(H @ v - E * v), 1e-8)
    c.close("highest_weight", coordinate.highest_weight_residual(v, L, N), 1e-8)
    U = ed.shift_sector_matrix(basis.build_sector_basis(L, N))
    P = complex(coordinate.momentum_xxx(roots))
    c.close("momentum", np.linalg.norm(U @ v - np.exp(1j * P) * v), 1e-8)
    return c


def run_multiplets(p, ctx):
    """Full-space SU(2) bookkeeping: the number of spin-S multiplets must be
    binom(L, L/2-S) - binom(L, L/2-S-1), and the ground level the Bethe
    ground state."""
    L, J = p["L"], p["J"]
    spec = ed.diagonalize(ed.build_xxx_hamiltonian(L, J))
    levels = ed.multiplet_structure(spec, ed.build_total_spin(L, "casimir"))
    found = Counter(s for _, _, spins in levels for s in spins)
    down = range(L // 2 + 1)  # down spins of the highest-weight state, L/2 - S
    expected = {float(L // 2 - n): math.comb(L, n) - (math.comb(L, n - 1) if n else 0)
                for n in down}
    c = Check()
    c.require("multiplet_counts", dict(found) == expected)
    rep = bae.solve_logbae(L, L // 2, tuple(range(1, L // 2 + 1)))
    E = coordinate.energy_xxx(rep.roots, J).real
    c.close("ground_vs_bethe", abs(spec.eigenvalues[0] - E), 1e-9, abs(E))
    return c


def run_hubbard_nested(p, ctx):
    L, N, M, u = p["L"], p["N"], 1, p["u"]
    roots, _, ok = hubbard.solve_liebwu(L, N, M, u, p["qnums"], (0,))
    c = Check()
    c.require("converged", ok)
    c.close("liebwu_residual", hubbard.liebwu_residual(roots), 1e-10)
    fb = hubbard.FermionBasis(L, N, M)
    H = hubbard.build_hubbard_hamiltonian(L, u, fb).matrix
    v = hubbard.assemble_state(roots, fb)
    E, _ = hubbard.energy_momentum(roots)
    c.close("eigenvector", np.linalg.norm(H @ v - E * v), 1e-8)
    w = np.linalg.eigvalsh(H)
    c.close("energy_in_spectrum", np.min(np.abs(w - E)), 1e-9, abs(E) or 1.0)
    return c


# ===================================================== vertex_pairings


def _pert(rng, n):
    return [float(x) for x in rng.normal(size=n)]


def vertex_round(rng):
    ops = []
    for L in (8, 10):
        for N in (1, 2, 3, 4):
            for _ in range(2):
                ops.append(Op("slavnov_vs_explicit", {
                    "L": L, "N": N, "gamma": _uniform(rng, 0.3, 1.2),
                    "re": _pert(rng, N), "im": _pert(rng, N)}))
    for L in (7, 9):
        ops.append(Op("slavnov_vs_explicit", {
            "L": L, "N": 2, "gamma": _uniform(rng, 0.3, 1.2),
            "re": _pert(rng, 2), "im": _pert(rng, 2)}, "odd_L_false_convergence"))
    for L in (6, 8):
        for N in (1, 2):
            for dual in (False, True):
                for _ in range(2):
                    ops.append(Op("action_identity", {
                        "L": L, "N": N, "dual": dual,
                        "eta": [_uniform(rng, 0.3, 0.6), _uniform(rng, -0.2, 0.2)],
                        "re": _pert(rng, N + 1), "im": _pert(rng, N + 1)}))
    for L in range(1, 11):
        for M in range(1, 12 // L + 1):
            ops.append(Op("partition_vs_enumeration", {
                "L": L, "M": M, "abc": [int(x) for x in rng.integers(1, 4, 3)]}))
    ops.append(Op("ice_entropy", {"lmax": 12}))
    for i in range(4):
        ops.append(Op("ybe_batch", {
            "eta": [0.3, 0.0] if i % 2 == 0 else [0.7, 0.2],
            "re": rng.uniform(-2, 2, (25, 3)).tolist(),
            "im": rng.uniform(-2, 2, (25, 3)).tolist()}))
    for L in (4, 4, 6, 6):
        ops.append(Op("rtt", {
            "L": L, "xi": _pert(rng, L), "eta": _uniform(rng, 0.3, 0.7),
            "lam": [_uniform(rng, -0.5, 0.5), _uniform(rng, -0.3, 0.3)],
            "mu": [_uniform(rng, -0.5, 0.5), _uniform(rng, -0.3, 0.3)]}))
    for L in (6, 8):
        ops.append(Op("hamiltonian_link", {"L": L, "eta": _uniform(rng, 0.2, 0.6)}))
    return ops


def vertex_warmup(rng):
    return [Op("slavnov_vs_explicit", {"L": 8, "N": 1, "gamma": 0.6, "re": [0.1], "im": [0.1]}),
            Op("action_identity", {"L": 6, "N": 1, "dual": False, "eta": [0.4, 0.1],
                                   "re": [0.1, -0.2], "im": [0.3, 0.1]}),
            Op("action_identity", {"L": 6, "N": 1, "dual": True, "eta": [0.4, 0.1],
                                   "re": [0.1, -0.2], "im": [0.3, 0.1]}),
            Op("partition_vs_enumeration", {"L": 3, "M": 2, "abc": [1, 2, 3]}),
            Op("ice_entropy", {"lmax": 6}),
            Op("ybe_batch", {"eta": [0.3, 0.0], "re": [[0.1, 0.2, 0.3]], "im": [[0.3, 0.2, 0.1]]}),
            Op("rtt", {"L": 4, "xi": [0.1, 0.2, 0.3, 0.4], "eta": 0.5, "lam": [0.2, 0.1],
                       "mu": [-0.3, 0.05]}),
            Op("hamiltonian_link", {"L": 6, "eta": 0.3})]


def run_slavnov_vs_explicit(p, ctx):
    L, N, gamma = p["L"], p["N"], p["gamma"]
    eta = 1j * gamma
    mu = aba.onshell_roots(L, N, gamma)
    la = mu + 0.2 * np.asarray(p["re"]) + 0.15j * np.asarray(p["im"])
    explicit = aba.pairing_ratio_bruteforce(mu, la, L, eta)
    det = aba.slavnov_ratio(mu, la, L, eta)
    c = Check()
    c.close("pairing", abs(det - explicit) / abs(explicit), 1e-9)
    return c


def run_action_identity(p, ctx):
    params = 0.5 * np.asarray(p["re"]) + 0.3j * np.asarray(p["im"])
    eta = complex(*p["eta"])
    fn = aba.dual_action_residual if p["dual"] else aba.offshell_action_residual
    c = Check()
    c.close("action", fn(params, 0, p["L"], eta), 1e-10)
    return c


def run_partition_vs_enumeration(p, ctx):
    L, M, (a, b, cw) = p["L"], p["M"], p["abc"]
    z = sixvertex.partition_function(L, M, a, b, cw)
    ze = sixvertex.enumerate_partition(L, M, a, b, cw)
    c = Check()
    c.close("Z", abs(z - ze), 1e-8 * max(1.0, abs(z)), abs(ze))
    return c


def run_ice_entropy(p, ctx):
    _, s_inf = sixvertex.ice_entropy(p["lmax"])
    c = Check()
    c.require("extrapolation_within_1e-2", abs(s_inf - ICE_ENTROPY) < 1e-2)
    return c


def run_ybe_batch(p, ctx):
    eta = complex(*p["eta"])
    args = np.asarray(p["re"]) + 1j * np.asarray(p["im"])
    worst = max(sixvertex.ybe_residual(lam, mu, nu, eta) for lam, mu, nu in args)
    c = Check()
    c.close("ybe", worst, 1e-12)
    return c


def run_rtt(p, ctx):
    L = p["L"]
    w = sixvertex.VertexWeights.from_parameters(1.0, 0.0, p["eta"],
                                                xi=0.3 * np.asarray(p["xi"]))
    c = Check()
    c.close("rtt", sixvertex.rtt_residual(complex(*p["lam"]), complex(*p["mu"]), L, w), 1e-12)
    return c


def run_hamiltonian_link(p, ctx):
    _, dev = sixvertex.hamiltonian_from_transfer(p["L"], p["eta"])
    c = Check()
    c.require("finite_difference_within_1e-6", dev < 1e-6)
    return c


# ===================================================== bethe_roots


def roots_round(rng):
    ops = [Op("xxx_ground_large_L", {"L": L}) for L in (64, 128, 192, 256, 320)]
    for L in (24, 48, 80, 128):
        holes = rng.choice(L // 2 + 1, 2, replace=False)
        ops.append(Op("hole_state", {"L": L, "qnums": tuple(
            n for n in range(L // 2 + 1) if n not in holes)}))
    for L in (21, 45, 81, 127):
        N = (L - 1) // 2 - 1
        ops.append(Op("hole_state", {"L": L, "qnums": _increasing(rng, 1, N + 2, N)},
                      "odd_L_false_convergence"))
    for L in (20, 24):
        ops.append(Op("xxz_ground", {"L": L, "gamma": _uniform(rng, 0.3, 1.5)}))
    # Where convergence depends on gamma, gamma is fixed, so that the number
    # of failures is the same for every seed: 6 of these 8 fail at baseline.
    for L, gamma in zip((40, 56, 80, 96, 120, 140, 160, 200), XXZ_UNSTABLE_GAMMAS):
        ops.append(Op("xxz_ground", {"L": L, "gamma": gamma}, "xxz_unconverged"))
    for N in (8, 16, 32, 64):
        ops.append(Op("bose_gas", {"N": N, "c": float(10 ** rng.uniform(-1, 1)),
                                   "ring": N * _uniform(rng, 1.0, 2.0)}))
    ops += [Op("two_magnon", {"L": L}) for L in (8, 10, 12, 14, 16)]
    for n in (128, 256, 512, 1024):
        q = _uniform(rng, 0.5, 4.0)
        ops.append(Op("root_density", {"q": q, "n_nodes": n,
                                       "lam": rng.uniform(-q, q, 7).tolist()}))
    ops += [Op("condensation", {"lmax": lmax}) for lmax in (48, 64)]
    for L, N in ((8, 2), (12, 3), (16, 4), (24, 5), (32, 6), (32, 4)):
        ops.append(Op("liebwu_large_L", {"L": L, "N": N, "u": _uniform(rng, 0.5, 4.0),
                                         "qnums": _hubbard_qnums(rng, N)}))
    return ops


def roots_warmup(rng):
    return [Op("xxx_ground_large_L", {"L": 64}),
            Op("hole_state", {"L": 24, "qnums": tuple(range(1, 12))}),
            Op("xxz_ground", {"L": 20, "gamma": 0.9}),
            Op("bose_gas", {"N": 8, "c": 1.0, "ring": 10.0}),
            Op("two_magnon", {"L": 8}),
            Op("root_density", {"q": 2.0, "n_nodes": 128, "lam": [0.5]}),
            Op("condensation", {"lmax": 16}),
            Op("liebwu_large_L", {"L": 8, "N": 2, "u": 1.0, "qnums": (-1, 0)})]


def run_xxx_ground_large_L(p, ctx):
    L = p["L"]
    N = L // 2
    rep = bae.solve_logbae(L, N, tuple(range(1, N + 1)))
    c = Check()
    c.require("converged", rep.converged)
    _exp_residual(c, ctx, rep, L, bae.bae_residual_xxx)
    e = coordinate.energy_xxx(rep.roots).real / L
    c.require("energy_below_minus_ln2", e < -LN2)
    c.require("finite_size_gap_below_1/L^2", abs(e + LN2) < 1 / L ** 2)
    return c


def run_hole_state(p, ctx):
    L = p["L"]
    qnums = p["qnums"]
    rep = bae.solve_logbae(L, len(qnums), qnums)
    c = Check()
    c.require("converged", rep.converged)
    _exp_residual(c, ctx, rep, L, bae.bae_residual_xxx)
    return c


def run_xxz_ground(p, ctx):
    L, gamma = p["L"], p["gamma"]
    N = L // 2
    rep = bae.solve_logbae_xxz(L, N, gamma, tuple(range(1, N + 1)))
    c = Check()
    c.require("converged", rep.converged)
    if rep.converged:
        _exp_residual(c, ctx, rep, L,
                      lambda r, L: bae.bae_residual_xxz(r, L, gamma))
    return c


def run_bose_gas(p, ctx):
    N, cc, ring = p["N"], p["c"], p["ring"]
    rep = bae.solve_bose(ring, N, cc, tuple(range(1, N + 1)))
    c = Check()
    c.require("converged", rep.converged)
    c.require("real_roots", np.max(np.abs(rep.roots.values.imag)) == 0)
    c.close("exp_residual", bae.bose_residual(rep.roots.values, ring, cc), 1e-10)
    return c


def run_two_magnon(p, ctx):
    L = p["L"]
    sols = bae.classify_two_magnon(L)
    w = ed.diagonalize(ed.build_xxx_hamiltonian(L, 1.0, 2)).eigenvalues
    c = Check()
    c.require("found_any", len(sols) > 0)
    for rs, _ in sols:
        E = coordinate.energy_xxx(rs).real
        c.close("energy_in_ed_spectrum", np.min(np.abs(w - E)), 1e-8, abs(E))
    return c


def run_root_density(p, ctx):
    rd = thermo.solve_root_density(p["q"], p["n_nodes"])
    c = Check()
    c.close("equation_residual", thermo.equation_residual(rd, np.asarray(p["lam"])), 1e-8)
    return c


def _energy_observable(lam):
    return -0.5 / (lam ** 2 + 0.25)


def run_condensation(p, ctx):
    rows = thermo.condensation_check(list(range(8, p["lmax"] + 1, 2)), _energy_observable)
    gaps = [r["gap"] for r in rows]
    c = Check()
    c.close("integral_vs_minus_ln2", abs(rows[0]["integral"] + LN2), 1e-8, LN2)
    c.require("gap_decreasing", all(a > b for a, b in zip(gaps, gaps[1:])))
    c.require("gap_below_1/L^2", all(r["gap"] < 1 / r["L"] ** 2 for r in rows))
    return c


def run_liebwu_large_L(p, ctx):
    roots, _, ok = hubbard.solve_liebwu(p["L"], p["N"], 1, p["u"], p["qnums"], (0,))
    c = Check()
    c.require("converged", ok)
    c.close("liebwu_residual", hubbard.liebwu_residual(roots), 1e-10)
    return c


# ===================================================== cli_small


def _roots_arg(roots):
    return ";".join(f"{float(z.real)!r},{float(z.imag)!r}" for z in np.asarray(roots, complex))


def _onshell(L, N, qnums):
    """On-shell XXX roots for CLI inputs (solved at set-up, outside timing)."""
    rep = bae.solve_logbae(L, N, qnums)
    return _roots_arg(rep.roots.values)


def cli_round(rng):
    """All 19 subcommands plus the `verify ybe` alias, each once with flags
    and once with a --json config.  Sizes are fixed; the seed draws the
    couplings, quantum numbers and trial seeds."""
    roots = _onshell(8, 2, _realpair_qnums(rng, 8, 2))
    hub_u = _uniform(rng, 0.5, 4.0)
    a, b, cw = (int(x) for x in rng.integers(1, 4, 3))
    cmds = [
        ("ed/spectrum", {"model": "xxx", "L": 8, "sector": 4,
                         "J": _uniform(rng, 0.5, 2.0), "k": 2}),
        ("bae/solve", {"L": 8, "N": 3,
                       "qnums": ",".join(map(str, _realpair_qnums(rng, 8, 3)))}),
        ("bae/residual", {"L": 8, "roots": roots}),
        ("bae/two-magnon", {"L": 8}),
        ("bethe-vector/build", {"L": 8, "roots": roots}),
        ("bethe-vector/verify", {"L": 8, "roots": roots}),
        ("thermo/density", {"q": _uniform(rng, 1.0, 4.0), "n_nodes": 128}),
        ("thermo/gs-energy", {"q": "inf"}),
        ("thermo/condensation", {"lmin": 8, "lmax": 16}),
        ("vertex/ybe", {"trials": 20}),
        ("vertex/transfer", {"L": 4, "eta": _uniform(rng, 0.2, 0.8),
                             "lambda": _uniform(rng, -0.5, 0.5)}),
        ("vertex/partition", {"L": 2, "M": 4, "a": a, "b": b, "c": cw}),
        ("vertex/ice-entropy", {"lmax": 8}),
        ("vertex/hamiltonian-link", {"L": 4, "eta": _uniform(rng, 0.2, 0.6)}),
        ("aba/slavnov", {"L": 8, "N": 2, "gamma": _uniform(rng, 0.4, 1.0), "trials": 2}),
        ("aba/verify-action", {"L": 6, "N": 2, "trials": 2}),
        ("hubbard/ed", {"L": 6, "N": 2, "M": 1, "u": hub_u}),
        ("hubbard/liebwu", {"L": 8, "N": 2, "M": 1, "u": hub_u,
                            "qnums": "-1,0", "spin_qnums": "0"}),
        ("hubbard/verify", {"L": 6, "N": 2, "M": 1, "u": _uniform(rng, 0.5, 4.0),
                            "qnums": "-1,0", "spin_qnums": "0"}),
        ("verify/ybe", {"trials": 20}),
    ]
    ops = []
    for command, params in cmds:
        for mode in ("flags", "json"):
            expect = "cli_k_flag_typeerror" if (command, mode) == ("ed/spectrum", "flags") else None
            ops.append(Op("cli", {"command": command, "params": params, "mode": mode,
                                  "seed": int(rng.integers(0, 2 ** 31))}, expect))
    return ops


def cli_warmup(rng):
    """Each subcommand once, in the --json form."""
    return [op for op in cli_round(rng) if op.params["mode"] == "json"]


def _argv(op_params, workdir, tag):
    """argv for one CLI call; --json configs are written here, at set-up."""
    command, params, seed = op_params["command"], op_params["params"], op_params["seed"]
    out = str(workdir / f"{tag}-out")
    if op_params["mode"] == "json":
        from bethelab import serialize
        cfg = workdir / f"{tag}-config.json"
        cfg.write_text(serialize.dumps({"command": command, "params": params, "seed": seed}))
        return command.split("/") + ["--json", str(cfg), "--out", out]
    argv = command.split("/") + ["--seed", str(seed), "--out", out]
    for k, v in params.items():
        argv.append(f"--{k.replace('_', '-')}={v}")
    return argv


def prepare_cli(op, workdir, index):
    """Fix the argv of both runs of a CLI result (the second run checks that
    the report is byte-identical from a fresh directory)."""
    op.params["argv"] = [_argv(op.params, workdir, f"{index}-{i}") for i in (0, 1)]


def _cli_report_check(command, p, report):
    """The oracle of each subcommand, applied to its report.json."""
    c = Check()
    if command == "ed/spectrum":
        L, J = p["L"], p["J"]
        rep = bae.solve_logbae(L, L // 2, tuple(range(1, L // 2 + 1)))
        E = coordinate.energy_xxx(rep.roots, J).real
        c.close("ground_vs_bethe", abs(report["eigenvalues"][0] - E), 1e-9, abs(E))
    elif command == "bae/solve":
        roots = np.array([complex(*z) for z in report["solve"]["roots"]])
        c.require("converged", report["solve"]["converged"])
        c.close("exp_residual", bae.bae_residual_xxx(roots, p["L"]), 1e-10)
    elif command == "bae/residual":
        c.require("admissible", report["admissible"])
        c.close("residual", report["residual"], 1e-10)
    elif command == "bae/two-magnon":
        c.require("complete_but_singular_pair",
                  report["count"] == report["reference_level_count"] - 1)
        for s in report["solutions"]:
            c.close("residual", s["residual"], 1e-10)
    elif command == "bethe-vector/build":
        L = p["L"]
        roots = np.array([complex(*map(float, z.split(","))) for z in p["roots"].split(";")])
        v = np.array([complex(*z) for z in report["vector"]])
        H = ed.build_xxx_hamiltonian(L, 1.0, len(roots)).matrix
        E = complex(coordinate.energy_xxx(roots))
        c.close("eigenvector", np.linalg.norm(H @ v - E * v), 1e-8)
    elif command == "bethe-vector/verify":
        for key in ("eigenvector_residual", "hw_residual", "momentum_residual"):
            c.close(key, report[key], 1e-8)
        c.close("bae_residual", report["bae_residual"], 1e-10)
    elif command == "thermo/density":
        d = report["density"]
        rd = thermo.RootDensity(d["q"], np.array(d["nodes"]), np.array(d["weights"]),
                                np.array(d["values"]))
        mids = 0.5 * (rd.nodes[1:] + rd.nodes[:-1])[::8]
        c.close("equation_residual", thermo.equation_residual(rd, mids), 1e-8)
    elif command == "thermo/gs-energy":
        c.close("minus_ln2", report["deviation"], 1e-8, LN2)
    elif command == "thermo/condensation":
        rows = report["rows"]
        c.close("integral_vs_minus_ln2", abs(rows[0]["integral"] + LN2), 1e-8, LN2)
        c.require("gap_decreasing", all(a["gap"] > b["gap"] for a, b in zip(rows, rows[1:])))
    elif command in ("vertex/ybe", "verify/ybe"):
        c.close("ybe", report["max_residual"], 1e-12)
    elif command == "vertex/transfer":
        m = report["matrix"]
        t = np.zeros((m["dim"], m["dim"]), complex)
        for r, col, re, im in m["entries"]:
            t[r, col] = re + 1j * im
        H = ed.build_xxz_hamiltonian(p["L"], math.cosh(p["eta"])).dense()
        scale = np.max(np.abs(t)) * np.max(np.abs(H))
        c.close("commutes_with_xxz", np.max(np.abs(t @ H - H @ t)) / scale, 1e-12)
    elif command == "vertex/partition":
        z = complex(*report["Z"])
        ze = complex(*report["Z_enumeration"])
        c.close("Z", abs(z - ze), 1e-8 * max(1.0, abs(z)), abs(ze))
    elif command == "vertex/ice-entropy":
        c.require("extrapolation_within_1e-2",
                abs(report["extrapolated"] - report["exact_2d"]) < 1e-2)
    elif command == "vertex/hamiltonian-link":
        c.require("finite_difference_within_1e-6", report["max_deviation"] < 1e-6)
    elif command == "aba/slavnov":
        c.close("pairing", report["max_rel_err"], 1e-9)
    elif command == "aba/verify-action":
        c.close("action", report["max_residual"], 1e-10)
    elif command == "hubbard/ed":
        roots, _, ok = hubbard.solve_liebwu(p["L"], p["N"], p["M"], p["u"], (-1, 0), (0,))
        E, _ = hubbard.energy_momentum(roots)
        c.require("liebwu_converged", ok)
        c.close("liebwu_in_spectrum", np.min(np.abs(np.array(report["eigenvalues"]) - E)),
                1e-9, abs(E) or 1.0)
    elif command == "hubbard/liebwu":
        c.require("converged", report["converged"])
        r = report["roots"]
        roots = hubbard.NestedRoots(r["L"], [complex(*z) for z in r["k"]],
                                    [complex(*z) for z in r["lambda"]], r["u"])
        c.close("liebwu_residual", hubbard.liebwu_residual(roots), 1e-10)
    elif command == "hubbard/verify":
        c.close("eigenvector", report["eigenvector_residual"], 1e-8)
    else:
        raise KeyError(command)
    return c


def run_cli(p, ctx):
    import json
    texts = []
    c = Check()
    for argv in p["argv"]:
        code = cli.main(argv)
        c.require(f"exit_code_{code}", code == 0)
        report = Path(argv[argv.index("--out") + 1]) / "report.json"
        texts.append(report.read_text() if report.exists() else None)
    c.require("report_written", texts[0] is not None)
    c.require("byte_identical_rerun", texts[0] == texts[1])
    if texts[0] is not None:
        checked = _cli_report_check(p["command"], p["params"], json.loads(texts[0]))
        c.failures += checked.failures
        c.worst = checked.worst
    return c


# ===================================================== registry


@dataclass
class Workload:
    make_round: object
    warmup_round: object  # one small op per kind, run untimed at set-up
    run: dict


WORKLOADS = {
    "chain_eigenstates": Workload(chain_round, chain_warmup, {
        "xxx_ground_vs_ed": run_xxx_ground_vs_ed,
        "sparse_l15": run_sparse_l15,
        "offshell_vector": run_offshell_vector,
        "multiplets": run_multiplets,
        "hubbard_nested": run_hubbard_nested,
    }),
    "vertex_pairings": Workload(vertex_round, vertex_warmup, {
        "slavnov_vs_explicit": run_slavnov_vs_explicit,
        "action_identity": run_action_identity,
        "partition_vs_enumeration": run_partition_vs_enumeration,
        "ice_entropy": run_ice_entropy,
        "ybe_batch": run_ybe_batch,
        "rtt": run_rtt,
        "hamiltonian_link": run_hamiltonian_link,
    }),
    "bethe_roots": Workload(roots_round, roots_warmup, {
        "xxx_ground_large_L": run_xxx_ground_large_L,
        "hole_state": run_hole_state,
        "xxz_ground": run_xxz_ground,
        "bose_gas": run_bose_gas,
        "two_magnon": run_two_magnon,
        "root_density": run_root_density,
        "condensation": run_condensation,
        "liebwu_large_L": run_liebwu_large_L,
    }),
    "cli_small": Workload(cli_round, cli_warmup, {"cli": run_cli}),
}


def warmup():
    """First LAPACK/ARPACK calls in a process are slow; pay them at set-up."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
    rng = np.random.default_rng(0)
    a = rng.normal(size=(64, 64))
    a = a + a.T
    np.linalg.eigh(a)
    np.linalg.solve(a, np.ones(64))
    np.linalg.slogdet(a + 0j)
    spla.eigsh(sp.csr_matrix(a), k=2, which="SA")

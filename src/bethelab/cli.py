"""Command-line front end: reproducible experiments over the library modules.

Groups and subcommands:

    ed spectrum                     sector or full spectra of XXX/XXZ chains
    bae solve|residual|two-magnon   Bethe-equation work for XXX chains
    bethe-vector build|verify       coordinate Bethe vectors and their checks
    thermo density|gs-energy|condensation
    vertex ybe|transfer|partition|ice-entropy|hamiltonian-link
    aba slavnov|verify-action
    hubbard ed|liebwu|verify
    verify ybe                      alias of `vertex ybe`

Every subcommand accepts `--json FILE` (a config overriding the flags, the
serialized form of the run) and `--out DIR` (artifact directory; default
prints to stdout).  Reports are canonical JSON: identical config and seed give
byte-identical bytes.  Exit codes: 0 success, 2 config error, 3 solver
non-convergence, 4 invariant violation.  BETHE_LAB_THREADS caps the number of
worker threads used for independent verification trials.
"""

import argparse
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import aba, bae, coordinate, ed, hubbard, serialize, sixvertex, thermo

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NOCONV = 3
EXIT_INVARIANT = 4


class ConfigError(Exception):
    pass


class NonConvergence(Exception):
    pass


class InvariantViolation(Exception):
    pass


@dataclass
class ExperimentConfig:
    """One reproducible run: command path, parameters, seed, output target."""
    command: str
    params: dict = field(default_factory=dict)
    seed: int = 0
    out: str = None

    def to_dict(self):
        return {"command": self.command, "params": self.params,
                "seed": self.seed, "out": self.out}

    def report_dict(self):
        """The config as embedded in reports: the artifact directory is not
        part of the experiment identity, so identical runs stay byte-identical
        wherever they are written."""
        return {"command": self.command, "params": self.params, "seed": self.seed}

    @classmethod
    def from_dict(cls, d):
        return cls(d["command"], dict(d.get("params", {})),
                   int(d.get("seed", 0)), d.get("out"))

    def dumps(self):
        return serialize.dumps(self.to_dict())

    @classmethod
    def loads(cls, text):
        return cls.from_dict(serialize.loads(text))


def _max_workers():
    cap = os.environ.get("BETHE_LAB_THREADS")
    if cap is None:
        return 1
    return max(1, int(cap))


def _run_trials(fn, n_trials):
    """Run independent trials, optionally threaded; results ordered by index."""
    workers = _max_workers()
    if workers == 1:
        return [fn(i) for i in range(n_trials)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(n_trials)))


def _emit(report, cfg, extra_files=()):
    text = serialize.dumps(report) + "\n"
    if cfg.out:
        outdir = Path(cfg.out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "report.json").write_text(text)
        for name, content in extra_files:
            (outdir / name).write_text(content)
    else:
        sys.stdout.write(text)


def _parse_qnums(text):
    return tuple(int(t) for t in str(text).replace(";", ",").split(",") if t.strip())


def _parse_roots(text):
    vals = []
    for part in str(text).split(";"):
        part = part.strip()
        if not part:
            continue
        re_im = [float(t) for t in part.split(",")]
        vals.append(re_im[0] + 1j * (re_im[1] if len(re_im) > 1 else 0.0))
    return np.array(vals, complex)


# ---------------------------------------------------------------- commands


def cmd_ed_spectrum(cfg):
    p = cfg.params
    L = int(p["L"])
    model = p.get("model", "xxx")
    sector = p.get("sector", "full")
    sector = None if sector in (None, "full") else int(sector)
    if model == "xxx":
        op = ed.build_xxx_hamiltonian(L, float(p.get("J", 1.0)), sector)
    elif model == "xxz":
        op = ed.build_xxz_hamiltonian(L, float(p["delta"]), sector)
    else:
        raise ConfigError(f"unknown model {model!r}")
    k = p.get("k")
    spec = ed.diagonalize(op, None if k is None else int(k))
    report = {"config": cfg.report_dict(), "eigenvalues": list(map(float, spec.eigenvalues))}
    _emit(report, cfg, [("spectrum.csv", serialize.spectrum_to_csv(spec))])
    return EXIT_OK


def cmd_bae_solve(cfg):
    p = cfg.params
    rep = bae.solve_logbae(int(p["L"]), int(p["N"]), _parse_qnums(p["qnums"]))
    report = {"config": cfg.report_dict(), "solve": serialize.solve_report_to_dict(rep)}
    if rep.converged:
        report["energy"] = serialize.complex_pair(
            coordinate.energy_xxx(rep.roots, float(p.get("J", 1.0))))
    _emit(report, cfg)
    return EXIT_OK if rep.converged else EXIT_NOCONV


def cmd_bae_residual(cfg):
    p = cfg.params
    roots = _parse_roots(p["roots"])
    res = bae.bae_residual_xxx(roots, int(p["L"]))
    adm, reasons = bae.admissibility(roots)
    _emit({"config": cfg.report_dict(), "residual": res,
           "admissible": adm, "reasons": reasons}, cfg)
    return EXIT_OK


def cmd_bae_two_magnon(cfg):
    p = cfg.params
    L = int(p["L"])
    sols = bae.classify_two_magnon(L)
    rows = []
    for rs, kind in sols:
        rows.append({"kind": kind, "roots": serialize.complex_list(rs.values),
                     "energy": serialize.complex_pair(coordinate.energy_xxx(rs)),
                     "residual": bae.bae_residual_xxx(rs.values, L)})
    _emit({"config": cfg.report_dict(), "count": len(rows),
           "reference_level_count": bae.two_magnon_reference_count(L),
           "solutions": rows}, cfg)
    return EXIT_OK


def cmd_vector_build(cfg):
    p = cfg.params
    roots = _parse_roots(p["roots"])
    v = coordinate.offshell_vector(roots, int(p["L"]))
    _emit({"config": cfg.report_dict(), "vector": serialize.complex_list(v)}, cfg)
    return EXIT_OK


def cmd_vector_verify(cfg):
    p = cfg.params
    L = int(p["L"])
    roots = _parse_roots(p["roots"])
    N = len(roots)
    v = coordinate.offshell_vector(roots, L)
    H = ed.build_xxx_hamiltonian(L, 1.0, N).matrix
    E = coordinate.energy_xxx(roots)
    h_res = float(np.linalg.norm(H @ v - complex(E) * v))
    hw_res = coordinate.highest_weight_residual(v, L, N)
    bres = bae.bae_residual_xxx(roots, L)
    P = coordinate.momentum_xxx(roots)
    shift = ed.shift_sector_matrix(ed.build_sector_basis(L, N))
    mom_res = float(np.linalg.norm(shift @ v - np.exp(1j * complex(P)) * v))
    tol = float(p.get("tol", 1e-8))
    report = {"config": cfg.report_dict(), "bae_residual": bres,
              "eigenvector_residual": h_res, "hw_residual": hw_res,
              "momentum_residual": mom_res,
              "energy": serialize.complex_pair(E)}
    _emit(report, cfg)
    if bres < 1e-10 and (h_res > tol or hw_res > tol or mom_res > tol):
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_thermo_density(cfg):
    p = cfg.params
    q = float("inf") if str(p.get("q", "inf")) in ("inf", "Infinity") else float(p["q"])
    rd = thermo.solve_root_density(q, int(p.get("n_nodes", 128)))
    _emit({"config": cfg.report_dict(), "D": thermo.density_D(rd),
           "density": serialize.root_density_to_dict(rd)}, cfg)
    return EXIT_OK


def cmd_thermo_gs_energy(cfg):
    p = cfg.params
    q = float("inf") if str(p.get("q", "inf")) in ("inf", "Infinity") else float(p["q"])
    rd = thermo.solve_root_density(q, int(p.get("n_nodes", 128)))
    e = thermo.gs_energy_density(rd, float(p.get("J", 1.0)))
    report = {"config": cfg.report_dict(), "energy_per_site": e,
              "minus_ln2": -float(np.log(2)), "deviation": abs(e + np.log(2))}
    _emit(report, cfg)
    return EXIT_OK


def cmd_thermo_condensation(cfg):
    p = cfg.params
    Ls = list(range(int(p.get("lmin", 8)), int(p.get("lmax", 16)) + 1, 2))
    rows = thermo.condensation_check(Ls, lambda lam: -0.5 / (lam ** 2 + 0.25))
    _emit({"config": cfg.report_dict(), "rows": rows}, cfg,
          [("condensation.csv", serialize.condensation_csv(rows))])
    return EXIT_OK


def cmd_vertex_ybe(cfg):
    p = cfg.params
    trials = int(p.get("trials", 100))
    rng = np.random.default_rng(cfg.seed)
    draws = [(rng.uniform(-2, 2, 3) + 1j * rng.uniform(-2, 2, 3),
              0.3 if i % 2 == 0 else 0.7 + 0.2j) for i in range(trials)]

    def one(i):
        (lam, mu, nu), eta = draws[i]
        return sixvertex.ybe_residual(lam, mu, nu, eta)

    residuals = _run_trials(one, trials)
    worst = max(residuals) if residuals else 0.0
    _emit({"config": cfg.report_dict(), "trials": trials, "max_residual": worst}, cfg)
    return EXIT_OK if worst < 1e-12 else EXIT_INVARIANT


def cmd_vertex_transfer(cfg):
    p = cfg.params
    L = int(p["L"])
    w = sixvertex.VertexWeights.from_parameters(
        complex(p.get("rho", 1.0)), 0.0, complex(p["eta"]))
    t = sixvertex.transfer(complex(p.get("lambda", 0.0)), L, w)
    _emit({"config": cfg.report_dict(),
           "matrix": serialize.matrix_to_dict(t.matrix)}, cfg)
    return EXIT_OK


def cmd_vertex_partition(cfg):
    p = cfg.params
    L, M = int(p["L"]), int(p["M"])
    a, b, c = (p.get("a", 1), p.get("b", 1), p.get("c", 1))
    ints = all(float(x) == int(float(x)) for x in (a, b, c))
    if ints:
        a, b, c = int(float(a)), int(float(b)), int(float(c))
    else:
        a, b, c = float(a), float(b), float(c)
    z = sixvertex.partition_function(L, M, a, b, c)
    report = {"config": cfg.report_dict(), "Z": serialize.complex_pair(z)}
    status = EXIT_OK
    if L * M <= 12:
        ze = sixvertex.enumerate_partition(L, M, a, b, c)
        report["Z_enumeration"] = serialize.complex_pair(complex(ze))
        if abs(z - complex(ze)) > 1e-8 * max(1.0, abs(z)):
            status = EXIT_INVARIANT
    _emit(report, cfg)
    return status


def cmd_vertex_ice_entropy(cfg):
    p = cfg.params
    table, s_inf = sixvertex.ice_entropy(int(p.get("lmax", 12)))
    report = {"config": cfg.report_dict(),
              "table": [{"L": L, "s": s} for L, s in table],
              "extrapolated": s_inf,
              "exact_2d": float(1.5 * np.log(4 / 3))}
    _emit(report, cfg, [("entropy.csv", serialize.entropy_csv(table))])
    return EXIT_OK


def cmd_vertex_hamiltonian_link(cfg):
    p = cfg.params
    op, dev = sixvertex.hamiltonian_from_transfer(
        int(p.get("L", 4)), float(p.get("eta", 0.3)), float(p.get("rho", 1.0)),
        float(p.get("J", 1.0)), float(p.get("step", 1e-5)))
    _emit({"config": cfg.report_dict(), "max_deviation": dev}, cfg)
    return EXIT_OK if dev < float(p.get("tol", 1e-6)) else EXIT_INVARIANT


def cmd_aba_slavnov(cfg):
    p = cfg.params
    L = int(p.get("L", 8))
    N = int(p.get("N", 2))
    gamma = float(p.get("gamma", 0.6))
    trials = int(p.get("trials", 5))
    eta = 1j * gamma
    mu = aba.onshell_roots(L, N, gamma)
    rng = np.random.default_rng(cfg.seed)
    reports = []
    worst = 0.0
    for _ in range(trials):
        la = mu + rng.normal(size=N) * 0.2 + 1j * rng.normal(size=N) * 0.2
        sv = aba.slavnov_ratio(mu, la, L, eta)
        bf = aba.pairing_ratio_bruteforce(mu, la, L, eta)
        rep = serialize.pairing_report(L, N, mu, la, sv, bf)
        worst = max(worst, rep["rel_err"])
        reports.append(rep)
    _emit({"config": cfg.report_dict(), "pairings": reports, "max_rel_err": worst}, cfg)
    return EXIT_OK if worst < 1e-9 else EXIT_INVARIANT


def cmd_aba_verify_action(cfg):
    p = cfg.params
    L = int(p.get("L", 6))
    N = int(p.get("N", 2))
    trials = int(p.get("trials", 3))
    eta = complex(p.get("eta", 0.4 + 0.1j))
    rng = np.random.default_rng(cfg.seed)
    worst = 0.0
    for _ in range(trials):
        params = rng.normal(size=N + 1) * 0.5 + 1j * rng.normal(size=N + 1) * 0.3
        worst = max(worst, aba.offshell_action_residual(params, 0, L, eta))
    _emit({"config": cfg.report_dict(), "max_residual": worst}, cfg)
    return EXIT_OK if worst < 1e-10 else EXIT_INVARIANT


def cmd_hubbard_ed(cfg):
    p = cfg.params
    op = hubbard.build_hubbard_hamiltonian(
        int(p["L"]), float(p["u"]), (int(p["N"]), int(p["M"])))
    spec = ed.diagonalize(op)
    _emit({"config": cfg.report_dict(),
           "eigenvalues": list(map(float, spec.eigenvalues))}, cfg,
          [("spectrum.csv", serialize.spectrum_to_csv(spec))])
    return EXIT_OK


def cmd_hubbard_liebwu(cfg):
    p = cfg.params
    roots, res, ok = hubbard.solve_liebwu(
        int(p["L"]), int(p["N"]), int(p["M"]), float(p["u"]),
        _parse_qnums(p["qnums"]), _parse_qnums(p.get("spin_qnums", "")) or ())
    E, P = hubbard.energy_momentum(roots)
    report = {"config": cfg.report_dict(),
              "roots": serialize.nested_roots_to_dict(roots),
              "residual": res, "converged": ok,
              "E": float(np.real(E)), "P": P}
    _emit(report, cfg)
    return EXIT_OK if ok else EXIT_NOCONV


def cmd_hubbard_verify(cfg):
    p = cfg.params
    L, N, M = int(p["L"]), int(p["N"]), int(p["M"])
    u = float(p["u"])
    roots, res, ok = hubbard.solve_liebwu(
        L, N, M, u, _parse_qnums(p["qnums"]), _parse_qnums(p.get("spin_qnums", "")) or ())
    if not ok:
        _emit({"config": cfg.report_dict(), "converged": False, "residual": res}, cfg)
        return EXIT_NOCONV
    basis = hubbard.FermionBasis(L, N, M)
    H = hubbard.build_hubbard_hamiltonian(L, u, basis).matrix
    v = hubbard.assemble_state(roots, basis)
    E, P = hubbard.energy_momentum(roots)
    h_res = float(np.linalg.norm(H @ v - np.real(E) * v))
    tol = float(p.get("tol", 1e-8))
    report = {"config": cfg.report_dict(), "converged": True,
              "roots": serialize.nested_roots_to_dict(roots),
              "liebwu_residual": hubbard.liebwu_residual(roots),
              "eigenvector_residual": h_res, "E": float(np.real(E)), "P": P}
    _emit(report, cfg)
    return EXIT_OK if h_res < tol else EXIT_INVARIANT


COMMANDS = {
    "ed/spectrum": cmd_ed_spectrum,
    "bae/solve": cmd_bae_solve,
    "bae/residual": cmd_bae_residual,
    "bae/two-magnon": cmd_bae_two_magnon,
    "bethe-vector/build": cmd_vector_build,
    "bethe-vector/verify": cmd_vector_verify,
    "thermo/density": cmd_thermo_density,
    "thermo/gs-energy": cmd_thermo_gs_energy,
    "thermo/condensation": cmd_thermo_condensation,
    "vertex/ybe": cmd_vertex_ybe,
    "vertex/transfer": cmd_vertex_transfer,
    "vertex/partition": cmd_vertex_partition,
    "vertex/ice-entropy": cmd_vertex_ice_entropy,
    "vertex/hamiltonian-link": cmd_vertex_hamiltonian_link,
    "aba/slavnov": cmd_aba_slavnov,
    "aba/verify-action": cmd_aba_verify_action,
    "hubbard/ed": cmd_hubbard_ed,
    "hubbard/liebwu": cmd_hubbard_liebwu,
    "hubbard/verify": cmd_hubbard_verify,
    "verify/ybe": cmd_vertex_ybe,
}

_GROUP_HELP = {
    "ed": ["spectrum"],
    "bae": ["solve", "residual", "two-magnon"],
    "bethe-vector": ["build", "verify"],
    "thermo": ["density", "gs-energy", "condensation"],
    "vertex": ["ybe", "transfer", "partition", "ice-entropy", "hamiltonian-link"],
    "aba": ["slavnov", "verify-action"],
    "hubbard": ["ed", "liebwu", "verify"],
    "verify": ["ybe"],
}

_KNOWN_FLAGS = [
    "L", "N", "M", "J", "u", "delta", "gamma", "eta", "rho", "q", "a", "b", "c",
    "k", "qnums", "spin_qnums", "roots", "sector", "trials", "lmin", "lmax",
    "n_nodes", "step", "tol", "lambda", "model",
]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bethelab",
        description="Bethe Ansatz laboratory: solvers and cross-checks "
                    "for integrable chains and vertex models.")
    sub = parser.add_subparsers(dest="group", metavar="GROUP")
    for group, cmds in _GROUP_HELP.items():
        gp = sub.add_parser(group, help=f"subcommands: {', '.join(cmds)}")
        gsub = gp.add_subparsers(dest="command", metavar="COMMAND")
        for cmd in cmds:
            cp = gsub.add_parser(cmd)
            cp.add_argument("--json", help="config file overriding the flags")
            cp.add_argument("--out", help="artifact directory")
            cp.add_argument("--seed", type=int, default=0)
            for flag in _KNOWN_FLAGS:
                cp.add_argument(f"--{flag.replace('_', '-')}", dest=flag)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "group", None) or not getattr(args, "command", None):
        parser.print_help()
        return EXIT_CONFIG
    key = f"{args.group}/{args.command}"
    if key not in COMMANDS:
        sys.stderr.write(f"unknown subcommand {key}\n")
        return EXIT_CONFIG
    try:
        if args.json:
            cfg = ExperimentConfig.loads(Path(args.json).read_text())
            if args.out:
                cfg.out = args.out
        else:
            params = {k: v for k, v in vars(args).items()
                      if k in _KNOWN_FLAGS and v is not None}
            cfg = ExperimentConfig(key, params, args.seed, args.out)
        if cfg.command != key:
            raise ConfigError(
                f"config command {cfg.command!r} does not match {key!r}")
        return COMMANDS[key](cfg)
    except (ConfigError, KeyError, ValueError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except NonConvergence as exc:
        sys.stderr.write(f"solver did not converge: {exc}\n")
        return EXIT_NOCONV
    except InvariantViolation as exc:
        sys.stderr.write(f"invariant violation: {exc}\n")
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())

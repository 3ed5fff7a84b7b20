"""Command-line front end: reproducible experiments over the library modules.

Groups and subcommands, one entry each in the `COMMANDS` table:

    ed spectrum                     sector or full spectra of XXX/XXZ chains
    bae solve|residual|two-magnon   Bethe-equation work for XXX chains
    bethe-vector build|verify       coordinate Bethe vectors and their checks
    thermo density|gs-energy|condensation
    vertex ybe|transfer|partition|ice-entropy|hamiltonian-link
    aba slavnov|verify-action
    hubbard ed|liebwu|verify
    verify ybe                      alias of `vertex ybe`

A subcommand takes the flags its table entry names and no others
(`bethelab GROUP COMMAND --help` lists each with its type and its default or
"required"), plus `--json FILE` (a config, the serialized form of the run,
which then alone decides it: only `--out` may accompany it), `--out DIR`
(artifact directory; default prints to stdout) and `--seed`.

A command is a function of its typed parameters `p`, the run's seed among
them, that returns a `Result`: report, extra files for `--out`, exit status.
`main` builds the run's config, the plain dict {command, params, seed} that
every report echoes (not `out`, so a run's bytes do not depend on where it is
written), from the flags or from --json, and writes every report;
`serialize.dumps` alone converts it to JSON, complex values and arrays
included.  `aba slavnov` without convergence writes no report.  A subcommand's
parser is built once per process on first use.  The table gives each
parameter's type and default once; each given value or default is converted
once, and reports echo the values as given.  A parameter the subcommand (or
its `--model`) does not read, in flags or in --json, a missing required one, a
--json value that is a list, an object, true or false, a value its type does
not take (the error names the flag), a --json `params` that is not an object
or `out` that is not a string, and any flag but `--out` next to `--json` are
config errors.  Reports are canonical JSON: identical config and seed give
byte-identical bytes.  Exit codes: 0 success, 2 config error (one `config
error:` line on stderr), 3 solver non-convergence, 4 invariant violation (a
failed check writes its report and nothing on stderr).  A report that holds a
nan or an infinity is not written: the run is a config error when a parameter
reads as one, else an invariant violation with one `invariant violation:` line
on stderr.
"""

import argparse
import functools
import json
import re
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import aba, bae, coordinate, ed, hubbard, serialize, sixvertex, thermo

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NOCONV = 3
EXIT_INVARIANT = 4


class ConfigError(Exception):
    pass


class Result(NamedTuple):
    """What a command returns: its report (None: nothing is written), the
    extra files (name, text) written next to it under --out, and the exit
    status."""
    report: dict
    files: tuple = ()
    status: int = EXIT_OK


def _emit(config, out, report, files, status):
    """Write `report`, the run's config embedded, to `out` or else stdout;
    return the exit status (a non-finite report: see the module docstring)."""
    try:
        text = serialize.dumps({"config": config, **report}) + "\n"
    except ValueError:
        for name, value in config["params"].items():
            if _non_finite(value):
                raise ConfigError(f"non-finite {_flag(name)} = {value}") from None
        sys.stderr.write("invariant violation: non-finite value in the report\n")
        return EXIT_INVARIANT
    if out:
        Path(out).mkdir(parents=True, exist_ok=True)
        for name, content in [("report.json", text), *files]:
            (Path(out) / name).write_text(content)
    else:
        sys.stdout.write(text)
    return status


def _non_finite(value):
    """Whether a parameter reads as a number with a nan or infinite part."""
    try:
        return not np.isfinite(complex(value))
    except (TypeError, ValueError):
        return False


def _integer(value):
    """A --json number must be integral: int() would run 8.7 as 8."""
    if isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"takes an integer, got {value}")
    return int(value)


def _count(value):
    n = _integer(value)  # fewer than one trial would pass a check that ran nothing
    if n < 1:
        raise ConfigError(f"must be >= 1, got {n}")
    return n


def _roots(text):
    roots = [[float(t) for t in part.split(",")] for part in str(text).split(";") if part.strip()]
    if any(len(z) > 2 for z in roots):
        raise ValueError("a root takes re[,im]")
    return np.array([z[0] + 1j * (z[1] if len(z) > 1 else 0.0) for z in roots], complex)


# The types of the COMMANDS specs: what a value must be, and its conversion.
TYPES = {
    "int": ("an integer", _integer),
    "float": ("a real number", float),
    "complex": ("a complex number", complex),
    "count": ("an integer >= 1", _count),
    "ints": ("integers a,b,...",
             lambda v: tuple(int(t) for t in str(v).replace(";", ",").split(",") if t.strip())),
    "roots": ("roots re[,im];re[,im];...", _roots),
    "sector": ("'full' or an integer", lambda v: None if v == "full" else _integer(v)),
    "str": ("a string", str),
}


def _convert(name, kind, value, default=None):
    """`value` of parameter `name`, or else its `default` (`none` stays None),
    as type `kind`; a config error names the flag."""
    if value is None:
        if default == "none":
            return None
        value = default
    noun, convert = TYPES[kind]
    try:
        if isinstance(value, bool):  # a --json true or false: int() takes it as 1 or 0
            raise TypeError
        return convert(value)
    except ConfigError as exc:
        raise ConfigError(f"{_flag(name)} {exc}") from None
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{_flag(name)} takes {noun}, got {value!r}") from None


# ---------------------------------------------------------------- commands
# Each takes its typed parameters `p` (from `_check_params`, defaults filled
# in, and the run's `seed`) and returns its Result; `main` writes it.


def cmd_ed_spectrum(p):
    # xxz unless xxx: _check_params admits only the models in COMMANDS
    op = (ed.build_xxx_hamiltonian(p["L"], p["J"], p["sector"]) if p["model"] == "xxx"
          else ed.build_xxz_hamiltonian(p["L"], p["delta"], p["sector"]))
    return _spectrum(ed.diagonalize(op, p["k"]))


def _spectrum(spec):
    """The report and CSV of a spectrum (ed spectrum, hubbard ed)."""
    csv = serialize.table_csv(["index", "eigenvalue"], enumerate(spec.eigenvalues))
    return Result({"eigenvalues": spec.eigenvalues}, [("spectrum.csv", csv)])


def cmd_bae_solve(p):
    rep = bae.solve_logbae(p["L"], p["N"], p["qnums"])
    report = {"solve": serialize.solve_report_to_dict(rep)}
    if rep.converged:  # energy_xxx is the float 0.0 at N = 0
        report["energy"] = complex(coordinate.energy_xxx(rep.roots, p["J"]))
    return Result(report, status=EXIT_OK if rep.converged else EXIT_NOCONV)


def cmd_bae_residual(p):
    adm, reasons = bae.admissibility(p["roots"])
    return Result({"residual": bae.bae_residual_xxx(p["roots"], p["L"]),
                   "admissible": adm, "reasons": reasons})


def cmd_bae_two_magnon(p):
    # classify_two_magnon has screened every solution (admissible, residual
    # <= 1e-10), so energies and residuals are taken once over the stack
    sols = bae.classify_two_magnon(p["L"])
    lam = np.array([rs.values for rs, _ in sols], complex).reshape(-1, 2)
    energies = -0.5 * np.sum(coordinate.XXX.dtheta(1, lam), axis=-1)
    residuals = bae._chain_residuals(coordinate.XXX, lam, p["L"])
    rows = [{"kind": kind, "roots": roots, "energy": e, "residual": r}
            for (_, kind), roots, e, r in zip(sols, lam, energies, residuals)]
    return Result({"count": len(rows), "solutions": rows,
                   "reference_level_count": bae.two_magnon_reference_count(p["L"])})


def cmd_vector_build(p):
    return Result({"vector": coordinate.offshell_vector(p["roots"], p["L"])})


def cmd_vector_verify(p):
    L, roots, N, tol = p["L"], p["roots"], len(p["roots"]), p["tol"]
    v = coordinate.offshell_vector(roots, L)
    H = ed.build_xxx_hamiltonian(L, 1.0, N)
    E = complex(coordinate.energy_xxx(roots))
    h_res = float(np.linalg.norm(H @ v - E * v))
    hw_res = coordinate.highest_weight_residual(v, L, N)
    bres = bae.bae_residual_xxx(roots, L)
    P = coordinate.momentum_xxx(roots)
    shift = ed.shift_sector_matrix(ed.build_sector_basis(L, N))
    mom_res = float(np.linalg.norm(shift @ v - np.exp(1j * complex(P)) * v))
    broken = bres < 1e-10 and (h_res > tol or hw_res > tol or mom_res > tol)
    return Result({"bae_residual": bres, "eigenvector_residual": h_res,
                   "hw_residual": hw_res, "momentum_residual": mom_res, "energy": E},
                  status=EXIT_INVARIANT if broken else EXIT_OK)


def cmd_thermo_density(p):
    rd = thermo.solve_root_density(p["q"], p["n_nodes"])
    return Result({"D": thermo.density_D(rd), "density": serialize.root_density_to_dict(rd)})


def cmd_thermo_gs_energy(p):
    e = thermo.gs_energy_density(thermo.solve_root_density(p["q"], p["n_nodes"]), p["J"])
    return Result({"energy_per_site": e, "minus_ln2": -float(np.log(2)),
                   "deviation": abs(e + np.log(2))})


def cmd_thermo_condensation(p):
    lmin, lmax = p["lmin"], p["lmax"]
    if lmin > lmax:
        # an empty scan would report a check that ran nothing as passed
        raise ConfigError(f"--lmin {lmin} > --lmax {lmax} leaves no chain length")
    rows = thermo.condensation_check(range(lmin, lmax + 1, 2),
                                     lambda lam: -0.5 / (lam ** 2 + 0.25))
    cols = ["L", "sum", "integral", "gap"]
    csv = serialize.table_csv(cols, ([r[c] for c in cols] for r in rows))
    return Result({"rows": rows}, [("condensation.csv", csv)])


def cmd_vertex_ybe(p):
    rng = np.random.default_rng(p["seed"])
    draws = np.array([rng.uniform(-2, 2, 3) + 1j * rng.uniform(-2, 2, 3)
                      for _ in range(p["trials"])]).reshape(-1, 3)
    eta = np.where(np.arange(len(draws)) % 2 == 0, 0.3, 0.7 + 0.2j)
    worst = sixvertex.ybe_residual(*draws.T, eta)
    return Result({"trials": p["trials"], "max_residual": worst},
                  status=EXIT_OK if worst < 1e-12 else EXIT_INVARIANT)


def cmd_vertex_transfer(p):
    w = sixvertex.VertexWeights.from_parameters(p["rho"], 0.0, p["eta"])
    t = sixvertex.transfer(p["lambda"], p["L"], w)
    return Result({"matrix": serialize.matrix_to_dict(t.matrix)})


def cmd_vertex_partition(p):
    L, M, abc = p["L"], p["M"], [p[x] for x in "abc"]
    # integral weights, all three, give an integer Z
    a, b, c = map(int, abc) if all(x.is_integer() for x in abc) else abc
    z = sixvertex.partition_function(L, M, a, b, c)
    report = {"Z": complex(z)}
    status = EXIT_OK
    if L * M <= 12:
        ze = complex(sixvertex.enumerate_partition(L, M, a, b, c))
        report["Z_enumeration"] = ze
        # np.abs: Python's abs of a nan complex raises OverflowError when a
        # prior overflow left errno set
        if np.abs(z - ze) > 1e-8 * max(1.0, np.abs(z)):
            status = EXIT_INVARIANT
    return Result(report, status=status)


def cmd_vertex_ice_entropy(p):
    table, s_inf = sixvertex.ice_entropy(p["lmax"])
    return Result({"table": [{"L": L, "s": s} for L, s in table],
                   "extrapolated": s_inf, "exact_2d": float(1.5 * np.log(4 / 3))},
                  [("entropy.csv", serialize.table_csv(["L", "logLambda_over_L"], table))])


def cmd_vertex_hamiltonian_link(p):
    _, dev = sixvertex.hamiltonian_from_transfer(p["L"], p["eta"], p["rho"])
    return Result({"max_deviation": dev}, status=EXIT_OK if dev < p["tol"] else EXIT_INVARIANT)


def cmd_aba_slavnov(p):
    L, N, eta = p["L"], p["N"], 1j * p["gamma"]
    try:
        mu = aba.onshell_roots(L, N, p["gamma"])
    except RuntimeError as exc:
        sys.stderr.write(f"no convergence: {exc}\n")
        return Result(None, status=EXIT_NOCONV)
    rng = np.random.default_rng(p["seed"])
    reports = []
    for _ in range(p["trials"]):
        la = mu + rng.normal(size=N) * 0.2 + 1j * rng.normal(size=N) * 0.2
        # the brute force first: past its L bound it raises before slavnov_ratio
        # builds arrays of size L
        bf = aba.pairing_ratio_bruteforce(mu, la, L, eta)
        sv = aba.slavnov_ratio(mu, la, L, eta)
        reports.append(serialize.pairing_report(L, N, mu, la, sv, bf))
    worst = float(np.max([rep["rel_err"] for rep in reports]))  # nan propagates
    return Result({"pairings": reports, "max_rel_err": worst},
                  status=EXIT_OK if worst < 1e-9 else EXIT_INVARIANT)


def cmd_aba_verify_action(p):
    N = p["N"]
    rng = np.random.default_rng(p["seed"])
    residuals = []
    for _ in range(p["trials"]):
        params = rng.normal(size=N + 1) * 0.5 + 1j * rng.normal(size=N + 1) * 0.3
        residuals.append(aba.offshell_action_residual(params, 0, p["L"], p["eta"]))
    worst = float(np.max(residuals))  # nan propagates
    return Result({"max_residual": worst}, status=EXIT_OK if worst < 1e-10 else EXIT_INVARIANT)


def cmd_hubbard_ed(p):
    return _spectrum(ed.diagonalize(
        hubbard.build_hubbard_hamiltonian(p["L"], p["u"], (p["N"], p["M"]))))


def _solve_liebwu(p):
    return hubbard.solve_liebwu(p["L"], p["N"], p["M"], p["u"], p["qnums"], p["spin_qnums"])


def cmd_hubbard_liebwu(p):
    roots, res, ok = _solve_liebwu(p)
    E, P = hubbard.energy_momentum(roots)
    return Result({"roots": serialize.nested_roots_to_dict(roots),
                   "residual": res, "converged": ok, "E": float(np.real(E)), "P": P},
                  status=EXIT_OK if ok else EXIT_NOCONV)


def cmd_hubbard_verify(p):
    roots, res, ok = _solve_liebwu(p)
    if not ok:
        return Result({"converged": False, "residual": res}, status=EXIT_NOCONV)
    basis = hubbard.FermionBasis(p["L"], p["N"], p["M"])
    H = hubbard.build_hubbard_hamiltonian(basis.L, p["u"], basis)
    v = hubbard.assemble_state(roots, basis)
    E, P = hubbard.energy_momentum(roots)
    h_res = float(np.linalg.norm(H @ v - np.real(E) * v))
    return Result({"converged": True, "roots": serialize.nested_roots_to_dict(roots),
                   "liebwu_residual": hubbard.liebwu_residual(roots),
                   "eigenvector_residual": h_res, "E": float(np.real(E)), "P": P},
                  status=EXIT_OK if h_res < p["tol"] else EXIT_INVARIANT)


class Command(NamedTuple):
    """A subcommand's function and the parameters it reads: `spec` has a word
    `name:type=default`, or `name:type!` if required, per parameter, `type` a
    TYPES key (the default `none` leaves it None); `models` maps each `--model`
    value (the first is the default) to the spec of those only it reads."""
    run: object
    spec: str
    models: dict = None

    def params(self, model=None):
        """(name, type, default, model) per parameter read under `model`, or
        under any model; the default of a required one is None."""
        models = self.models or {}
        specs = [(None, self.spec)] + [(m, s) for m, s in models.items() if model in (None, m)]
        params = [(*word, only) for only, spec in specs for word in _spec_words(spec)]
        if models:
            params.append(("model", "str", next(iter(models)), None))
        return params


@functools.cache
def _spec_words(spec):
    """(name, type, default) per word of a `Command` spec, parsed once."""
    return tuple(re.fullmatch(r"(\w+):(\w+)(?:=(\S*)|!)", word).groups()
                 for word in spec.split())


_LIEBWU = "L:count! N:int! M:int! u:float! qnums:ints! spin_qnums:ints="
COMMANDS = {
    "ed/spectrum": Command(cmd_ed_spectrum, "L:count! sector:sector=full k:count=none",
                           {"xxx": "J:float=1.0", "xxz": "delta:float!"}),
    "bae/solve": Command(cmd_bae_solve, "L:count! N:int! qnums:ints! J:float=1.0"),
    "bae/residual": Command(cmd_bae_residual, "L:count! roots:roots!"),
    "bae/two-magnon": Command(cmd_bae_two_magnon, "L:count!"),
    "bethe-vector/build": Command(cmd_vector_build, "L:count! roots:roots!"),
    "bethe-vector/verify": Command(cmd_vector_verify, "L:count! roots:roots! tol:float=1e-8"),
    "thermo/density": Command(cmd_thermo_density, "q:float=inf n_nodes:int=128"),
    "thermo/gs-energy": Command(cmd_thermo_gs_energy,
                                "q:float=inf n_nodes:int=128 J:float=1.0"),
    "thermo/condensation": Command(cmd_thermo_condensation, "lmin:count=8 lmax:count=16"),
    "vertex/ybe": Command(cmd_vertex_ybe, "trials:count=100"),
    "vertex/transfer": Command(cmd_vertex_transfer,
                               "L:count! eta:complex! rho:complex=1.0 lambda:complex=0.0"),
    "vertex/partition": Command(cmd_vertex_partition,
                                "L:count! M:count! a:float=1 b:float=1 c:float=1"),
    "vertex/ice-entropy": Command(cmd_vertex_ice_entropy, "lmax:count=12"),
    "vertex/hamiltonian-link": Command(cmd_vertex_hamiltonian_link,
                                       "L:count=4 eta:float=0.3 rho:float=1.0 tol:float=1e-12"),
    "aba/slavnov": Command(cmd_aba_slavnov, "L:count=8 N:count=2 gamma:float=0.6 trials:count=5"),
    "aba/verify-action": Command(cmd_aba_verify_action,
                                 "L:count=6 N:int=2 trials:count=3 eta:complex=0.4+0.1j"),
    "hubbard/ed": Command(cmd_hubbard_ed, "L:count! N:int! M:int! u:float!"),
    "hubbard/liebwu": Command(cmd_hubbard_liebwu, _LIEBWU),
    "hubbard/verify": Command(cmd_hubbard_verify, _LIEBWU + " tol:float=1e-8"),
}
COMMANDS["verify/ybe"] = COMMANDS["vertex/ybe"]


def _flag(name):
    return "--" + name.replace("_", "-")


class _Parser(argparse.ArgumentParser):
    """Parse errors are config errors: one line on stderr, exit 2.  A word
    that starts with '-' and a digit, or '-.' and a digit (-1e-3, -.5,
    -0.3+0.1j), is a value, not a flag: no flag starts that way, and the
    parameter's type rejects a malformed number."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        self.exit(EXIT_CONFIG, f"config error: {self.prog}: {message}\n")


def _listing_parser():
    """Groups and their commands, without per-command flags: for `--help`,
    `<group> --help` and unknown subcommands only."""
    parser = _Parser(prog="bethelab",
                     description="Bethe Ansatz laboratory: solvers and cross-checks "
                                 "for integrable chains and vertex models.  "
                                 "`bethelab GROUP COMMAND --help` lists its flags.")
    groups = {}
    for key in COMMANDS:
        group, command = key.split("/")
        groups.setdefault(group, []).append(command)
    sub = parser.add_subparsers(dest="group", metavar="GROUP")
    for group, commands in groups.items():
        gsub = sub.add_parser(group, help=f"subcommands: {', '.join(commands)}",
                              description=f"`bethelab {group} COMMAND --help` lists "
                                          "the flags of COMMAND."
                              ).add_subparsers(dest="command", metavar="COMMAND")
        for command in commands:
            gsub.add_parser(command, help="")
    return parser


@functools.cache
def _command_parser(key):
    """The parser of one subcommand, with only the flags it reads, each shown
    with its type and its default or "required".  Built once: a parser keeps
    nothing from one parse_args call to the next."""
    cmd = COMMANDS[key]
    parser = _Parser(prog=f"bethelab {key.replace('/', ' ')}")
    parser.add_argument("--json", help="config file deciding the run (no other flag but --out)")
    parser.add_argument("--out", help="artifact directory")
    parser.add_argument("--seed", type=int)
    for name, kind, default, model in cmd.params():
        notes = [f"--model {model} only"] if model else []
        notes += [TYPES[kind][0],
                  "required" if default is None else f"default {default or 'empty'}"]
        parser.add_argument(_flag(name), dest=name, help="; ".join(notes))
    return parser


def _check_params(key, params):
    """The typed parameters of subcommand `key`, each given value or default
    converted once.  Rejects a parameter `key` (under its `--model`) does not
    read, a list or object value, a missing required one and a bad value."""
    cmd = COMMANDS[key]
    model = None
    if cmd.models:
        model = params.get("model", next(iter(cmd.models)))
        if model not in cmd.models:
            raise ConfigError(f"unknown model {model!r}")
        key = f"{key} --model {model}"
    spec = cmd.params(model)
    extra = [n for n in params if n not in {name for name, *_ in spec}]
    if extra:
        raise ConfigError(f"{key} does not take {', '.join(map(_flag, extra))}")
    for n, v in params.items():
        if isinstance(v, (list, dict)):
            raise ConfigError(f"{key} {_flag(n)} takes one value, not a {type(v).__name__}")
    missing = [name for name, _, default, _ in spec
               if default is None and params.get(name) is None]
    if missing:
        raise ConfigError(f"{key} needs {', '.join(map(_flag, missing))}")
    return {name: _convert(name, kind, params.get(name), default)
            for name, kind, default, _ in spec}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    key = "/".join(argv[:2])
    if key not in COMMANDS:
        listing = _listing_parser()
        listing.parse_args(argv)  # help exits 0; an unknown name exits 2
        listing.print_help()
        return EXIT_CONFIG
    args = _command_parser(key).parse_args(argv[2:])
    try:
        given = {k: v for k, v in vars(args).items()
                 if v is not None and k not in ("json", "out")}
        if args.json:
            if given:
                raise ConfigError(f"{', '.join(map(_flag, given))} next to --json: "
                                  "the config alone decides the run")
            d = json.loads(Path(args.json).read_text())
            try:
                config = {"command": d["command"], "params": d.get("params", {}),
                          "seed": _convert("seed", "int", d.get("seed"), "0")}
            except (TypeError, AttributeError) as exc:
                raise ConfigError(f"malformed config: {exc}") from None
            if not isinstance(config["params"], dict):
                raise ConfigError(f"config params takes an object, got {config['params']!r}")
            if not isinstance(d.get("out"), (str, type(None))):
                raise ConfigError(f"config out takes a directory name, got {d['out']!r}")
            out = args.out or d.get("out")
        else:
            config = {"command": key, "seed": given.pop("seed", 0), "params": given}
            out = args.out
        if config["command"] != key:
            raise ConfigError(f"config command {config['command']!r} does not match {key!r}")
        p = _check_params(key, config["params"])
        with np.errstate(all="ignore"):  # a non-finite input ends in one line
            report, files, status = COMMANDS[key].run({**p, "seed": config["seed"]})
            return status if report is None else _emit(config, out, report, files, status)
    except (ConfigError, KeyError, ValueError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except MemoryError as exc:
        sys.stderr.write(f"config error: run too large for memory: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

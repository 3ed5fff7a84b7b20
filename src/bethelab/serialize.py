"""Canonical JSON/CSV serialization shared by the library and the CLI.

JSON numbers are printed with 17 significant digits and keys are sorted, so a
report built from the same inputs is byte-identical run to run.  Complex
numbers appear as [re, im] pairs throughout.
"""

import json

import numpy as np
import scipy.sparse as sp


def _format_float(x):
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError("non-finite value in canonical JSON")
    return repr(0.0) if x == 0 else f"{x:.17g}"


def dumps(obj, indent=0):
    """Canonical JSON text: sorted keys, fixed float format, complex -> [re, im]."""
    pad = " " * indent
    if isinstance(obj, dict):
        items = sorted(obj.items())
        if not items:
            return "{}"
        body = ",\n".join(f'{pad}  {json.dumps(str(k))}: {dumps(v, indent + 2)}'
                          for k, v in items)
        return "{\n" + body + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        return "[" + ", ".join(dumps(v, indent) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        return dumps(obj.tolist(), indent)
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        return dumps([obj.real, obj.imag], indent)
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def loads(text):
    return json.loads(text)


def complex_pair(z):
    z = complex(z)
    return [z.real, z.imag]


def complex_list(values):
    return [complex_pair(z) for z in np.asarray(values).ravel()]


def parse_complex_list(pairs):
    return np.array([p[0] + 1j * p[1] for p in pairs], complex)


def matrix_to_dict(op):
    """Matrix as {dim, format, entries: [[row, col, re, im], ...]} (nonzeros)."""
    m = op.matrix if hasattr(op, "matrix") else op
    if sp.issparse(m):
        coo = m.tocoo()
        fmt = "coo"
        rows, cols, vals = coo.row, coo.col, coo.data
    else:
        m = np.asarray(m)
        fmt = "dense" if m.shape[0] < 4096 else "coo"
        rows, cols = np.nonzero(m)
        vals = m[rows, cols]
    entries = [[int(r), int(c), complex(v).real, complex(v).imag]
               for r, c, v in zip(rows, cols, vals)]
    return {"dim": int(m.shape[0]), "format": fmt, "entries": entries}


def matrix_from_dict(d):
    m = np.zeros((d["dim"], d["dim"]), complex)
    for r, c, re, im in d["entries"]:
        m[r, c] = re + 1j * im
    return m


def spectrum_to_csv(spectrum):
    lines = ["index,eigenvalue"]
    for i, w in enumerate(spectrum.eigenvalues):
        lines.append(f"{i},{w:.17g}")
    return "\n".join(lines) + "\n"


def rapidity_set_to_dict(rs):
    return {
        "model": rs.model,
        "L": rs.L,
        "N": rs.N,
        "values": complex_list(rs.values),
        "params": {k: (complex_pair(v) if isinstance(v, complex) else v)
                   for k, v in rs.params.items()},
    }


def rapidity_set_from_dict(d):
    from .coordinate import RapiditySet
    return RapiditySet(d["model"], d["L"], parse_complex_list(d["values"]),
                       dict(d.get("params", {})))


def solve_report_to_dict(rep):
    return {
        "model": rep.roots.model,
        "L": rep.roots.L,
        "N": rep.roots.N,
        "params": rep.params,
        "qnums": list(rep.qnums),
        "roots": complex_list(rep.roots.values),
        "residual": rep.residual,
        "iterations": rep.iterations,
        "converged": rep.converged,
    }


def root_density_to_dict(rd):
    return {"q": (None if np.isinf(rd.q) else rd.q),
            "nodes": list(map(float, rd.nodes)),
            "weights": list(map(float, rd.weights)),
            "values": list(map(float, rd.values))}


def condensation_csv(rows):
    lines = ["L,sum,integral,gap"]
    for r in rows:
        lines.append(f"{r['L']},{r['sum']:.17g},{r['integral']:.17g},{r['gap']:.17g}")
    return "\n".join(lines) + "\n"


def entropy_csv(table):
    lines = ["L,logLambda_over_L"]
    for L, val in table:
        lines.append(f"{L},{val:.17g}")
    return "\n".join(lines) + "\n"


def nested_roots_to_dict(roots):
    return {"L": roots.L, "N": roots.N, "M": roots.M, "u": roots.u,
            "k": complex_list(roots.k), "lambda": complex_list(roots.lam)}


def nested_roots_from_dict(d):
    from .hubbard import NestedRoots
    return NestedRoots(d["L"], parse_complex_list(d["k"]),
                       parse_complex_list(d["lambda"]), d["u"])


def weights_to_dict(w):
    d = {"a": complex_pair(w.a), "b": complex_pair(w.b), "c": complex_pair(w.c)}
    if w.parameterized:
        d.update({"rho": complex_pair(w.rho), "lambda": complex_pair(w.lam),
                  "eta": complex_pair(w.eta)})
        if w.xi is not None:
            d["xi"] = complex_list(w.xi)
    return d


def pairing_report(L, N, mu, lam, slavnov_value, brute_value):
    rel = abs(slavnov_value - brute_value) / max(abs(brute_value), 1e-300)
    return {"L": L, "N": N, "mu": complex_list(mu), "lambda": complex_list(lam),
            "slavnov": complex_pair(slavnov_value),
            "bruteforce": complex_pair(brute_value), "rel_err": rel}

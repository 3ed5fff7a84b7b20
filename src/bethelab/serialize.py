"""Canonical JSON/CSV serialization shared by the library and the CLI.

JSON numbers are printed with 17 significant digits and keys are sorted, so a
report built from the same inputs is byte-identical run to run.  Complex
numbers appear as [re, im] pairs and arrays as lists throughout; `dumps` is
the one conversion, so callers pass such values as they are.
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


def matrix_to_dict(op):
    """Matrix as {dim, format, entries: [[row, col, re, im], ...]} (nonzeros in
    row-major order); format is "coo" for sparse storage, else "dense"."""
    m = op.matrix if hasattr(op, "matrix") else op
    if sp.issparse(m):
        coo = m.tocsr().sorted_indices().tocoo()
        fmt = "coo"
        rows, cols, vals = coo.row, coo.col, coo.data
    else:
        m = np.asarray(m)
        fmt = "dense"
        rows, cols = np.nonzero(m)
        vals = m[rows, cols]
    entries = [[r, c, v.real, v.imag] for r, c, v in zip(rows, cols, vals)]
    return {"dim": m.shape[0], "format": fmt, "entries": entries}


def table_csv(header, rows):
    """CSV text: the column names, then one line per row of numbers, each
    with 17 significant digits (an integer prints as itself)."""
    lines = [",".join(header), *(",".join(f"{x:.17g}" for x in row) for row in rows)]
    return "\n".join(lines) + "\n"


def solve_report_to_dict(rep):
    return {
        "model": rep.roots.model,
        "L": rep.roots.L,
        "N": rep.roots.N,
        "params": rep.params,
        "qnums": rep.qnums,
        "roots": rep.roots.values,
        "residual": rep.residual,
        "iterations": rep.iterations,
        "converged": rep.converged,
    }


def root_density_to_dict(rd):
    return {"q": (None if np.isinf(rd.q) else rd.q),
            "nodes": rd.nodes, "weights": rd.weights, "values": rd.values}


def nested_roots_to_dict(roots):
    return {"L": roots.L, "N": roots.N, "M": roots.M, "u": roots.u,
            "k": roots.k, "lambda": roots.lam}


def pairing_report(L, N, mu, lam, slavnov_value, brute_value):
    rel = abs(slavnov_value - brute_value) / max(abs(brute_value), 1e-300)
    return {"L": L, "N": N, "mu": mu, "lambda": lam,
            "slavnov": slavnov_value, "bruteforce": brute_value, "rel_err": rel}

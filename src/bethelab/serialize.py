"""Canonical JSON/CSV serialization shared by the library and the CLI.

JSON numbers are printed with 17 significant digits and keys are sorted, so a
report built from the same inputs is byte-identical run to run.  Complex
numbers appear as [re, im] pairs and arrays as lists throughout; `dumps` is
the one conversion, so callers pass such values as they are.  It is one typed
pass: each value's writer is looked up by its exact type, and a float or
complex array is checked for finiteness once and formatted in one sweep.
"""

import json
from math import isfinite

import numpy as np
import scipy.sparse as sp

_string = json.encoder.encode_basestring_ascii  # what json.dumps(str) returns


def _float(x, indent=None):
    x = float(x)
    if not isfinite(x):
        raise ValueError("non-finite value in canonical JSON")
    return "0.0" if x == 0 else f"{x:.17g}"


def _dict(obj, indent):
    if not obj:
        return "{}"
    pad = " " * indent
    body = ",\n".join([f"{pad}  {_string(str(k))}: {dumps(v, indent + 2)}"
                       for k, v in sorted(obj.items())])
    return "{\n" + body + "\n" + pad + "}"


def _list(obj, indent):
    return "[" + ", ".join([dumps(v, indent) for v in obj]) + "]"


def _array(a, indent):
    """A float or complex array of at most double precision (its tolist
    gives Python numbers) is checked once and formatted flat, a complex entry
    as its [re, im] (a last axis of two), then nested by shape; any other, or
    an empty one, goes through its list."""
    if a.dtype.char not in "efdFD" or a.size == 0:
        return dumps(a.tolist(), indent)
    if not np.isfinite(a).all():
        raise ValueError("non-finite value in canonical JSON")
    flat, shape = a.ravel().tolist(), a.shape
    if a.dtype.kind == "c":
        flat, shape = [x for z in flat for x in (z.real, z.imag)], shape + (2,)
    items = ["0.0" if x == 0 else f"{x:.17g}" for x in flat]
    for n in reversed(shape[1:]):
        items = ["[" + ", ".join(items[i:i + n]) + "]" for i in range(0, len(items), n)]
    return "[" + ", ".join(items) + "]" if shape else items[0]


# The writer of each kind of value, in the order `_writer` tries them.
_KINDS = [
    ((dict,), _dict), ((list, tuple), _list), ((np.ndarray,), _array),
    ((bool, np.bool_), lambda x, indent: "true" if x else "false"),
    ((int, np.integer), lambda x, indent: str(int(x))),
    ((complex, np.complexfloating), lambda z, indent: f"[{_float(z.real)}, {_float(z.imag)}]"),
    ((float, np.floating), _float), ((str,), lambda s, indent: _string(s)),
    ((type(None),), lambda x, indent: "null"),
]
# The writer by exact type, for the types reports hold; `_writer` finds that
# of any other type (a subclass, another numpy scalar).
_WRITERS = {kind: write for kinds, write in _KINDS for kind in kinds}
_WRITERS.update({np.int64: _WRITERS[int], np.float64: _float,
                 np.complex128: _WRITERS[complex]})


def _writer(kind):
    for kinds, write in _KINDS:
        if issubclass(kind, kinds):
            return write
    raise TypeError(f"cannot serialize {kind!r}")


def dumps(obj, indent=0):
    """Canonical JSON text: sorted keys, fixed float format, complex -> [re, im]."""
    kind = type(obj)
    return (_WRITERS.get(kind) or _writer(kind))(obj, indent)


def matrix_to_dict(op):
    """Matrix as {dim, format, entries: [[row, col, re, im], ...]} (nonzeros in
    row-major order); format is "coo" for sparse storage, else "dense"."""
    m = op.matrix if hasattr(op, "matrix") else op
    coo = sp.csr_matrix(m).sorted_indices().tocoo()
    entries = [[r, c, v.real, v.imag] for r, c, v in zip(coo.row, coo.col, coo.data)]
    return {"dim": coo.shape[0], "format": "coo" if sp.issparse(m) else "dense",
            "entries": entries}


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

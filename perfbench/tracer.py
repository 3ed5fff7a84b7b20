"""Layer tracing for the traced benchmark run, applied from outside bethelab.

`Tracer.install` wraps every public function of each bethelab module and
rebinds every module-level name that refers to it, in all ten modules.  A call
that one module makes into another (aba -> sixvertex.monodromy, sixvertex ->
ed, coordinate -> basis) therefore goes through the wrapper and the spans
nest.  A span is recorded only where a call enters a layer from outside it;
calls inside a layer run straight through, so `<layer>.self_s` is the time a
layer spends in its own code.  Class constructors and methods are not wrapped:
their time counts to the layer that calls them.

Work counts are computed from the inputs and outputs of the wrapped calls
(`COUNTERS`), so they repeat exactly for the same inputs.
"""

import inspect
import math
import time
from collections import defaultdict

import numpy as np
import scipy.sparse as sp

LAYERS = ("basis", "ed", "coordinate", "bae", "thermo", "sixvertex", "aba",
          "hubbard", "serialize", "cli")
ROOT_LAYER = "bench"  # the benchmark's own code: result loop and oracle arithmetic


def _matrix_bytes(m):
    if sp.issparse(m):
        m = m.tocsr()
        return m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
    return np.asarray(m).nbytes


def _mb(nbytes):
    return nbytes / 1e6


def _count_states(c, a, out):
    c["basis.states"] += out.dim


def _count_operator(c, a, out):
    c["ed.operator_mb"] += _mb(_matrix_bytes(out.matrix))


def _count_dense_operator(c, a, out):
    c["ed.operator_mb"] += _mb(out.nbytes)


def _count_diagonalize(c, a, out):
    op, k = a["op"], a["k"]
    m = getattr(op, "matrix", op)
    dim = m.shape[0]
    if sp.issparse(m) and k is not None and k < dim - 1:
        c["ed.sparse_solves"] += 1
    else:
        c["ed.dense_solves"] += 1
    if sp.issparse(m):  # the Hermiticity check materializes the dense matrix
        c["ed.operator_mb"] += _mb(dim * dim * m.dtype.itemsize)


def _count_vector_terms(c, a, out):
    n = len(np.atleast_1d(getattr(a["roots"], "values", a["roots"])))
    c["coordinate.perm_terms"] += math.factorial(n) * math.comb(a["L"], n)


def _count_wavefunction_terms(c, a, out):
    n = len(np.atleast_1d(getattr(a["roots"], "values", a["roots"])))
    c["coordinate.perm_terms"] += math.factorial(n)


def _count_newton(c, a, out):
    c["bae.newton_iters"] += out.iterations


def _count_unconverged(c, a, out):
    c["bae.unconverged"] += 0 if out.converged else 1


def _count_two_magnon(c, a, out):
    # reference level count binom(L, 2) - L, less the singular pair at +-i/2
    c["bae.two_magnon_found"] += len(out)
    c["bae.two_magnon_reference"] += math.comb(a["L"], 2) - a["L"] - 1


def _count_density(c, a, out):
    if not math.isinf(a["q"]):
        c["thermo.kernel_entries"] += a["n_nodes"] ** 2


def _count_interpolate(c, a, out):
    c["thermo.kernel_entries"] += np.size(a["lam"]) * len(a["rd"].nodes)


def _count_equation_residual(c, a, out):
    # the independent panelled quadrature used by equation_residual: 24 nodes
    # per panel of width max(q/16, 0.25) over (-q, q)
    q = a["rd"].q
    fine = 24 * math.ceil(2 * q / max(q / 16, 0.25) - 1e-12)
    c["thermo.kernel_entries"] += np.size(a["lam_test"]) * fine


def _count_block(c, a, out):
    c["sixvertex.block_entries"] += out.size


def _count_monodromy(c, a, out):
    c["sixvertex.monodromy_mb"] += _mb(_matrix_bytes(out))


def _count_monodromy_build(c, a, out):
    c["aba.monodromy_builds"] += 1


def _count_b_applications(c, a, out):
    c["aba.b_applications"] += len(np.atleast_1d(a["roots"]))


def _count_hubbard_terms(c, a, out):
    roots = a["roots"]
    c["hubbard.wavefunction_terms"] += (len(out) * math.factorial(roots.N)
                                        * math.factorial(roots.M))


def _count_report_bytes(c, a, out):
    c["serialize.report_bytes"] += len(out)


def _count_exit(c, a, out):
    c["cli.nonzero_exits"] += 1 if out else 0


# "layer.function" -> (counter, every_call).  every_call=False counts only where
# the call enters the layer from outside (a recursive dumps, or the
# quantum-number scan that classify_two_magnon runs inside bae).
COUNTERS = {
    "basis.build_sector_basis": (_count_states, True),
    "ed.build_xxx_hamiltonian": (_count_operator, True),
    "ed.build_xxz_hamiltonian": (_count_operator, True),
    "ed.build_shift_operator": (_count_operator, True),
    "ed.build_total_spin": (_count_operator, False),
    "ed.shift_sector_matrix": (_count_dense_operator, True),
    "ed.splus_sector_matrix": (_count_dense_operator, True),
    "ed.diagonalize": (_count_diagonalize, True),
    "coordinate.offshell_vector": (_count_vector_terms, True),
    "coordinate.xxz_offshell_vector": (_count_vector_terms, True),
    "coordinate.offshell_wavefunction": (_count_wavefunction_terms, True),
    "coordinate.xxz_offshell_wavefunction": (_count_wavefunction_terms, True),
    "bae.solve_logbae": (_count_newton, True),
    "bae.solve_logbae_xxz": (_count_newton, True),
    "bae.solve_bose": (_count_newton, True),
    "bae.classify_two_magnon": (_count_two_magnon, True),
    "thermo.solve_root_density": (_count_density, True),
    "thermo.interpolate_density": (_count_interpolate, True),
    "thermo.equation_residual": (_count_equation_residual, True),
    "sixvertex.transfer_sector_block": (_count_block, True),
    "sixvertex.monodromy": (_count_monodromy, True),
    "aba.monodromy_blocks": (_count_monodromy_build, True),
    "aba.aba_transfer": (_count_monodromy_build, True),
    "aba.b_product_state": (_count_b_applications, True),
    "aba.c_product_covector": (_count_b_applications, True),
    "hubbard.assemble_state": (_count_hubbard_terms, True),
    "serialize.dumps": (_count_report_bytes, False),
    "cli.main": (_count_exit, False),
}
ENTRY_COUNTERS = {
    "bae.solve_logbae": _count_unconverged,
    "bae.solve_logbae_xxz": _count_unconverged,
    "bae.solve_bose": _count_unconverged,
}


class Span:
    __slots__ = ("id", "parent", "result", "layer", "name", "start", "end",
                 "child", "error")


class Tracer:
    """Spans and work counts of one traced pass, kept in memory."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = defaultdict(float)
        self.result = None
        self._restore = []

    # ---------------------------------------------------------- spans

    def open(self, layer, name):
        s = Span()
        s.id = len(self.spans)
        s.parent = self.stack[-1].id if self.stack else None
        s.result = self.result
        s.layer, s.name = layer, name
        s.child = 0.0
        s.error = False
        s.end = None
        self.spans.append(s)
        self.stack.append(s)
        s.start = time.perf_counter()
        return s

    def close(self, s, error=False):
        s.end = time.perf_counter()
        s.error = error
        self.stack.pop()
        if self.stack:
            self.stack[-1].child += s.end - s.start

    def count(self, name, n=1):
        self.counts[name] += n

    # ---------------------------------------------------------- wrapping

    def _wrap(self, layer, name, fn):
        key = f"{layer}.{name}"
        counter, every_call = COUNTERS.get(key, (None, False))
        entry_counter = ENTRY_COUNTERS.get(key)
        sig = inspect.signature(fn) if counter or entry_counter else None
        counts = self.counts
        stack = self.stack

        def args_of(args, kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            return bound.arguments

        def wrapper(*args, **kwargs):
            if stack and stack[-1].layer == layer:
                out = fn(*args, **kwargs)
                if counter and every_call:
                    counter(counts, args_of(args, kwargs), out)
                return out
            span = self.open(layer, name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.close(span, error=True)
                raise
            self.close(span)
            if counter or entry_counter:
                a = args_of(args, kwargs)
                if counter:
                    counter(counts, a, out)
                if entry_counter:
                    entry_counter(counts, a, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self, modules):
        """Wrap the public functions of `modules` (layer name -> module) and
        rebind every name in those modules that refers to one of them."""
        wrappers = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                wrappers[obj] = self._wrap(layer, name, obj)
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])

    def uninstall(self):
        for mod, name, obj in reversed(self._restore):
            setattr(mod, name, obj)
        self._restore.clear()

    # ---------------------------------------------------------- summary

    def layer_totals(self):
        """{layer: (calls, self_s, errors)} over the recorded spans."""
        totals = {layer: [0, 0.0, 0] for layer in LAYERS + (ROOT_LAYER,)}
        for s in self.spans:
            t = totals[s.layer]
            t[0] += 1
            t[1] += (s.end - s.start) - s.child
            t[2] += 1 if s.error else 0
        return totals

    def span_records(self):
        return [{"id": s.id, "parent": s.parent, "result": s.result,
                 "layer": s.layer, "name": s.name, "start": s.start,
                 "end": s.end, "error": s.error} for s in self.spans]

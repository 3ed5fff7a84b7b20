"""One fresh benchmark process: set up, run the closed loop, print the raw
results as one JSON line.  Started by run.py; not meant to be run by hand.

Set-up (timed as setup_s) is everything before the loop: importing bethelab
from the checkout's src/, generating the seeded operation list and warming up.
The loop is closed with one client: the next result starts when the previous
one has been checked.  In an untraced run a short speed probe is timed before
every result (outside the result's latency); run.py scales latencies by it.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
MIN_RESULTS = 100  # so that p90 has at least ten samples beyond it
PROBE_WINDOW = 10  # results on each side whose speed probes scale a result
# nominal time of one round on a free core.  A run does a fixed number of
# rounds, ceil(--seconds / ROUND_S), whatever the machine's speed, so that the
# same seed always gives the same results attempted and the same failures.
ROUND_S = {"chain_eigenstates": 12.0, "vertex_pairings": 8.0,
           "bethe_roots": 4.0, "cli_small": 2.0}


def speed_probe(sym):
    """Fixed mixed work (an interpreter loop and small LAPACK calls), about
    2 ms on a free core; timed before every result to track machine speed."""
    t0 = time.perf_counter()
    s = 0
    for i in range(20000):
        s += i * i % 7
    for _ in range(5):
        np.linalg.eigvalsh(sym)
    return time.perf_counter() - t0


class NullCounter:
    def count(self, name, n=1):
        pass


def import_bethelab():
    sys.path.insert(0, str(ROOT / "src"))
    import bethelab
    if Path(bethelab.__file__).resolve().parent != (ROOT / "src" / "bethelab").resolve():
        raise SystemExit(f"bethelab imported from {bethelab.__file__}, not from the checkout")
    return bethelab


def run_one(work, op, ctx):
    """One result: the computation and its oracle check, timed together."""
    t0 = time.perf_counter()
    try:
        check = work.run[op.kind](op.params, ctx)
        failures = check.failures
        worst = check.worst
    except Exception as exc:  # a raise is a failed result, not a benchmark error
        failures = [f"raised {type(exc).__name__}: {exc}"[:200]]
        worst = None
    latency = time.perf_counter() - t0
    digits = None
    if not failures and worst is not None:
        digits = 15.0 if worst <= 0 else min(15.0, -math.log10(worst))
    return {"kind": op.kind, "latency_s": latency, "ok": not failures,
            "digits": digits, "expect": op.expect, "reason": "; ".join(failures)}


def run_pass(work, ops, probe_matrix, tracer=None):
    """Run ops in order, each after a speed probe.  Every result gets as
    "probe_s" the median of the probes from PROBE_WINDOW results before it to
    PROBE_WINDOW results after it: one probe jitters by some 8%, while the
    machine's speed holds for seconds at a time."""
    results, probes = [], []
    for i, op in enumerate(ops):
        probes.append(speed_probe(probe_matrix))
        if tracer is None:
            results.append(run_one(work, op, NullCounter()))
            continue
        tracer.result = i
        span = tracer.open("bench", op.kind)
        results.append(run_one(work, op, tracer))
        tracer.close(span)
    probes.append(speed_probe(probe_matrix))
    for i, r in enumerate(results):
        r["probe_s"] = statistics.median(probes[max(0, i - PROBE_WINDOW):i + 2 + PROBE_WINDOW])
    return results


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    import_bethelab()
    import scipy

    import workloads as wl
    from tracer import LAYERS, Tracer

    warnings.simplefilter("ignore", RuntimeWarning)
    work = wl.WORKLOADS[args.workload]
    rng = np.random.default_rng([args.seed, list(wl.WORKLOADS).index(args.workload)])
    first = work.make_round(rng)
    per_round = len(first)
    if args.trace:
        n_rounds = math.ceil(MIN_RESULTS / per_round)
    else:
        n_rounds = max(math.ceil(args.seconds / ROUND_S[args.workload]),
                       math.ceil(MIN_RESULTS / per_round))
    rounds = [first] + [work.make_round(rng) for _ in range(n_rounds - 1)]
    rounds = [[ops[i] for i in rng.permutation(len(ops))] for ops in rounds]
    unknown = {op.expect for ops in rounds for op in ops} - set(wl.KNOWN_DEFECTS) - {None}
    if unknown:
        raise SystemExit(f"inputs tagged with unknown defects {unknown}")
    workdir = Path(args.workdir)
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    warm = work.warmup_round(np.random.default_rng([args.seed, 1 + len(wl.WORKLOADS)]))
    if args.workload == "cli_small":
        for r, ops in enumerate(rounds + [warm]):
            for i, op in enumerate(ops):
                wl.prepare_cli(op, workdir, f"{r}-{i}")
    wl.warmup()
    for op in warm:
        run_one(work, op, NullCounter())
    setup_s = time.perf_counter() - T0
    a = np.random.default_rng(0).normal(size=(48, 48))
    probe_matrix = a + a.T
    setup_probe_s = statistics.median(speed_probe(probe_matrix) for _ in range(10))
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    out = {"setup_s": setup_s, "setup_probe_s": setup_probe_s, "per_round": per_round,
           "numpy": np.__version__, "scipy": scipy.__version__,
           "blas": f"{blas['name']} {blas['version']}"}
    if args.setup_only:
        shutil.rmtree(workdir)
        print(json.dumps(out))
        return 0

    if not args.trace:
        results = []
        for ops in rounds:
            results += run_pass(work, ops, probe_matrix)
        out.update(results=results, rounds=len(rounds))
    else:
        # the same operations untraced before and after the traced pass, so
        # that the overhead estimate is not biased by warm-up or drift
        ops = [op for r in rounds for op in r]
        tracer = Tracer()
        passes = []
        for traced in (False, True, False):
            for d in workdir.glob("*-out"):
                shutil.rmtree(d)
            if traced:
                tracer.install({name: sys.modules[f"bethelab.{name}"] for name in LAYERS})
            try:
                passes.append(run_pass(work, ops, probe_matrix, tracer if traced else None))
            finally:
                tracer.uninstall()
        out.update(results=passes[1], untraced=passes[0] + passes[2], rounds=len(rounds),
                   layers=tracer.layer_totals(), counts=dict(tracer.counts),
                   spans_file=str(workdir.parent / f"{workdir.name}-spans.json"))
        Path(out["spans_file"]).write_text(json.dumps(tracer.span_records()))
    shutil.rmtree(workdir)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

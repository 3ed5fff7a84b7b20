"""bethelab benchmark: time to a verified result, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; bethelab is imported from its src/.  Each
run starts fresh worker processes (worker.py) with one BLAS thread.  With
--trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 the same object carries the per-layer
metrics of a traced pass.  Earlier lines give the environment and the failures
by kind.  Spans and full records go to .perfbench_out/ in the checkout.
See perfbench/NOTES.md for the workloads, the metrics and the known defects.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path

from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
# the names of workloads.WORKLOADS, which run.py does not import: it needs bethelab
WORKLOADS = ("chain_eigenstates", "vertex_pairings", "bethe_roots", "cli_small")
BLAS_THREADS = 1  # at most nproc; one thread was the steadiest in probes
SETUP_REPEATS = 3  # fresh processes whose set-up time enters the setup_s median
CHILD_TIMEOUT_S = 170
DIGITS_CAP = 15.0
PROBE_REF_S = 0.002  # speed-probe time that result latencies are scaled to

END_TO_END = {
    "results_per_s": "1/s",
    "result_p50_ms": "ms",
    "result_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "fail_frac": "ratio",
    "oracle_digits_min": "digits",
    "setup_s": "s",
}
WORK_COUNTS = {
    "basis.states": "count",
    "ed.dense_solves": "count",
    "ed.sparse_solves": "count",
    "ed.operator_mb": "MB",
    "coordinate.perm_terms": "count",
    "bae.newton_iters": "count",
    "bae.unconverged": "count",
    "bae.false_converged": "count",
    "bae.two_magnon_found_ratio": "ratio",
    "thermo.kernel_entries": "count",
    "sixvertex.block_entries": "count",
    "sixvertex.monodromy_mb": "MB",
    "aba.monodromy_builds": "count",
    "aba.b_applications": "count",
    "hubbard.wavefunction_terms": "count",
    "serialize.report_bytes": "B",
    "cli.nonzero_exits": "count",
}
TRACE_META = {
    "bench.self_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_results_per_s": "1/s",
    "trace.traced_results_per_s": "1/s",
    "trace.overhead_frac": "ratio",
}
PER_LAYER = {}
for _layer in LAYERS:
    PER_LAYER.update({f"{_layer}.calls": "count", f"{_layer}.self_s": "s",
                      f"{_layer}.errors": "count"})
PER_LAYER.update(WORK_COUNTS)
PER_LAYER.update(TRACE_META)


def git_sha():
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref:"):
        return ref
    path = ROOT / ".git" / ref.split(None, 1)[1]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(ref.split(None, 1)[1]):
                return line.split()[0]
    return "unknown"


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    env.pop("BETHE_LAB_THREADS", None)
    return env


def run_worker(args, extra):
    """Run worker.py in a fresh process; returns (parsed output, peak RSS MB)."""
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)] + extra
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        text = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    return json.loads(text.decode().strip().splitlines()[-1]), usage.ru_maxrss / 1024


def quantile(values, q):
    """Harrell-Davis estimate of the q-quantile of a non-empty list: a mean of
    the order statistics weighted by a Beta(q(n+1), (1-q)(n+1)) density.  A
    round mixes result kinds whose latencies leave gaps, and a single order
    statistic jumps across a gap when one input's cost moves a little."""
    from scipy.special import betainc

    v = sorted(values)
    n = len(v)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    cdf = [betainc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(v))


def summarize(results):
    failed = [r for r in results if not r["ok"]]
    by_kind = {}
    for r in failed:
        key = r["expect"] or f"UNEXPECTED {r['kind']}: {r['reason']}"
        by_kind[key] = by_kind.get(key, 0) + 1
    digits = [r["digits"] for r in results if r["ok"] and r["digits"] is not None]
    return failed, by_kind, (min(digits) if digits else DIGITS_CAP)


def scaled_ms(results):
    """Result latencies scaled to the machine speed at which the speed probe
    takes PROBE_REF_S: latency * PROBE_REF_S / (probe time around the result).
    A shared 2-vCPU host alternates for seconds to minutes between CPU states
    some 40% apart; unscaled, whole runs of one seed moved by 25%."""
    return [1e3 * r["latency_s"] * PROBE_REF_S / r["probe_s"] for r in results]


def rate(lat_ms):
    return 1e3 * len(lat_ms) / sum(lat_ms)


def wall_clock(results):
    """The three timings unscaled, kept in the run record."""
    lat_ms = [1e3 * r["latency_s"] for r in results]
    return {"results_per_s": rate(lat_ms), "result_p50_ms": quantile(lat_ms, 0.5),
            "result_p90_ms": quantile(lat_ms, 0.9)}


def end_to_end(out, rss_mb, setup_s):
    results = out["results"]
    lat_ms = scaled_ms(results)
    failed, _, digits_min = summarize(results)
    return {
        "results_per_s": rate(lat_ms),
        "result_p50_ms": quantile(lat_ms, 0.5),
        "result_p90_ms": quantile(lat_ms, 0.9),
        "peak_rss_mb": rss_mb,
        "fail_frac": len(failed) / len(results),
        "oracle_digits_min": digits_min,
        "setup_s": setup_s,
    }


def per_layer(out):
    m = {}
    layers = out["layers"]
    for layer in LAYERS:
        calls, self_s, errors = layers[layer]
        m.update({f"{layer}.calls": calls, f"{layer}.self_s": self_s,
                  f"{layer}.errors": errors})
    counts = dict(out["counts"])
    ref = counts.pop("bae.two_magnon_reference", 0)
    found = counts.pop("bae.two_magnon_found", 0)
    counts["bae.two_magnon_found_ratio"] = found / ref if ref else 0.0
    for name in WORK_COUNTS:
        m[name] = counts.get(name, 0)
    untraced = rate(scaled_ms(out["untraced"]))
    traced = rate(scaled_ms(out["results"]))
    m.update({
        "bench.self_s": layers["bench"][1],
        "trace.wall_s": sum(r["latency_s"] for r in out["results"]),
        "trace.untraced_results_per_s": untraced,
        "trace.traced_results_per_s": traced,
        "trace.overhead_frac": untraced / traced - 1,
    })
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "bethelab" / "__init__.py").is_file():
        sys.stderr.write(f"no bethelab sources under {ROOT / 'src'}; run from a checkout\n")
        return 2
    OUT.mkdir(exist_ok=True)

    setups = [run_worker(args, ["--setup-only"])[0] for _ in range(SETUP_REPEATS - 1)]
    out, rss_mb = run_worker(args, [])
    # scaled like the latencies, by the probe timed right after set-up
    setup_s = statistics.median(s["setup_s"] * PROBE_REF_S / s["setup_probe_s"]
                                for s in setups + [out])

    results = out["results"]
    failed, by_kind, _ = summarize(results)
    metrics = per_layer(out) if args.trace else end_to_end(out, rss_mb, setup_s)
    units = PER_LAYER if args.trace else END_TO_END
    env = {"git_sha": git_sha(), "python": sys.version.split()[0],
           "numpy": out["numpy"], "scipy": out["scipy"], "blas": out["blas"],
           "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
           "loop": "closed, 1 client", "rounds": out["rounds"],
           "results_per_round": out["per_round"]}
    correct = not any(k.startswith("UNEXPECTED") for k in by_kind)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "failures_by_kind": by_kind,
              "metrics": metrics, "results": results}
    if not args.trace:
        record["wall_clock"] = wall_clock(results)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))

    print("# env " + json.dumps(env))
    print("# failures by kind " + json.dumps(by_kind))
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

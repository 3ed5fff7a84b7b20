"""Self-test of the benchmark.

    python3 perfbench/selftest.py [--seed N] [--workloads a,b,...]

Checks, for each workload:
  - every metric named in BENCHMARK.json is emitted with its unit, in the
    untraced run (end-to-end) and the traced run (per-layer);
  - results attempted and failed are the same for two seeds, since a run
    does a fixed number of rounds and the failing inputs do not depend on
    the seed;
  - every work count of the traced run is identical across two runs with the
    same seed;
  - the layers' self times plus the benchmark's own account for the traced
    wall time;
and that the benchmark exits non-zero without a result in a directory that
holds only BENCHMARK.json and perfbench/.  Exits 1 on the first failed check.
Takes a few minutes: it makes four runs per workload.
"""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMED_UNITS = ("s", "1/s")  # times vary run to run; everything else must repeat
SELF_TIME_SLACK = 0.05  # share of the traced wall time the spans may leave out


def run(workload, seed, trace, seconds, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def result_of(proc):
    if proc.returncode != 0:
        raise AssertionError(f"benchmark exited {proc.returncode}: {proc.stderr[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expect(cond, message):
    if not cond:
        raise AssertionError(message)
    print(f"ok  {message}")


def check_units(res, declared, what):
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    expect(got == want, f"{what}: the {len(want)} declared metrics are emitted with their units")


def check_workload(spec, workload, seed):
    untraced = result_of(run(workload, seed, 0, 1))
    check_units(untraced, spec["end_to_end"], f"{workload} --trace 0")
    expect(set(untraced) == {"correct", "attempted", "failed", "metrics"}
           and untraced["attempted"] >= 100,
           f"{workload}: result keys, and at least 100 results per run")
    other = result_of(run(workload, seed + 1, 0, 1))
    expect((untraced["attempted"], untraced["failed"]) == (other["attempted"], other["failed"]),
           f"{workload}: attempted and failed are the same for seeds {seed} and {seed + 1}")

    first, second = (result_of(run(workload, seed, 1, 1)) for _ in range(2))
    check_units(first, spec["per_layer"], f"{workload} --trace 1")
    counts = {k for k, v in first["metrics"].items()
              if v["unit"] not in TIMED_UNITS and k != "trace.overhead_frac"}
    differing = sorted(k for k in counts
                       if first["metrics"][k]["value"] != second["metrics"][k]["value"])
    expect(not differing, f"{workload}: {len(counts)} work counts repeat exactly with seed "
                          f"{seed}" + (f" (differ: {differing})" if differing else ""))
    expect((first["attempted"], first["failed"]) == (second["attempted"], second["failed"]),
           f"{workload}: attempted and failed repeat exactly")

    m = {k: v["value"] for k, v in first["metrics"].items()}
    layers = [k for k in m if k.endswith(".self_s")]
    total = sum(m[k] for k in layers)
    wall = m["trace.wall_s"]
    expect(abs(total - wall) <= SELF_TIME_SLACK * wall,
           f"{workload}: self times of {len(layers)} layers sum to {total:.2f} s "
           f"of {wall:.2f} s traced wall time")


def check_bare_directory():
    bare = ROOT / ".perfbench_out" / "bare"
    if bare.exists():
        shutil.rmtree(bare)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("cli_small", 1, 0, 1, cwd=bare)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without the sources the benchmark exits non-zero and prints no result")


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args(argv)
    try:
        check_bare_directory()
        for workload in args.workloads.split(","):
            check_workload(spec, workload, args.seed)
    except AssertionError as exc:
        print(f"FAIL {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

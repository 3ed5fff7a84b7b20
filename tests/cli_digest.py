"""Digest of the command-line reports of the `cli_small` benchmark round.

Runs the first `perfbench/workloads.cli_round` of each seed (every
subcommand once with flags and once with a --json config, 40 calls a seed,
drawn as the benchmark worker draws them) through `cli.main` in this
process, and prints one line per call: command, mode, seed, exit code (or
the exception that escaped `cli.main`), the sha256 of report.json (`-` if
none was written) and the call's stderr.  Two checkouts whose reports are
byte-identical print the same lines, so a diff of two digests lists the
reports a change moved.

Run:  OPENBLAS_NUM_THREADS=1 python tests/cli_digest.py [--root CHECKOUT]
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np


def digest(seeds, workdir):
    """One line per call of the first cli_round of each seed."""
    import workloads as wl
    from bethelab import cli

    index = list(wl.WORKLOADS).index("cli_small")
    for seed in seeds:
        for i, op in enumerate(wl.cli_round(np.random.default_rng([seed, index]))):
            argv = wl._argv(op.params, workdir, f"{seed}-{i}")
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
                except Exception as exc:  # a known defect can escape cli.main
                    code = type(exc).__name__
            report = Path(argv[argv.index("--out") + 1]) / "report.json"
            sha = hashlib.sha256(report.read_bytes()).hexdigest() if report.exists() else "-"
            yield (f"{op.params['command']} {op.params['mode']} seed={seed} exit={code} "
                   f"{sha} stderr={json.dumps(err.getvalue())}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                    help="checkout whose src/ and perfbench/ are run (default: this one)")
    args = ap.parse_args(argv)
    sys.path[:0] = [str(args.root / "src"), str(args.root / "perfbench")]
    warnings.simplefilter("ignore", RuntimeWarning)  # as the benchmark worker does
    with tempfile.TemporaryDirectory() as workdir:
        for line in digest(range(6), Path(workdir)):
            print(line)


if __name__ == "__main__":
    main()

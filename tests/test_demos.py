"""Smoke runs of the demos that walk through the spin-chain spectra, the
Bethe-equation, thermodynamic-limit, six-vertex and algebraic Bethe Ansatz
layers, and the Hubbard nested Ansatz."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import bethelab

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("script", ["01_spin_chain_spectra.py",
                                    "02_bethe_roots_and_vectors.py",
                                    "03_thermodynamic_limit.py",
                                    "04_six_vertex_model.py",
                                    "05_algebraic_bethe_and_pairings.py",
                                    "06_hubbard_nested_ansatz.py"])
def test_demo_runs(script):
    # the child imports the same bethelab as this process, installed or not
    src = str(Path(bethelab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(DEMOS / script)],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr

"""Canonical serialization and the command-line front end."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bethelab
from bethelab import bae, coordinate, ed, hubbard, serialize, thermo
from bethelab.cli import (EXIT_CONFIG, EXIT_INVARIANT, EXIT_NOCONV, EXIT_OK,
                          ExperimentConfig, main)


class TestCanonicalJson:
    def test_float_formatting(self):
        text = serialize.dumps({"x": 1 / 3, "y": 0.0, "n": 7})
        assert "0.33333333333333331" in text
        parsed = json.loads(text)
        assert parsed["x"] == 1 / 3

    def test_complex_pairs(self):
        assert serialize.dumps(1 + 2j) == "[1, 2]"
        assert json.loads(serialize.dumps(np.array([1j, 2.5]))) == [[0.0, 1.0], [2.5, 0.0]]

    def test_sorted_keys_deterministic(self):
        a = serialize.dumps({"b": 1, "a": 2})
        b = serialize.dumps({"a": 2, "b": 1})
        assert a == b

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            serialize.dumps({"x": float("nan")})

    def test_config_roundtrip_bit_exact(self):
        cfg = ExperimentConfig("thermo/gs-energy", {"q": 1 / 7, "J": -1.0}, 3, None)
        text = cfg.dumps()
        again = ExperimentConfig.loads(text)
        assert again.dumps() == text
        assert again.params["q"] == 1 / 7

    def test_matrix_roundtrip(self):
        op = ed.build_xxx_hamiltonian(3, 1.0)
        d = serialize.matrix_to_dict(op)
        assert d["dim"] == 8 and d["format"] == "dense"
        m = serialize.matrix_from_dict(d)
        assert np.max(np.abs(m - op.dense())) == 0

    def test_rapidity_set_roundtrip(self):
        rs = coordinate.RapiditySet("XXX", 8, [0.3 + 0.1j, -0.3 - 0.1j])
        d = serialize.rapidity_set_to_dict(rs)
        back = serialize.rapidity_set_from_dict(json.loads(serialize.dumps(d)))
        assert back.model == "XXX" and back.L == 8
        assert np.max(np.abs(back.values - rs.values)) == 0

    def test_nested_roots_roundtrip(self):
        roots, _, _ = hubbard.solve_liebwu(6, 2, 1, 1.0, (-1, 0), (0,))
        d = serialize.nested_roots_to_dict(roots)
        back = serialize.nested_roots_from_dict(json.loads(serialize.dumps(d)))
        assert np.max(np.abs(back.k - roots.k)) == 0
        assert back.u == roots.u

    def test_spectrum_csv(self):
        spec = ed.diagonalize(ed.build_xxx_hamiltonian(2, 1.0))
        text = serialize.spectrum_to_csv(spec)
        lines = text.strip().split("\n")
        assert lines[0] == "index,eigenvalue"
        assert lines[1].startswith("0,-2")

    def test_solve_report_dict(self):
        rep = bae.solve_logbae(6, 3, (1, 2, 3))
        d = serialize.solve_report_to_dict(rep)
        assert d["converged"] and d["L"] == 6 and len(d["roots"]) == 3

    def test_weights_dict(self):
        from bethelab import sixvertex
        w = sixvertex.VertexWeights.from_parameters(1.0, 0.4, 0.3, xi=[0.1, 0.2])
        d = serialize.weights_to_dict(w)
        assert d["a"] == serialize.complex_pair(w.a)
        assert d["eta"] == [0.3, 0.0] and len(d["xi"]) == 2
        d2 = serialize.weights_to_dict(sixvertex.VertexWeights.ice())
        assert "eta" not in d2 and d2["b"] == [1.0, 0.0]


class TestCli:
    def test_help_lists_groups(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        for group in ("ed", "bae", "bethe-vector", "thermo", "vertex", "aba",
                      "hubbard", "verify"):
            assert group in out

    def test_unknown_subcommand_is_config_error(self):
        with pytest.raises(SystemExit):
            main(["vertex", "nonsense"])

    def test_missing_command_prints_help(self, capsys):
        assert main([]) == EXIT_CONFIG

    def test_ed_spectrum(self, capsys):
        assert main(["ed", "spectrum", "--model", "xxx", "--L", "2"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert np.allclose(out["eigenvalues"], [-2, 0, 0, 0], atol=1e-12)

    def test_thermo_gs_energy_prints_minus_ln2(self, capsys):
        assert main(["thermo", "gs-energy", "--q", "inf"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert abs(out["energy_per_site"] + np.log(2)) < 1e-8

    def test_verify_ybe(self, capsys):
        assert main(["verify", "ybe", "--trials", "10"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["max_residual"] < 1e-12

    def test_vertex_partition_cross_check(self, capsys):
        assert main(["vertex", "partition", "--L", "2", "--M", "2"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["Z"] == [18.0, 0.0] and out["Z_enumeration"] == [18.0, 0.0]

    def test_bae_solve_nonconvergent_exit(self, capsys):
        # a branch with no finite real solution must exit with the solver code
        assert main(["bae", "solve", "--L", "8", "--N", "3",
                     "--qnums", "1,3,5"]) == EXIT_NOCONV

    def test_config_error_exit(self, capsys):
        assert main(["ed", "spectrum", "--model", "bogus", "--L", "2"]) == EXIT_CONFIG

    def test_report_bytes_identical(self, tmp_path, capsys):
        argv = ["aba", "slavnov", "--L", "6", "--N", "1", "--trials", "2",
                "--seed", "5"]
        assert main(argv + ["--out", str(tmp_path / "a")]) == EXIT_OK
        assert main(argv + ["--out", str(tmp_path / "b")]) == EXIT_OK
        a = (tmp_path / "a" / "report.json").read_bytes()
        b = (tmp_path / "b" / "report.json").read_bytes()
        assert a == b and len(a) > 0

    def test_ed_spectrum_k_flag_matches_json(self, tmp_path, capsys):
        params = {"model": "xxx", "L": "8", "sector": "4", "k": "2"}
        flags = [f"--{k}={v}" for k, v in params.items()]
        assert main(["ed", "spectrum", *flags, "--out", str(tmp_path / "a")]) == EXIT_OK
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(ExperimentConfig("ed/spectrum", params, 0, None).dumps())
        assert main(["ed", "spectrum", "--json", str(cfg_path),
                     "--out", str(tmp_path / "b")]) == EXIT_OK
        a = (tmp_path / "a" / "report.json").read_bytes()
        assert a == (tmp_path / "b" / "report.json").read_bytes()
        assert len(json.loads(a)["eigenvalues"]) == 2

    def test_ed_spectrum_bad_k_is_config_error(self, capsys):
        assert main(["ed", "spectrum", "--L", "4", "--k", "two"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and len(err.strip().splitlines()) == 1

    def test_partial_spectrum_report_bytes_identical(self, tmp_path, capsys):
        # full space at L = 12 is dim 4096: the Lanczos path
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(ExperimentConfig("ed/spectrum", {"L": 12, "k": 3}, 0, None).dumps())
        for name in ("a", "b"):
            assert main(["ed", "spectrum", "--json", str(cfg_path),
                         "--out", str(tmp_path / name)]) == EXIT_OK
        a = (tmp_path / "a" / "report.json").read_bytes()
        assert a == (tmp_path / "b" / "report.json").read_bytes()

    def test_json_config_and_piping(self, tmp_path, capsys):
        # output of `bae solve` feeds `bethe-vector verify`
        out1 = tmp_path / "solve"
        assert main(["bae", "solve", "--L", "6", "--N", "2", "--qnums", "1,2",
                     "--out", str(out1)]) == EXIT_OK
        report = json.loads((out1 / "report.json").read_text())
        roots = report["solve"]["roots"]
        roots_arg = ";".join(f"{re},{im}" for re, im in roots)
        assert main(["bethe-vector", "verify", "--L", "6",
                     "--roots=" + roots_arg]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["eigenvector_residual"] < 1e-8
        assert out["hw_residual"] < 1e-8
        assert out["momentum_residual"] < 1e-8
        # the config round-trips through --json
        cfg = ExperimentConfig("thermo/gs-energy", {"q": "inf"}, 0, None)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg.dumps())
        assert main(["thermo", "gs-energy", "--json", str(cfg_path)]) == EXIT_OK

    def test_hubbard_verify(self, capsys):
        assert main(["hubbard", "verify", "--L", "6", "--N", "2", "--M", "1",
                     "--u", "2.0", "--qnums=-1,0", "--spin-qnums", "0"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["eigenvector_residual"] < 1e-8

    def test_invariant_violation_exit(self, capsys):
        # an unreachable tolerance on a passing computation must flag exit 4
        assert main(["vertex", "hamiltonian-link", "--L", "4", "--eta", "0.3",
                     "--tol", "1e-15"]) == EXIT_INVARIANT

    def test_thread_cap_env(self, monkeypatch, capsys):
        argv = ["verify", "ybe", "--trials", "8", "--seed", "1"]
        assert main(argv) == EXIT_OK
        serial = capsys.readouterr().out
        monkeypatch.setenv("BETHE_LAB_THREADS", "4")
        assert main(argv) == EXIT_OK
        threaded = capsys.readouterr().out
        assert serial == threaded  # trial dispatch is order-independent

    def test_every_subcommand_runs(self, tmp_path, capsys):
        runs = [
            (["ed", "spectrum", "--model", "xxz", "--delta", "0.5", "--L", "4",
              "--sector", "2"], None),
            (["bae", "residual", "--L", "6",
              "--roots=0.16245984811644645,0;-0.16245984811644645,0"], "residual"),
            (["bae", "two-magnon", "--L", "6"], "count"),
            (["bethe-vector", "build", "--L", "5", "--roots=0.3,0.1;-0.2,0.4"],
             "vector"),
            (["thermo", "density", "--q", "4"], "D"),
            (["vertex", "transfer", "--L", "3", "--eta", "0.4"], "matrix"),
            (["vertex", "ice-entropy", "--lmax", "6"], "extrapolated"),
            (["aba", "verify-action", "--L", "5", "--N", "1", "--trials", "2"],
             "max_residual"),
            (["hubbard", "ed", "--L", "4", "--u", "1.0", "--N", "2", "--M", "1"],
             "eigenvalues"),
            (["hubbard", "liebwu", "--L", "6", "--N", "2", "--M", "1", "--u",
              "1.0", "--qnums=-1,0", "--spin-qnums", "0"], "roots"),
        ]
        for argv, key in runs:
            assert main(argv) == EXIT_OK, argv
            report = json.loads(capsys.readouterr().out)
            if key is not None:
                assert key in report, argv
        # artifact directory: report plus CSV files
        out = tmp_path / "ed"
        assert main(["ed", "spectrum", "--model", "xxx", "--L", "4",
                     "--out", str(out)]) == EXIT_OK
        assert (out / "report.json").exists()
        csv = (out / "spectrum.csv").read_text().splitlines()
        assert csv[0] == "index,eigenvalue" and len(csv) == 17
        out2 = tmp_path / "cond"
        assert main(["thermo", "condensation", "--lmin", "8", "--lmax", "10",
                     "--out", str(out2)]) == EXIT_OK
        assert (out2 / "condensation.csv").read_text().startswith("L,sum,integral,gap")

    def test_console_script_entry(self):
        # the child imports the same bethelab as this process, installed or not
        src = str(Path(bethelab.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "bethelab.cli", "ed",
                               "spectrum", "--model", "xxx", "--L", "2"],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == EXIT_OK
        assert json.loads(proc.stdout)["eigenvalues"][0] == -2.0

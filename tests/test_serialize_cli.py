"""Canonical serialization and the command-line front end."""

import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import bethelab
import loop_references
from bethelab import aba, bae, cli, coordinate, ed, serialize, sixvertex, thermo
from bethelab.cli import (COMMANDS, EXIT_CONFIG, EXIT_INVARIANT, EXIT_NOCONV, EXIT_OK,
                          TYPES, main)

_ROOTS_L6 = "0.16245984811644645,0;-0.16245984811644645,0"  # L = 6, N = 2 ground state
# One passing run of every subcommand, as flag strings, and a key of its report
RUNS = {
    "ed/spectrum": ({"model": "xxz", "delta": "0.5", "L": "4", "sector": "2"}, "eigenvalues"),
    "bae/solve": ({"L": "6", "N": "2", "qnums": "1,2"}, "energy"),
    "bae/residual": ({"L": "6", "roots": _ROOTS_L6}, "residual"),
    "bae/two-magnon": ({"L": "6"}, "count"),
    "bethe-vector/build": ({"L": "5", "roots": "0.3,0.1;-0.2,0.4"}, "vector"),
    "bethe-vector/verify": ({"L": "6", "roots": _ROOTS_L6}, "eigenvector_residual"),
    "thermo/density": ({"q": "4"}, "D"),
    "thermo/gs-energy": ({"q": "3", "n_nodes": "16"}, "energy_per_site"),
    "thermo/condensation": ({"lmin": "8", "lmax": "10"}, "rows"),
    "vertex/ybe": ({"trials": "4"}, "max_residual"),
    "vertex/transfer": ({"L": "3", "eta": "0.4"}, "matrix"),
    "vertex/partition": ({"L": "2", "M": "2", "a": "1.5"}, "Z_enumeration"),
    "vertex/ice-entropy": ({"lmax": "6"}, "extrapolated"),
    "vertex/hamiltonian-link": ({"L": "4", "eta": "0.3", "tol": "1e-11"}, "max_deviation"),
    "aba/slavnov": ({"L": "6", "N": "1", "trials": "2"}, "max_rel_err"),
    "aba/verify-action": ({"L": "5", "N": "1", "trials": "2"}, "max_residual"),
    "hubbard/ed": ({"L": "4", "u": "1.0", "N": "2", "M": "1"}, "eigenvalues"),
    "hubbard/liebwu": ({"L": "6", "N": "2", "M": "1", "u": "1.0", "qnums": "-1,0",
                        "spin_qnums": "0"}, "roots"),
    "hubbard/verify": ({"L": "6", "N": "2", "M": "1", "u": "2.0", "qnums": "-1,0",
                        "spin_qnums": "0"}, "eigenvector_residual"),
    "verify/ybe": ({"trials": "3"}, "max_residual"),
}


def _json_number(text):
    """A flag string as the number a --json config would hold, where it is one."""
    for kind in (int, float):
        try:
            value = kind(text)
        except ValueError:
            continue
        return value if math.isfinite(value) else text
    return text


_FINITE = {"allow_nan": False, "allow_infinity": False}
_EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, 1e-300,
             -1e-300, 1.7976931348623157e308]
_REALS = st.floats(**_FINITE) | st.sampled_from(_EXTREMES)
_COMPLEXES = st.builds(complex, _REALS, _REALS)
# Python and numpy scalars, float32 included
_SCALARS = st.one_of(
    _REALS, _REALS.map(np.float64), st.floats(width=32, **_FINITE).map(np.float32),
    _COMPLEXES, _COMPLEXES.map(np.complex128),
    st.complex_numbers(width=64, **_FINITE).map(np.complex64),
    st.integers(), st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.integers(-2 ** 31, 2 ** 31 - 1).map(np.int32), st.booleans(),
    st.booleans().map(np.bool_), st.text(max_size=6), st.none())
# float, complex, int and bool arrays of 0-3 dimensions, empty ones and zero-size axes
_ARRAYS = st.sampled_from([np.float64, np.float32, np.complex128, np.complex64, np.int64,
                           np.bool_]).flatmap(lambda dtype: hnp.arrays(
    dtype, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3),
    elements=hnp.from_dtype(np.dtype(dtype), **_FINITE)))
_VALUES = st.recursive(_SCALARS | _ARRAYS, lambda inner: (
    st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4)), max_leaves=12)


def _non_finite(draw):
    """A nan or an infinity as a float, a numpy scalar, one part of a complex,
    or one entry of a float or complex array (its imaginary part included)."""
    bad = draw(st.sampled_from([float("nan"), float("inf"), float("-inf")]))
    kind = draw(st.integers(0, 6))
    if kind < 5:
        return [bad, np.float64(bad), np.float32(bad), complex(1.0, bad),
                np.complex128(complex(bad, 0.0))][kind]
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=1, max_side=3))
    a = np.zeros(shape, complex if kind == 6 else float)
    index = draw(st.integers(0, a.size - 1))
    if kind == 6:
        a.reshape(-1)[index] = complex(0.5, bad)
    else:
        a.reshape(-1)[index] = bad
    return a


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

    @settings(max_examples=300, deadline=None)
    @given(_VALUES | _ARRAYS)
    def test_same_bytes_as_the_recursive_form(self, obj):
        for indent in (0, 2):
            assert serialize.dumps(obj, indent) == loop_references.dumps(obj, indent)

    @settings(max_examples=200, deadline=None)
    @given(_VALUES, st.data())
    def test_non_finite_anywhere_raises(self, obj, data):
        bad = _non_finite(data.draw)
        for wrap in data.draw(st.lists(st.sampled_from([list, tuple]), max_size=3)):
            bad = wrap([obj, bad])
        report = {"ok": obj, "bad": {"inner": bad}}
        for dumps in (serialize.dumps, loop_references.dumps):
            with pytest.raises(ValueError):
                dumps(report)

    def test_matrix_roundtrip(self):
        op = ed.build_xxx_hamiltonian(3, 1.0)
        d = serialize.matrix_to_dict(op)
        assert d["dim"] == 8 and d["format"] == "dense"
        m = np.zeros((d["dim"], d["dim"]), complex)
        for r, c, re, im in d["entries"]:
            m[r, c] = re + 1j * im
        assert np.max(np.abs(m - op.dense())) == 0

    def test_sparse_entries_row_major(self):
        # CSR with unsorted column indices in row 0
        m = sp.csr_matrix((np.array([2.0, 1.0, 3.0]), np.array([2, 0, 1]), np.array([0, 2, 3, 3])),
                          shape=(3, 3))
        d = serialize.matrix_to_dict(m)
        assert d["format"] == "coo"
        assert [e[:3] for e in d["entries"]] == [[0, 0, 1.0], [0, 2, 2.0], [1, 1, 3.0]]

    def test_stored_zero_kept_only_in_sparse_input(self):
        # a zero stored in the CSR is an entry; a zero of a dense matrix is not
        m = sp.csr_matrix((np.array([0.0, 1.0]), np.array([1, 0]), np.array([0, 1, 2])),
                          shape=(2, 2))
        assert serialize.matrix_to_dict(m)["entries"] == [[0, 1, 0.0, 0.0], [1, 0, 1.0, 0.0]]
        assert serialize.matrix_to_dict(m.toarray())["entries"] == [[1, 0, 1.0, 0.0]]

    def test_transfer_entries_same_in_both_formats(self):
        # the L = 9 transfer (dim 512) is CSR and reported as "coo"; its
        # entries are those of the dense matrix, in the same row-major order
        w = sixvertex.VertexWeights.from_parameters(1.0, 0.0, 0.4)
        t = sixvertex.transfer(0.0, 9, w)
        d = serialize.matrix_to_dict(t)
        assert d["format"] == "coo"
        assert d["entries"] == serialize.matrix_to_dict(t.dense())["entries"]

    def test_spectrum_csv(self):
        spec = ed.diagonalize(ed.build_xxx_hamiltonian(2, 1.0))
        text = serialize.table_csv(["index", "eigenvalue"], enumerate(spec.eigenvalues))
        lines = text.strip().split("\n")
        assert lines[0] == "index,eigenvalue"
        assert lines[1].startswith("0,-2")

    def test_solve_report_dict(self):
        rep = bae.solve_logbae(6, 3, (1, 2, 3))
        d = serialize.solve_report_to_dict(rep)
        assert d["converged"] and d["L"] == 6 and len(d["roots"]) == 3


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

    @pytest.mark.parametrize("command, mode, params", [
        *(pytest.param(key, "flags", params, id=key) for key, (params, _) in RUNS.items()),
        pytest.param("thermo/gs-energy", "json", {"q": 1 / 7, "n_nodes": 17}, id="json-numbers"),
    ])
    def test_echoed_config_reproduces_report(self, command, mode, params, tmp_path, capsys):
        # the config a report echoes, written back as a --json file, reruns
        # the same report and files byte for byte
        first, again = tmp_path / "first", tmp_path / "again"
        assert self._run(tmp_path, mode, command, params, 3, ["--out", str(first)]) == EXIT_OK
        config = json.loads((first / "report.json").read_text())["config"]
        assert config == {"command": command, "params": params, "seed": 3}
        echo = tmp_path / "echo.json"
        echo.write_text(serialize.dumps(config))
        assert main([*command.split("/"), "--json", str(echo), "--out", str(again)]) == EXIT_OK
        names = sorted(f.name for f in first.iterdir())
        assert names == sorted(f.name for f in again.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (again / name).read_bytes()

    @pytest.mark.parametrize("L", range(4, 17, 2))
    def test_two_magnon_rows_match_per_solution_values(self, L, capsys):
        # the energies and residuals taken over the stack of solutions equal
        # energy_xxx and bae_residual_xxx of each solution exactly
        assert main(["bae", "two-magnon", "--L", str(L)]) == EXIT_OK
        rows = json.loads(capsys.readouterr().out)["solutions"]
        sols = bae.classify_two_magnon(L)
        assert len(rows) == len(sols)
        for row, (rs, kind) in zip(rows, sols):
            E = complex(coordinate.energy_xxx(rs))
            assert row["kind"] == kind and row["roots"] == [[z.real, z.imag] for z in rs.values]
            assert row["energy"] == [E.real, E.imag]
            assert row["residual"] == bae.bae_residual_xxx(rs.values, L)

    @pytest.mark.parametrize("command, params, seed", [
        *(pytest.param(key, params, 3, id=key) for key, (params, _) in RUNS.items()),
        pytest.param("ed/spectrum", {"model": "xxx", "L": "8", "sector": "4", "k": "2"},
                     0, id="ed-spectrum"),
        pytest.param("thermo/density", {"q": "2.5", "n_nodes": "32"}, 0,
                     id="thermo-density"),
        pytest.param("vertex/partition", {"L": "2", "M": "2", "a": "1", "b": "2", "c": "1"},
                     0, id="vertex-partition"),
        pytest.param("bae/solve", {"L": "6", "N": "2", "qnums": "1,2", "J": "-1"}, 0,
                     id="bae-solve"),
        pytest.param("vertex/ybe", {"trials": "4"}, 11, id="vertex-ybe"),
        pytest.param("hubbard/liebwu", {"L": "6", "N": "2", "M": "1", "u": "1.5",
                                        "qnums": "-1,0", "spin_qnums": "0"}, 0,
                     id="hubbard-liebwu"),
    ])
    def test_flag_matches_json(self, command, params, seed, tmp_path, capsys):
        # the same string parameters as flags and as a --json config give the
        # same bytes; --json numbers give the same report but for the echo
        numbers = {k: _json_number(v) for k, v in params.items()}
        for mode, given in (("flags", params), ("json", params), ("numbers", numbers)):
            assert self._run(tmp_path, "flags" if mode == "flags" else "json", command,
                             given, seed, ["--out", str(tmp_path / mode)]) == EXIT_OK
        report = (tmp_path / "flags" / "report.json").read_bytes()
        assert report == (tmp_path / "json" / "report.json").read_bytes()
        assert json.loads(report)["config"]["params"] == params
        typed = json.loads((tmp_path / "numbers" / "report.json").read_text())
        assert typed.pop("config")["params"] == numbers
        assert typed == {k: v for k, v in json.loads(report).items() if k != "config"}
        if "k" in params:
            assert len(json.loads(report)["eigenvalues"]) == 2  # --k parsed as an int

    @staticmethod
    def _config_error(capsys):
        """The single stderr line of a config error."""
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1, err
        return err

    @staticmethod
    def _run(tmp_path, mode, command, params, seed=0, extra=()):
        """Run `command` with `params` given as flags or as a --json config."""
        argv = [*command.split("/"), *extra]
        if mode == "flags":
            flags = [f"--{k.replace('_', '-')}={v}" for k, v in params.items()]
            return main([*argv, *flags, "--seed", str(seed)])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(serialize.dumps({"command": command, "params": params, "seed": seed}))
        return main([*argv, "--json", str(cfg_path)])

    @pytest.mark.parametrize("mode", ["flags", "json"])
    @pytest.mark.parametrize("params, unused", [
        ({"L": "4", "delta": "0.5"}, "--delta"),                 # default --model xxx
        ({"model": "xxz", "L": "4", "delta": "0.5", "J": "2"}, "--J"),
    ])
    def test_parameter_of_other_model_is_config_error(self, mode, params, unused,
                                                      tmp_path, capsys):
        assert self._run(tmp_path, mode, "ed/spectrum", params) == EXIT_CONFIG
        assert self._config_error(capsys).rstrip().endswith(f"does not take {unused}")

    @pytest.mark.parametrize("mode", ["flags", "json"])
    @pytest.mark.parametrize("command, params, message", [
        ("ed/spectrum", {"model": "xxz", "L": "4"}, "ed/spectrum --model xxz needs --delta"),
        ("bae/solve", {"L": "6", "N": "2"}, "bae/solve needs --qnums"),
        ("hubbard/liebwu", {"L": "6", "N": "2", "qnums": "-1,0"},
         "hubbard/liebwu needs --M, --u"),
    ])
    def test_missing_parameter_names_itself(self, mode, command, params, message,
                                            tmp_path, capsys):
        assert self._run(tmp_path, mode, command, params) == EXIT_CONFIG
        assert self._config_error(capsys) == f"config error: {message}\n"

    def test_json_parameter_not_taken_is_config_error(self, tmp_path, capsys):
        params = {"q": "2", "n_nodes": "32", "lmax": "8"}
        assert self._run(tmp_path, "json", "thermo/density", params) == EXIT_CONFIG
        assert "thermo/density does not take --lmax" in self._config_error(capsys)

    @pytest.mark.parametrize("value, kind", [([4], "list"), ({"n": 4}, "dict")])
    def test_json_non_scalar_value_is_config_error(self, value, kind, tmp_path, capsys):
        assert self._run(tmp_path, "json", "ed/spectrum", {"L": value}) == EXIT_CONFIG
        assert self._config_error(capsys).rstrip().endswith(
            f"--L takes one value, not a {kind}")

    @pytest.mark.parametrize("command, params, message", [
        ("bae/two-magnon", {"L": 8.7}, "--L takes an integer, got 8.7"),
        ("vertex/ybe", {"trials": 2.9}, "--trials takes an integer, got 2.9"),
    ])
    def test_json_non_integral_integer_is_config_error(self, command, params, message,
                                                       tmp_path, capsys):
        # int() would silently run L = 8 (or 2 trials next to a config saying 2.9)
        assert self._run(tmp_path, "json", command, params) == EXIT_CONFIG
        assert self._config_error(capsys) == f"config error: {message}\n"
        integral = {k: int(v) for k, v in params.items()}
        assert self._run(tmp_path, "json", command, integral) == EXIT_OK

    @pytest.mark.parametrize("mode", ["flags", "json"])
    @pytest.mark.parametrize("command, params", [
        ("thermo/density", {"q": "2", "n_nodes": "0"}),
        ("thermo/gs-energy", {"n_nodes": "0"}),   # q = inf, which reads no nodes
        ("thermo/gs-energy", {"q": "1.5", "n_nodes": "-4"}),
    ])
    def test_nonpositive_node_count_is_config_error(self, mode, command, params,
                                                    tmp_path, capsys):
        assert self._run(tmp_path, mode, command, params) == EXIT_CONFIG
        assert self._config_error(capsys) == \
            f"config error: n_nodes must be a positive integer, got {params['n_nodes']}\n"

    def test_memory_error_is_config_error(self, monkeypatch, capsys):
        def too_large(*args):
            raise MemoryError("Unable to allocate 8.00 GiB")

        monkeypatch.setattr(ed, "build_xxx_hamiltonian", too_large)
        assert main(["ed", "spectrum", "--L", "30"]) == EXIT_CONFIG
        assert self._config_error(capsys) == \
            "config error: run too large for memory: Unable to allocate 8.00 GiB\n"

    def test_json_params_not_an_object_is_config_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"command": "ed/spectrum", "params": [4], "seed": 0}')
        assert main(["ed", "spectrum", "--json", str(cfg_path)]) == EXIT_CONFIG
        self._config_error(capsys)

    @pytest.mark.parametrize("field, value, message", [
        ("out", 5, "config out takes a directory name, got 5"),
        ("params", [["q", "4"]], "config params takes an object, got [['q', '4']]"),
        ("params", None, "config params takes an object, got None"),
        ("seed", True, "--seed takes an integer, got True"),
        ("params", {"q": True}, "--q takes a real number, got True"),
    ])
    def test_json_config_field_of_wrong_type_is_config_error(self, field, value, message,
                                                             tmp_path, capsys):
        # out = 5 reached Path(5) in a traceback, a list of pairs went through
        # dict() and was echoed as an object, and seed true ran as seed 1
        config = {"command": "thermo/gs-energy", "params": {"q": "4"}, "seed": 0, field: value}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(serialize.dumps(config))
        argv = ["thermo", "gs-energy", "--json", str(cfg_path)]
        assert main(argv) == EXIT_CONFIG
        assert self._config_error(capsys) == f"config error: {message}\n"
        assert main([*argv, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert self._config_error(capsys) == f"config error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags, named", [
        (["--L", "4"], "--L"),
        (["--seed", "3"], "--seed"),
        (["--model", "xxx", "--L", "4"], "--L, --model"),
    ])
    def test_flag_next_to_json_is_config_error(self, flags, named, tmp_path, capsys):
        # the config (L = 2) alone decides the run; --out may still redirect it
        params = {"model": "xxx", "L": "2"}
        assert self._run(tmp_path, "json", "ed/spectrum", params, extra=flags) == EXIT_CONFIG
        err = self._config_error(capsys)
        assert err.startswith(f"config error: {named} next to --json")
        assert self._run(tmp_path, "json", "ed/spectrum", params,
                         extra=["--out", str(tmp_path / "out")]) == EXIT_OK
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["config"]["params"]["L"] == "2" and len(report["eigenvalues"]) == 4

    @pytest.mark.parametrize("argv", [
        ["thermo", "density", "--L", "8"],    # a flag of other subcommands
        ["ed", "spectrum", "--L", "4", "--bogus", "1"],
        ["vertex", "nonsense"],
        ["nonsense", "spectrum"],
        ["ed", "spectrum", "--L", "4", "--seed", "x"],
    ])
    def test_parser_error_is_one_config_error_line(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_CONFIG
        self._config_error(capsys)

    def test_subcommand_help_lists_only_its_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["thermo", "density", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--q" in out and "--n-nodes" in out and "--json" in out
        assert "--lmax" not in out and "--delta" not in out

    @staticmethod
    def _help_entries(argv, capsys):
        """{flag: the rest of its --help entry, whitespace collapsed}."""
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out.split("options:")[1]
        entries = [entry.split() for entry in re.split(r"\n  (?=-)", out) if entry.strip()]
        return {flag: " ".join(rest) for flag, *rest in entries}

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_help_shows_each_type_and_default(self, command, capsys):
        entries = self._help_entries(command.split("/"), capsys)
        for name, kind, default, model in COMMANDS[command].params():
            entry = entries[f"--{name.replace('_', '-')}"]
            assert TYPES[kind][0] in entry, entry
            assert entry.endswith("required" if default is None
                                  else f"default {default or 'empty'}"), entry
            assert (f"--model {model} only" in entry) == (model is not None), entry

    @pytest.mark.parametrize("argv, flag, text", [
        (["aba", "slavnov"], "--L", "L an integer >= 1; default 8"),
        (["vertex", "hamiltonian-link"], "--tol", "TOL a real number; default 1e-12"),
        (["ed", "spectrum"], "--k", "K an integer >= 1; default none"),
        (["ed", "spectrum"], "--sector", "SECTOR 'full' or an integer; default full"),
        (["ed", "spectrum"], "--delta", "DELTA --model xxz only; a real number; required"),
        (["bae", "solve"], "--qnums", "QNUMS integers a,b,...; required"),
        (["hubbard", "liebwu"], "--spin-qnums", "SPIN_QNUMS integers a,b,...; default empty"),
        (["vertex", "ybe"], "--trials", "TRIALS an integer >= 1; default 100"),
    ])
    def test_help_entry(self, argv, flag, text, capsys):
        assert self._help_entries(argv, capsys)[flag] == text

    @pytest.mark.parametrize("mode", ["flags", "json"])
    @pytest.mark.parametrize("command, params, message", [
        ("ed/spectrum", {"L": "abc"}, "--L takes an integer >= 1, got 'abc'"),
        ("ed/spectrum", {"L": ""}, "--L takes an integer >= 1, got ''"),
        ("ed/spectrum", {"L": "1e-320"}, "--L takes an integer >= 1, got '1e-320'"),
        ("ed/spectrum", {"L": "4", "k": "2.5"}, "--k takes an integer >= 1, got '2.5'"),
        ("thermo/density", {"q": "1j"}, "--q takes a real number, got '1j'"),
        ("thermo/gs-energy", {"n_nodes": "abc"}, "--n-nodes takes an integer, got 'abc'"),
        ("vertex/transfer", {"L": "3", "eta": "0,0"},
         "--eta takes a complex number, got '0,0'"),
        ("vertex/ybe", {"trials": "abc"}, "--trials takes an integer >= 1, got 'abc'"),
        ("verify/ybe", {"trials": "2.5"}, "--trials takes an integer >= 1, got '2.5'"),
        ("aba/slavnov", {"trials": "0"}, "--trials must be >= 1, got 0"),
        ("bae/solve", {"L": "6", "N": "2", "qnums": "1,x"},
         "--qnums takes integers a,b,..., got '1,x'"),
        ("hubbard/liebwu", {"L": "6", "N": "2", "M": "1", "u": "1", "qnums": "-1,0",
                            "spin_qnums": "2.5"},
         "--spin-qnums takes integers a,b,..., got '2.5'"),
        ("bae/residual", {"L": "6", "roots": "0.1,a"},
         "--roots takes roots re[,im];re[,im];..., got '0.1,a'"),
        ("bethe-vector/build", {"L": "5", "roots": "1,2,3"},
         "--roots takes roots re[,im];re[,im];..., got '1,2,3'"),
        ("ed/spectrum", {"L": "4", "sector": "half"},
         "--sector takes 'full' or an integer, got 'half'"),
        ("ed/spectrum", {"L": "4", "sector": "1j"},
         "--sector takes 'full' or an integer, got '1j'"),
        # sizes below 1: a chain of no sites ran and reported (exit 0), or
        # failed later with a message that did not name the size
        ("bae/solve", {"L": "0", "N": "0", "qnums": ""}, "--L must be >= 1, got 0"),
        ("bae/residual", {"L": "-2", "roots": "0.1"}, "--L must be >= 1, got -2"),
        ("bethe-vector/build", {"L": "0", "roots": ""}, "--L must be >= 1, got 0"),
        # every amplitude an exact zero: "normalized" to a zero vector (exit 0)
        ("bethe-vector/build", {"L": "8", "roots": "0.5,0.5;0.5,0.5"},
         "every amplitude vanishes: coincident rapidities"),
        ("bethe-vector/build", {"L": "8", "roots": "0,0.5;0.3"},
         "every amplitude vanishes: a rapidity at a pole"),
        ("hubbard/ed", {"L": "0", "N": "0", "M": "0", "u": "1"}, "--L must be >= 1, got 0"),
        ("hubbard/liebwu", {"L": "0", "N": "0", "M": "0", "u": "1", "qnums": ""},
         "--L must be >= 1, got 0"),
        ("hubbard/verify", {"L": "0", "N": "0", "M": "0", "u": "1", "qnums": ""},
         "--L must be >= 1, got 0"),
        ("aba/slavnov", {"L": "0", "N": "0"}, "--L must be >= 1, got 0"),
        # no pairing to check: reported max_rel_err 0 (exit 0)
        ("aba/slavnov", {"N": "0"}, "--N must be >= 1, got 0"),
        ("thermo/condensation", {"lmin": "0", "lmax": "2"}, "--lmin must be >= 1, got 0"),
        ("thermo/condensation", {"lmin": "-4", "lmax": "-2"}, "--lmin must be >= 1, got -4"),
        ("ed/spectrum", {"L": "4", "k": "0"}, "--k must be >= 1, got 0"),
        # a chain needs a bond: said "need at least two sites", naming no flag
        ("ed/spectrum", {"L": "1"}, "L=1: need at least two sites"),
        # the one-site Hubbard block has no hop: liebwu reported E = -3
        # (exit 0) and verify an eigenvector residual of 2 (exit 4)
        ("hubbard/liebwu", {"L": "1", "N": "1", "M": "0", "u": "1", "qnums": "0"},
         "L=1: need at least two sites"),
        ("hubbard/verify", {"L": "1", "N": "1", "M": "0", "u": "1", "qnums": "0"},
         "L=1: need at least two sites"),
        # t(0) = (rho sh eta)^L U^-1 out of range: a deviation of 2.09 or a
        # non-finite report (exit 4)
        ("vertex/hamiltonian-link", {"rho": "0"},
         "rho=0.0, eta=0.3: (rho sh eta)^4 is 0, subnormal or infinite"),
        ("vertex/hamiltonian-link", {"rho": "1e-80"},
         "rho=1e-80, eta=0.3: (rho sh eta)^4 is 0, subnormal or infinite"),
        ("vertex/hamiltonian-link", {"rho": "1e80"},
         "rho=1e+80, eta=0.3: (rho sh eta)^4 is 0, subnormal or infinite"),
        ("vertex/hamiltonian-link", {"eta": "1000"},
         "rho=1.0, eta=1000.0: (rho sh eta)^4 is 0, subnormal or infinite"),
        # chain lengths out of a command's range: the message named no value
        ("thermo/condensation", {"lmin": "7", "lmax": "9"},
         "L=7: condensation scan expects even L"),
        ("bae/two-magnon", {"L": "18"}, "L=18: the two-magnon scan takes even L, 4 <= L <= 16"),
        ("hubbard/ed", {"L": "9", "N": "1", "M": "1", "u": "1"},
         "L=9: full blocks supported up to L = 8"),
        # hubbard populations: the message named no value
        ("hubbard/ed", {"L": "4", "N": "9", "M": "0", "u": "1"},
         "L=4, N=9, M=0: spin populations must fit on the lattice"),
        ("hubbard/liebwu", {"L": "6", "N": "3", "M": "2", "u": "1", "qnums": "-1,0,1",
                            "spin_qnums": "0,1"},
         "L=6, N=3, M=2: need 0 <= 2M <= N <= L"),
        ("vertex/ice-entropy", {"lmax": "16"}, "L_max=16: even L_max <= 14 required"),
        ("vertex/ice-entropy", {"lmax": "13"}, "L_max=13: even L_max <= 14 required"),
        ("vertex/partition", {"L": "2", "M": "0"}, "--M must be >= 1, got 0"),
        ("vertex/ice-entropy", {"lmax": "0"}, "--lmax must be >= 1, got 0"),
    ])
    def test_malformed_value_names_its_flag(self, mode, command, params, message,
                                            tmp_path, capsys):
        # one value its type does not take, of each type, given as a flag or
        # in --json: one stderr line that names the flag
        assert self._run(tmp_path, mode, command, params) == EXIT_CONFIG
        out = capsys.readouterr()
        assert out.out == "" and out.err == f"config error: {message}\n"

    def test_top_level_help_has_no_command_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert "thermo" in out and "--lmax" not in out and "--n-nodes" not in out

    @pytest.mark.parametrize("command", ["verify-action", "slavnov"])
    def test_aba_length_past_the_product_bound_builds_nothing(self, command, capsys):
        # the L <= 12 bound of the B/C products is checked before the vacuum
        # over L sites or any slavnov_ratio array of size L is built
        tracemalloc.start()
        try:
            status = main(["aba", command, "--L", "1000000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert status == EXIT_CONFIG and peak < 1e6
        out = capsys.readouterr()
        assert out.out == "" and out.err == "config error: B/C products supported up to L = 12\n"

    def test_ed_spectrum_bad_k_is_config_error(self, capsys):
        assert main(["ed", "spectrum", "--L", "4", "--k", "two"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and len(err.strip().splitlines()) == 1

    def test_partial_spectrum_report_bytes_identical(self, tmp_path, capsys):
        # full space at L = 12 is dim 4096: the Lanczos path
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(serialize.dumps({"command": "ed/spectrum", "params": {"L": 12, "k": 3},
                                             "seed": 0}))
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
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(serialize.dumps({"command": "thermo/gs-energy", "params": {"q": "inf"},
                                             "seed": 0}))
        assert main(["thermo", "gs-energy", "--json", str(cfg_path)]) == EXIT_OK

    def test_hubbard_verify(self, capsys):
        assert main(["hubbard", "verify", "--L", "6", "--N", "2", "--M", "1",
                     "--u", "2.0", "--qnums=-1,0", "--spin-qnums", "0"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["eigenvector_residual"] < 1e-8

    def test_half_odd_spin_qnums_are_config_error(self, capsys):
        assert main(["hubbard", "liebwu", "--L", "8", "--N", "6", "--M", "2", "--u", "1.0",
                     "--qnums=-2,-1,0,1,2,3", "--spin-qnums=-0.5"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1

    def test_invariant_violation_exit(self, capsys):
        # an unreachable tolerance on a passing computation must flag exit 4
        assert main(["vertex", "hamiltonian-link", "--L", "4", "--eta", "0.3",
                     "--tol", "0"]) == EXIT_INVARIANT

    @pytest.mark.parametrize("eta", ["10", "40"])
    def test_hamiltonian_link_passes_at_large_eta(self, eta, capsys):
        # the central difference left a deviation of 4.5e-5 at eta = 10, and
        # at eta = 40 the diagonal ch(eta) L/2 is about 5e17
        assert main(["vertex", "hamiltonian-link", "--L", "8", "--eta", eta]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["max_deviation"] < 1e-12

    @pytest.mark.parametrize("argv", [
        ["vertex", "partition", "--L", "0", "--M", "1"],
        ["vertex", "partition", "--L", "-1", "--M", "1"],
        ["vertex", "transfer", "--L", "0", "--eta", "0.3"],
        ["vertex", "ice-entropy", "--lmax", "0"],
    ])
    def test_nonpositive_chain_length_is_config_error(self, argv, capsys):
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["vertex", "ybe"], ["verify", "ybe"],
        ["aba", "slavnov", "--L", "6", "--N", "1"],
        ["aba", "verify-action", "--L", "5", "--N", "1"]],
        ids=["vertex-ybe", "verify-ybe", "aba-slavnov", "aba-verify-action"])
    @pytest.mark.parametrize("trials", ["-5", "0"])
    def test_non_positive_trials_is_config_error(self, argv, trials, capsys):
        assert main(argv + ["--trials", trials]) == EXIT_CONFIG
        assert "--trials must be >= 1" in self._config_error(capsys)

    @pytest.mark.parametrize("L, N", [("4", "3"), ("6", "4"), ("8", "5"), ("3", "2"),
                                      ("7", "4")])
    def test_aba_slavnov_above_the_equator_is_config_error(self, L, N, capsys):
        assert main(["aba", "slavnov", "--L", L, "--N", N]) == EXIT_CONFIG
        assert "2N <= L" in self._config_error(capsys)

    def test_aba_slavnov_unconverged_roots_exit(self, monkeypatch, capsys):
        def unconverged(L, N, gamma, qnums):
            return bae.SolveReport(None, 1.0, 7, False, qnums, stop="stalled")

        monkeypatch.setattr(aba, "solve_logbae_xxz", unconverged)
        assert main(["aba", "slavnov", "--L", "8", "--N", "2"]) == EXIT_NOCONV
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("no convergence:") and out.err.count("\n") == 1

    def test_aba_verify_action_eta_zero_is_config_error(self, capsys):
        assert main(["aba", "verify-action", "--eta", "0"]) == EXIT_CONFIG
        assert "sh(eta) = 0" in self._config_error(capsys)

    def test_nan_residual_does_not_pass(self, monkeypatch, capsys):
        # a nan in the second of three trials must reach the worst value, so
        # no passing report is written (a max that dropped it reported 1e-16)
        residuals = iter([1e-16, np.nan, 1e-16])
        monkeypatch.setattr(aba, "offshell_action_residual", lambda *args: next(residuals))
        assert main(["aba", "verify-action", "--L", "5", "--N", "1", "--trials", "3"]) \
            == EXIT_INVARIANT
        self._invariant_violation(capsys)

    def test_nan_deviation_is_invariant_violation(self, monkeypatch, capsys, tmp_path):
        # a nan result ends the run with one line and writes no report
        monkeypatch.setattr(sixvertex, "hamiltonian_from_transfer",
                            lambda *args: (None, float("nan")))
        argv = ["vertex", "hamiltonian-link", "--L", "4", "--eta", "0.3"]
        assert main(argv) == EXIT_INVARIANT
        self._invariant_violation(capsys)
        assert main(argv + ["--out", str(tmp_path / "run")]) == EXIT_INVARIANT
        self._invariant_violation(capsys)
        assert not (tmp_path / "run" / "report.json").exists()

    @staticmethod
    def _invariant_violation(capsys):
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("invariant violation:") and out.err.count("\n") == 1

    @pytest.mark.parametrize("eta", ["nan", "inf", "NaN"])
    def test_non_finite_parameter_stays_config_error(self, eta, capsys, tmp_path):
        assert main(["vertex", "hamiltonian-link", "--L", "4", "--eta", eta]) == EXIT_CONFIG
        assert f"non-finite --eta = {eta}" in self._config_error(capsys)
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"command": "vertex/hamiltonian-link", "params": {"eta": NaN}}')
        assert main(["vertex", "hamiltonian-link", "--json", str(cfg)]) == EXIT_CONFIG
        assert "non-finite --eta = nan" in self._config_error(capsys)

    def test_infinite_fermi_point(self, capsys, tmp_path):
        # q = inf is a valid Fermi point and gives a finite report, but
        # canonical JSON cannot embed it in the config
        assert main(["thermo", "gs-energy", "--q", "inf", "--n-nodes", "16"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["config"]["params"]["q"] == "inf"
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"command": "thermo/gs-energy", "params": {"q": Infinity, "n_nodes": 16}}')
        assert main(["thermo", "gs-energy", "--json", str(cfg)]) == EXIT_CONFIG
        assert "non-finite --q = inf" in self._config_error(capsys)

    @pytest.mark.parametrize("mode", ["flags", "json"])
    def test_gs_energy_takes_no_coupling(self, mode, tmp_path, capsys):
        # the report's deviation is measured from the J = 1 value -ln 2
        params = {"q": "inf", "J": "2"}
        if mode == "flags":  # an unknown flag is a parser error
            with pytest.raises(SystemExit) as exc:
                self._run(tmp_path, mode, "thermo/gs-energy", params)
            assert exc.value.code == EXIT_CONFIG
        else:
            assert self._run(tmp_path, mode, "thermo/gs-energy", params) == EXIT_CONFIG
        assert "--J" in self._config_error(capsys)

    def test_underflowing_quadrature_weight_is_config_error(self, capsys):
        argv = ["thermo", "density", "--q", "1e-320", "--n-nodes", "1024"]
        assert main(argv) == EXIT_CONFIG
        assert "q = 1e-320 with n_nodes = 1024" in self._config_error(capsys)

    @pytest.mark.parametrize("mode", ["flags", "json"])
    def test_root_with_three_numbers_is_config_error(self, mode, capsys, tmp_path):
        # 0.1,0.2,0.3 once read as 0.1+0.2i with the 0.3 dropped
        params = {"L": 6, "roots": "0.1,0.2,0.3"}
        assert self._run(tmp_path, mode, "bae/residual", params) == EXIT_CONFIG
        assert "--roots" in self._config_error(capsys)
        assert self._run(tmp_path, mode, "bethe-vector/build",
                         {"L": 5, "roots": "0.3,0.1;-0.2,0.4,1"}) == EXIT_CONFIG
        assert "--roots" in self._config_error(capsys)

    @pytest.mark.parametrize("value", ["inf", "1e400"])
    def test_infinite_vertex_weight_is_config_error(self, value, capsys):
        argv = ["vertex", "partition", "--L", "2", "--M", "2", "--a", value]
        assert main(argv) == EXIT_CONFIG
        assert f"non-finite --a = {value}" in self._config_error(capsys)

    @pytest.mark.parametrize("weights", [["1e200", "1e200", "1e200"], ["1e200", "0.5", "1.5"],
                                         ["-1e200", "1e200", "1e200"]])
    def test_overflowing_partition_is_invariant_violation(self, weights, capsys):
        # integral weights give the enumeration's exact int, here past the
        # float range; it once ended in an OverflowError traceback
        argv = ["vertex", "partition", "--L", "2", "--M", "2"]
        argv += [x for flag, w in zip(("--a", "--b", "--c"), weights) for x in (flag, w)]
        assert main(argv) == EXIT_INVARIANT
        out, err = capsys.readouterr()
        assert out == "" and err == "invariant violation: non-finite value in the report\n"

    def test_partition_turns_to_the_shorter_side(self, capsys):
        zs = []
        for L, M in (("20", "2"), ("2", "20")):
            assert main(["vertex", "partition", "--L", L, "--M", M]) == EXIT_OK
            zs.append(json.loads(capsys.readouterr().out)["Z"])
        assert zs[0] == zs[1] == [3488881554, 0.0]
        assert main(["vertex", "partition", "--L", "20", "--M", "16"]) == EXIT_CONFIG
        assert "L=20, M=16" in self._config_error(capsys)

    @pytest.mark.parametrize("mode", ["flags", "json"])
    @pytest.mark.parametrize("flag, value", [("step", "1e-5"), ("J", "0")])
    def test_hamiltonian_link_takes_no_step_or_coupling(self, mode, flag, value,
                                                        tmp_path, capsys):
        # t'(0) is exact and the deviation relative, so neither has a meaning
        params = {"L": "4", flag: value}
        if mode == "flags":  # an unknown flag is a parser error
            with pytest.raises(SystemExit) as exc:
                self._run(tmp_path, mode, "vertex/hamiltonian-link", params)
            assert exc.value.code == EXIT_CONFIG
        else:
            assert self._run(tmp_path, mode, "vertex/hamiltonian-link", params) == EXIT_CONFIG
        assert f"--{flag}" in self._config_error(capsys)

    @pytest.mark.parametrize("argv", [
        ["vertex", "transfer", "--L", "3", "--eta", "-1e-3"],
        ["vertex", "transfer", "--L", "3", "--eta", "0.4", "--lambda", "-2.5e-1-1E-1j"]])
    def test_negative_exponent_value_after_a_space(self, argv, tmp_path, capsys):
        # argparse's own negative-number pattern has no exponent, so the value
        # read as a flag; `--flag=value` always worked
        joined = argv[:-2] + [f"{argv[-2]}={argv[-1]}"]
        assert main(argv + ["--out", str(tmp_path / "spaced")]) == EXIT_OK
        assert main(joined + ["--out", str(tmp_path / "joined")]) == EXIT_OK
        a = (tmp_path / "spaced" / "report.json").read_bytes()
        assert a == (tmp_path / "joined" / "report.json").read_bytes() and len(a) > 0

    def test_negative_eta_after_a_space_reaches_the_link(self, capsys):
        argv = ["vertex", "hamiltonian-link", "--L", "4", "--eta"]
        assert main(argv + ["-1e-3"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["config"]["params"]["eta"] == "-1e-3"
        assert main(argv + ["-1e-13"]) == EXIT_CONFIG
        assert "sh(eta) = 0 makes t(0) singular" in self._config_error(capsys)

    @pytest.mark.parametrize("mode", ["flags", "json"])
    def test_empty_condensation_range_is_config_error(self, mode, capsys, tmp_path):
        # no chain length in the scan would report a check that ran nothing
        params = {"lmin": 10, "lmax": 8}
        assert self._run(tmp_path, mode, "thermo/condensation", params) == EXIT_CONFIG
        assert "leaves no chain length" in self._config_error(capsys)

    @pytest.mark.parametrize("argv", [
        ["vertex", "hamiltonian-link", "--L", "4", "--eta", "inf"],
        ["vertex", "partition", "--L", "2", "--M", "2", "--a", "inf"]])
    def test_non_finite_input_writes_one_stderr_line(self, argv):
        # numpy's RuntimeWarnings on the way must not precede the reason
        src = str(Path(bethelab.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "bethelab.cli", *argv],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == EXIT_CONFIG
        assert proc.stdout == ""
        assert proc.stderr.startswith("config error: non-finite")
        assert proc.stderr.count("\n") == 1, proc.stderr

    @pytest.mark.parametrize("lmax, sizes", [("2", "2"), ("4", "2, 4")])
    def test_ice_entropy_too_few_sizes_is_config_error(self, lmax, sizes, capsys):
        # the reason names the sizes the fit would get, not a setting
        assert main(["vertex", "ice-entropy", "--lmax", lmax]) == EXIT_CONFIG == 2
        assert capsys.readouterr().err == (
            f"config error: L_max={lmax} gives fewer than three sizes (L = {sizes}); "
            "the three-term fit needs L_max >= 6\n")

    @pytest.mark.parametrize("lmax", [6, 8, 12])
    def test_ice_entropy_fits_three_or_more_sizes(self, lmax, capsys):
        assert main(["vertex", "ice-entropy", "--lmax", str(lmax)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert len(report["table"]) == lmax // 2
        assert abs(report["extrapolated"] - report["exact_2d"]) < 2e-2

    @pytest.mark.parametrize("command", ["liebwu", "verify"])
    def test_hubbard_zero_u_is_config_error(self, command, capsys):
        argv = ["hubbard", command, "--L", "6", "--N", "2", "--M", "1", "--u", "0",
                "--qnums=-1,0", "--spin-qnums", "0"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1

    def test_hubbard_ed_zero_u_is_free_fermions(self, capsys):
        L = 4
        assert main(["hubbard", "ed", "--L", str(L), "--N", "2", "--M", "1",
                     "--u", "0"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        eps = -2 * np.cos(2 * np.pi * np.arange(L) / L)  # one up, one down fermion
        assert np.allclose(out["eigenvalues"], np.sort(np.add.outer(eps, eps).ravel()),
                           atol=1e-12)

    def test_every_subcommand_runs(self, tmp_path, capsys):
        assert set(RUNS) == set(COMMANDS)
        for command, (params, key) in RUNS.items():
            assert self._run(tmp_path, "flags", command, params) == EXIT_OK, command
            assert key in json.loads(capsys.readouterr().out), command
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

    def test_reused_parser_gives_the_outcomes_of_a_fresh_one(self, capsys):
        # --k given then omitted, config errors (from the parser and from a
        # value) then a valid call, and --help: exit code, stderr and report as
        # with a parser built for each call
        calls = [["ed", "spectrum", "--L", "6", "--k", "2"], ["ed", "spectrum", "--L", "6"],
                 ["ed", "spectrum", "--L", "6", "--bogus", "1"], ["ed", "spectrum", "--L", "0"],
                 ["ed", "spectrum", "--model", "xxz", "--delta", "0.5", "--L", "4"],
                 ["ed", "spectrum", "--help"]]

        def outcome(argv, fresh):
            if fresh:
                cli._command_parser.cache_clear()
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            return code, err, out

        reused = [outcome(argv, fresh=False) for argv in calls]
        assert reused == [outcome(argv, fresh=True) for argv in calls]
        assert [code for code, *_ in reused] == [EXIT_OK, EXIT_OK, EXIT_CONFIG, EXIT_CONFIG,
                                                 EXIT_OK, 0]
        assert [len(json.loads(out)["eigenvalues"]) for _, _, out in reused[:2]] == [2, 64]
        for _, err, _ in reused[2:4]:
            assert err.startswith("config error:") and err.count("\n") == 1
        assert "--delta" in reused[5][2]
        assert cli._command_parser("ed/spectrum") is cli._command_parser("ed/spectrum")

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

    def test_import_leaves_sparse_linalg_unloaded(self):
        # scipy.sparse.linalg and scipy.linalg are reached lazily, where an
        # eigensolve needs them, so a plain import of the front end does not
        # pay for them; a dense spin-sector or Hubbard solve needs neither
        # scipy.sparse.linalg nor scipy.sparse.csgraph
        src = str(Path(bethelab.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = ("import contextlib, io, sys, bethelab.cli as cli\n"
                "print('scipy.sparse.linalg' in sys.modules, 'scipy.linalg' in sys.modules)\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    codes = [cli.main(['ed', 'spectrum', '--L', '8', '--sector', '4']),\n"
                "             cli.main(['hubbard', 'ed', '--L', '6', '--N', '2', '--M', '1',\n"
                "                       '--u', '1'])]\n"
                "print(*codes, 'scipy.sparse.linalg' in sys.modules,\n"
                "      'scipy.sparse.csgraph' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n")[:2] == ["False False", f"{EXIT_OK} {EXIT_OK} False False"]

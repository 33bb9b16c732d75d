import argparse
import datetime
import gc
import json
import os
import pathlib
import random
import subprocess
import sys
import time
import tracemalloc
from importlib import resources

import jsonschema
import pytest

from vrhq import bitops, bounds, cli, domination, hypercube, render
from vrhq.complexes import format_complex, vietoris_rips

from tests.oracles import dimacs_text

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def strict_loads(text):
    """json.loads that rejects NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, strict_loads(out)


def load_schema(name):
    path = resources.files("vrhq") / "schemas" / f"{name}.schema.json"
    return json.loads(path.read_text())


def validate_envelope(envelope):
    jsonschema.validate(envelope, load_schema("envelope"))
    if envelope["status"] == "ok":
        name = envelope["command"].replace("-", "_")
        jsonschema.validate(envelope["result"], load_schema(name))


class TestBound:
    def test_published_pair(self, capsys):
        code, env = run_json(capsys, "bound", "--n", "7", "--r", "5")
        assert code == 0
        validate_envelope(env)
        res = env["result"]
        assert res["connectivity"] == 6 and res["k"] == 7
        assert res["alpha"] == {"numerator": 64, "denominator": 8, "is_integer": True}
        assert res["paper_discrepancy"] is None

    def test_contractible(self, capsys):
        code, env = run_json(capsys, "bound", "--n", "3", "--r", "3")
        assert code == 0
        validate_envelope(env)
        assert env["result"]["contractible"] is True
        assert env["result"]["connectivity"] is None

    def test_flagged_discrepancy(self, capsys):
        code, env = run_json(capsys, "bound", "--n", "20", "--r", "18")
        assert code == 0
        validate_envelope(env)
        assert env["result"]["connectivity"] == 24965
        assert env["result"]["paper_discrepancy"] == {"printed": 24964, "computed": 24965}

    def test_deterministic_modulo_wall_clock(self, capsys):
        _, a = run_json(capsys, "bound", "--n", "9", "--r", "7")
        _, b = run_json(capsys, "bound", "--n", "9", "--r", "7")
        del a["provenance"]["wall_clock"], b["provenance"]["wall_clock"]
        assert a == b

    def test_started_utc_is_the_start_time_in_utc(self, capsys):
        before = datetime.datetime.now(datetime.timezone.utc)
        _, env = run_json(capsys, "bound", "--n", "9", "--r", "7")
        after = datetime.datetime.now(datetime.timezone.utc)
        text = env["provenance"]["wall_clock"]["started_utc"]
        # always six fraction digits, even at a whole second
        assert len(text) == len("2026-01-01T00:00:00.000000+00:00") and text[19] == "."
        started = datetime.datetime.fromisoformat(text)
        assert started.utcoffset() == datetime.timedelta(0)
        assert before <= started <= after


class TestTable:
    def test_paper_rows(self, capsys):
        code, env = run_json(capsys, "table", "--paper")
        assert code == 0
        validate_envelope(env)
        rows = env["result"]["rows"]
        assert len(rows) == 8
        assert sum(1 for row in rows if row["agrees"]) == 7
        assert rows[-1] == {"n": 20, "r": 18, "connectivity": 24965,
                            "printed": 24964, "agrees": False}

    def test_grid(self, capsys):
        code, env = run_json(capsys, "table", "--n-max", "3", "--r-max", "2")
        assert code == 0
        validate_envelope(env)
        assert len(env["result"]["rows"]) == 6

    def test_single_row_grid(self, capsys):
        code, env = run_json(capsys, "table", "--n-max", "1")
        assert code == 0
        assert env["result"]["rows"] == [
            {"n": 1, "r": 0, "connectivity": -1, "printed": None, "agrees": None}]

    def test_grid_requires_n_max(self, capsys):
        code, env = run_json(capsys, "table")
        assert code == 2
        assert env["status"]["code"] == "value_error"

    def test_markdown(self, capsys):
        code, out = run_cli(capsys, "table", "--paper", "--format", "md")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("| n | r | connectivity")
        assert len(lines) == 10  # header + rule + 8 rows

    def test_csv(self, capsys):
        code, out = run_cli(capsys, "table", "--n-max", "3", "--r-max", "2",
                            "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "n,r,connectivity,printed,agrees"
        assert len(out.splitlines()) == 7

    @staticmethod
    def per_pair(n_max):
        return [(n, r, bounds.connectivity_lower_bound(n, r))
                for n in range(1, n_max + 1) for r in range(n)]

    def test_grid_csv_bytes_match_per_pair_bounds(self, capsys):
        code, out = run_cli(capsys, "table", "--n-max", "12", "--format", "csv")
        assert code == 0
        want = ["n,r,connectivity,printed,agrees"]
        want += [f"{n},{r},{c},," for n, r, c in self.per_pair(12)]
        assert out.splitlines() == want

    def test_grid_json_rows_match_per_pair_bounds(self, capsys):
        code, env = run_json(capsys, "table", "--n-max", "12")
        assert code == 0
        assert list(env["result"]["rows"][0]) == ["n", "r", "connectivity", "printed", "agrees"]
        assert env["result"]["rows"] == [
            {"n": n, "r": r, "connectivity": c, "printed": None, "agrees": None}
            for n, r, c in self.per_pair(12)]

    def test_grid_rows_are_padded_in_place(self):
        # the grid's 3-tuples and the padded 5-tuples are never all held at
        # once: holding both lists took twice grid_table's own peak
        args = cli.build_parser().parse_args(["table", "--n-max", "200"])
        tracemalloc.start()
        try:
            bounds.grid_table(200)
            grid_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            rows = cli._cmd_table(args)["rows"]
            table_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows.tuples) == 20100
        assert table_peak < 1.5 * grid_peak

    def test_paper_csv_flags_the_last_row(self, capsys):
        code, out = run_cli(capsys, "table", "--paper", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 9
        assert lines[-1] == "20,18,24965,24964,false"


class TestCounterexamples:
    def test_empty_n6(self, capsys):
        code, env = run_json(capsys, "counterexamples", "--n-max", "6")
        assert code == 0
        validate_envelope(env)
        assert env["result"]["pairs"] == []

    def test_n8(self, capsys):
        code, env = run_json(capsys, "counterexamples", "--n-max", "8")
        assert code == 0
        validate_envelope(env)
        assert env["result"]["pairs"] == [
            {"n": 7, "r": 5, "connectivity": 6},
            {"n": 8, "r": 6, "connectivity": 13}]


class TestGammaT:
    def test_hamming_complement(self, capsys):
        code, env = run_json(capsys, "gamma-t", "--n", "3", "--r", "2")
        assert code == 0
        validate_envelope(env)
        res = env["result"]
        assert res["exact"] == 8 and res["status"] == "exact"
        assert "bounds_only" not in res and "time_limit_hit" not in res
        assert res["graph"]["kind"] == "hamming_complement"

    def test_self_check_failure_prints_no_result(self, capsys, monkeypatch):
        # a witness that does not dominate is a bug: exit 1, never a result
        monkeypatch.setattr(domination, "_search", lambda part, deadline: (4, 4, 0b1111, 1))
        code, env = run_json(capsys, "gamma-t", "--n", "4", "--r", "2")
        assert code == cli.EXIT_SELF_CHECK == 1
        validate_envelope(env)
        assert env["status"]["code"] == "self_check_failed" and env["result"] is None

    def test_exhaustive_mode(self, capsys):
        code, env = run_json(capsys, "gamma-t", "--n", "3", "--r", "2", "--exhaustive")
        assert code == 0
        validate_envelope(env)
        assert env["result"]["exact"] == 8 and env["result"]["mode"] == "exhaustive"

    def test_dimacs_input(self, capsys, tmp_path):
        path = tmp_path / "g.col"
        path.write_text("p edge 4 4\ne 1 2\ne 2 3\ne 3 4\ne 4 1\n")
        code, env = run_json(capsys, "gamma-t", "--dimacs", str(path))
        assert code == 0
        validate_envelope(env)
        assert env["result"]["exact"] == 2
        assert env["result"]["graph"]["kind"] == "dimacs"

    def test_relabelled_dimacs_copy_takes_the_natural_tree(self, capsys, tmp_path):
        gc64 = hypercube.build_hamming_graph(6, 4, complemented=True)
        perm = list(range(64))
        random.Random(7).shuffle(perm)  # vertex u of Gc(6,4) is perm[u] in the file
        path = tmp_path / "gc64.col"
        path.write_text(dimacs_text(hypercube.Graph.from_edges(
            64, [(perm[u], perm[v]) for u in range(64) for v in bitops.iter_bits(gc64.row(u))])))
        code, env = run_json(capsys, "gamma-t", "--dimacs", str(path))
        assert code == 0
        _, natural = run_json(capsys, "gamma-t", "--n", "6", "--r", "4")
        res, want = env["result"], natural["result"]
        assert (res["exact"], res["nodes"]) == (want["exact"], want["nodes"]) == (12, 2782)
        inverse = {p: u for u, p in enumerate(perm)}
        witness = [inverse[v] for v in res["witness"]]
        assert len(witness) == 12
        assert all(any(hypercube.hamming_distance(u, w) >= 5 for w in witness)
                   for u in range(64))

    def test_time_limit_expiry_is_ok_exit(self, capsys):
        code, env = run_json(capsys, "gamma-t", "--n", "8", "--r", "6",
                             "--time-limit", "0.05s")
        assert code == 0
        validate_envelope(env)
        res = env["result"]
        assert res["status"] == "bounds_only"
        assert res["exact"] is None and res["lower"] <= res["upper"]

    def test_memory_error_exits_4(self, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError
        monkeypatch.setattr(hypercube, "build_hamming_graph", exhausted)
        code, env = run_json(capsys, "gamma-t", "--n", "17", "--r", "9")
        assert code == 4
        assert env["result"] is None
        assert env["status"]["code"] == "memory_error"
        assert env["status"]["message"] == "gamma-t failed with MemoryError"
        validate_envelope(env)

    def test_missing_file_exits_3(self, capsys):
        code, env = run_json(capsys, "gamma-t", "--dimacs", "/does/not/exist")
        assert code == 3

    def test_malformed_dimacs_exits_3(self, capsys, tmp_path):
        path = tmp_path / "bad.col"
        path.write_text("p edge 2 1\ne 1 1\n")
        code, env = run_json(capsys, "gamma-t", "--dimacs", str(path))
        assert code == 3
        assert env["status"]["code"] == "parse_error"

    def test_isolated_vertices_exit_2(self, capsys):
        code, env = run_json(capsys, "gamma-t", "--n", "3", "--r", "3")
        assert code == 2
        assert env["status"]["code"] == "isolated_vertex"

    def test_flag_conflicts(self, capsys, tmp_path):
        path = tmp_path / "g.col"
        path.write_text("p edge 2 1\ne 1 2\n")
        code, _ = run_json(capsys, "gamma-t", "--dimacs", str(path), "--n", "2")
        assert code == 2
        code, _ = run_json(capsys, "gamma-t", "--n", "2")
        assert code == 2

    def test_exhaustive_takes_no_time_limit(self, capsys):
        code, env = run_json(capsys, "gamma-t", "--n", "3", "--r", "2", "--exhaustive",
                             "--time-limit", "0s")
        assert code == 2
        assert env["status"]["message"] == "--exhaustive excludes --time-limit"

    def test_exhaustive_cap_exits_4(self, capsys):
        code, env = run_json(capsys, "gamma-t", "--n", "5", "--r", "3", "--exhaustive")
        assert code == 4
        assert env["status"]["code"] == "too_large"


class TestComplexCommand:
    def test_writes_file(self, capsys, tmp_path):
        out = tmp_path / "q32.cx"
        code, env = run_json(capsys, "complex", "--n", "3", "--r", "2",
                             "--max-dim", "3", "--out", str(out))
        assert code == 0
        validate_envelope(env)
        assert env["result"]["f_vector"] == [8, 24, 32, 16]
        assert env["result"]["euler_characteristic"] == 0
        assert out.read_text() == format_complex(vietoris_rips(3, 2, 3))

    def test_cap_exits_4(self, capsys, tmp_path):
        code, env = run_json(capsys, "complex", "--n", "3", "--r", "3",
                             "--max-dim", "5", "--out", str(tmp_path / "x.cx"),
                             "--max-simplices", "10")
        assert code == 4
        assert env["status"]["code"] == "too_large"

    def test_env_cap(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("VRHQ_MAX_SIMPLICES", "10")
        code, _ = run_json(capsys, "complex", "--n", "3", "--r", "3",
                           "--max-dim", "5", "--out", str(tmp_path / "x.cx"))
        assert code == 4
        # flags take precedence over the environment
        code, _ = run_json(capsys, "complex", "--n", "3", "--r", "3",
                           "--max-dim", "5", "--out", str(tmp_path / "x.cx"),
                           "--max-simplices", "100000")
        assert code == 0

    def test_dimension_ceiling_exits_4(self, capsys, tmp_path):
        code, env = run_json(capsys, "complex", "--n", "30", "--r", "2",
                             "--max-dim", "1", "--out", str(tmp_path / "x.cx"))
        assert code == 4
        assert env["status"]["code"] == "dimension_too_large"

    def test_negative_max_dim_exits_2_and_writes_nothing(self, capsys, tmp_path):
        out = tmp_path / "x.cx"
        code, env = run_json(capsys, "complex", "--n", "3", "--r", "2",
                             "--max-dim", "-1", "--out", str(out))
        assert code == 2
        assert env["status"] == {"code": "value_error", "message": "max_dim must be >= 0"}
        assert not out.exists()


class TestHomologyCommand:
    def test_three_sphere(self, capsys):
        code, env = run_json(capsys, "homology", "--n", "3", "--r", "2", "--up-to", "3")
        assert code == 0
        validate_envelope(env)
        assert env["result"]["reduced_betti"] == [0, 0, 0, 1]
        assert env["result"]["torsion"] is None

    def test_integer_pipeline(self, capsys):
        code, env = run_json(capsys, "homology", "--n", "2", "--r", "1",
                             "--up-to", "1", "--coefficients", "z")
        assert code == 0
        validate_envelope(env)
        assert env["result"]["reduced_betti"] == [0, 1]
        assert env["result"]["torsion"] == [[], []]

    def test_complex_file_source(self, capsys, tmp_path):
        out = tmp_path / "k.cx"
        run_cli(capsys, "complex", "--n", "2", "--r", "1", "--max-dim", "2",
                "--out", str(out))
        code, env = run_json(capsys, "homology", "--complex", str(out), "--up-to", "1")
        assert code == 0
        validate_envelope(env)
        assert env["result"]["reduced_betti"] == [0, 1]
        assert env["result"]["source"]["kind"] == "file"

    def test_complex_file_takes_no_simplex_cap(self, capsys, tmp_path, monkeypatch):
        # the cap bounds --n/--r builds; a file is read whole, so the flag is
        # refused and the environment variable is not read
        out = tmp_path / "k.cx"
        run_cli(capsys, "complex", "--n", "2", "--r", "1", "--max-dim", "2",
                "--out", str(out))
        code, env = run_json(capsys, "homology", "--complex", str(out), "--up-to", "1",
                             "--max-simplices", "1")
        assert code == 2
        assert "--max-simplices" in env["status"]["message"]
        monkeypatch.setenv("VRHQ_MAX_SIMPLICES", "1")
        code, env = run_json(capsys, "homology", "--complex", str(out), "--up-to", "1")
        assert code == 0 and env["result"]["reduced_betti"] == [0, 1]

    def test_truncation_too_shallow_exits_2(self, capsys, tmp_path):
        out = tmp_path / "k.cx"
        run_cli(capsys, "complex", "--n", "2", "--r", "1", "--max-dim", "1",
                "--out", str(out))
        code, env = run_json(capsys, "homology", "--complex", str(out), "--up-to", "1")
        assert code == 2
        assert env["status"]["code"] == "truncation_too_shallow"

    def test_malformed_complex_file_exits_3(self, capsys, tmp_path):
        bad = tmp_path / "bad.cx"
        bad.write_text("dim 1 vertices 2\n0\n1\n1 0\n")
        code, env = run_json(capsys, "homology", "--complex", str(bad), "--up-to", "0")
        assert code == 3

    def test_snf_cap_exits_4(self, capsys):
        # the cap bounds the Morse matrices: VR(Q_3;1) has five critical
        # edges, though its full d_1 is 8 x 12
        argv = ["homology", "--n", "3", "--r", "1", "--up-to", "1", "--coefficients", "z"]
        code, env = run_json(capsys, *argv, "--snf-cap", "4")
        assert code == 4
        assert env["status"]["code"] == "too_large"
        code, env = run_json(capsys, *argv, "--snf-cap", "5")
        assert code == 0
        assert env["result"]["reduced_betti"] == [0, 5]

    def test_csv_rows_per_dimension(self, capsys):
        code, out = run_cli(capsys, "homology", "--n", "3", "--r", "2",
                            "--up-to", "3", "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["dim,reduced_betti,torsion",
                                    "0,0,", "1,0,", "2,0,", "3,1,"]


class TestWitnessCommand:
    def test_q2_example(self, capsys):
        code, env = run_json(capsys, "witness", "--n", "2", "--r", "1",
                             "--vertices", "0,1,2,3")
        assert code == 0
        validate_envelope(env)
        res = env["result"]
        assert res["is_cross_polytope_boundary"] is True
        assert res["is_total_dominating_in_complement"] is True
        assert res["recovered_pairs"] == [[0, 3], [1, 2]]

    def test_negative_result_is_exit_0(self, capsys):
        code, env = run_json(capsys, "witness", "--n", "3", "--r", "2",
                             "--vertices", "0,3,5,6")
        assert code == 0
        validate_envelope(env)
        assert env["result"]["is_cross_polytope_boundary"] is False
        assert env["result"]["missing_pairs"] != []

    def test_odd_count_exits_2(self, capsys):
        code, env = run_json(capsys, "witness", "--n", "2", "--r", "1",
                             "--vertices", "0,1,2")
        assert code == 2
        assert env["status"]["code"] == "odd_count"

    def test_duplicate_exits_2(self, capsys):
        code, env = run_json(capsys, "witness", "--n", "2", "--r", "1",
                             "--vertices", "0,0,1,2")
        assert code == 2
        assert env["status"]["code"] == "duplicate_vertex"

    def test_over_ceiling_exits_4_before_scanning(self, capsys):
        # the scan would visit 2^40 vertices; the cap answers at once
        code, env = run_json(capsys, "witness", "--n", "40", "--r", "5",
                             "--vertices", "0,1099511627775")
        assert code == 4
        assert env["result"] is None
        assert env["status"]["code"] == "dimension_too_large"


class TestFlagErrors:
    @pytest.mark.parametrize("argv", [
        ["frobnicate"],
        ["bound", "--n", "7"],
        ["bound", "--n", "x", "--r", "1"],
        ["gamma-t", "--n", "3", "--r", "2", "--time-limit", "soon"],
        ["witness", "--n", "2", "--r", "1", "--vertices", "0,a"],
        ["homology", "--n", "2", "--r", "1", "--up-to", "1", "--coefficients", "gf3"],
        ["bound", "--n", "7", "--r", "5", "--format", "yaml"],
        ["bound", "--n", "7", "--r", "5", "--threads", "1"],
        ["table", "--paper", "--n-max", "3"],
        ["table", "--paper", "--r-max", "3"],
        ["table", "--n-max", "3", "--r-max", "-1"],
        [],
        ["gamma-t", "--n", "3", "--r", "1", "--exhaustive", "--time-limit", "0s"],
        ["homology", "--complex", "missing.cx", "--up-to", "1", "--max-simplices", "1"],
        ["homology", "--n", "3", "--r", "1", "--up-to", "1", "--snf-cap", "0"],
        ["gamma-t", "--n", "3", "--r", "2", "--time-limit", "nan"],
        ["gamma-t", "--n", "3", "--r", "2", "--time-limit", "inf"],
        ["gamma-t", "--n", "3", "--r", "2", "--time-limit", "1e400s"],
        ["gamma-t", "--n", "3", "--r", "2", "--time-limit", "1e308h"],
        ["gamma-t", "--n", "3", "--r", "1", "--time-limit", "-1"],
    ])
    def test_exit_2(self, capsys, argv):
        assert cli.main(argv) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["frobnicate"],
        ["bound", "--n", "7"],
        ["bound", "--n", "x", "--r", "1"],
        ["bound", "--n", "7", "--r", "5", "--format", "yaml"],
        ["gamma-t", "--n", "3", "--r", "2", "--time-limit", "soon"],
        [],
        ["gamma-t", "--n", "3", "--r", "1", "--time-limit", "-1"],
    ])
    def test_parse_errors_print_no_envelope(self, capsys, argv):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage:" in captured.err

    @pytest.mark.parametrize("argv", [
        ["table", "--paper", "--n-max", "3"],
        ["homology", "--n", "3", "--r", "1", "--up-to", "1", "--snf-cap", "0"],
        ["witness", "--n", "3", "--r", "-1", "--vertices", "0,7"],
        ["witness", "--n", "0", "--r", "0", "--vertices", ","],
        ["witness", "--n", "-2", "--r", "1", "--vertices", ","],
        ["homology", "--complex", "missing.cx", "--n", "3", "--up-to", "0"],
        ["homology", "--up-to", "0"],
        ["homology", "--n", "3", "--r", "2", "--up-to", "-1"],
    ])
    def test_errors_after_parsing_print_one_envelope(self, capsys, argv):
        code, env = run_json(capsys, *argv)
        assert code == 2
        assert env["result"] is None
        assert env["status"]["code"] == "value_error"
        validate_envelope(env)

    def test_gf2_does_not_read_the_snf_cap_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("VRHQ_SNF_CAP", "-3")
        code, env = run_json(capsys, "homology", "--n", "3", "--r", "1", "--up-to", "1")
        assert code == 0
        assert env["result"]["reduced_betti"] == [0, 5]

    @pytest.mark.parametrize("flag, env_name, argv", [
        ("--snf-cap", "VRHQ_SNF_CAP",
         ["homology", "--n", "2", "--r", "1", "--up-to", "1", "--coefficients", "z"]),
        ("--max-simplices", "VRHQ_MAX_SIMPLICES",
         ["homology", "--n", "2", "--r", "1", "--up-to", "1"]),
        ("--max-simplices", "VRHQ_MAX_SIMPLICES",
         ["complex", "--n", "2", "--r", "1", "--max-dim", "1", "--out", "unwritten.cx"]),
    ])
    def test_negative_cap_exits_2(self, capsys, monkeypatch, flag, env_name, argv):
        code, env = run_json(capsys, *argv, flag, "-1")
        assert code == 2
        assert env["status"] == {"code": "value_error",
                                 "message": f"{flag} must be >= 0, got -1"}
        monkeypatch.setenv(env_name, "-3")
        code, env = run_json(capsys, *argv)
        assert code == 2
        assert env["status"] == {"code": "value_error",
                                 "message": f"{env_name} must be >= 0, got -3"}
        # a cap of 0 is legal, and these inputs are over it
        code, env = run_json(capsys, *argv, flag, "0")
        assert code == 4
        assert env["status"]["code"] == "too_large"
        monkeypatch.setenv(env_name, "abc")
        code, env = run_json(capsys, *argv)
        assert code == 2
        assert env["status"] == {"code": "value_error",
                                 "message": f"{env_name} must be an integer, got 'abc'"}

    def test_domain_error_envelope(self, capsys):
        code, env = run_json(capsys, "bound", "--n", "0", "--r", "0")
        assert code == 2
        assert env["result"] is None
        assert env["status"]["code"] == "value_error"
        validate_envelope(env)

    @pytest.mark.parametrize("argv", [
        ["bound", "--n", "3"],
        ["gamma-t", "--n", "3"],
        ["homology", "--n", "3", "--up-to", "1"],
        ["witness", "--n", "3", "--vertices", "0,7"],
    ])
    def test_one_message_for_a_bad_pair(self, capsys, argv):
        code, env = run_json(capsys, *argv, "--r", "-1")
        assert code == 2
        assert env["status"] == {"code": "value_error",
                                 "message": "r must be an integer >= 0, got -1"}

    def test_duration_units(self, capsys):
        assert cli._parse_duration("600s") == 600.0
        assert cli._parse_duration("2m") == 120.0
        assert cli._parse_duration("0.5h") == 1800.0
        assert cli._parse_duration("42") == 42.0
        with pytest.raises(argparse.ArgumentTypeError, match="duration must be non-negative"):
            cli._parse_duration("-1")


class TestGammaT64:
    def test_published_window(self, capsys):
        code, env = run_json(capsys, "gamma-t", "--n", "6", "--r", "4",
                             "--time-limit", "600s")
        assert code == 0
        validate_envelope(env)
        res = env["result"]
        assert res["status"] == "exact"
        assert 10 <= res["exact"] <= 16
        assert res["lower"] == res["upper"] == res["exact"] == len(res["witness"])


DETERMINISM_ARGV = [
    ["table", "--paper"],
    ["counterexamples", "--n-max", "8"],
    ["homology", "--n", "3", "--r", "2", "--up-to", "3"],
    ["witness", "--n", "2", "--r", "1", "--vertices", "0,1,2,3"],
    ["gamma-t", "--n", "4", "--r", "2"],
]


class TestDeterminism:
    @pytest.mark.parametrize("argv", DETERMINISM_ARGV)
    def test_identical_invocations_identical_envelopes(self, capsys, argv):
        _, a = run_json(capsys, *argv)
        _, b = run_json(capsys, *argv)
        del a["provenance"]["wall_clock"], b["provenance"]["wall_clock"]
        assert a == b


# The exact CSV and Markdown bytes of the commands whose tabular projections
# no other test renders; {out} stands for the complex file written.  A '|'
# in a Markdown cell is escaped, or it would end the cell.
GOLDEN_TABLES = [
    (["bound", "--n", "20", "--r", "18"], "csv",
     "n,r,contractible,alpha_numerator,alpha_denominator,k,connectivity,paper_printed\n"
     "20,18,false,524288,21,24966,24965,24964\n"),
    (["bound", "--n", "20", "--r", "18"], "md",
     "| n | r | contractible | alpha_numerator | alpha_denominator | k | "
     "connectivity | paper_printed |\n"
     "| --- | --- | --- | --- | --- | --- | --- | --- |\n"
     "| 20 | 18 | false | 524288 | 21 | 24966 | 24965 | 24964 |\n"),
    (["bound", "--n", "3", "--r", "3"], "csv",
     "n,r,contractible,alpha_numerator,alpha_denominator,k,connectivity,paper_printed\n"
     "3,3,true,,,,,\n"),
    (["bound", "--n", "3", "--r", "3"], "md",
     "| n | r | contractible | alpha_numerator | alpha_denominator | k | "
     "connectivity | paper_printed |\n"
     "| --- | --- | --- | --- | --- | --- | --- | --- |\n"
     "| 3 | 3 | true |  |  |  |  |  |\n"),
    (["counterexamples", "--n-max", "8"], "csv",
     "n,r,connectivity\n"
     "7,5,6\n"
     "8,6,13\n"),
    (["counterexamples", "--n-max", "8"], "md",
     "| n | r | connectivity |\n"
     "| --- | --- | --- |\n"
     "| 7 | 5 | 6 |\n"
     "| 8 | 6 | 13 |\n"),
    (["gamma-t", "--n", "5", "--r", "3"], "csv",
     "kind,m,max_degree,mode,lower,upper,exact,status,witness\n"
     "hamming_complement,32,6,branch_and_bound,7,7,7,exact,0 13 15 19 22 26 29\n"),
    (["gamma-t", "--n", "5", "--r", "3"], "md",
     "| kind | m | max_degree | mode | lower | upper | exact | status | witness |\n"
     "| --- | --- | --- | --- | --- | --- | --- | --- | --- |\n"
     "| hamming_complement | 32 | 6 | branch_and_bound | 7 | 7 | 7 | exact | "
     "0 13 15 19 22 26 29 |\n"),
    (["gamma-t", "--n", "4", "--r", "2", "--exhaustive"], "csv",
     "kind,m,max_degree,mode,lower,upper,exact,status,witness\n"
     "hamming_complement,16,5,exhaustive,4,4,4,exact,\n"),
    (["gamma-t", "--n", "4", "--r", "2", "--exhaustive"], "md",
     "| kind | m | max_degree | mode | lower | upper | exact | status | witness |\n"
     "| --- | --- | --- | --- | --- | --- | --- | --- | --- |\n"
     "| hamming_complement | 16 | 5 | exhaustive | 4 | 4 | 4 | exact |  |\n"),
    (["complex", "--n", "3", "--r", "2", "--max-dim", "3", "--out", "{out}"], "csv",
     "n,r,max_dim,simplex_count,euler_characteristic,f_vector,out\n"
     "3,2,3,80,0,8 24 32 16,{out}\n"),
    (["complex", "--n", "3", "--r", "2", "--max-dim", "3", "--out", "{out}"], "md",
     "| n | r | max_dim | simplex_count | euler_characteristic | f_vector | out |\n"
     "| --- | --- | --- | --- | --- | --- | --- |\n"
     "| 3 | 2 | 3 | 80 | 0 | 8 24 32 16 | {out} |\n"),
    (["complex", "--n", "2", "--r", "1", "--max-dim", "1", "--out", "{out}|b.cx"], "md",
     "| n | r | max_dim | simplex_count | euler_characteristic | f_vector | out |\n"
     "| --- | --- | --- | --- | --- | --- | --- |\n"
     "| 2 | 1 | 1 | 8 | 0 | 4 4 | {out}\\|b.cx |\n"),
    (["witness", "--n", "3", "--r", "2", "--vertices", "0,7"], "csv",
     "n,r,vertices,is_matching_complement,is_cross_polytope_boundary,"
     "is_total_dominating_in_complement,missing_pairs,recovered_pairs\n"
     "3,2,0 7,true,true,false,,\"0,7\"\n"),
    (["witness", "--n", "3", "--r", "2", "--vertices", "0,7"], "md",
     "| n | r | vertices | is_matching_complement | is_cross_polytope_boundary | "
     "is_total_dominating_in_complement | missing_pairs | recovered_pairs |\n"
     "| --- | --- | --- | --- | --- | --- | --- | --- |\n"
     "| 3 | 2 | 0 7 | true | true | false |  | 0,7 |\n"),
    (["witness", "--n", "3", "--r", "2", "--vertices", "0,1,2,3"], "csv",
     "n,r,vertices,is_matching_complement,is_cross_polytope_boundary,"
     "is_total_dominating_in_complement,missing_pairs,recovered_pairs\n"
     "3,2,0 1 2 3,true,false,false,\"0,0;1,1;2,2;3,3\",\n"),
    (["witness", "--n", "3", "--r", "2", "--vertices", "0,1,2,3"], "md",
     "| n | r | vertices | is_matching_complement | is_cross_polytope_boundary | "
     "is_total_dominating_in_complement | missing_pairs | recovered_pairs |\n"
     "| --- | --- | --- | --- | --- | --- | --- | --- |\n"
     "| 3 | 2 | 0 1 2 3 | true | false | false | 0,0;1,1;2,2;3,3 |  |\n"),
]


class TestTabularOutput:
    @pytest.mark.parametrize("argv, fmt, want", GOLDEN_TABLES,
                             ids=[" ".join(argv + [fmt]) for argv, fmt, _ in GOLDEN_TABLES])
    def test_exact_bytes(self, capsys, tmp_path, argv, fmt, want):
        out = str(tmp_path / "k.cx")
        code, text = run_cli(capsys, *[a.replace("{out}", out) for a in argv],
                             "--format", fmt)
        assert code == 0
        assert text == want.replace("{out}", out)

    def test_handlers_projections_and_schemas_name_the_same_commands(self):
        schemas = {path.name.removesuffix(".schema.json").replace("_", "-")
                   for path in (resources.files("vrhq") / "schemas").iterdir()}
        schemas.remove("envelope")
        assert set(cli._HANDLERS) == set(render._PROJECTIONS) == schemas
        assert len(schemas) == 7

    def test_unknown_format_is_a_value_error(self, capsys):
        _, env = run_json(capsys, "bound", "--n", "7", "--r", "5")
        with pytest.raises(ValueError, match="unknown format 'yaml'"):
            render.encode(env, "yaml")


class TestMalformedInputFuzz:
    import hypothesis
    import hypothesis.strategies as st

    token = st.one_of(
        st.sampled_from(["bound", "table", "gamma-t", "witness", "--n", "--r",
                         "--n-max", "--format", "json", "--paper", "--vertices",
                         "-3", "0", "7", "40", "x", "--time-limit", "5s",
                         "--up-to"]),
        st.text(alphabet="abc-07,", min_size=0, max_size=6))

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(st.lists(token, min_size=0, max_size=5))
    def test_exit_codes_stay_in_contract(self, argv):
        import contextlib
        import io
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = cli.main(argv)
        assert code in (0, 2, 3, 4)


def run_module(*argv, **kwargs):
    """Run `python -m vrhq ARGV` in a child that imports vrhq from this
    checkout's src, installed or not."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "vrhq", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, **kwargs)


# Runs vrhq as `python -m vrhq ARGV` does, with an atexit handler that
# writes the collector's frozen-object count to the file named first.
FROZEN_AT_EXIT = """
import atexit, gc, runpy, sys
path = sys.argv.pop(1)

def record():
    with open(path, "w") as fh:
        fh.write(str(gc.get_freeze_count()))

atexit.register(record)
runpy.run_module("vrhq", run_name="__main__", alter_sys=True)
"""


def without_wall_clock(out):
    """JSON stdout less the one field that differs between two runs."""
    if not out.startswith("{"):
        return out
    envelope = strict_loads(out)
    del envelope["provenance"]["wall_clock"]
    return envelope


class TestEntryPoint:
    def test_module_invocation(self):
        proc = run_module("bound", "--n", "7", "--r", "5")
        assert proc.returncode == 0
        assert strict_loads(proc.stdout)["result"]["connectivity"] == 6

    def test_version_flag(self):
        proc = run_module("--version")
        assert proc.returncode == 0 and proc.stdout.startswith("vrhq ")

    @pytest.mark.parametrize("argv, code", [
        (["bound", "--n", "7", "--r", "5"], 0),
        (["table"], 2),
        (["homology", "--complex", "missing.cx", "--up-to", "0"], 3),
        (["gamma-t", "--n", "5", "--r", "3", "--exhaustive"], 4),
        (["--version"], 0),
        (["bound", "--n", "x", "--r", "5"], 2),
    ], ids=["ok", "usage", "ingest", "cap", "version", "argparse"])
    def test_launch_freezes_the_heap_before_shutdown(self, capsys, monkeypatch, tmp_path,
                                                      argv, code):
        # the shutdown collection then has nothing to scan; the output, the
        # exit code and the atexit handlers are those of main() in process
        probe = tmp_path / "frozen.txt"
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        child = subprocess.run([sys.executable, "-c", FROZEN_AT_EXIT, str(probe), *argv],
                               capture_output=True, text=True, cwd=tmp_path, timeout=60,
                               env={**os.environ, "PYTHONPATH": path})
        monkeypatch.chdir(tmp_path)
        assert cli.main(argv) == code
        want = capsys.readouterr()
        assert child.returncode == code
        assert without_wall_clock(child.stdout) == without_wall_clock(want.out)
        assert child.stderr == want.err
        assert int(probe.read_text()) > 0

    @pytest.mark.parametrize("argv", DETERMINISM_ARGV)
    def test_main_in_process_leaves_the_collector_as_it_found_it(self, capsys, argv):
        before = gc.isenabled(), gc.get_freeze_count()
        assert cli.main(argv) == 0
        assert (gc.isenabled(), gc.get_freeze_count()) == before


def run_limited(*argv):
    """Run `python -m vrhq ARGV` in a child process whose address space is
    capped at 1 GiB, with a 30 s timeout.  Only the child is limited, so an
    allocation sized by a declared count ends there as memory_error instead
    of taking the host's memory.  Returns (exit code, envelope, seconds)."""
    resource = pytest.importorskip("resource")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    started = time.perf_counter()
    proc = run_module(*argv, preexec_fn=cap, timeout=30)
    return proc.returncode, strict_loads(proc.stdout), time.perf_counter() - started


class TestResourceContract:
    """A file header declares sizes; nothing is allocated by a declared size
    before it is checked, so a tiny file cannot exhaust memory."""

    def test_complex_header_dimension_costs_nothing(self, tmp_path):
        path = tmp_path / "deep.cx"
        path.write_text("dim 100000000 vertices 1\n0\n")
        code, env, elapsed = run_limited("homology", "--complex", str(path), "--up-to", "0")
        assert code == 0, env["status"]
        assert env["result"]["reduced_betti"] == [0]
        assert elapsed < 5

    def test_dimacs_vertex_count_above_the_ceiling_exits_4(self, tmp_path):
        path = tmp_path / "huge.dimacs"
        path.write_text("p edge 1000000000 0\n")
        code, env, _ = run_limited("gamma-t", "--dimacs", str(path))
        assert code == 4
        assert env["status"]["code"] == "dimension_too_large"

    def test_dimacs_header_with_too_few_edges_builds_no_graph(self, capsys, tmp_path,
                                                               monkeypatch):
        # 2 * E < M proves an isolated vertex before any row is sized by M
        path = tmp_path / "sparse.dimacs"
        path.write_text("p edge 10000000 0\n")

        def refuse(*args, **kwargs):
            raise AssertionError("a graph was built")
        monkeypatch.setattr(hypercube.Graph, "from_edges", refuse)
        monkeypatch.setattr(hypercube.Graph, "__init__", refuse)
        code, env = run_json(capsys, "gamma-t", "--dimacs", str(path))
        assert code == 2
        assert env["status"] == {
            "code": "isolated_vertex",
            "message": "total domination is undefined on graphs with isolated vertices"}

    def test_witness_at_the_ceiling_scans_q24_in_seconds(self):
        # each word u has d(u, t) <= 12, so ~t is far, or d(u, t) >= 13,
        # so every t ^ 2^i with i outside the distance is; the word-by-word
        # scan took 5.4 s in process
        t = 0b101100111000111100001111
        verts = [t ^ (1 << i) for i in range(23)] + [t ^ ((1 << 24) - 1)]
        code, env, elapsed = run_limited("witness", "--n", "24", "--r", "11", "--vertices",
                                         ",".join(map(str, verts)))
        assert code == 0, env["status"]
        assert env["result"]["is_total_dominating_in_complement"] is True
        assert elapsed < 3

    def test_gf2_homology_of_q6_r3_through_degree_7(self):
        # the packed d_6 alone took 955 MiB when every column was packed
        code, env, _ = run_limited("homology", "--n", "6", "--r", "3", "--up-to", "7")
        assert code == 0, env["status"]
        assert env["result"]["reduced_betti"] == [0, 0, 0, 0, 11, 0, 0, 60]

    @pytest.mark.parametrize("up_to, betti", [(6, [0, 0, 0, 0, 11, 0, 0]),
                                               (7, [0, 0, 0, 0, 11, 0, 0, 60])])
    def test_z_homology_of_q6_r3(self, up_to, betti):
        # the full d_2 and up exceed the default cap of 5000 rows or columns;
        # the largest Morse matrix is 2499 x 2139
        code, env, _ = run_limited("homology", "--n", "6", "--r", "3", "--up-to", str(up_to),
                                   "--coefficients", "z")
        assert code == 0, env["status"]
        assert env["result"]["reduced_betti"] == betti
        assert env["result"]["torsion"] == [[]] * (up_to + 1)

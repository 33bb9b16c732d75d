import json
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest

from vrhq import cli
from vrhq.complexes import format_complex, vietoris_rips


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


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
        monkeypatch.setattr(cli.hypercube, "build_hamming_graph", exhausted)
        code, env = run_json(capsys, "gamma-t", "--n", "17", "--r", "9")
        assert code == 4
        assert env["result"] is None
        assert env["status"]["code"] == "memory_error"
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
        code, env = run_json(capsys, "homology", "--n", "2", "--r", "1",
                             "--up-to", "1", "--coefficients", "z", "--snf-cap", "1")
        assert code == 4

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
        [],
    ])
    def test_exit_2(self, capsys, argv):
        assert cli.main(argv) == 2
        capsys.readouterr()

    def test_domain_error_envelope(self, capsys):
        code, env = run_json(capsys, "bound", "--n", "0", "--r", "0")
        assert code == 2
        assert env["result"] is None
        assert env["status"]["code"] == "value_error"
        validate_envelope(env)

    def test_duration_units(self, capsys):
        assert cli._parse_duration("600s") == 600.0
        assert cli._parse_duration("2m") == 120.0
        assert cli._parse_duration("0.5h") == 1800.0
        assert cli._parse_duration("42") == 42.0


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


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ["table", "--paper"],
        ["counterexamples", "--n-max", "8"],
        ["homology", "--n", "3", "--r", "2", "--up-to", "3"],
        ["witness", "--n", "2", "--r", "1", "--vertices", "0,1,2,3"],
        ["gamma-t", "--n", "4", "--r", "2"],
    ])
    def test_identical_invocations_identical_envelopes(self, capsys, argv):
        _, a = run_json(capsys, *argv)
        _, b = run_json(capsys, *argv)
        del a["provenance"]["wall_clock"], b["provenance"]["wall_clock"]
        assert a == b


class TestMalformedInputFuzz:
    import hypothesis
    import hypothesis.strategies as st

    token = st.one_of(
        st.sampled_from(["bound", "table", "gamma-t", "--n", "--r", "--n-max",
                         "--format", "json", "--paper", "--vertices", "-3",
                         "0", "7", "x", "--time-limit", "5s", "--up-to"]),
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


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "vrhq", "bound", "--n", "7", "--r", "5"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["result"]["connectivity"] == 6

    def test_version_flag(self):
        proc = subprocess.run([sys.executable, "-m", "vrhq", "--version"],
                              capture_output=True, text=True)
        assert proc.returncode == 0 and proc.stdout.startswith("vrhq ")

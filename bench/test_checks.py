"""The benchmark's checks accept vrhq's real outputs and reject planted wrong ones.

    python3 -m pytest bench/test_checks.py -q
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from vrhq import cli  # noqa: E402


def vrhq(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(list(argv)) == 0
    return buf.getvalue()


def edited(text, edit):
    env = json.loads(text)
    edit(env["result"])
    return json.dumps(env)


def test_table_off_by_one_connectivity_is_rejected():
    text = vrhq("table", "--n-max", "12", "--format", "csv")
    checks.check_table_csv(text, 12)
    lines = text.splitlines()
    n, r, c, *rest = lines[40].split(",")
    lines[40] = ",".join([n, r, str(int(c) + 1), *rest])
    with pytest.raises(CheckFailed, match="differs"):
        checks.check_table_csv("\n".join(lines) + "\n", 12)


def test_counterexample_list_must_equal_the_filter():
    text = vrhq("counterexamples", "--n-max", "14")
    checks.check_counterexamples(text, 14)
    with pytest.raises(CheckFailed):
        checks.check_counterexamples(edited(text, lambda res: res["pairs"].pop()), 14)


def test_paper_row_and_bound_errors_are_rejected():
    text = vrhq("table", "--paper")
    checks.check_paper_table(text)

    def agree_everywhere(res):
        res["rows"][-1]["connectivity"] = 24964
        res["rows"][-1]["agrees"] = True
    with pytest.raises(CheckFailed):
        checks.check_paper_table(edited(text, agree_everywhere))

    text = vrhq("bound", "--n", "20", "--r", "18")
    checks.check_bound(text, 20, 18)
    with pytest.raises(CheckFailed):
        checks.check_bound(edited(text, lambda res: res.update(paper_discrepancy=None)), 20, 18)


def test_non_dominating_witness_is_rejected():
    text = vrhq("gamma-t", "--n", "5", "--r", "3")
    checks.check_gamma_t_exact(text, 5, 3)
    # {0..6} has no vertex of weight >= 4, so nothing is far from vertex 0
    with pytest.raises(CheckFailed, match="does not dominate"):
        checks.check_gamma_t_exact(
            edited(text, lambda res: res.update(witness=list(range(7)))), 5, 3)
    with pytest.raises(CheckFailed, match="want K"):
        checks.check_gamma_t_exact(
            edited(text, lambda res: res.update(exact=6, lower=6, upper=6)), 5, 3)


def test_deadline_overrun_counts_as_failed_and_bounds_stay_checked():
    text = vrhq("gamma-t", "--n", "6", "--r", "4", "--time-limit", "0s")
    assert checks.check_gamma_t_bounds(text, 6, 4, 0.0, -1.0) is True
    assert checks.check_gamma_t_bounds(text, 6, 4, 0.0, 1e9) is False
    with pytest.raises(CheckFailed, match="does not dominate"):
        checks.check_gamma_t_bounds(
            edited(text, lambda res: res.update(witness=list(range(res["upper"])))),
            6, 4, 0.0, 1e9)


def test_witness_verdicts_are_recomputed():
    full = (1 << 12) - 1
    text = vrhq("witness", "--n", "12", "--r", "5", "--vertices", f"9,{9 ^ full}")
    checks.check_witness(text, 12, 5, [9, 9 ^ full])
    with pytest.raises(CheckFailed, match="verdicts"):
        checks.check_witness(
            edited(text, lambda res: res.update(is_total_dominating_in_complement=False)),
            12, 5, [9, 9 ^ full])


def test_wrong_betti_number_is_rejected():
    text = vrhq("homology", "--n", "4", "--r", "2", "--up-to", "3")
    checks.check_betti(text, 3, "gf2", checks.vr_r2_betti(4, 3))

    def bump(res):
        res["reduced_betti"][3] += 1
    with pytest.raises(CheckFailed, match="reduced Betti"):
        checks.check_betti(edited(text, bump), 3, "gf2", checks.vr_r2_betti(4, 3))

    def nonzero_below_bound(res):
        res["reduced_betti"][0] = 1
    with pytest.raises(CheckFailed, match="at or below"):
        checks.check_bound_zeros(json.loads(edited(text, nonzero_below_bound))["result"], 4, 2)


def test_missing_torsion_factor_is_rejected(tmp_path):
    path = tmp_path / "rp2.cx"
    path.write_text(checks.complex_file(checks.RP2_TRIANGLES, [3, 0, 5, 1, 4, 2]))
    z = vrhq("homology", "--complex", str(path), "--up-to", "2", "--coefficients", "z")
    gf2 = vrhq("homology", "--complex", str(path), "--up-to", "2")
    z_result = checks.check_betti(z, 2, "z", (0, 0, 0), ((), (2,), ()))
    checks.check_uct(z_result, json.loads(gf2)["result"])

    def drop_torsion(res):
        res["torsion"][1] = []
    with pytest.raises(CheckFailed, match="torsion"):
        checks.check_betti(edited(z, drop_torsion), 2, "z", (0, 0, 0), ((), (2,), ()))
    with pytest.raises(CheckFailed, match="GF\\(2\\)"):
        checks.check_uct(json.loads(edited(z, drop_torsion))["result"],
                         json.loads(gf2)["result"])


def test_complex_f_vector_is_counted_independently(tmp_path):
    text = vrhq("complex", "--n", "4", "--r", "2", "--max-dim", "3",
                "--out", str(tmp_path / "q42.cx"))
    checks.check_complex(text, 4, 2, 3, checks.vr_f_vector(4, 2, 3))

    def drop_edge(res):
        res["f_vector"][1] -= 1
    with pytest.raises(CheckFailed, match="f_1"):
        checks.check_complex(edited(text, drop_edge), 4, 2, 3, checks.vr_f_vector(4, 2, 3))


def test_every_workload_runs_whole_groups(tmp_path):
    for name in workloads.WORKLOADS:
        a = workloads.build(name, 1, str(tmp_path))
        b = workloads.build(name, 2, str(tmp_path))
        assert [len(g.argvs) for g in a] == [len(g.argvs) for g in b]


def test_stored_reference_is_recomputed():
    assert subprocess.run([sys.executable, os.path.join(HERE, "reference.py")],
                          capture_output=True).returncode == 0

"""The benchmark's tracer still reads its layer metrics off vrhq's calls.

`bench/tracing.py` wraps public functions by name.  It rebuilds the reduced
Betti numbers from the ranks its homology wrappers record, in degree order,
and reads the search nodes off the `exact_gamma_t` result.  These tests run
it unchanged against the current program, so a change that breaks the
traced benchmark fails here too.
"""

import contextlib
import importlib.util
import io
import json
import math
import pathlib

import pytest

import vrhq
from vrhq import cli, complexes as cx

from tests.test_homology import projective_plane

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced(tracing, argv):
    """One CLI run as operation 0 under the tracer: its spans and result."""
    tracer = tracing.Tracer()
    tracer.op = 0
    out = io.StringIO()
    with tracing.Patched(tracer, vrhq), contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return tracer, json.loads(out.getvalue())["result"]


@pytest.mark.parametrize("coefficients", [[], ["--coefficients", "z"]])
def test_composed_betti_matches_printed(tracing, coefficients):
    up_to = 3
    argv = ["homology", "--n", "4", "--r", "2", "--up-to", str(up_to), *coefficients]
    tracer, result = traced(tracing, argv)
    printed = result["reduced_betti"]
    assert tracing.composed_betti(tracer.spans, 0, up_to) == printed == [0, 0, 0, 9]
    packed = [s for s in tracer.spans if s["name"] == "homology.gf2_columns"]
    assert all(type(s["bytes"]) is int for s in packed)
    if not coefficients:
        assert len(packed) == up_to + 2


@pytest.mark.parametrize("source, up_to, betti", [
    (["--complex", "rp2.cx"], 2, [0, 1, 1]),
    (["--n", "5", "--r", "3"], 7, [0, 0, 0, 0, 1, 0, 0, 10]),
    # the top degree of a flag complex takes the build's record, whose
    # top cells may pair with cofaces that were never built
    (["--n", "8", "--r", "2"], 3, [0, 0, 0, 2561]),
    (["--n", "5", "--r", "3", "--coefficients", "z"], 7, [0, 0, 0, 0, 1, 0, 0, 10]),
])
def test_gf2_ranks_compose_to_the_printed_betti(tracing, tmp_path, source, up_to, betti):
    # each degree hands gf2_rank, or smith_normal_form over Z, one matrix
    # of rank d_p, the top included
    cx.write_complex_file(projective_plane(), tmp_path / "rp2.cx")
    source = [str(tmp_path / a) if a.endswith(".cx") else a for a in source]
    tracer, result = traced(tracing, ["homology", *source, "--up-to", str(up_to)])
    assert tracing.composed_betti(tracer.spans, 0, up_to) == result["reduced_betti"] == betti
    ranked = [s for s in tracer.spans
              if s["name"] in ("homology.gf2_rank", "homology.smith_normal_form")]
    assert len(ranked) == up_to + 2
    if "z" not in source:
        packed = [s for s in tracer.spans if s["name"] == "homology.gf2_columns"]
        assert len(packed) == up_to + 2


def test_torsion_complex_composes_through_the_z_path(tracing, tmp_path):
    # d_2 of the projective plane keeps a non-unit pivot, the torsion 2
    path = tmp_path / "rp2.cx"
    cx.write_complex_file(projective_plane(), path)
    argv = ["homology", "--complex", str(path), "--up-to", "2", "--coefficients", "z"]
    tracer, result = traced(tracing, argv)
    assert tracing.composed_betti(tracer.spans, 0, 2) == result["reduced_betti"] == [0, 0, 0]
    assert result["torsion"] == [[], [2], []]


def test_gamma_t_spans_match_printed(tracing):
    tracer, result = traced(tracing, ["gamma-t", "--n", "5", "--r", "3"])
    printed = result["nodes"]
    [solve] = [s for s in tracer.spans if s["name"] == "domination.exact_gamma_t"]
    assert solve["nodes"] == printed == 39
    greedy = [s for s in tracer.spans if s["name"] == "domination.greedy_upper_bound"]
    assert greedy and all(s["parent"] == solve["id"] for s in greedy)


def test_every_wrapped_layer_yields_finite_metrics(tracing, tmp_path):
    # one small call through each wrapped layer, as the traced benchmark pass
    # makes them; the DIMACS file is the 6-cycle
    dimacs = tmp_path / "c6.col"
    dimacs.write_text("p edge 6 6\n" + "".join(f"e {v + 1} {(v + 1) % 6 + 1}\n"
                                                 for v in range(6)))
    complex_file = tmp_path / "k.cx"
    commands = [
        ["table", "--n-max", "5"],
        ["counterexamples", "--n-max", "6"],
        ["gamma-t", "--n", "5", "--r", "3", "--time-limit", "60s"],
        ["gamma-t", "--dimacs", str(dimacs)],
        ["witness", "--n", "3", "--r", "1", "--vertices", "0,7"],
        ["complex", "--n", "3", "--r", "2", "--max-dim", "3", "--out", str(complex_file)],
        ["homology", "--complex", str(complex_file), "--up-to", "2"],
        ["homology", "--n", "3", "--r", "1", "--up-to", "1", "--coefficients", "z"],
    ]
    tracer = tracing.Tracer()
    with tracing.Patched(tracer, vrhq), contextlib.redirect_stdout(io.StringIO()):
        for op, argv in enumerate(commands):
            tracer.op = op
            assert cli.main(argv) == 0, argv
    # no homology path builds a boundary matrix; the two wrappers stay
    # installed, and their metrics read 0
    called = {s["name"] for s in tracer.spans}
    unbuilt = {"homology.boundary_matrix", "homology.dense_rows"}
    assert called == {name for _, name, _ in tracing.PATCHES} - unbuilt
    metrics = tracing.layer_metrics(tracer.spans, {s["id"]: 1.0 for s in tracer.spans})
    assert len(metrics) == 27
    for name, (value, _unit) in metrics.items():
        assert math.isfinite(value), name
    assert [metrics[name][0] for name in ("homology.boundary_s", "homology.boundary_nnz",
                                          "homology.dense_s")] == [0, 0, 0]

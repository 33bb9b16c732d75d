"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every criterion asserts its stated tolerance (exact unless noted) and
its runtime budget.
"""

import functools
import json
import time
from pathlib import Path

from vrhq import bounds, cli, complexes as cx, domination as dom, homology as ho, \
    hypercube as hc

from tests.oracles import (bound_oracle, brute_pattern_sets, brute_reduced_betti,
                           random_isolated_free_graphs, tight_example_graph)


def _report(num, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {num} {name}: PASS{suffix}")


class _Timer:
    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.t0


def run_cli_json(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


@functools.lru_cache(maxsize=1)
def _domination_corpus():
    """All connected graphs on <= 7 vertices plus 200 seeded random graphs
    with m <= 16 and no isolated vertices, solved by both solvers."""
    import networkx as nx
    graphs = []
    for g in nx.graph_atlas_g():
        if g.number_of_nodes() < 2 or g.number_of_nodes() > 7:
            continue
        if not nx.is_connected(g):
            continue
        graphs.append(hc.Graph.from_edges(g.number_of_nodes(), g.edges()))
    for m, edges in random_isolated_free_graphs(count=200, max_m=16, seed=20250810):
        graphs.append(hc.Graph.from_edges(m, edges))
    results = []
    for g in graphs:
        results.append((g, dom.exact_gamma_t(g), dom.gamma_t_exhaustive(g)))
    return results


def test_criterion_01_paper_table(capsys):
    with _Timer() as t:
        code, env = run_cli_json(capsys, "table", "--paper")
    assert code == 0 and env["status"] == "ok"
    rows = {(row["n"], row["r"]): row for row in env["result"]["rows"]}
    expected = {(7, 5): 6, (8, 6): 13, (9, 7): 24, (12, 10): 156,
                (18, 15): 761, (18, 16): 6897, (20, 16): 387}
    for (n, r), want in expected.items():
        row = rows[(n, r)]
        assert row["connectivity"] == want and row["agrees"] is True, (n, r)
    odd = rows[(20, 18)]
    assert odd["connectivity"] == 24965
    assert odd["printed"] == 24964 and odd["agrees"] is False
    assert len(rows) == 8
    assert t.elapsed < 1.0
    _report(1, "paper-table reproduction",
            f"7 rows agree, (20,18) flagged, {t.elapsed:.2f}s")


def test_criterion_02_counterexample_gate(capsys):
    with _Timer() as t:
        code8, env8 = run_cli_json(capsys, "counterexamples", "--n-max", "8")
        code6, env6 = run_cli_json(capsys, "counterexamples", "--n-max", "6")
    assert code8 == 0 and code6 == 0
    got8 = [(p["n"], p["r"], p["connectivity"]) for p in env8["result"]["pairs"]]
    # independent evaluation through fractions.Fraction
    want8 = [(n, r, bound_oracle(n, r))
             for n in range(2, 9) for r in range(0, n - 1)
             if bound_oracle(n, r) >= r + 1]
    assert got8 == want8
    assert (7, 5, 6) in got8 and (8, 6, 13) in got8
    assert env6["result"]["pairs"] == []
    assert t.elapsed < 1.0
    _report(2, "counterexample gate", f"n<=8 yields {got8}, n<=6 empty")


def test_criterion_03_degree_formula():
    with _Timer() as t:
        checked = 0
        for n in range(1, 13):
            for r in range(0, n):
                g = hc.build_hamming_graph(n, r, complemented=True)
                want = bounds.tail_degree(n, r)
                assert all(row.bit_count() == want for row in g.rows()), (n, r)
                checked += g.m
    assert t.elapsed < 30.0
    _report(3, "degree formula on materialized graphs",
            f"{checked} vertex degrees over n<=12 in {t.elapsed:.1f}s")


def test_criterion_04_domination_oracle_equivalence():
    with _Timer() as t:
        corpus = _domination_corpus()
        for g, res, truth in corpus:
            assert res.status == "exact" and res.exact == truth, f"m={g.m}"
            assert dom.is_total_dominating(g, res.witness)
    assert t.elapsed < 300.0
    _report(4, "domination oracle equivalence",
            f"{len(corpus)} graphs, both solvers agree, {t.elapsed:.1f}s")


def test_criterion_05_tightness_family():
    with _Timer() as t:
        for delta in range(2, 6):
            for pairs in range(1, 4):
                g = tight_example_graph(delta, pairs)
                res = dom.exact_gamma_t(g)
                assert res.status == "exact"
                assert res.exact == g.m // delta == 2 * pairs, (delta, pairs)
        for g, res, _ in _domination_corpus():
            assert res.exact >= dom.trivial_lower_bound(g)
    assert t.elapsed < 60.0
    _report(5, "m/Delta tightness family",
            f"equality on 12 gadget graphs, bound holds corpus-wide, {t.elapsed:.1f}s")


def test_criterion_06_gc64_target(gc64, gc64_exact):
    res = gc64_exact
    assert res.status == "exact"
    assert res.elapsed_s < 3600.0
    assert 10 <= res.exact <= 16
    assert dom.is_total_dominating(gc64, res.witness)
    _report(6, "exact gamma_t of the 64-vertex scale-4 complement",
            f"value {res.exact} in [10, 16], {res.elapsed_s:.1f}s, {res.nodes} nodes")


# frozen from tests.oracles.brute_reduced_betti (subset enumeration plus
# dense numpy rank); recomputed live below before the pipeline is checked
HOMOLOGY_FIXTURES = [
    # (n, r, up_to, expected reduced Betti numbers)
    (2, 1, 1, (0, 1)),
    (3, 1, 1, (0, 5)),
    (3, 2, 3, (0, 0, 0, 1)),
    (3, 3, 3, (0, 0, 0, 0)),
    (4, 3, 7, (0, 0, 0, 0, 0, 0, 0, 1)),
]


def test_criterion_07_homology_fixtures():
    with _Timer() as t:
        for n, r, up_to, frozen in HOMOLOGY_FIXTURES:
            oracle = brute_reduced_betti(n, r, up_to)
            assert oracle == frozen, f"oracle drifted on VR(Q_{n};{r})"
            k = cx.vietoris_rips(n, r, up_to + 1)
            assert ho.betti_gf2(k, up_to).reduced_betti == frozen, (n, r)
    assert t.elapsed < 120.0
    _report(7, "homology fixtures vs brute-force oracle",
            f"{len(HOMOLOGY_FIXTURES)} fixtures exact, {t.elapsed:.1f}s")


def test_criterion_08_connectivity_consistency():
    with _Timer() as t:
        checked = []
        for n in range(1, 5):
            for r in range(0, n):
                c = bounds.connectivity_lower_bound(n, r)
                if c < 0:
                    continue
                k = cx.vietoris_rips(n, r, c + 1)
                profile = ho.betti_gf2(k, c)
                for i, beta in enumerate(profile.reduced_betti):
                    if beta != 0:
                        # GF(2) failure escalates to the integer pipeline
                        zprof = ho.reduced_homology(k, c, "z")
                        assert zprof.reduced_betti[i] == 0 and zprof.torsion[i] == (), \
                            f"nonzero integer homology below the bound at {(n, r, i)}"
                checked.append((n, r, c))
    assert t.elapsed < 300.0
    _report(8, "homology vanishes below the connectivity bound",
            f"pairs {checked}, {t.elapsed:.1f}s")


def test_criterion_09_cross_polytope_proposition():
    with _Timer() as t:
        nontrivial = 0
        for n in range(1, 5):
            for r in range(0, n):
                # every set the raw subset scan finds must pass the checker,
                # whose recovered far pairs give the cross-polytope
                patterns = []
                for verts in brute_pattern_sets(n, r):
                    report = cx.cross_polytope_witness_check(n, r, verts)
                    assert report.is_cross_polytope_boundary, (n, r, verts)
                    patterns.append((verts, report.recovered_pairs))
                if not patterns:
                    continue
                max_m = max(len(p) for _, p in patterns)
                k = cx.vietoris_rips(n, r, max_m)
                gc = hc.build_hamming_graph(n, r, complemented=True)
                for verts, pairs in patterns:
                    m = len(pairs)
                    cycle = cx.fundamental_cycle(pairs)
                    if ho.cycle_is_gf2_boundary(k, cycle, m - 1):
                        continue
                    nontrivial += 1
                    assert dom.is_total_dominating(gc, verts), (n, r, verts)
                    report = cx.cross_polytope_witness_check(n, r, verts)
                    assert report.is_total_dominating_in_complement, (n, r, verts)
        # the two explicit witnesses
        q2 = cx.cross_polytope_witness_check(2, 1, [0, 1, 2, 3])
        assert q2.is_cross_polytope_boundary and q2.is_total_dominating_in_complement
        q3 = cx.cross_polytope_witness_check(3, 2, list(range(8)))
        assert q3.is_cross_polytope_boundary and q3.is_total_dominating_in_complement
    assert nontrivial > 0
    assert t.elapsed < 300.0
    _report(9, "nontrivial cross-polytope witnesses totally dominate",
            f"{nontrivial} nontrivial witnesses verified, {t.elapsed:.1f}s")


def test_criterion_10_external_input_documented():
    # the published 6-connectivity of VR(Q_6;4) rests on an outside computer
    # calculation; it is beyond desk scale here and the docs must say so
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    assert "VR(Q_6;4)" in text or "VR(Q_6; 4)" in text
    assert "not reproduced" in text or "beyond desk scale" in text
    _report(10, "non-reproducible external input documented",
            "README records the substitution by criteria 6, 8 and 9")

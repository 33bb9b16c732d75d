import itertools

import pytest

from vrhq import bounds, domination as dom, hypercube as hc
from vrhq.errors import IsolatedVertex, TooLarge

from tests.oracles import random_isolated_free_graphs


def figure_graph():
    return hc.Graph.from_edges(3, [(0, 1), (0, 2)])


def four_cycle():
    return hc.build_hamming_graph(2, 1)


def complete_graph(m):
    return hc.Graph.from_edges(m, itertools.combinations(range(m), 2))


import functools


@functools.lru_cache(maxsize=1)
def small_corpus():
    """All connected graphs on 2..6 vertices plus seeded random graphs."""
    import networkx as nx
    graphs = []
    for g in nx.graph_atlas_g():
        if g.number_of_nodes() < 2 or g.number_of_nodes() > 6:
            continue
        if not nx.is_connected(g):
            continue
        graphs.append(hc.Graph.from_edges(g.number_of_nodes(), g.edges()))
    for m, edges in random_isolated_free_graphs(count=40, max_m=12, seed=99):
        graphs.append(hc.Graph.from_edges(m, edges))
    return graphs


class TestIsTotalDominating:
    def test_figure_graph(self):
        g = figure_graph()
        assert dom.is_total_dominating(g, {0, 2})
        assert not dom.is_total_dominating(g, {1, 2})

    def test_four_cycle_adjacent_pair(self):
        g = four_cycle()
        assert dom.is_total_dominating(g, {0, 1})
        assert not dom.is_total_dominating(g, {0, 3})  # 0 and 3 are not adjacent

    def test_membership_does_not_self_dominate(self):
        # in K_2 both endpoints are needed; a singleton never works
        k2 = complete_graph(2)
        assert not dom.is_total_dominating(k2, {0})
        assert dom.is_total_dominating(k2, {0, 1})

    def test_isolated_vertex_is_an_error(self):
        g = hc.Graph.from_edges(3, [(0, 1)])
        with pytest.raises(IsolatedVertex):
            dom.is_total_dominating(g, {0, 1})

    def test_out_of_range_vertices(self):
        with pytest.raises(ValueError):
            dom.is_total_dominating(four_cycle(), {0, 9})


class TestBounds:
    def test_trivial_lower_bound(self):
        assert dom.trivial_lower_bound(four_cycle()) == 2
        gc64 = hc.build_hamming_graph(6, 4, complemented=True)
        assert dom.trivial_lower_bound(gc64) == 10  # ceil(64 / 7)
        tight = dom.tight_example_graph(4, 2)
        assert dom.trivial_lower_bound(tight) == 4

    def test_greedy_examples(self):
        assert len(dom.greedy_upper_bound(four_cycle())) == 2
        s = dom.greedy_upper_bound(figure_graph())
        assert len(s) == 2 and 0 in s
        assert len(dom.greedy_upper_bound(complete_graph(4))) == 2

    def test_greedy_always_valid(self):
        for g in small_corpus()[:80]:
            assert dom.is_total_dominating(g, dom.greedy_upper_bound(g))

    def test_isolated_rejected(self):
        g = hc.Graph.from_edges(2, [])
        for fn in (dom.trivial_lower_bound, dom.greedy_upper_bound):
            with pytest.raises(IsolatedVertex):
                fn(g)


class TestExhaustive:
    def test_examples(self):
        assert dom.gamma_t_exhaustive(four_cycle()) == 2
        assert dom.gamma_t_exhaustive(figure_graph()) == 2
        assert dom.gamma_t_exhaustive(complete_graph(2)) == 2

    def test_perfect_matching_needs_everything(self):
        g = hc.build_hamming_graph(3, 2, complemented=True)
        assert dom.gamma_t_exhaustive(g) == 8

    def test_size_cap(self):
        g = hc.Graph.from_edges(21, [(u, u + 1) for u in range(20)])
        with pytest.raises(TooLarge):
            dom.gamma_t_exhaustive(g)


class TestExactGammaT:
    def test_figure_graph(self):
        res = dom.exact_gamma_t(figure_graph())
        assert res.status == "exact" and res.exact == 2
        assert res.lower == res.upper == 2 == len(res.witness)
        assert dom.is_total_dominating(figure_graph(), res.witness)

    def test_matching_forces_all_vertices(self):
        g = hc.build_hamming_graph(3, 2, complemented=True)
        res = dom.exact_gamma_t(g)
        assert res.exact == 8 and res.witness == frozenset(range(8))

    def test_matches_exhaustive_on_corpus(self):
        for g in small_corpus():
            res = dom.exact_gamma_t(g)
            want = dom.gamma_t_exhaustive(g)
            assert res.exact == want, f"m={g.m}"
            assert dom.is_total_dominating(g, res.witness)
            assert dom.trivial_lower_bound(g) <= want <= len(dom.greedy_upper_bound(g))

    def test_symmetry_fixing_does_not_change_the_value(self):
        gc42 = hc.build_hamming_graph(4, 2, complemented=True)
        plain = hc.Graph(gc42.rows(), validate=False)  # same graph, no transitivity flag
        assert gc42.vertex_transitive and not plain.vertex_transitive
        assert dom.exact_gamma_t(gc42).exact == dom.exact_gamma_t(plain).exact == \
            dom.gamma_t_exhaustive(gc42)

    def test_deterministic(self):
        g = hc.build_hamming_graph(4, 2, complemented=True)
        a = dom.exact_gamma_t(g)
        b = dom.exact_gamma_t(g)
        assert a.exact == b.exact and a.witness == b.witness and a.nodes == b.nodes

    def test_timeout_reports_bounds(self):
        g = hc.build_hamming_graph(8, 6, complemented=True)  # 256 vertices, deep search
        for limit in (0.05, 0):
            res = dom.exact_gamma_t(g, time_limit=limit)
            assert res.status == "bounds_only"
            assert res.exact is None
            assert res.lower == dom.trivial_lower_bound(g)
            assert res.lower <= res.upper == len(res.witness)
            assert dom.is_total_dominating(g, res.witness)
        # an expired deadline stops the search at its first node
        assert res.nodes <= 1

    def test_gc64_value_regression(self, gc64, gc64_exact):
        # frozen output of this solver on the 64-vertex scale-4 complement;
        # matches the minimum size of a radius-1 covering code of length 6
        assert gc64_exact.exact == 12
        assert dom.is_total_dominating(gc64, gc64_exact.witness)

    def test_linkage_to_alpha_lower_bound(self, gc64_exact):
        # exact gamma_t of the complement graph is at least 2 * alpha,
        # cross-multiplied in exact arithmetic
        for n in range(1, 7):
            for r in range(0, n):
                if bounds.tail_degree(n, r) == 0:
                    continue
                g = hc.build_hamming_graph(n, r, complemented=True)
                if (n, r) == (6, 4):
                    value = gc64_exact.exact
                elif n == 6 and r == 5:
                    value = dom.exact_gamma_t(g).exact
                elif g.m <= 20:
                    value = dom.gamma_t_exhaustive(g)
                else:
                    value = dom.exact_gamma_t(g).exact
                a = bounds.alpha(n, r)
                assert value * a.denominator >= 2 * a.numerator


class TestTightExamples:
    def test_delta_2_is_path_on_4(self):
        g = dom.tight_example_graph(2, 1)
        assert g.m == 4 and sorted(g.degrees()) == [1, 1, 2, 2]
        assert dom.gamma_t_exhaustive(g) == 2

    def test_small_family_exact(self):
        for delta, pairs in [(3, 1), (3, 2), (4, 1), (5, 1)]:
            g = dom.tight_example_graph(delta, pairs)
            assert g.m == pairs * 2 * delta
            assert g.max_degree == delta
            assert dom.gamma_t_exhaustive(g) == g.m // delta == 2 * pairs

    def test_validation(self):
        with pytest.raises(ValueError):
            dom.tight_example_graph(1, 1)
        with pytest.raises(ValueError):
            dom.tight_example_graph(3, 0)

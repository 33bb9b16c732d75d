import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vrhq import bounds, domination as dom, hypercube as hc
from vrhq.bitops import iter_bits
from vrhq.errors import IsolatedVertex, SelfCheckFailed, TooLarge

from tests.oracles import (dimacs_text, eager_greedy, is_vertex_transitive,
                          milp_gamma_t, random_isolated_free_graphs,
                          reference_gamma_t, tight_example_graph)


def figure_graph():
    return hc.Graph.from_edges(3, [(0, 1), (0, 2)])


def four_cycle():
    return hc.build_hamming_graph(2, 1)


def complete_graph(m):
    return hc.Graph.from_edges(m, itertools.combinations(range(m), 2))


def relabelled(g, seed):
    perm = list(range(g.m))
    random.Random(seed).shuffle(perm)
    return hc.Graph.from_edges(g.m, [(perm[u], perm[v]) for u in range(g.m)
                                     for v in iter_bits(g.row(u)) if u < v])


def swapped(g, a, b):
    """g with labels a and b exchanged."""
    perm = list(range(g.m))
    perm[a], perm[b] = b, a
    return hc.Graph.from_edges(g.m, [(perm[u], perm[v]) for u in range(g.m)
                                     for v in iter_bits(g.row(u)) if u < v])


def hamming_graphs(n_max):
    """Every G(n,r) and Gc(n,r) with n <= n_max and no isolated vertex, in
    the natural labelling: G(n,r) for 0 < r < n, Gc(n,r) for r < n."""
    return [hc.build_hamming_graph(n, r, complemented) for n in range(1, n_max + 1)
            for r in range(n) for complemented in (False, True) if complemented or r]


@pytest.fixture(scope="module")
def relabelled_gc64(gc64):
    return relabelled(gc64, 0)


@pytest.fixture(scope="module")
def relabelled_gc64_exact(relabelled_gc64):
    return dom.exact_gamma_t(relabelled_gc64)


def cayley_not_hamming():
    """The Cayley graph of Z_2^5 on e_1..e_5 and e_1 + e_2: 6-regular, as
    Gc(5,3) is, and vertex-transitive, but with triangles, which Gc(5,3)
    has none of."""
    return hc.Graph.from_edges(32, {(v, v ^ s) for v in range(32)
                                    for s in (1, 2, 4, 8, 16, 3) if v < v ^ s})


def weight_class_graph(n, weights):
    """The Cayley graph of Z_2^n on the nonzero words whose Hamming weight is
    in `weights`, in Q_n's labelling: G(n,r) on weights 1..r, Gc(n,r) on
    r+1..n."""
    return hc.Graph.from_edges(1 << n, {(v, v ^ s) for v in range(1 << n)
                                        for s in range(1, 1 << n)
                                        if s.bit_count() in weights and v < v ^ s})


def weight_sets(n):
    """Every nonempty set of weights 1..n."""
    return [set(ws) for k in range(1, n + 1)
            for ws in itertools.combinations(range(1, n + 1), k)]


def disjoint_union(*graphs):
    rows, offset = [], 0
    for g in graphs:
        rows += [row << offset for row in g.rows()]
        offset += g.m
    return hc.Graph(rows)


def is_connected(g):
    import networkx as nx
    h = nx.Graph()
    h.add_nodes_from(range(g.m))
    h.add_edges_from((u, v) for u in range(g.m) for v in iter_bits(g.row(u)))
    return nx.is_connected(h)


@st.composite
def isolated_free_graphs(draw, max_m=14):
    """Random graphs; a vertex left isolated is joined to its successor."""
    m = draw(st.integers(min_value=2, max_value=max_m))
    pairs = list(itertools.combinations(range(m), 2))
    edges = set(draw(st.lists(st.sampled_from(pairs), max_size=3 * m)))
    touched = {v for e in edges for v in e}
    edges.update((v, (v + 1) % m) for v in range(m) if v not in touched)
    return hc.Graph.from_edges(m, edges)


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

    def test_isolation_is_scanned_once_per_graph(self):
        # a scan tests every row against 0; the solver's entry, greedy,
        # lower bound and certificate each ask, and share one scan
        tested = []

        class Row(int):
            __hash__ = int.__hash__

            def __eq__(self, other):
                if other == 0:
                    tested.append(self)
                return int.__eq__(self, other)
        gc53 = hc.build_hamming_graph(5, 3, complemented=True)
        g = hc.Graph([Row(row) for row in gc53.rows()], validate=False)
        assert dom.exact_gamma_t(g).exact == 7
        assert len(tested) == g.m
        isolated = hc.Graph.from_edges(3, [(0, 1)])
        for call in (dom.exact_gamma_t, dom.trivial_lower_bound, dom.greedy_upper_bound):
            with pytest.raises(IsolatedVertex):  # every caller still raises
                call(isolated)


class TestBounds:
    def test_trivial_lower_bound(self):
        assert dom.trivial_lower_bound(four_cycle()) == 2
        gc64 = hc.build_hamming_graph(6, 4, complemented=True)
        assert dom.trivial_lower_bound(gc64) == 10  # ceil(64 / 7)
        tight = tight_example_graph(4, 2)
        assert dom.trivial_lower_bound(tight) == 4

    def test_greedy_examples(self):
        assert len(dom.greedy_upper_bound(four_cycle())) == 2
        s = dom.greedy_upper_bound(figure_graph())
        assert len(s) == 2 and 0 in s
        assert len(dom.greedy_upper_bound(complete_graph(4))) == 2

    def test_greedy_always_valid(self):
        for g in small_corpus()[:80]:
            assert dom.is_total_dominating(g, dom.greedy_upper_bound(g))

    @settings(max_examples=300, deadline=None)
    @given(isolated_free_graphs())
    def test_lazy_greedy_equals_eager_scan(self, g):
        assert dom.greedy_upper_bound(g) == eager_greedy(g.rows())

    def test_lazy_greedy_equals_eager_scan_on_hamming_ties(self):
        # vertex-transitive inputs tie on every coverage at the first pick
        for n in range(1, 9):
            for r in range(n):
                g = hc.build_hamming_graph(n, r, complemented=True)
                assert dom.greedy_upper_bound(g) == eager_greedy(g.rows()), (n, r)

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
        plain = relabelled(gc42, 0)  # same graph, labels that hide Q_4's symmetry
        natural, _ = hc.hamming_labelling(plain.rows())
        assert hc.hamming_labelling(gc42.rows()) == (None, None)
        assert natural.rows() == gc42.rows()
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

    def test_same_answer_as_frozen_reference(self, gc64, gc64_exact, relabelled_gc64,
                                            relabelled_gc64_exact):
        # the open-packing prune cuts subtrees that hold no set smaller than
        # the incumbent, so the incumbent changes at the same leaves: same
        # value and witness as the frozen reference, in no more nodes; the
        # reference fixes vertex 0 wherever the VF2++ oracle finds the graph
        # vertex-transitive, and so must the solver, whatever the labelling.
        # A relabelled Hamming graph is solved in its natural labelling,
        # another tree: its witness is a minimum set, not the reference's
        cases = [g for g in small_corpus() if is_connected(g)]
        cases += [hc.build_hamming_graph(n, r, complemented=True)
                  for n in range(1, 6) for r in range(n - 1)]
        cases += [hc.build_hamming_graph(6, r, complemented=True) for r in range(4)]
        cases.append(relabelled(hc.build_hamming_graph(5, 3, complemented=True), 3))
        solved = {id(gc64): gc64_exact, id(relabelled_gc64): relabelled_gc64_exact}
        cases += [gc64, relabelled_gc64]
        hidden = relabelled_hamming = 0  # transitive, not in Q_n's natural labelling
        for g in cases:
            transitive = is_vertex_transitive(g.rows())
            found = hc.hamming_labelling(g.rows())
            hamming = bool(found and found[0])
            if transitive and found != (None, None):
                hidden += 1
                relabelled_hamming += hamming
            res = solved.get(id(g)) or dom.exact_gamma_t(g)
            value, witness, nodes = reference_gamma_t(g.rows(), transitive)
            if hamming:
                assert res.exact == value and len(res.witness) == value
                assert dom.is_total_dominating(g, res.witness)
            else:
                assert (res.exact, res.witness) == (value, witness)
            assert res.nodes <= nodes
        # ten small graphs, the relabelled Gc(5,3) and the relabelled Gc(6,4)
        # (2,782 nodes against the reference's 22,592); of these, K_4, the
        # 4-cycle and the two relabelled Gc(n,r) are Hamming graphs
        assert hidden == 12 and relabelled_hamming == 4

    def test_node_counts_are_pinned(self, gc64, gc64_exact, relabelled_gc64_exact):
        # deterministic counts, no timing: a weaker prune fails here first
        # (the solver without the packing prune took 29,289 nodes on
        # Gc(6,4), and without orbital branching 10,094; the frozen
        # reference takes 22,592 on the relabelled copy with vertex 0 fixed,
        # and the solver took 9,103 there before it mapped the copy onto
        # the natural labelling)
        assert gc64_exact.nodes == 2782
        assert relabelled_gc64_exact.exact == 12
        assert relabelled_gc64_exact.nodes == 2782
        # one antipodal edge less leaves a connected, irregular graph that
        # gets the search without symmetry (the reference takes 191,428)
        rows = gc64.rows()
        rows[0] ^= 1 << 63
        rows[63] ^= 1
        assert not hc.vertex_transitive(rows)
        res = dom.exact_gamma_t(hc.Graph(rows))
        assert res.exact == 12 and res.nodes == 48540

    def test_weight_class_cayley_graphs_take_orbital_branching(self):
        # weights other than a ball or its complement: Q_n's coordinate
        # permutations preserve these graphs as well, and with root fixing
        # alone they took 3,516 and 127 nodes
        for weights, value, nodes in (({3, 6}, 6, 79), ({1, 5}, 8, 14)):
            g = weight_class_graph(6, weights)
            assert hc.hamming_labelling(g.rows()) == (None, None)
            res = dom.exact_gamma_t(g)
            assert (res.exact, res.nodes) == (value, nodes)
            assert len(res.witness) == value and dom.is_total_dominating(g, res.witness)
            assert reference_gamma_t(g.rows(), True)[0] == value

    def test_weight_class_cayley_graphs_match_the_oracles(self):
        graphs = [weight_class_graph(n, weights) for n in (4, 5) for weights in weight_sets(n)]
        for g in graphs:
            res = dom.exact_gamma_t(g)
            if g.m == 16:
                assert res.exact == dom.gamma_t_exhaustive(g)
            if is_connected(g):
                value, _, nodes = reference_gamma_t(g.rows(), True)
                assert res.exact == value and res.nodes <= nodes
            assert len(res.witness) == res.exact and dom.is_total_dominating(g, res.witness)

    def test_matches_milp_oracle(self, relabelled_gc64, relabelled_gc64_exact):
        pytest.importorskip("scipy.optimize")
        gc53 = hc.build_hamming_graph(5, 3, complemented=True)
        assert milp_gamma_t(gc53.rows()) == dom.exact_gamma_t(gc53).exact == 7
        assert milp_gamma_t(relabelled_gc64.rows()) == relabelled_gc64_exact.exact
        graphs = [hc.Graph.from_edges(m, edges) for m, edges in
                  random_isolated_free_graphs(count=30, max_m=40, seed=2024)]
        graphs = [g for g in graphs if is_connected(g)]
        assert len(graphs) >= 10 and max(g.m for g in graphs) > 30
        for g in graphs:
            res = dom.exact_gamma_t(g)
            assert res.exact == milp_gamma_t(g.rows()), g.m
            assert dom.is_total_dominating(g, res.witness)

    def test_hamming_inputs_match_the_frozen_reference(self, gc64, gc64_exact):
        # orbital branching on every connected Gc(n,r) with n <= 7 (Gc(7,4)
        # takes 64,262 reference nodes; (8,5) and (8,6) do not finish) and
        # on the graphs G(n,r) themselves for n <= 5
        cases = [(n, r, True) for n in range(1, 8) for r in range(n - 1)]
        cases += [(n, r, False) for n in range(2, 6) for r in range(1, n)]
        for n, r, complemented in cases:
            g = gc64 if (n, r, complemented) == (6, 4, True) else \
                hc.build_hamming_graph(n, r, complemented=complemented)
            if len(dom._components(g.rows())) > 1:
                continue
            res = gc64_exact if g is gc64 else dom.exact_gamma_t(g)
            value, _, nodes = reference_gamma_t(g.rows(), True)
            assert res.exact == value, (n, r, complemented)
            assert len(res.witness) == value and dom.is_total_dominating(g, res.witness)
            assert res.nodes <= nodes

    def test_hamming_inputs_match_milp_oracle(self):
        pytest.importorskip("scipy.optimize")
        # Gc(7,4) has m = 128; the reference search takes 211,704 nodes on Q_6
        for g, nodes in ((hc.build_hamming_graph(7, 4, complemented=True), 1158),
                         (hc.build_hamming_graph(6, 1), 3175)):
            res = dom.exact_gamma_t(g)
            assert res.exact == milp_gamma_t(g.rows())
            assert res.nodes == nodes and dom.is_total_dominating(g, res.witness)

    def test_relabelled_hamming_graphs_take_the_natural_tree(self):
        for natural in hamming_graphs(6):
            want = dom.exact_gamma_t(natural)
            for seed in (1, 2):
                res = dom.exact_gamma_t(relabelled(natural, seed))
                assert (res.exact, res.nodes) == (want.exact, want.nodes)

    def test_a_natural_row_0_alone_takes_the_map(self, gc64, gc64_exact):
        # labels 1 and 2 of Gc(6,4) swapped keep row 0, not row 1
        g = swapped(gc64, 1, 2)
        assert g.row(0) == gc64.row(0) and hc.hamming_labelling(g.rows())[0] is not None
        res = dom.exact_gamma_t(g)
        assert (res.exact, res.nodes) == (gc64_exact.exact, 2782)
        assert len(res.witness) == 12 and dom.is_total_dominating(g, res.witness)

    def test_regular_graphs_that_are_no_hamming_graph(self):
        # 4- and 5-regular on 16 vertices: the degrees of Q_4 and Gc(4,2)
        import networkx as nx
        for degree, seed in itertools.product((4, 5), range(3)):
            g = hc.Graph.from_edges(16, nx.random_regular_graph(degree, 16, seed=seed).edges())
            assert hc.hamming_labelling(g.rows()) is None
            assert dom.exact_gamma_t(g).exact == dom.gamma_t_exhaustive(g)

    def test_components_are_solved_apart(self):
        gc53 = hc.build_hamming_graph(5, 3, complemented=True)
        one = dom.exact_gamma_t(gc53)
        two = disjoint_union(gc53, gc53)
        res = dom.exact_gamma_t(two)
        assert res.status == "exact" and res.exact == 2 * one.exact == 14
        assert res.nodes == 2 * one.nodes  # 308,565 nodes as one search
        assert len(res.witness) == 14 and dom.is_total_dominating(two, res.witness)
        # labels map back to the union: seven witness vertices in each copy
        assert len([v for v in res.witness if v < 32]) == 7

    def test_components_get_the_symmetry_they_have(self):
        # the union of two copies of Gc(5,3) shows no symmetry of Q_6, but
        # each component, relabelled to 0..31, shows Q_5's; a relabelled
        # copy hides Q_5's labelling and is mapped back onto it, inside the
        # same union too
        gc53 = hc.build_hamming_graph(5, 3, complemented=True)
        shuffled = relabelled(gc53, 3)
        assert dom.exact_gamma_t(gc53).nodes == 39
        assert dom.exact_gamma_t(shuffled).nodes == 39
        for other, nodes in ((gc53, 39), (shuffled, 39)):
            g = disjoint_union(gc53, other)
            assert hc.hamming_labelling(g.rows()) is None
            res = dom.exact_gamma_t(g)
            assert res.exact == 14 and res.nodes == 39 + nodes
            assert dom.is_total_dominating(g, res.witness)

    def test_symmetry_is_never_claimed_for_random_graphs(self):
        # a flag on these rows once claimed Q_4's symmetry for them: the
        # tenth 16-vertex graph then solved to 7 instead of 6
        graphs = [hc.Graph.from_edges(m, edges) for m, edges in
                  random_isolated_free_graphs(count=400, max_m=16, seed=5) if m == 16]
        values = []
        for g in graphs:
            assert hc.hamming_labelling(g.rows()) is None
            values.append(dom.exact_gamma_t(g).exact)
            assert values[-1] == dom.gamma_t_exhaustive(g)
        assert len(graphs) == 44 and values[9] == 6

    def test_transitivity_check_agrees_with_vf2pp(self):
        graphs = [g for g in small_corpus() if is_connected(g)]
        graphs += [hc.Graph.from_edges(m, edges) for m, edges in
                   random_isolated_free_graphs(count=400, max_m=16, seed=5) if m == 16]
        verdicts = [hc.vertex_transitive(g.rows()) for g in graphs]
        assert verdicts == [is_vertex_transitive(g.rows()) for g in graphs]
        assert len(graphs) == 179 + 44 and verdicts.count(True) == 12

    def test_dimacs_copy_in_natural_labelling_keeps_the_symmetry(self, gc64, gc64_exact):
        res = dom.exact_gamma_t(hc.read_dimacs(dimacs_text(gc64)))
        assert (res.exact, res.witness, res.nodes) == \
            (gc64_exact.exact, gc64_exact.witness, 2782)

    def test_bounds_only_on_disconnected_graph(self):
        gc86 = hc.build_hamming_graph(8, 6, complemented=True)  # deep search
        gc42 = hc.build_hamming_graph(4, 2, complemented=True)  # greedy meets its bound
        g = disjoint_union(gc86, gc42)
        res = dom.exact_gamma_t(g, time_limit=0)
        assert res.status == "bounds_only" and res.exact is None
        assert res.nodes == 1
        # per component: ceil(256 / 9) for the cut-off search, exact 4 for the other
        assert dom.exact_gamma_t(gc42).exact == 4
        assert res.lower == dom.trivial_lower_bound(gc86) + 4 == 33
        assert dom.trivial_lower_bound(g) <= res.lower <= res.upper == len(res.witness)
        assert dom.is_total_dominating(g, res.witness)
        with pytest.raises(ValueError):
            dom.DominationResult(lower=3, upper=2, witness=frozenset())

    def test_planted_witness_fails_the_self_check(self, monkeypatch):
        g = hc.build_hamming_graph(4, 2, complemented=True)
        search = dom._search
        # {0, 1, 2, 3} lies within distance 2 of vertex 0, which it leaves undominated
        monkeypatch.setattr(dom, "_search", lambda part, deadline: (4, 4, 0b1111, 1))
        with pytest.raises(SelfCheckFailed):
            dom.exact_gamma_t(g)

        def shrunk(part, deadline):  # a valid set, reported one smaller
            lower, size, mask, nodes = search(part, deadline)
            return lower - 1, size - 1, mask, nodes
        monkeypatch.setattr(dom, "_search", shrunk)
        with pytest.raises(SelfCheckFailed):
            dom.exact_gamma_t(g)

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


def fewest_picks(rows, undom, selectable):
    """The fewest vertices of `selectable` that dominate all of `undom`, by
    trying every subset in order of size; None when none does."""
    pool = [v for v in range(len(rows)) if (selectable >> v) & 1]
    for j in range(len(pool) + 1):
        for combo in itertools.combinations(pool, j):
            covered = 0
            for v in combo:
                covered |= rows[v]
            if not undom & ~covered:
                return j
    return None


@st.composite
def partial_states(draw):
    g = draw(isolated_free_graphs(max_m=10))
    undom = draw(st.integers(min_value=1, max_value=(1 << g.m) - 1))
    selectable = draw(st.integers(min_value=0, max_value=(1 << g.m) - 1))
    return g, undom, selectable


class TestBranchOrPrune:
    @settings(max_examples=400, deadline=None)
    @given(partial_states())
    def test_bound_never_exceeds_the_fewest_picks(self, state):
        g, undom, selectable = state
        rows = g.rows()
        fewest = fewest_picks(rows, undom, selectable)
        # undom is not empty, so no pick left always prunes
        assert dom.branch_or_prune(rows, undom, selectable, 0) is None
        for k in range(1, g.m + 1):
            got = dom.branch_or_prune(rows, undom, selectable, k)
            if fewest is not None and k >= fewest:
                # the bound never exceeds the fewest extra picks
                assert got is not None, (k, fewest)
            if got is None:
                continue
            order, u = got
            cover = [(row & undom).bit_count() for row in rows]
            # fail-first: the undominated vertex with the fewest candidates,
            # lowest index on ties; its candidates by decreasing coverage
            counts = {w: (rows[w] & selectable).bit_count()
                      for w in range(g.m) if (undom >> w) & 1}
            assert u == min(counts, key=lambda w: (counts[w], w))
            cands = [v for v in range(g.m) if (rows[u] & selectable) >> v & 1]
            assert order == sorted(cands, key=lambda v: (-cover[v], v))

    def test_packing_prunes_before_the_coverage_pass(self):
        # the four leaves of two disjoint P4s need four distinct picks
        g = hc.Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)])
        rows = CountingRows(g.rows())
        undom = 0b10011001
        # the packing reads the undominated rows by index; only the
        # coverage pass makes a pass over all of them
        assert dom.branch_or_prune(rows, undom, 0xFF, 3) is None
        assert rows.reads == 0
        assert dom.branch_or_prune(rows, undom, 0xFF, 4) is not None
        assert rows.reads == 8


def young_orbits_by_brute_force(n, cells, u):
    """Orbits on the words of Q_n of every coordinate permutation that maps
    each cell onto itself and fixes the word u."""
    perms = []
    for p in itertools.permutations(range(n)):
        def image(word, p=p):
            return sum(1 << p[i] for i in range(n) if word >> i & 1)
        if image(u) == u and all(image(cell) == cell for cell in cells):
            perms.append(image)
    orbits = []
    seen = set()
    for v in range(1 << n):
        if v not in seen:
            orbit = sorted({image(v) for image in perms})
            seen.update(orbit)
            orbits.append(orbit)
    return orbits


@st.composite
def cell_partitions(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    labels = draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                           min_size=n, max_size=n))
    cells = [sum(1 << i for i in range(n) if labels[i] == j) for j in range(n)]
    return n, [cell for cell in cells if cell], draw(st.integers(0, (1 << n) - 1))


class TestCoordinateOrbits:
    @settings(max_examples=200, deadline=None)
    @given(cell_partitions())
    def test_popcounts_per_cell_are_the_orbits(self, case):
        n, cells, u = case
        refined = dom._refine(cells, u)
        # each part lies in one cell, inside or outside supp(u)
        assert sum(refined) == sum(cells) == (1 << n) - 1
        assert all(any(not part & ~cell for cell in cells) for part in refined)
        assert all(part & u in (0, part) for part in refined)
        assert dom.coordinate_orbits(refined, range(1 << n)) == \
            young_orbits_by_brute_force(n, cells, u)

    def test_orbits_keep_the_given_order(self):
        # Q_3, one cell: the orbits are the weights, in order of first word
        assert dom.coordinate_orbits([0b111], [6, 1, 0, 3, 4, 7, 2]) == \
            [[6, 3], [1, 4, 2], [0], [7]]


class CountingRows(list):
    """A row list that counts the passes made over it."""

    reads = 0

    def __iter__(self):
        self.reads += len(self)
        return super().__iter__()


class FakeClock:
    """time.monotonic stand-in: each reading is one more than the last."""

    def __init__(self):
        self.now = 0

    def monotonic(self):
        self.now += 1
        return self.now


class TestDeadline:
    @pytest.fixture
    def clock(self, monkeypatch):
        clock = FakeClock()
        monkeypatch.setattr(dom, "time", clock)
        monkeypatch.setattr(dom, "CHECK_BITS", 1)  # read the clock at every step
        return clock

    def test_cut_greedy_still_dominates(self, clock):
        g = hc.build_hamming_graph(6, 4, complemented=True)
        full = dom.greedy_upper_bound(g)
        rows = g.rows()
        lowest = frozenset((row & -row).bit_length() - 1 for row in rows)
        for cut in range(g.m + 40):  # the heap build, then the heap pops
            clock.now = 0
            got = dom.greedy_upper_bound(g, deadline=cut + 0.5)
            assert dom.is_total_dominating(g, got), cut
            if clock.now > cut:  # cut short: stopped at the first late reading
                assert clock.now == cut + 1
            else:
                assert got == full
        clock.now = 0
        assert dom.greedy_upper_bound(g, deadline=0.5) == lowest

    def test_cut_heap_build_still_dominates(self, clock):
        # one reading per row counted into the heap: a deadline that passes
        # there leaves nothing chosen, so every vertex adds its lowest neighbour
        g = hc.build_hamming_graph(6, 4, complemented=True)
        lowest = frozenset((row & -row).bit_length() - 1 for row in g.rows())
        for cut in range(g.m):
            clock.now = 0
            got = dom.greedy_upper_bound(g, deadline=cut + 0.5)
            assert got == lowest and clock.now == cut + 1, cut
            assert dom.is_total_dominating(g, got)

    def test_cut_components_partition_the_vertices(self, clock):
        g = disjoint_union(four_cycle(), hc.build_hamming_graph(3, 2, complemented=True),
                           complete_graph(3))
        rows = g.rows()
        comps = dom._components(rows)
        assert len(comps) == 6  # Gc(3,2) is the four antipodal pairs
        for cut in range(g.m + 2):
            clock.now = 0
            parts = dom._components(rows, deadline=cut + 0.5)
            assert sorted(v for part in parts for v in part) == list(range(g.m))
            assert all(part == sorted(part) for part in parts)
            assert parts[:-1] == comps[:len(parts) - 1]
            # one reading per vertex taken off a frontier, none after a late one
            assert clock.now == min(cut + 1, g.m)

    def test_solver_stops_at_the_deadline(self, clock):
        gc86 = hc.build_hamming_graph(8, 6, complemented=True)
        gc42 = hc.build_hamming_graph(4, 2, complemented=True)
        g = disjoint_union(gc42, gc86)
        for cut in (0, 1, 5, 17, 60, 200, 400):
            clock.now = 0
            # the solver reads the clock once to start it
            res = dom.exact_gamma_t(g, time_limit=cut + 0.5)
            assert res.status == "bounds_only", cut
            assert dom.trivial_lower_bound(g) <= res.lower <= 4 + 32 <= res.upper
            assert res.upper == len(res.witness) and dom.is_total_dominating(g, res.witness)
            # past the deadline: one late reading in the split, in each
            # part's greedy, symmetry check and first search node, and the
            # last reading for elapsed_s
            assert clock.now <= cut + 2 + 2 * 3 + 1

    @pytest.mark.parametrize("index", [10, 60, 68])  # m = 9, 11, 15
    def test_status_is_read_off_the_bounds(self, clock, index):
        # a search cut short after its incumbent met the trivial bound has
        # proved the value: the result is exact, however far it got
        m, edges = random_isolated_free_graphs(count=400, max_m=16, seed=5)[index]
        g = hc.Graph.from_edges(m, edges)
        met = 0
        for cut in range(81):
            clock.now = 0
            res = dom.exact_gamma_t(g, time_limit=cut + 0.5)
            assert (res.status == "exact") == (res.lower == res.upper), cut
            assert res.exact == (res.upper if res.lower == res.upper else None), cut
            assert res.upper == len(res.witness) and dom.is_total_dominating(g, res.witness)
            met += res.lower == res.upper
        assert 0 < met < 81

    def test_orbital_search_stops_at_the_deadline(self, clock, monkeypatch):
        gc86 = hc.build_hamming_graph(8, 6, complemented=True)  # connected, 256 vertices
        orbit_calls = []
        orbits = dom.coordinate_orbits

        def counting_orbits(cells, order):
            orbit_calls.append(cells)
            return orbits(cells, order)
        monkeypatch.setattr(dom, "coordinate_orbits", counting_orbits)
        for cut in (0, 100, 300, 600, 1000, 2000, 5000):
            clock.now = 0
            orbit_calls.clear()
            res = dom.exact_gamma_t(gc86, time_limit=cut + 0.5)
            assert res.status == "bounds_only", cut
            assert res.lower == dom.trivial_lower_bound(gc86) == 29
            assert res.upper == len(res.witness) and dom.is_total_dominating(gc86, res.witness)
            # the reading that starts the clock, then past the deadline one
            # late reading in each of the split, the greedy, the symmetry
            # check and the first search node, and the last one for
            # elapsed_s; a cut inside the search leaves one late reading, in
            # the node that stops
            assert clock.now <= cut + 1 + 4 + 1
            if res.nodes > 1:
                assert clock.now == cut + 1 + 1 + 1, cut
        # the last cut stops inside the orbital search
        assert res.nodes > 1000 and orbit_calls

    def recording_labelling(self, clock, monkeypatch):
        """Record (clock at start, clock at end, claim) of every call to
        `hamming_labelling`, the claim "natural", "map" or None."""
        checks = []
        check = dom.hamming_labelling

        def recording_check(rows, expired):
            start = clock.now
            found = check(rows, expired)
            claim = found and ("natural" if found[0] is None else "map")
            checks.append((start, clock.now, claim))
            return found
        monkeypatch.setattr(dom, "hamming_labelling", recording_check)
        return checks

    def test_symmetry_check_cut_short_claims_no_symmetry(self, clock, monkeypatch):
        gc64 = hc.build_hamming_graph(6, 4, complemented=True)
        orbit_calls, searches, transitivity_checks = [], [], []
        checks = self.recording_labelling(clock, monkeypatch)
        orbits = dom.coordinate_orbits

        def counting_orbits(cells, order):
            orbit_calls.append(cells)
            return orbits(cells, order)
        monkeypatch.setattr(dom, "coordinate_orbits", counting_orbits)
        # natural rows are read as they are: no second graph, no map search;
        # and the transitivity check starts neither after rows found natural
        # nor after a check cut short
        monkeypatch.setattr(hc, "build_hamming_graph", lambda *a: searches.append(a))
        monkeypatch.setattr(hc, "_maps_onto", lambda *a: searches.append(a))
        monkeypatch.setattr(dom, "vertex_transitive",
                            lambda rows, expired: transitivity_checks.append(rows))
        clock.now = 0
        assert dom.exact_gamma_t(gc64, time_limit=1e9).nodes == 2782
        [(start, end, claim)] = checks
        assert claim == "natural" and end - start == 63  # one reading per row after row 0
        # the reading that starts the clock is reading 1, so reading cut + 2
        # is the first late one
        for cut, want in ((start + 10, (start, start + 12, None)), (end + 100, checks[0])):
            clock.now = 0
            checks.clear()
            orbit_calls.clear()
            res = dom.exact_gamma_t(gc64, time_limit=cut + 0.5)
            # cut short, the check stops at its first late reading
            assert res.status == "bounds_only" and checks == [want], cut
            assert bool(orbit_calls) == (want[2] == "natural")
            assert res.upper == len(res.witness) and dom.is_total_dominating(gc64, res.witness)
        assert searches == transitivity_checks == []

    def test_recognition_cut_short_claims_nothing(self, clock, monkeypatch):
        g = relabelled(hc.build_hamming_graph(5, 3, complemented=True), 3)
        transitivity_checks = []
        checks = self.recording_labelling(clock, monkeypatch)
        monkeypatch.setattr(dom, "vertex_transitive",
                            lambda rows, expired: transitivity_checks.append(rows))
        clock.now = 0
        assert dom.exact_gamma_t(g, time_limit=1e9).nodes == 39
        # a map onto the natural rows, and then, in the search on those
        # rows, their check: one reading per row after row 0
        [(start, end, claim), (natural_start, natural_end, natural)] = checks
        assert (claim, natural) == ("map", "natural") and natural_end - natural_start == 31
        assert end - start > 50  # one reading before the build, one per refinement step
        for cut in range(start - 1, end - 1, 7):
            clock.now = 0
            checks.clear()
            res = dom.exact_gamma_t(g, time_limit=cut + 0.5)
            # the recognition stops at its first late reading and claims
            # nothing; the search without symmetry stops at its first node,
            # then the last reading for elapsed_s
            assert checks == [(start, cut + 2, None)], cut
            assert res.status == "bounds_only" and res.nodes == 1
            assert res.upper == len(res.witness) and dom.is_total_dominating(g, res.witness)
            assert clock.now == cut + 2 + 1 + 1
        # no transitivity check, after a map found or a recognition cut short
        assert transitivity_checks == []

    def test_no_graph_is_built_once_the_clock_is_late(self, clock, monkeypatch):
        # the recognition reads the clock once before it builds the natural
        # graph, so a deadline that passes in the split or the greedy
        # builds nothing
        g = relabelled(hc.build_hamming_graph(5, 3, complemented=True), 3)
        built = []
        build = hc.build_hamming_graph

        def recording_build(*args):
            built.append(clock.now)
            return build(*args)
        monkeypatch.setattr(hc, "build_hamming_graph", recording_build)
        clock.now = 0
        assert dom.exact_gamma_t(g, time_limit=1e9).exact == 7
        [reading] = built  # the clock when the natural Gc(5,3) is built
        for cut in range(reading - 1):  # reading cut + 2 is the first late one
            clock.now = 0
            built.clear()
            res = dom.exact_gamma_t(g, time_limit=cut + 0.5)
            assert built == [], cut
            assert res.status == "bounds_only"
            assert res.upper == len(res.witness) and dom.is_total_dominating(g, res.witness)

    def test_transitivity_check_cut_short_claims_nothing(self, clock, monkeypatch):
        # Gc(5,3)'s degree: the recognition runs first and finds no map
        g = relabelled(cayley_not_hamming(), 3)
        checks = []
        check = dom.vertex_transitive

        def recording_check(rows, expired):
            start = clock.now
            found = check(rows, expired)
            checks.append((start, clock.now, found))
            return found
        monkeypatch.setattr(dom, "vertex_transitive", recording_check)
        clock.now = 0
        assert dom.exact_gamma_t(g, time_limit=1e9).nodes == 112
        [(start, end, found)] = checks
        assert found and end - start > 50  # one reading per refinement step
        # the reading that starts the clock is reading 1, so reading
        # cut + 2 is the first late one
        for cut in range(start - 1, end - 1, 7):
            clock.now = 0
            checks.clear()
            res = dom.exact_gamma_t(g, time_limit=cut + 0.5)
            # the check stops at its first late reading and claims nothing;
            # the search without symmetry stops at its first node, then the
            # last reading for elapsed_s
            assert checks == [(start, cut + 2, False)], cut
            assert res.status == "bounds_only" and res.nodes == 1
            assert res.upper == len(res.witness) and dom.is_total_dominating(g, res.witness)
            assert clock.now == cut + 2 + 1 + 1


class TestTightExamples:
    def test_delta_2_is_path_on_4(self):
        g = tight_example_graph(2, 1)
        assert g.m == 4 and sorted(row.bit_count() for row in g.rows()) == [1, 1, 2, 2]
        assert dom.gamma_t_exhaustive(g) == 2

    def test_small_family_exact(self):
        for delta, pairs in [(3, 1), (3, 2), (4, 1), (5, 1)]:
            g = tight_example_graph(delta, pairs)
            assert g.m == pairs * 2 * delta
            assert g.max_degree == delta
            assert dom.gamma_t_exhaustive(g) == g.m // delta == 2 * pairs

    def test_validation(self):
        with pytest.raises(ValueError):
            tight_example_graph(1, 1)
        with pytest.raises(ValueError):
            tight_example_graph(3, 0)

import itertools
import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vrhq import bitops, bounds, hypercube as hc
from vrhq.errors import DimensionTooLarge, InconsistentHeader, ParseError

from tests.oracles import dimacs_text, is_vertex_transitive
from tests.test_domination import (hamming_graphs, relabelled, swapped, weight_class_graph,
                                   weight_sets)

labels64 = st.integers(min_value=0, max_value=(1 << 64) - 1)


def figure_graph():
    # three vertices, edges 0-1 and 0-2
    return hc.Graph.from_edges(3, [(0, 1), (0, 2)])


class TestBitops:
    @settings(max_examples=300)
    @given(st.integers(min_value=0, max_value=(1 << 300) - 1))
    def test_dense_bits_lists_the_set_bits(self, mask):
        # the plain per-bit test, not iter_bits, is the reference
        want = [i for i in range(mask.bit_length()) if (mask >> i) & 1]
        assert list(bitops.dense_bits(mask)) == list(bitops.iter_bits(mask)) == want
        items = [object() for _ in range(300)]
        assert list(bitops.dense_bits(mask, items)) == [items[i] for i in want]

    def test_halfspace_patterns_match_the_division_formula(self):
        for n in range(13):
            ones = (1 << (1 << n)) - 1
            want = [ones // ((1 << (2 << b)) - 1) * ((1 << (1 << b)) - 1) for b in range(n)]
            assert bitops.halfspace_patterns(n) == want
            # three blocks end to end, and a width that is no power of two
            assert bitops.halfspace_patterns(n, 3 << n) == [
                p | p << (1 << n) | p << (2 << n) for p in want]

    @settings(max_examples=300)
    @given(st.integers(min_value=0, max_value=(1 << 64) - 1),
           st.integers(min_value=0, max_value=15))
    def test_xor_translate_moves_every_block(self, row, v):
        # four blocks of 16 positions: bit j of block i lands on j ^ v
        moved = bitops.xor_translate(row, v, bitops.halfspace_patterns(4, 64))
        assert all((moved >> (i << 4 | j ^ v)) & 1 == (row >> (i << 4 | j)) & 1
                   for i in range(4) for j in range(16))


class TestHammingDistance:
    def test_examples(self):
        assert hc.hamming_distance(0b000, 0b000) == 0
        assert hc.hamming_distance(0b000, 0b111) == 3
        assert hc.hamming_distance(0b0101, 0b0110) == 2

    @given(labels64, labels64, labels64)
    @settings(max_examples=300, deadline=None)
    def test_metric_axioms(self, a, b, c):
        d = hc.hamming_distance
        assert d(a, b) >= 0
        assert (d(a, b) == 0) == (a == b)
        assert d(a, b) == d(b, a)
        assert d(a, c) <= d(a, b) + d(b, c)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            hc.hamming_distance(-1, 0)


class TestBuildHammingGraph:
    def test_four_cycle(self):
        g = hc.build_hamming_graph(2, 1)
        assert g.rows() == [0b0110, 0b1001, 0b1001, 0b0110]  # antipodes cut

    def test_complement_6_4(self):
        g = hc.build_hamming_graph(6, 4, complemented=True)
        assert Counter(row.bit_count() for row in g.rows()) == {7: 64}

    def test_complement_3_2_is_antipodal_matching(self):
        g = hc.build_hamming_graph(3, 2, complemented=True)
        assert g.rows() == [1 << (v ^ 0b111) for v in range(8)]

    def test_degrees_match_tail_degree(self):
        for n in range(1, 9):
            for r in range(0, n):
                g = hc.build_hamming_graph(n, r, complemented=True)
                want = bounds.tail_degree(n, r)
                assert all(row.bit_count() == want for row in g.rows())

    def test_edge_partition(self):
        # plain and complemented rows partition the complete graph exactly
        for n in range(1, 11):
            for r in range(0, n):
                g = hc.build_hamming_graph(n, r)
                gc = hc.build_hamming_graph(n, r, complemented=True)
                full = (1 << g.m) - 1
                for v in range(g.m):
                    assert g.row(v) & gc.row(v) == 0
                    assert g.row(v) | gc.row(v) == full ^ (1 << v)

    def test_rows_follow_the_distance_predicate(self):
        # every row for n <= 7; beyond, a seeded sample of rows, which are
        # built from one another, plus the last
        rng = random.Random(10)
        for n in range(1, 11):
            m = 1 << n
            sample = range(m) if n <= 7 else sorted(rng.sample(range(m), 24) + [m - 1])
            for r in range(n + 1):
                g = hc.build_hamming_graph(n, r)
                gc = hc.build_hamming_graph(n, r, complemented=True)
                for v in sample:
                    near = sum(1 << w for w in range(m)
                               if w != v and hc.hamming_distance(v, w) <= r)
                    far = sum(1 << w for w in range(m) if hc.hamming_distance(v, w) > r)
                    assert (g.row(v), gc.row(v)) == (near, far), (n, r, v)

    @given(st.integers(min_value=0, max_value=255),
           st.integers(min_value=0, max_value=255),
           st.integers(min_value=0, max_value=255))
    @settings(max_examples=100, deadline=None)
    def test_xor_translation_is_automorphism(self, mask, u, v):
        g = hc.build_hamming_graph(8, 3)
        gc = hc.build_hamming_graph(8, 3, complemented=True)
        assert g.row(u) >> v & 1 == g.row(u ^ mask) >> (v ^ mask) & 1
        assert gc.row(u) >> v & 1 == gc.row(u ^ mask) >> (v ^ mask) & 1

    def test_ceiling(self):
        with pytest.raises(DimensionTooLarge):
            hc.build_hamming_graph(25, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            hc.build_hamming_graph(0, 0)
        with pytest.raises(ValueError):
            hc.build_hamming_graph(3, -1)


def cycle(m):
    return hc.Graph.from_edges(m, [(v, (v + 1) % m) for v in range(m)])


def from_networkx(name, *args):
    import networkx as nx
    h = getattr(nx, name)(*args)
    return hc.Graph.from_edges(h.number_of_nodes(), h.edges())


@pytest.fixture
def split_steps(monkeypatch):
    """The number of refinement steps taken so far."""
    steps = []
    split = hc._split

    def counting_split(*args):
        steps.append(None)
        return split(*args)
    monkeypatch.setattr(hc, "_split", counting_split)
    return steps


class TestVertexTransitive:
    def test_agrees_with_vf2pp(self):
        graphs = [cycle(m) for m in range(3, 13)] + [relabelled(cycle(12), 1)]
        graphs += [from_networkx("petersen_graph"), relabelled(from_networkx("petersen_graph"), 2)]
        graphs += [relabelled(hc.build_hamming_graph(n, r, complemented), n + r)
                   for n in range(1, 6) for r in range(n) for complemented in (False, True)]
        # regular but not vertex-transitive: a triangle beside a square,
        # and the Frucht graph, 3-regular with the identity its only
        # automorphism
        graphs.append(hc.Graph.from_edges(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)]))
        graphs.append(from_networkx("frucht_graph"))
        verdicts = [hc.vertex_transitive(g.rows()) for g in graphs]
        assert verdicts == [is_vertex_transitive(g.rows()) for g in graphs]
        assert verdicts.count(False) == 2

    def test_only_checked_maps_count(self, monkeypatch):
        # with every trace entry blanked, the two sides stay in lockstep down
        # to leaves whose maps are not automorphisms; only the check on the
        # rows keeps the Frucht graph from being claimed
        split = hc._split

        def blind_split(*args):
            split(*args)
            return ()
        monkeypatch.setattr(hc, "_split", blind_split)
        assert not hc.vertex_transitive(from_networkx("frucht_graph").rows())
        assert hc.vertex_transitive(from_networkx("petersen_graph").rows())

    def test_irregular_graph_is_rejected_at_once(self, split_steps):
        assert not hc.vertex_transitive(figure_graph().rows())
        assert split_steps == []

    def test_trivial_sizes(self):
        assert hc.vertex_transitive([0])
        assert not hc.vertex_transitive([])

    def test_giving_up_claims_nothing(self, monkeypatch, split_steps):
        petersen = from_networkx("petersen_graph").rows()
        assert hc.vertex_transitive(petersen)
        needed = len(split_steps)
        assert not hc.vertex_transitive(petersen, expired=lambda: True)
        # expiry seen only by the check of a leaf's map, not by refinement
        leaf_check = lambda: sys._getframe(1).f_code.co_name == "onto"
        assert not hc.vertex_transitive(petersen, expired=leaf_check)
        monkeypatch.setattr(hc, "TRANSITIVITY_STEPS", needed - 1)
        assert not hc.vertex_transitive(petersen)
        monkeypatch.setattr(hc, "TRANSITIVITY_STEPS", needed)
        assert hc.vertex_transitive(petersen)

    @pytest.mark.parametrize("graph, per_vertex", [("cycle", 4), ("gc96", 4), ("cocktail", 10)])
    def test_steps_stay_near_linear_in_m(self, graph, per_vertex, split_steps):
        # counted, not timed: 1,022 steps on the 512-cycle, 1,533 on a
        # relabelled Gc(9,6) and 1,016 on the cocktail-party graph K_128
        # less a perfect matching.  A refinement that went back to the
        # first cell after every split would take quadratically many, and
        # so would maps that each joined one more vertex to 0's orbit, as
        # lowest-first candidates give on the cocktail-party graph
        if graph == "cycle":
            g = cycle(512)
        elif graph == "gc96":
            g = relabelled(hc.build_hamming_graph(9, 6, complemented=True), 0)
        else:
            g = hc.Graph.from_edges(128, [(u, v) for u, v in itertools.combinations(range(128), 2)
                                          if v - u != 64])
        assert hc.vertex_transitive(g.rows())
        assert len(split_steps) <= per_vertex * g.m <= hc.TRANSITIVITY_STEPS // 8


class TestHammingLabelling:
    def assert_labelling(self, rows, natural):
        g, perm = hc.hamming_labelling(rows)
        assert g.rows() == natural.rows() and sorted(perm) == list(range(g.m))
        # the map carries each row of the natural labelling onto its image's
        for v in range(g.m):
            assert sum(1 << perm[u] for u in bitops.iter_bits(g.row(v))) == rows[perm[v]]

    def test_natural_labellings_are_read_off_the_rows(self, monkeypatch):
        # G(n,n) is Gc(n,0), the complete graph, and Gc(n,n) is G(n,0), the
        # empty one: both are in their natural labelling too
        graphs = {(n, r, complemented): hc.build_hamming_graph(n, r, complemented)
                  for n in range(1, 9) for r in range(n + 1) for complemented in (False, True)}
        searched = []
        monkeypatch.setattr(hc, "build_hamming_graph", lambda *a: searched.append(a))
        monkeypatch.setattr(hc, "_maps_onto", lambda *a: searched.append(a))
        for key, g in graphs.items():
            assert hc.hamming_labelling(g.rows()) == (None, None), key
        assert searched == []  # no second graph and no map search
        assert hc.hamming_labelling([]) is None
        assert hc.hamming_labelling([0]) is None
        assert hc.hamming_labelling(graphs[3, 1, True].rows(), expired=lambda: True) is None
        assert searched == []

    def test_weight_class_cayley_graphs_are_read_off_the_rows(self, monkeypatch):
        # any union of weight classes, not only a ball or its complement
        graphs = [weight_class_graph(n, weights) for n in range(1, 7) for weights in weight_sets(n)]
        searched = []
        monkeypatch.setattr(hc, "build_hamming_graph", lambda *a: searched.append(a))
        monkeypatch.setattr(hc, "_maps_onto", lambda *a: searched.append(a))
        assert all(hc.hamming_labelling(g.rows()) == (None, None) for g in graphs)
        assert searched == []

    def test_relabelled_hamming_graphs_are_recognised(self):
        for natural in hamming_graphs(6):
            for seed in (1, 2):
                rows = relabelled(natural, seed).rows()
                if rows == natural.rows():  # the shuffle is an automorphism
                    assert hc.hamming_labelling(rows) == (None, None)
                else:
                    self.assert_labelling(rows, natural)

    def test_other_constructions_of_hamming_graphs(self):
        import networkx as nx
        # the folded 5-cube, Q_4 and its antipodal edges, is Gc(4,2); in Q_4's
        # labelling it is the Cayley graph on weights 1 and 4, read as it is,
        # and relabelled it is mapped onto Gc(4,2)
        q4 = hc.build_hamming_graph(4, 1)
        folded = hc.Graph([row | 1 << (v ^ 15) for v, row in enumerate(q4.rows())])
        assert hc.hamming_labelling(folded.rows()) == (None, None)
        self.assert_labelling(relabelled(folded, 1).rows(), hc.build_hamming_graph(4, 2, True))
        # C4 x C4 is Q_4
        h = nx.convert_node_labels_to_integers(
            nx.cartesian_product(nx.cycle_graph(4), nx.cycle_graph(4)))
        self.assert_labelling(hc.Graph.from_edges(16, h.edges()).rows(), q4)
        # the 4-cycle 0-1-2-3 is Q_2
        self.assert_labelling(cycle(4).rows(), hc.build_hamming_graph(2, 1))
        # labels 1 and 2 of Gc(6,4) swapped: both are non-neighbours of 0,
        # so row 0 is the natural one, but row 1 is no translate of it
        gc64 = hc.build_hamming_graph(6, 4, complemented=True)
        rows = swapped(gc64, 1, 2).rows()
        assert rows[0] == gc64.row(0) and rows != gc64.rows()
        self.assert_labelling(rows, gc64)

    def test_other_graphs_are_not_recognised(self, monkeypatch):
        assert hc.hamming_labelling(cycle(12).rows()) is None  # 12 is no power of 2
        assert hc.hamming_labelling(figure_graph().rows()) is None  # 3 is no power of 2
        assert hc.hamming_labelling(cycle(8).rows()) is None  # no G(3,r) is 2-regular
        # the path 1-0-2-3 has Q_2's natural row 0, but it is not regular,
        # so no Q_2 is built to map from
        path = hc.Graph.from_edges(4, [(0, 1), (0, 2), (2, 3)])
        assert path.row(0) == hc.build_hamming_graph(2, 1).row(0)
        built = []
        monkeypatch.setattr(hc, "build_hamming_graph", lambda *a: built.append(a))
        assert hc.hamming_labelling(path.rows()) is None and built == []


class TestGraph:
    def test_degree_profile_examples(self):
        assert Counter(row.bit_count() for row in figure_graph().rows()) == {2: 1, 1: 2}

    def test_from_edges_rejects_loops_and_range(self):
        with pytest.raises(ValueError):
            hc.Graph.from_edges(3, [(1, 1)])
        with pytest.raises(ValueError):
            hc.Graph.from_edges(3, [(0, 3)])

    def test_constructor_validates(self):
        with pytest.raises(ValueError):
            hc.Graph([0b010, 0b000, 0b000])  # asymmetric
        with pytest.raises(ValueError):
            hc.Graph([0b001, 0b000, 0b000])  # loop at 0
        with pytest.raises(ValueError):
            hc.Graph([0b1000, 0b000, 0b000])  # out of range

    def test_accessors(self):
        g = figure_graph()
        assert g.max_degree == 2
        assert [g.row(v) for v in range(3)] == g.rows() == [0b110, 0b001, 0b001]
        assert not g.has_isolated_vertex()
        assert hc.Graph.from_edges(2, []).has_isolated_vertex()


class TestDimacs:
    def test_parse_figure_graph(self):
        g = hc.read_dimacs("c the three-vertex example\np edge 3 2\ne 1 2\ne 1 3\n")
        assert g.rows() == figure_graph().rows()

    def test_round_trip_corpus(self):
        import random
        rng = random.Random(7)
        corpus = [figure_graph(),
                  hc.build_hamming_graph(2, 1),
                  hc.build_hamming_graph(3, 2, complemented=True),
                  hc.Graph.from_edges(1, []),
                  hc.Graph.from_edges(5, [])]
        while len(corpus) < 10:
            m = rng.randint(2, 12)
            edges = [(u, v) for u in range(m) for v in range(u + 1, m)
                     if rng.random() < 0.4]
            corpus.append(hc.Graph.from_edges(m, edges))
        for g in corpus:
            assert hc.read_dimacs(dimacs_text(g)).rows() == g.rows()

    def test_isolated_vertices_preserved_via_header(self):
        g = hc.read_dimacs("p edge 4 1\ne 2 3\n")
        assert g.rows() == [0, 0b100, 0b010, 0]

    def test_loop_rejected(self):
        with pytest.raises(ParseError) as exc:
            hc.read_dimacs("p edge 2 1\ne 1 1\n")
        assert exc.value.line == 2

    def test_header_mismatch(self):
        with pytest.raises(InconsistentHeader):
            hc.read_dimacs("p edge 3 2\ne 1 2\n")
        # duplicate edge lines collapse, leaving the header inconsistent
        with pytest.raises(InconsistentHeader):
            hc.read_dimacs("p edge 3 2\ne 1 2\ne 2 1\n")

    @pytest.mark.parametrize("text,line", [
        ("e 1 2\n", 1),                       # edge before header
        ("p edge 3 1\np edge 3 1\ne 1 2\n", 2),  # duplicate header
        ("p graph 3 1\ne 1 2\n", 1),          # wrong descriptor
        ("p edge 3 1\ne 1\n", 2),             # short edge line
        ("p edge 3 1\ne 1 9\n", 2),           # endpoint out of range
        ("p edge 3 1\nq 1 2\n", 2),           # unknown line type
        ("p edge x 1\ne 1 2\n", 1),           # non-integer header
        ("p edge 3 1\ne 1 y\n", 2),           # non-integer endpoint
        ("p edge -1 0\n", 1),                 # negative vertex count
    ])
    def test_parse_errors_carry_line_numbers(self, text, line):
        with pytest.raises(ParseError) as exc:
            hc.read_dimacs(text)
        assert exc.value.line == line

    def test_missing_header(self):
        with pytest.raises(ParseError):
            hc.read_dimacs("c nothing here\n")

    def test_vertex_count_above_the_ceiling(self):
        # rejected at the problem line, before the body is read or rows sized
        with pytest.raises(DimensionTooLarge, match="line 1: .*2\\^24 = 16777216"):
            hc.read_dimacs(f"p edge {(1 << hc.MATERIALIZE_CEILING) + 1} 0\ne 1 1\n")

import itertools
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vrhq import complexes as cx, hypercube as hc
from vrhq.errors import (DimensionTooLarge, DuplicateVertex, OddCount, ParseError,
                         TooLarge)

from tests.oracles import (brute_independent_sets, brute_pattern_sets, brute_rips_by_dim,
                           reference_dominates, reference_parse_complex)


def check_closure(k):
    for d in range(1, k.max_dim_requested + 1):
        have = set(k.simplices(d - 1))
        for simplex in k.simplices(d):
            for omit in range(len(simplex)):
                assert simplex[:omit] + simplex[omit + 1:] in have


class TestVietorisRips:
    def test_four_cycle(self):
        k = cx.vietoris_rips(2, 1, 2)
        assert k.f_vector() == (4, 4, 0)

    def test_full_simplex(self):
        k = cx.vietoris_rips(3, 3, 7)
        assert k.f_vector() == tuple(math.comb(8, i + 1) for i in range(8))

    def test_cross_polytope_boundary(self):
        k = cx.vietoris_rips(3, 2, 3)
        assert k.f_vector() == (8, 24, 32, 16)

    def test_matches_subset_enumeration_oracle(self):
        for n, r, d in [(2, 1, 2), (3, 2, 3), (3, 1, 2), (4, 1, 3), (4, 2, 3)]:
            k = cx.vietoris_rips(n, r, d)
            want = brute_rips_by_dim(n, r, d - 1)
            got = [k.simplices(i) for i in range(d)]
            assert got == want

    def test_closure(self):
        for n in range(1, 5):
            for r in range(0, n + 1):
                check_closure(cx.vietoris_rips(n, r, 4))

    def test_diameter_soundness_sampled(self):
        import random
        rng = random.Random(123)
        pool = []
        for n, r, d in [(3, 2, 3), (4, 2, 4), (4, 3, 5)]:
            k = cx.vietoris_rips(n, r, d)
            for dim in range(d + 1):
                pool.extend((r, s) for s in k.simplices(dim))
        for r, s in rng.sample(pool, min(10_000, len(pool))):
            assert all(hc.hamming_distance(a, b) <= r
                       for a, b in itertools.combinations(s, 2))

    def test_simplex_cap(self):
        with pytest.raises(TooLarge):
            cx.vietoris_rips(3, 3, 7, max_simplices=10)
        # VR(Q_3; 1) to dimension 1 has 8 + 12 simplices: a cap is inclusive
        assert cx.vietoris_rips(3, 1, 1, max_simplices=20).f_vector() == (8, 12)
        with pytest.raises(TooLarge):
            cx.vietoris_rips(3, 1, 1, max_simplices=19)

    def test_simplex_cap_stops_the_build_early(self):
        # VR(Q_7; 4) has 159,488 2-simplices: the cap of 10^4 must stop the
        # build inside that dimension, not after holding it whole
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge):
                cx.vietoris_rips(7, 4, 6, max_simplices=10 ** 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20

    def test_top_dimension_builds_no_extension_sets(self):
        # VR(Q_8; 2) to dimension 4 holds about 7.5 MiB of simplices; an
        # extension bitset per 4-simplex would push the peak past 13 MiB
        tracemalloc.start()
        try:
            k = cx.vietoris_rips(8, 2, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert k.f_vector() == (256, 4608, 21504, 37632, 32256)
        assert peak < 10 << 20

    def test_parse_splits_one_dimension_at_a_time(self):
        # the VR(Q_6; 3) 3-skeleton file peaks near 12 MiB when its lines
        # are split as each dimension is read; splitting every line first
        # would push the peak past 30 MiB
        text = cx.format_complex(cx.vietoris_rips(6, 3, 3))
        tracemalloc.start()
        try:
            k = cx.parse_complex(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert k.f_vector() == (64, 1312, 11840, 55120)
        assert peak < 16 << 20

    def test_truncation_pads_empty_dimensions(self):
        k = cx.vietoris_rips(2, 1, 5)
        assert k.f_vector() == (4, 4, 0, 0, 0, 0)
        assert k.simplices(2) == k.simplices(6) == k.simplices(-1) == []
        assert repr(k) == "SimplicialComplex(n_vertices=4, f_vector=(4, 4, 0, 0, 0, 0))"
        assert k == cx.SimplicialComplex(4, 5, [k.simplices(0), k.simplices(1), [], []])
        with pytest.raises(ValueError):
            cx.SimplicialComplex(2, 0, [[(0,), (1,)], [(0, 1)]])


def independence_f_vector(g, max_dim):
    return tuple(map(len, brute_independent_sets(g.rows(), max_dim)))


class TestIndependenceComplex:
    # VR(Q_n; r) = Ind(Gc_{n,r}): the clique build against independent sets
    # enumerated in the complement graph
    def test_identity_with_rips(self):
        for n in range(1, 5):
            for r in range(0, n):
                gc = hc.build_hamming_graph(n, r, complemented=True)
                ind = cx.SimplicialComplex(gc.m, 4, brute_independent_sets(gc.rows(), 4))
                assert ind == cx.vietoris_rips(n, r, 4)

    def test_perfect_matching_gives_cross_polytope(self):
        g = hc.build_hamming_graph(3, 2, complemented=True)
        assert independence_f_vector(g, 3) == (8, 24, 32, 16)
        assert cx.vietoris_rips(3, 2, 3).f_vector() == (8, 24, 32, 16)

    def test_complete_graph_gives_points(self):
        g = hc.Graph.from_edges(5, itertools.combinations(range(5), 2))
        assert independence_f_vector(g, 2) == (5, 0, 0)
        assert cx.vietoris_rips(2, 0, 2).f_vector() == (4, 0, 0)  # Gc(2,0) = K_4

    def test_empty_graph_gives_full_simplex(self):
        g = hc.Graph.from_edges(4, [])
        assert independence_f_vector(g, 3) == (4, 6, 4, 1)
        assert cx.vietoris_rips(2, 2, 3).f_vector() == (4, 6, 4, 1)  # Gc(2,2) has no edge


class TestFVectorEuler:
    def test_examples(self):
        k = cx.vietoris_rips(2, 1, 1)
        assert k.f_vector() == (4, 4)
        assert k.euler_characteristic() == 0
        assert cx.vietoris_rips(3, 2, 3).euler_characteristic() == 8 - 24 + 32 - 16 == 0
        assert cx.vietoris_rips(3, 3, 7).euler_characteristic() == 1


class TestWitnessCheck:
    def test_q2_antipodal_pairs(self):
        rep = cx.cross_polytope_witness_check(2, 1, [0, 1, 2, 3])
        assert rep.is_cross_polytope_boundary and rep.is_matching_complement
        assert rep.is_total_dominating_in_complement
        assert rep.missing_pairs == ()
        assert rep.recovered_pairs == ((0, 3), (1, 2))

    def test_q3_antipodal_pairs(self):
        rep = cx.cross_polytope_witness_check(3, 2, range(8))
        assert rep.is_cross_polytope_boundary
        assert rep.is_total_dominating_in_complement
        assert rep.recovered_pairs == ((0, 7), (1, 6), (2, 5), (3, 4))

    def test_no_far_partner(self):
        rep = cx.cross_polytope_witness_check(3, 2, [0b000, 0b011, 0b101, 0b110])
        assert not rep.is_cross_polytope_boundary
        assert rep.is_matching_complement  # vacuous matching
        assert rep.missing_pairs == ((0, 0), (3, 3), (5, 5), (6, 6))
        assert rep.recovered_pairs == ()

    def test_ambiguous_partners(self):
        # at r = 0 every distinct pair is far, so four vertices have degree 3
        rep = cx.cross_polytope_witness_check(2, 0, [0, 1, 2, 3])
        assert not rep.is_matching_complement
        assert not rep.is_cross_polytope_boundary
        assert len(rep.missing_pairs) == 6

    def test_single_far_pair(self):
        rep = cx.cross_polytope_witness_check(2, 0, [0, 3])
        assert rep.is_cross_polytope_boundary
        assert rep.recovered_pairs == ((0, 3),)
        # at r = 0 every word of Q_2 differs from 0 or from 3, so the pair
        # dominates
        assert rep.is_total_dominating_in_complement

    def test_pattern_without_domination(self):
        # {0, 3} at scale 1 in Q_3 is a far pair at distance 2, but word 1
        # lies within distance 1 of both, so the pair does not dominate
        rep = cx.cross_polytope_witness_check(3, 1, [0, 3])
        assert rep.is_cross_polytope_boundary
        assert not rep.is_total_dominating_in_complement

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_domination_verdict_matches_distance_predicate(self, data):
        # above n = 12 a word has high bits, so the scan splits it
        n = data.draw(st.integers(min_value=1, max_value=14))
        r = data.draw(st.integers(min_value=0, max_value=n))
        verts = data.draw(st.lists(st.integers(min_value=0, max_value=(1 << n) - 1),
                                   max_size=16, unique=True))
        verts = verts[:len(verts) // 2 * 2]
        rep = cx.cross_polytope_witness_check(n, r, verts)
        assert rep.is_total_dominating_in_complement == reference_dominates(n, r, verts)

    def test_antipodal_pair_dominates_iff_n_exceeds_2r(self):
        # d(u, t) + d(u, ~t) = n, so the larger is > r for every u iff n > 2r
        t = 0b101100111000111100001111
        for n in range(1, hc.MATERIALIZE_CEILING + 1):
            tn = t & ((1 << n) - 1)
            for r in range(n + 1):
                rep = cx.cross_polytope_witness_check(n, r, [tn, tn ^ ((1 << n) - 1)])
                assert rep.is_total_dominating_in_complement == (n > 2 * r), (n, r)

    @pytest.mark.parametrize("n", [13, 14, 16])
    def test_only_the_last_block_is_undominated(self, n):
        # at r = 1 the radius-1 sphere about the all-ones word dominates
        # every other word; the all-ones word has the highest high part.
        # With it, the list stays within radius 1 of it.
        top = (1 << n) - 1
        verts = [top ^ (1 << i) for i in range(n)] + [top] * (n % 2)
        assert not reference_dominates(n, 1, verts)
        assert reference_dominates(n, 1, verts + [0, 1])
        assert not cx.cross_polytope_witness_check(n, 1, verts).is_total_dominating_in_complement
        # two vertices far from the all-ones word dominate it too
        rep = cx.cross_polytope_witness_check(n, 1, verts + [0, 1])
        assert rep.is_total_dominating_in_complement

    @pytest.mark.parametrize("size", [2, 2048])
    def test_scan_holds_2_to_the_n_bits(self, size):
        # near[h] holds 2^20 bits, 128 KiB, however long the list; a ball
        # per vertex would be 128 KiB each.  Neither list dominates, so the
        # scan reads all of it.
        n, r = 20, 10
        if size == 2:
            verts = [0b1011, 0b1011 ^ ((1 << n) - 1)]
        else:
            verts = list(itertools.islice((v for v in range(1 << n) if v.bit_count() <= 4),
                                          size))
        tracemalloc.start()
        try:
            dominating = cx._dominates(n, r, verts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not dominating
        assert peak < 1 << 20, peak

    def test_missing_pairs_merge_in_order(self):
        # 1 has no far partner and 13 has two: (1, 1) sorts between them
        rep = cx.cross_polytope_witness_check(4, 2, [13, 2, 1, 0])
        assert rep.missing_pairs == ((0, 13), (1, 1), (2, 13))
        assert not rep.is_matching_complement and rep.recovered_pairs == ()

    def test_pair_scan_keeps_one_list_of_far_pairs(self):
        # 79,947 far pairs among 512 words of Q_12 at r = 5, all missing:
        # the list and the report's tuple of them peak near 6 MiB, a set
        # and a sorted copy besides would pass 15 MiB
        verts = [v * 2654435761 % 4096 for v in range(512)]
        tracemalloc.start()
        try:
            rep = cx.cross_polytope_witness_check(12, 5, verts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rep.missing_pairs) == 79947
        assert list(rep.missing_pairs) == sorted(set(rep.missing_pairs))
        assert peak < 10 << 20, peak

    def test_errors(self):
        with pytest.raises(OddCount):
            cx.cross_polytope_witness_check(2, 1, [0, 1, 2])
        with pytest.raises(DuplicateVertex):
            cx.cross_polytope_witness_check(2, 1, [0, 0, 1, 2])
        with pytest.raises(ValueError):
            cx.cross_polytope_witness_check(2, 1, [0, 1, 2, 4])
        with pytest.raises(DimensionTooLarge):
            cx.cross_polytope_witness_check(hc.MATERIALIZE_CEILING + 1, 1, [0, 1])


class TestPatternEnumeration:
    """The witness checker against the raw subset scan of tests.oracles."""

    def test_q2_r1(self):
        got = sorted(brute_pattern_sets(2, 1))
        assert got == [(0, 1, 2, 3), (0, 3), (1, 2)]
        assert [cx.cross_polytope_witness_check(2, 1, v).recovered_pairs for v in got] \
            == [((0, 3), (1, 2)), ((0, 3),), ((1, 2),)]

    def test_matches_brute_force(self):
        # the checker accepts exactly the subsets the oracle finds
        for n in range(1, 4):
            for r in range(0, n):
                want = set(brute_pattern_sets(n, r))
                got = {verts for size in range(2, (1 << n) + 1, 2)
                       for verts in itertools.combinations(range(1 << n), size)
                       if cx.cross_polytope_witness_check(n, r, verts).is_cross_polytope_boundary}
                assert got == want, (n, r)

    def test_every_result_passes_the_checker(self):
        for verts in brute_pattern_sets(3, 2):
            rep = cx.cross_polytope_witness_check(3, 2, verts)
            assert rep.is_cross_polytope_boundary
            pairs = [(a, b) for a, b in itertools.combinations(verts, 2)
                     if (a ^ b).bit_count() > 2]
            assert rep.recovered_pairs == tuple(pairs)


class TestFundamentalCycle:
    def test_two_pairs(self):
        cycle = cx.fundamental_cycle([(0, 3), (1, 2)])
        assert cycle == [(0, 1), (0, 2), (1, 3), (2, 3)]

    def test_disjointness_required(self):
        with pytest.raises(ValueError):
            cx.fundamental_cycle([(0, 1), (1, 2)])

    def test_count(self):
        pairs = [(v, v ^ 0b111) for v in range(4)]
        assert len(cx.fundamental_cycle(pairs)) == 16


PARSE_ERRORS = [
    ("", None, "empty complex file"),
    ("dim x vertices 4\n", 1, "non-integer header counts"),
    ("vertices 4 dim 1\n", 1, "expected 'dim D vertices N'"),
    ("dim -1 vertices 3\n", 1, "negative header counts"),
    ("dim 1 vertices 2\n0\n1\n0 1\n0 1\n", 5, "duplicate simplex '0 1'"),
    ("dim 1 vertices 2\n0\n1\n1 0\n", 4, "vertices must be strictly increasing"),
    ("dim 1 vertices 2\n0\n1\n0 2\n", 4, "vertex index out of range"),
    ("dim 0 vertices 2\n0\n2\n", 3, "vertex index out of range"),
    ("dim 1 vertices 3\n0\n1\n0 2\n", 4, "missing facet 2 of '0 2'"),
    ("dim 0 vertices 2\n0\n1\n0 1\n", 4, "simplex of dimension 1 exceeds header dim 0"),
    ("dim 1 vertices 3\n0\n1\n2\n0 1\n2\n", 6,
     "simplices must be grouped by ascending dimension"),
    ("dim 0 vertices 1\nx\n", 2, "non-integer vertex in 'x'"),
    # padding is stripped before the line is quoted
    ("dim 1 vertices 2\n0\n1\n0 1\n  0 1 \n", 5, "duplicate simplex '0 1'"),
    # with two facets missing, the one omitting the lowest vertex is named
    ("dim 2 vertices 3\n0\n1\n2\n0 1\n0 1 2\n", 6, "missing facet 1 2 of '0 1 2'"),
    # blank lines are skipped but still counted
    ("dim 1 vertices 2\n0\n\n1\n1 0\n", 5, "vertices must be strictly increasing"),
    # '0 2 1' also has the facet '2 1', which is no edge; the order is named
    ("dim 2 vertices 3\n0\n1\n2\n0 1\n0 2\n1 2\n0 2 1\n", 8,
     "vertices must be strictly increasing"),
    # a file that opens above dimension 0, or skips one
    ("dim 1 vertices 2\n0 1\n", 2, "missing facet 1 of '0 1'"),
    ("dim 2 vertices 3\n0\n1\n2\n0 1 2\n", 5, "missing facet 1 2 of '0 1 2'"),
]


def outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return exc.line, str(exc)


class TestComplexFile:
    def test_round_trip(self):
        k = cx.vietoris_rips(3, 2, 3)
        text = cx.format_complex(k)
        assert text.splitlines()[0] == "dim 3 vertices 8"
        again = cx.parse_complex(text)
        assert again == k
        assert (k == object()) is False
        assert cx.format_complex(again) == text
        # blank and whitespace-only lines are skipped anywhere after the header
        assert cx.parse_complex(text.replace("\n", "\n \n\n")) == k
        # CRLF line ends and tab-separated vertices read the same
        assert cx.parse_complex(text.replace(" ", "\t").replace("\n", "\r\n")) == k

    def test_format_matches_joined_vertices(self):
        for n in range(1, 6):
            for r in range(n + 1):
                k = cx.vietoris_rips(n, r, 3)
                want = [f"dim 3 vertices {1 << n}"]
                want.extend(" ".join(map(str, s)) for d in range(4) for s in k.simplices(d))
                assert cx.format_complex(k) == "\n".join(want) + "\n"

    @settings(max_examples=500, deadline=None)
    @given(st.data())
    def test_matches_the_line_by_line_reference(self, data):
        # a formatted VR file, mutated: both parsers give the same complex,
        # or the same first fault at the same line
        n = data.draw(st.integers(1, 4), "n")
        top = data.draw(st.integers(0, 3), "top")
        k = cx.vietoris_rips(n, data.draw(st.integers(0, n), "r"), top)
        lines = cx.format_complex(k).splitlines()
        for _ in range(data.draw(st.integers(0, 3), "mutations")):
            i = data.draw(st.integers(1, len(lines)), "line")
            j = data.draw(st.integers(1, len(lines)), "other line")
            line = lines[min(i, len(lines) - 1)] if len(lines) > 1 else ""
            edit = data.draw(st.sampled_from([
                "delete", "duplicate", "swap", "reverse", "out of range", "drop last",
                "blank", "padded", "tabs", "x", "01", "+1", "-0", "header"]), "edit")
            if edit == "delete" and i < len(lines):
                del lines[i]
            elif edit == "duplicate":
                lines.insert(j, line)
            elif edit == "swap" and max(i, j) < len(lines):
                lines[i], lines[j] = lines[j], lines[i]
            elif edit == "reverse" and i < len(lines):
                lines[i] = " ".join(reversed(line.split()))
            elif edit == "out of range":
                v = data.draw(st.sampled_from([-1, 1 << n]), "vertex")
                if i < len(lines) and data.draw(st.booleans(), "append"):
                    lines[i] = f"{line} {v}"
                else:
                    lines.insert(i, str(v))
            elif edit == "drop last" and i < len(lines):
                lines[i] = " ".join(line.split()[:-1])
            elif edit == "blank":
                lines.insert(i, data.draw(st.sampled_from(["", " ", "\t \t"]), "blank"))
            elif edit == "padded" and i < len(lines):
                lines[i] = f"  {line}\t "
            elif edit == "tabs" and i < len(lines):
                lines[i] = line.replace(" ", "\t")
            elif edit in ("x", "01", "+1", "-0"):
                lines.insert(i, edit)
            elif edit == "header":
                lines[0] = f"dim {data.draw(st.integers(0, top + 1), 'dim')} vertices {1 << n}"
        text = "\n".join(lines) + "\n"
        assert outcome(cx.parse_complex, text) == outcome(reference_parse_complex, text)

    def test_file_io(self, tmp_path):
        k = cx.vietoris_rips(2, 1, 2)
        path = tmp_path / "k.cx"
        cx.write_complex_file(k, path)
        assert cx.read_complex_file(path) == k

    # ids are the texts alone, so each case keeps its name as cases are added
    @pytest.mark.parametrize("text,line,message", PARSE_ERRORS,
                             ids=[text for text, _, _ in PARSE_ERRORS])
    def test_parse_errors(self, text, line, message):
        with pytest.raises(ParseError) as exc:
            cx.parse_complex(text)
        assert exc.value.line == line
        assert str(exc.value).startswith(message if line is None else f"line {line}: {message}")

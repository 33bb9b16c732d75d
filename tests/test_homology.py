import importlib.util
import itertools
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vrhq import complexes as cx, homology as ho, hypercube as hc
from vrhq.bitops import iter_bits
from vrhq.errors import DimensionOutOfRange, TooLarge, TruncationTooShallow

from tests.oracles import (brute_reduced_betti, dense_boundary, dense_gf2_rank,
                           determinantal_divisors, full_matrix_z_homology)

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"

RP2_TRIANGLES = [(0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
                 (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5)]


def oracle_factors(matrix):
    divisors = determinantal_divisors(matrix)
    return tuple(d // prev for prev, d in zip((1,) + divisors, divisors))


@st.composite
def small_matrices(draw):
    """Up to 6x6, entries in [-9, 9], with some rows and columns zeroed."""
    nr = draw(st.integers(1, 6))
    nc = draw(st.integers(1, 6))
    entries = st.lists(st.integers(-9, 9), min_size=nc, max_size=nc)
    matrix = draw(st.lists(entries, min_size=nr, max_size=nr))
    zero_rows = draw(st.sets(st.integers(0, nr - 1)))
    zero_cols = draw(st.sets(st.integers(0, nc - 1)))
    return [[0 if i in zero_rows or j in zero_cols else a for j, a in enumerate(row)]
            for i, row in enumerate(matrix)]


@st.composite
def sparse_matrices(draw):
    """A BoundaryMatrix of up to 10 rows and 14 columns, each column's rows
    in any order."""
    n_rows = draw(st.integers(0, 10))
    rows = st.integers(0, n_rows - 1) if n_rows else st.nothing()
    columns = draw(st.lists(st.lists(rows, unique=True).map(tuple), max_size=14))
    return ho.BoundaryMatrix(n_rows, tuple(columns))


@st.composite
def shuffled_complexes(draw):
    """Face-closed complexes on at most 8 vertices, built to dimension at
    most 4: the closure of a few random faces, every bucket shuffled out of
    lex order.  Dimensions above the largest face stay empty."""
    m = draw(st.integers(1, 8))
    max_dim = draw(st.integers(1, 4))
    faces = draw(st.lists(st.sets(st.integers(0, m - 1), min_size=1, max_size=max_dim + 1),
                          max_size=8))
    closure = {(v,) for v in range(m)}
    for face in faces:
        for size in range(2, len(face) + 1):
            closure.update(itertools.combinations(sorted(face), size))
    by_dim = [sorted(s for s in closure if len(s) == d + 1) for d in range(max_dim + 1)]
    return [draw(st.permutations(bucket)) for bucket in by_dim]


@st.composite
def cycles_in_shuffled_complexes(draw):
    """(complex, p-cycle, p): a shuffled complex plus, on p + 3 or p + 4 new
    vertices, every face of dimension at most p and some of dimension p + 1,
    though never the one called hollow.  The cycle is the boundary of a
    random (p+1)-chain plus, or not, the boundary of the hollow simplex.
    Facets shared by the chain's simplices are listed once per simplex, so
    duplicates cancel."""
    p = draw(st.integers(0, 3))
    by_dim = draw(shuffled_complexes())
    by_dim += [[] for _ in range(p + 2 - len(by_dim))]
    m = len(by_dim[0])
    block = range(m, m + draw(st.integers(p + 3, p + 4)))
    for d in range(p + 1):
        by_dim[d] = draw(st.permutations(by_dim[d] + list(itertools.combinations(block, d + 1))))
    top = list(itertools.combinations(block, p + 2))
    hollow = draw(st.sampled_from(top))
    filled = draw(st.lists(st.sampled_from(top).filter(lambda s: s != hollow),
                           min_size=1, unique=True))
    by_dim[p + 1] = cofaces = draw(st.permutations(by_dim[p + 1] + filled))
    picks = draw(st.sets(st.sampled_from(cofaces), min_size=1))
    if draw(st.booleans()):
        picks.add(hollow)
    chain = [s[:t] + s[t + 1:] for s in picks for t in range(p + 2)]
    if draw(st.booleans()):
        # the chain's own p-simplices first: its leading row then tends to
        # lead no column of d_{p+1}, though the chain may still bound
        odd = {s for s in chain if chain.count(s) % 2}
        by_dim[p].sort(key=lambda s: s not in odd)
    return cx.SimplicialComplex(block.stop, len(by_dim) - 1, by_dim), chain, p


@st.composite
def random_graphs(draw):
    """(rows, max_dim): a graph on at most 10 vertices as adjacency
    bitsets, each edge present with a drawn probability, and a truncation
    dimension from 1 to 5."""
    m = draw(st.integers(0, 10))
    density = draw(st.sampled_from([0.3, 0.6, 0.85]))
    rows = [0] * m
    for u, v in itertools.combinations(range(m), 2):
        if draw(st.floats(0, 1)) < density:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return rows, draw(st.integers(1, 5))


def assert_gradient(k, top, adjacency=None):
    """Check the gradient on the top-skeleton of k without its lemma: each
    cell lies in at most one pair, a pair is a cell sigma and its coface
    sigma + (h,) for the greatest h that extends it, the critical cells
    are the unpaired ones, the Hasse diagram with paired edges reversed
    has no cycle, and, per degree, rank d_p equals the pairs plus the rank
    of the Morse boundary, whose square is 0.  The walk over Z finds the
    same pairs, its Morse boundary reduces mod 2 to the GF(2) one, and
    with signs its square is 0 and its flow a chain map.

    Given the adjacency bitsets of the graph whose clique complex k is, a
    top cell that some vertex h above its last extends pairs with a
    coface beyond the skeleton: h must be adjacent to every vertex of the
    cell.  Without them, no top cell pairs upward.
    """
    by_dim = [k.simplices(d) for d in range(top + 1)]
    degrees = list(ho._gradient(k, top))
    assert len(degrees) == top + 1
    verts = [v for v, in by_dim[0]]
    partner = {}
    for p, (pairs, *_) in enumerate(degrees):
        faces = set(by_dim[p - 1]) if p else {()}
        cofaces = set(by_dim[p])
        lead = ho._leads(by_dim[p])
        assert pairs == len(lead)
        for sigma, h in lead.items():
            tau = sigma + (h,)
            assert sigma in faces and tau in cofaces
            assert not any(sigma + (w,) in cofaces for w in verts if w > h)
            assert sigma not in partner and tau not in partner
            partner[sigma] = tau
            partner[tau] = sigma
    beyond = set()  # top cells paired with cofaces not in the skeleton
    if adjacency is not None:
        for sigma in by_dim[top]:
            above = [h for h in range(sigma[-1] + 1, k.n_vertices)
                     if all(adjacency[v] >> h & 1 for v in sigma)]
            if above:
                assert sigma not in partner
                if top < k.max_dim_requested:
                    assert sigma + (max(above),) in k.simplices(top + 1)
                beyond.add(sigma)
    assert degrees[0][1] == ([] if () in partner else [()])
    for p, (_, rows, cells, *_) in enumerate(degrees):
        assert cells == [s for s in by_dim[p] if s not in partner and s not in beyond]
        if p:
            assert rows == degrees[p - 1][2]

    # the Hasse diagram, edges down from each cell to its facets, except
    # that a paired edge points up; a DFS finds no cycle
    out = {(): []}
    for bucket in by_dim:
        for tau in bucket:
            out.setdefault(tau, [])
            for t in range(len(tau)):
                sigma = tau[:t] + tau[t + 1:]
                if partner.get(sigma) == tau:
                    out[sigma].append(tau)
                else:
                    out[tau].append(sigma)
    state = {}  # 1 while on the DFS stack, 2 once done
    for root in out:
        if root in state:
            continue
        state[root] = 1
        stack = [(root, iter(out[root]))]
        while stack:
            node, succ = stack[-1]
            for nxt in succ:
                assert state.get(nxt) != 1, f"gradient cycle through {nxt}"
                if nxt not in state:
                    state[nxt] = 1
                    stack.append((nxt, iter(out[nxt])))
                    break
            else:
                state[node] = 2
                stack.pop()

    morse = []
    for p, (pairs, rows, cells, columns, _) in enumerate(degrees):
        m = np.zeros((len(rows), len(cells)), dtype=np.uint8)
        for j, col in enumerate(columns):
            m[list(col), j] = 1
        morse.append(m)
        assert dense_gf2_rank(dense_boundary(by_dim, p)) == pairs + dense_gf2_rank(m)
        if p:
            assert not (morse[p - 1].astype(int) @ m % 2).any()

    # the flow is a chain map onto the Morse complex: F(d x) = d^M F(x) on
    # every cell x, with F on the top cells the identity on critical ones
    # and unknown on those paired beyond the skeleton
    flows = walk_flows(by_dim, degrees, ho._GF2)
    flows.append({c: 1 << i for i, c in enumerate(degrees[top][2])})
    for p in range(1, top + 1):
        _, rows, _, columns, _ = degrees[p]
        below = flows[p]
        assert all(below[c] == 1 << i for i, c in enumerate(rows))
        morse_of = [sum(1 << i for i in col) for col in columns]
        for x in by_dim[p]:
            if x in beyond:
                continue
            lhs = 0
            for f in itertools.combinations(x, p):
                lhs ^= below.get(f, 0)
            rhs = 0
            for i in iter_bits(flows[p + 1].get(x, 0)):
                rhs ^= morse_of[i]
            assert lhs == rhs, (p, x)

    # over Z: F(d x) = d^M F(x) with d x = sum_t (-1)^t d_t x, and d^M d^M = 0
    zdegrees = list(ho._gradient(k, top, ho._Z))
    for (pairs, rows, cells, columns, _), (zpairs, zrows, zcells, zcolumns, _) in zip(
            degrees, zdegrees):
        assert (zpairs, zrows, zcells) == (pairs, rows, cells)
        assert [tuple(sorted(i for i, a in c.items() if a % 2)) for c in zcolumns] == columns
    zflows = walk_flows(by_dim, zdegrees, ho._Z)
    zflows.append({c: {i: 1} for i, c in enumerate(zdegrees[top][2])})
    for p in range(1, top + 1):
        _, rows, _, columns, _ = zdegrees[p]
        below = zflows[p]
        assert all(below[c] == {i: 1} for i, c in enumerate(rows))
        for col in columns:
            assert z_chain((a, zdegrees[p - 1][3][i]) for i, a in col.items()) == {}
        for x in by_dim[p]:
            if x in beyond:
                continue
            lhs = z_chain(((-1) ** t, below.get(x[:t] + x[t + 1:], {})) for t in range(p + 1))
            rhs = z_chain((a, columns[j]) for j, a in zflows[p + 1].get(x, {}).items())
            assert lhs == rhs, (p, x)


def walk_flows(by_dim, degrees, ring):
    """The flow of each degree of a walk, built with `_flow` where the walk
    built none: it does only for Morse columns."""
    flows = []
    for p, (_, rows, _, _, flow) in enumerate(degrees):
        if p and rows and not flow:
            flow = ho._flow(ho._leads(by_dim[p]), rows, p, *ring[:2])
        flows.append(flow)
    return flows


def z_chain(terms):
    """The sum of a * chain over the (a, chain) terms, each chain a {row:
    coefficient} dict, zeros dropped."""
    out = {}
    for a, chain in terms:
        for i, b in chain.items():
            out[i] = out.get(i, 0) + a * b
    return {i: b for i, b in out.items() if b}


def adamaszek_adams_beta3(n):
    """beta~_3 of VR(Q_n; 2), a wedge of 3-spheres (Adamaszek-Adams, JACT 2022)."""
    return sum((j + 1) * (2 ** (n - 2) - 2 ** (i - 1)) for i in range(1, n) for j in range(i))


def assert_uct(zprof, gprof):
    # gf2 rank = integer free rank + 2-torsion counts in dims i and i-1
    for i in range(zprof.truncation_dim + 1):
        two_here = sum(1 for d in zprof.torsion[i] if d % 2 == 0)
        two_below = 0
        if i > 0:
            two_below = sum(1 for d in zprof.torsion[i - 1] if d % 2 == 0)
        assert gprof.reduced_betti[i] == zprof.reduced_betti[i] + two_here + two_below


def projective_plane():
    """The classical 6-vertex triangulation of the projective plane.

    Padded with an empty dimension-3 bucket: the triangulation has no
    tetrahedra, so homology through degree 2 is legitimately computable.
    """
    edges = sorted({tuple(sorted(e)) for t in RP2_TRIANGLES
                    for e in itertools.combinations(t, 2)})
    assert len(edges) == 15
    by_dim = [[(v,) for v in range(6)], edges, sorted(RP2_TRIANGLES), []]
    return cx.SimplicialComplex(6, 3, by_dim)


class TestBoundaryMatrix:
    def test_four_cycle_shape(self):
        k = cx.vietoris_rips(2, 1, 2)
        bm = ho.boundary_matrix(k, 1)
        assert (bm.n_rows, len(bm.columns)) == (4, 4)
        assert all(len(col) == 2 for col in bm.columns)

    def test_rips_q3_r2_top(self):
        k = cx.vietoris_rips(3, 2, 3)
        bm = ho.boundary_matrix(k, 3)
        assert (bm.n_rows, len(bm.columns)) == (32, 16)

    def test_chain_identity_integer(self):
        # d_p . d_{p+1} = 0 entrywise over the integers
        fixtures = [cx.vietoris_rips(3, 2, 3), cx.vietoris_rips(3, 3, 4),
                    projective_plane()]
        for k in fixtures:
            for p in range(1, k.max_dim_requested):
                a = ho.boundary_matrix(k, p).dense_rows()
                b = ho.boundary_matrix(k, p + 1).dense_rows()
                if not a or not b or not b[0]:
                    continue
                for i in range(len(a)):
                    for j in range(len(b[0])):
                        assert sum(a[i][t] * b[t][j] for t in range(len(b))) == 0

    def test_column_convention(self):
        # entry t of a column is the facet omitting vertex t, with sign (-1)^t
        tetrahedron = [list(itertools.combinations(range(4), d + 1)) for d in range(4)]
        bm = ho.boundary_matrix(cx.SimplicialComplex(4, 3, tetrahedron), 3)
        assert bm.columns == ((3, 2, 1, 0),)
        assert bm.dense_rows() == [[-1], [1], [-1], [1]]
        # the same with every bucket reversed, in every degree
        k = cx.SimplicialComplex(4, 3, [bucket[::-1] for bucket in tetrahedron])
        for p in range(1, 4):
            index = k.index_map(p - 1)
            bm = ho.boundary_matrix(k, p)
            dense = bm.dense_rows()
            for j, simplex in enumerate(k.simplices(p)):
                facets = [simplex[:t] + simplex[t + 1:] for t in range(p + 1)]
                assert bm.columns[j] == tuple(index[f] for f in facets)
                assert [row[j] for row in dense] == [
                    (-1) ** facets.index(f) if f in facets else 0 for f in k.simplices(p - 1)]

    def test_dimension_out_of_range(self):
        k = cx.vietoris_rips(2, 1, 2)
        with pytest.raises(DimensionOutOfRange):
            ho.boundary_matrix(k, 0)
        with pytest.raises(DimensionOutOfRange):
            ho.boundary_matrix(k, 3)


class TestBettiGf2:
    def test_circle(self):
        assert ho.betti_gf2(cx.vietoris_rips(2, 1, 2), 1).reduced_betti == (0, 1)

    def test_cube_graph(self):
        assert ho.betti_gf2(cx.vietoris_rips(3, 1, 2), 1).reduced_betti == (0, 5)

    def test_three_sphere(self):
        assert ho.betti_gf2(cx.vietoris_rips(3, 2, 4), 3).reduced_betti == (0, 0, 0, 1)

    def test_full_simplex_vanishes(self):
        assert ho.betti_gf2(cx.vietoris_rips(3, 3, 4), 3).reduced_betti == (0, 0, 0, 0)

    def test_matches_dense_oracle(self):
        for n, r, up_to in [(2, 1, 1), (3, 1, 1), (3, 2, 3), (3, 3, 3), (4, 1, 2)]:
            k = cx.vietoris_rips(n, r, up_to + 1)
            assert ho.betti_gf2(k, up_to).reduced_betti == brute_reduced_betti(n, r, up_to)

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_adamaszek_adams_closed_form(self, n):
        betti = ho.betti_gf2(cx.vietoris_rips(n, 2, 4), 3).reduced_betti
        assert betti == (0, 0, 0, adamaszek_adams_beta3(n))

    def test_q5_r3_through_degree_7(self):
        betti = ho.betti_gf2(cx.vietoris_rips(5, 3, 8), 7).reduced_betti
        assert betti == (0, 0, 0, 0, 1, 0, 0, 10)

    @settings(max_examples=300, deadline=None)
    @given(shuffled_complexes())
    def test_matches_dense_oracle_on_shuffled_complexes(self, by_dim):
        max_dim = len(by_dim) - 1
        k = cx.SimplicialComplex(len(by_dim[0]), max_dim, by_dim)
        f = k.f_vector()
        mats = [dense_boundary(by_dim, p) for p in range(max_dim + 1)]
        ranks = [dense_gf2_rank(a) for a in mats]
        expected = tuple(f[i] - ranks[i] - ranks[i + 1] for i in range(max_dim))
        assert ho.betti_gf2(k, max_dim - 1).reduced_betti == expected
        # the gradient on the whole complex, and on a skeleton whose top
        # cells have cofaces that the matching must not use
        assert_gradient(k, max_dim)
        assert_gradient(k, max_dim - 1)

    @settings(max_examples=150, deadline=None)
    @given(random_graphs())
    def test_clique_build_records_the_gradient(self, graph):
        # below the top, the build's record is what _leads derives from
        # the complex; at every depth, both rings match the full matrices
        rows, max_dim = graph
        k = cx._clique_complex(rows, len(rows), max_dim, None)
        plain = cx.SimplicialComplex(k.n_vertices, max_dim,
                                     [k.simplices(d) for d in range(max_dim + 1)])
        recorded = list(ho._matching(k, max_dim))
        derived = list(ho._matching(plain, max_dim))
        assert [(n, c) for n, _, c in recorded[:-1]] == [(n, c) for n, _, c in derived[:-1]]
        assert recorded[-1][0] == derived[-1][0]
        assert set(recorded[-1][2]) <= set(derived[-1][2])
        assert_gradient(k, max_dim, rows)
        assert_gradient(k, max_dim - 1, rows)
        by_dim = [k.simplices(d) for d in range(max_dim + 1)]
        ranks = [dense_gf2_rank(dense_boundary(by_dim, p)) for p in range(max_dim + 1)]
        betti, torsion = full_matrix_z_homology(k, max_dim - 1)
        for up_to in range(max_dim):
            prof = ho.betti_gf2(k, up_to)
            assert prof.reduced_betti == tuple(
                len(by_dim[i]) - ranks[i] - ranks[i + 1] for i in range(up_to + 1))
            zprof = ho.reduced_homology(k, up_to, "z")
            assert (zprof.reduced_betti, zprof.torsion) == (
                betti[:up_to + 1], torsion[:up_to + 1])

    def test_peak_memory_of_q8_r2(self):
        # the largest matrix, d_4, is 94 MiB packed whole; the gradient
        # builds no boundary matrix and packs no column here
        k = cx.vietoris_rips(8, 2, 4)
        tracemalloc.start()
        try:
            betti = ho.betti_gf2(k, 3).reduced_betti
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert betti == (0, 0, 0, adamaszek_adams_beta3(8))
        assert peak <= 24 << 20

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10).flatmap(lambda n_rows: st.tuples(
        st.just(n_rows), st.lists(st.integers(0, (1 << n_rows) - 1), max_size=14))))
    def test_rank_stops_at_full_row_rank(self, matrix):
        n_rows, cols = matrix
        view = ho.Gf2Columns(n_rows, [tuple(iter_bits(c)) for c in cols])
        dense = np.array([[c >> i & 1 for c in cols] for i in range(n_rows)],
                         dtype=np.uint8).reshape(n_rows, len(cols))
        assert ho.gf2_rank(view) == dense_gf2_rank(dense)
        if n_rows:
            # the identity, then a failure: once every row leads a pivot,
            # no later column is read
            def identity_then_fail():
                yield from [(i,) for i in range(n_rows)]
                raise AssertionError("a column after full row rank was read")
            assert ho.gf2_rank(ho.Gf2Columns(n_rows, identity_then_fail())) == n_rows

    @settings(max_examples=300, deadline=None)
    @given(sparse_matrices(), st.integers(0, 3))
    def test_view_ranks_as_its_packed_columns(self, bm, units):
        # rows in any order within a column: the view packs into the
        # columns, which the benchmark's tracer counts, and ranks as the
        # dense oracle does, with the unit columns an identity block beside
        view = bm.gf2_columns(units)
        # bit i of a packed column is row i; iterating twice packs the same
        # columns again, and no unit column is packed
        packed = [sum(1 << i for i in c) for c in bm.columns]
        assert len(view) == units + len(packed)
        assert list(view) == list(view) == packed
        dense = np.array([[i in c for c in bm.columns] for i in range(bm.n_rows)],
                         dtype=np.uint8).reshape(bm.n_rows, len(bm.columns))
        dense = np.block([[np.eye(units, dtype=np.uint8),
                           np.zeros((units, len(bm.columns)), dtype=np.uint8)],
                          [np.zeros((bm.n_rows, units), dtype=np.uint8), dense]])
        assert ho.gf2_rank(view) == ho.gf2_rank(view) == dense_gf2_rank(dense)

    def test_disconnected_counts_components(self):
        points = cx.vietoris_rips(3, 0, 1)
        assert ho.betti_gf2(points, 0).reduced_betti == (7,)

    def test_truncation_guard(self):
        k = cx.vietoris_rips(2, 1, 1)
        with pytest.raises(TruncationTooShallow):
            ho.betti_gf2(k, 1)
        with pytest.raises(ValueError):
            ho.betti_gf2(k, -1)

    def test_euler_cross_check(self):
        # alternating f-vector sum equals alternating unreduced Betti sum
        for k in [cx.vietoris_rips(2, 1, 2), cx.vietoris_rips(3, 2, 4),
                  cx.vietoris_rips(3, 1, 3), projective_plane()]:
            top = k.max_dim_requested - 1
            prof = ho.betti_gf2(k, top)
            unreduced = [prof.reduced_betti[0] + 1] + list(prof.reduced_betti[1:])
            chi_f = sum((-1) ** i * f for i, f in enumerate(k.f_vector()))
            chi_b = sum((-1) ** i * b for i, b in enumerate(unreduced))
            assert chi_f == chi_b


class TestGradient:
    def test_checks_hold_on_q4_r3(self):
        # the boundary of the 8-dimensional cross-polytope, a 7-sphere
        k = cx.vietoris_rips(4, 3, 7)
        assert_gradient(k, 7, hc.build_hamming_graph(4, 3, complemented=False).rows())
        assert [len(cells) for _, _, cells, *_ in ho._gradient(k, 7)] == [0] * 7 + [1]

    def test_checks_hold_beyond_the_skeleton(self):
        # top cells of VR(Q_4;2) through degree 2 pair with 3-cells that
        # were not built; built to 3, the same cofaces are there
        rows = hc.build_hamming_graph(4, 2, complemented=False).rows()
        assert_gradient(cx.vietoris_rips(4, 2, 2), 2, rows)
        assert_gradient(cx.vietoris_rips(4, 2, 3), 2, rows)

    @pytest.mark.parametrize("n, r, top, critical, cells", [
        (5, 3, 8, (0, 0, 0, 16, 113, 231, 197, 72, 0), 84216),
        (8, 2, 4, (0, 0, 0, 2561, 0), 96256),
        (6, 3, 3, (0, 0, 0, 169), 68336),
    ])
    def test_critical_cell_counts(self, n, r, top, critical, cells):
        # the build's matching is the whole complex's, top cells included
        k = cx.vietoris_rips(n, r, top)
        assert sum(k.f_vector()) == cells
        assert tuple(len(c) for _, _, c, *_ in ho._gradient(k, top)) == critical

    @pytest.mark.parametrize("n, r, top, critical", [
        (5, 3, 8, (0, 0, 0, 16, 113, 231, 197, 72, 80)),
        (8, 2, 4, (0, 0, 0, 2561, 14336)),
        (6, 3, 3, (0, 0, 0, 44529)),
    ])
    def test_file_copy_pairs_no_top_cell_upward(self, n, r, top, critical):
        # read back from a file, the same complex has the same critical
        # cells below the top, and every top cell not paired down is critical
        copy = cx.parse_complex(cx.format_complex(cx.vietoris_rips(n, r, top)))
        assert tuple(len(c) for _, _, c, *_ in ho._gradient(copy, top)) == critical


@pytest.fixture(scope="module")
def reference():
    """bench/reference.py, loaded read-only: its clique search and GF(2)
    elimination share no code with vrhq."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))  # for its `import checks`
        spec = importlib.util.spec_from_file_location("bench_reference", BENCH / "reference.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


def reference_bounds(reference, k, chain, p):
    """Whether a p-chain of k bounds, by the bench reference's elimination:
    its packed column leaves the rank of d_{p+1} unchanged."""
    index = k.index_map(p)
    cols = []
    for s in k.simplices(p + 1):
        col = 0
        for t in range(p + 2):
            col ^= 1 << index[s[:t] + s[t + 1:]]
        cols.append(col)
    c = 0
    for s in chain:
        c ^= 1 << index[s]
    return reference.gf2_rank(cols + [c]) == reference.gf2_rank(cols)


@pytest.fixture(scope="module")
def q5_r3():
    """VR(Q_5;3) built to dimension 5: beta~_4 = 1."""
    return cx.vietoris_rips(5, 3, 5)


class TestIndependentGf2:
    @pytest.mark.parametrize("n, r, up_to", [
        (4, 2, 3), (5, 2, 3), (6, 2, 3), (4, 3, 5), (5, 3, 7)])
    def test_matches_bench_reference(self, reference, n, r, up_to):
        betti = ho.betti_gf2(cx.vietoris_rips(n, r, up_to + 1), up_to).reduced_betti
        assert list(betti) == reference.reduced_betti_gf2(n, r, up_to)


class TestSmithNormalForm:
    @pytest.fixture
    def non_unit_shapes(self, monkeypatch):
        """One shape per elimination: the nonzero rows and columns left at
        its first pivot that is not +-1, or (0, 0) when every pivot is."""
        shapes = []
        pivots = ho._pivots

        def spy(rows, cols):
            core = (0, 0)
            for i, j in pivots(rows, cols):
                if core == (0, 0) and rows[i][j] not in (1, -1):
                    core = (sum(map(bool, rows)), sum(map(bool, cols)))
                yield i, j
            shapes.append(core)

        monkeypatch.setattr(ho, "_pivots", spy)
        return shapes

    def test_trivial_cases(self):
        assert ho.smith_normal_form([]) == ()
        assert ho.smith_normal_form([[0, 0], [0, 0]]) == ()
        assert ho.smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == (1, 1, 1)

    def test_divisibility_chain(self):
        assert ho.smith_normal_form([[2, 0], [0, 3]]) == (1, 6)
        assert ho.smith_normal_form([[2, 4], [6, 8]]) == (2, 4)
        # unit columns on rows of their own, held as a count
        assert ho.smith_normal_form([[2, 0], [0, 3]], units=2) == (1, 1, 1, 6)
        assert ho.smith_normal_form([], units=3) == (1, 1, 1)

    def test_signs_normalized(self):
        assert ho.smith_normal_form([[-3]]) == (3,)

    def test_validation(self):
        with pytest.raises(ValueError):
            ho.smith_normal_form([[1, 2], [3]])
        with pytest.raises(TooLarge):
            ho.smith_normal_form([[1, 2], [3, 4]], cap=1)

    def test_projective_plane_torsion(self):
        k = projective_plane()
        factors = ho.smith_normal_form(ho.boundary_matrix(k, 2).dense_rows())
        assert factors[-1] == 2 and all(d == 1 for d in factors[:-1])

    @settings(max_examples=300, deadline=None)
    @given(small_matrices())
    def test_matches_determinantal_divisors(self, matrix):
        expected = oracle_factors(matrix)
        assert ho.smith_normal_form(matrix) == expected
        assert ho.smith_normal_form([list(col) for col in zip(*matrix)]) == expected

    @pytest.mark.parametrize("matrix, factors, core", [
        ([[2, 0], [0, 2]], (2, 2), (2, 2)),
        ([[2, 4], [6, 8]], (2, 4), (2, 2)),
        # one unit pivot, then the core [[3]]
        ([[1, 2], [1, 5]], (1, 3), (1, 1)),
        # U . diag(1, 1, 3, 6) . V with unimodular U, V: two units, core with 3 and 6
        ([[1, 2, 0, 3], [1, 3, 1, 3], [0, 1, 4, 6], [2, 4, 3, 18]], (1, 1, 3, 6), (2, 2)),
        # column 0 holds no unit: it is pivoted at 2 before column 1's units
        ([[2, 1], [3, 1]], (1, 1), (2, 2)),
        # no unit entry at all: the core is the whole matrix
        ([[2, 0], [0, 3]], (1, 6), (2, 2)),
        # the pivot 3 leaves the remainder 2 in its row; in that column the
        # entry 1 has floor quotient 0 by 2, so its row is left alone
        ([[3, -4], [3, -3]], (1, 3), (2, 2)),
        # pivot 2 at (1, 0), then 1 at (1, 1) reduces row 0 and refills
        # column 0 with -2: one pass over column 0 would report (1,)
        ([[0, 1], [2, 1]], (1, 2), (2, 2)),
        # the transpose: the unit pivot in column 0 leaves the core [[2]]
        ([[0, 2], [1, 1]], (1, 2), (1, 1)),
    ])
    def test_shape_at_first_non_unit_pivot(self, non_unit_shapes, matrix, factors, core):
        assert ho.smith_normal_form(matrix) == factors == oracle_factors(matrix)
        assert non_unit_shapes == [core]

    def test_flag_complex_boundaries_leave_no_core(self, non_unit_shapes):
        k = cx.vietoris_rips(4, 2, 4)
        for p in range(1, 5):
            factors = ho.smith_normal_form(ho.boundary_matrix(k, p).dense_rows())
            assert set(factors) == {1}
        assert non_unit_shapes == [(0, 0)] * 4

    def test_doubled_boundary_has_doubled_factors(self):
        # 2 d_2 of VR(Q_5;2) is 240 x 640 with every entry +-2: no unit pivot
        d2 = ho.boundary_matrix(cx.vietoris_rips(5, 2, 2), 2).dense_rows()
        factors = ho.smith_normal_form(d2)
        doubled = ho.smith_normal_form([[2 * a for a in row] for row in d2])
        assert doubled == tuple(2 * d for d in factors) == (2,) * 209


class TestReducedHomology:
    def test_circle_over_z(self):
        prof = ho.reduced_homology(cx.vietoris_rips(2, 1, 2), 1, "z")
        assert prof.reduced_betti == (0, 1)
        assert prof.torsion == ((), ())

    def test_projective_plane_over_z(self):
        prof = ho.reduced_homology(projective_plane(), 1, "z")
        assert prof.reduced_betti == (0, 0)
        assert prof.torsion == ((), (2,))

    def test_three_sphere_over_z(self):
        prof = ho.reduced_homology(cx.vietoris_rips(3, 2, 4), 3, "z")
        assert prof.reduced_betti == (0, 0, 0, 1)
        assert all(t == () for t in prof.torsion)

    def test_coefficient_coherence(self):
        for k in [projective_plane(), cx.vietoris_rips(2, 1, 2),
                  cx.vietoris_rips(3, 2, 4)]:
            top = k.max_dim_requested - 1
            assert_uct(ho.reduced_homology(k, top, "z"), ho.betti_gf2(k, top))

    def test_projective_plane_under_every_labelling(self):
        # the signs of the flow and of the Morse boundary follow the vertex
        # order, which each labelling changes
        for perm in itertools.permutations(range(6)):
            triangles = sorted(tuple(sorted(perm[v] for v in t)) for t in RP2_TRIANGLES)
            edges = sorted({e for t in triangles for e in itertools.combinations(t, 2)})
            k = cx.SimplicialComplex(6, 2, [[(v,) for v in range(6)], edges, triangles])
            prof = ho.reduced_homology(k, 1, "z")
            assert (prof.reduced_betti, prof.torsion) == ((0, 0), ((), (2,))), perm

    @settings(max_examples=300, deadline=None)
    @given(shuffled_complexes())
    def test_matches_full_matrix_oracle_on_shuffled_complexes(self, by_dim):
        max_dim = len(by_dim) - 1
        k = cx.SimplicialComplex(len(by_dim[0]), max_dim, by_dim)
        prof = ho.reduced_homology(k, max_dim - 1, "z")
        assert (prof.reduced_betti, prof.torsion) == full_matrix_z_homology(k, max_dim - 1)

    @pytest.mark.parametrize("n, r, up_to, betti", [
        (4, 2, 3, (0, 0, 0, 9)),
        (5, 2, 3, (0, 0, 0, 49)),
        (4, 3, 5, (0, 0, 0, 0, 0, 0)),
        # the full d_3..d_8 exceed 5000 rows or columns; the largest Morse
        # matrix is 231 x 197
        (5, 3, 7, (0, 0, 0, 0, 1, 0, 0, 10)),
    ])
    def test_z_matches_gf2_at_scale(self, n, r, up_to, betti):
        k = cx.vietoris_rips(n, r, up_to + 1)
        zprof = ho.reduced_homology(k, up_to, "z")
        assert zprof.reduced_betti == betti
        assert zprof.torsion == ((),) * (up_to + 1)
        assert_uct(zprof, ho.betti_gf2(k, up_to))

    def test_snf_cap_checked_before_any_matrix(self, monkeypatch, q5_r3):
        # the Morse matrices of VR(Q_5;3) through degree 5 are empty up to
        # d_4, 16 x 105 there and 113 x 231 in d_5, whose columns are the
        # critical 5-cells of the whole complex: the first over the cap
        # raises before its dense rows are built, so smith_normal_form ran
        # once for each degree below it
        shapes = []
        snf = ho.smith_normal_form

        def counted(matrix, *args, **kwargs):
            shapes.append((len(matrix), len(matrix[0]) if matrix else 0))
            return snf(matrix, *args, **kwargs)
        monkeypatch.setattr(ho, "smith_normal_form", counted)
        for cap, calls in [(0, 4), (104, 4), (105, 5), (230, 5)]:
            shapes.clear()
            with pytest.raises(TooLarge):
                ho.reduced_homology(q5_r3, 4, "z", snf_cap=cap)
            assert len(shapes) == calls, cap
            assert all(max(shape) <= cap for shape in shapes), cap
        shapes.clear()
        assert ho.reduced_homology(q5_r3, 4, "z", snf_cap=231).reduced_betti == (0, 0, 0, 0, 1)
        assert shapes[4:] == [(16, 105), (113, 231)]

    def test_snf_cap_only_with_integer_coefficients(self):
        # VR(Q_3;1) is the graph Q_3: five critical edges, the rows of the
        # Morse d_2, which has no column; the full d_1 is 8 x 12
        k = cx.vietoris_rips(3, 1, 2)
        with pytest.raises(ValueError, match="snf_cap"):
            ho.reduced_homology(k, 1, "gf2", snf_cap=5)
        assert ho.reduced_homology(k, 1, "gf2").reduced_betti == (0, 5)
        # None means the default cap; an explicit one still applies
        assert ho.reduced_homology(k, 1, "z", snf_cap=None).reduced_betti == (0, 5)
        assert ho.reduced_homology(k, 1, "z", snf_cap=5).reduced_betti == (0, 5)
        with pytest.raises(TooLarge):
            ho.reduced_homology(k, 1, "z", snf_cap=4)

    def test_bad_coefficients(self):
        with pytest.raises(ValueError):
            ho.reduced_homology(cx.vietoris_rips(2, 1, 2), 1, "q")

    def test_json_shape(self):
        prof = ho.betti_gf2(cx.vietoris_rips(3, 2, 4), 3)
        d = prof.to_json_dict()
        assert d == {"dims": [0, 1, 2, 3], "reduced_betti": [0, 0, 0, 1],
                     "torsion": None, "coefficients": "gf2", "truncation_dim": 3}
        zd = ho.reduced_homology(projective_plane(), 1, "z").to_json_dict()
        assert zd["torsion"] == [[], [2]] and zd["coefficients"] == "z"


class TestDominationLinkage:
    def test_betti_vanish_below_half_gamma_t(self):
        # with gamma = gamma_t of the distance->=r+1 graph, homology of the
        # Rips complex must vanish through floor((gamma - 1) / 2) - 2
        from vrhq import domination as dom
        from vrhq import hypercube as hc
        for n in range(1, 5):
            for r in range(0, n):
                gc = hc.build_hamming_graph(n, r, complemented=True)
                gamma = dom.gamma_t_exhaustive(gc)
                top = (gamma - 1) // 2 - 1
                if top < 0:
                    continue
                k = cx.vietoris_rips(n, r, top + 1)
                assert ho.betti_gf2(k, top).reduced_betti == (0,) * (top + 1), (n, r)


class TestCycleIsBoundary:
    @settings(max_examples=300, deadline=None)
    @given(cycles_in_shuffled_complexes())
    def test_matches_dense_oracle(self, case):
        k, chain, p = case
        index = k.index_map(p)
        c = np.zeros(len(index), dtype=np.uint8)
        for s in chain:
            c[index[s]] ^= 1
        d = dense_boundary([k.simplices(i) for i in range(p + 2)], p + 1)
        bounds = dense_gf2_rank(np.column_stack([d, c])) == dense_gf2_rank(d)
        assert ho.cycle_is_gf2_boundary(k, chain, p) == bounds

    def test_circle_cycle_does_not_bound(self):
        k = cx.vietoris_rips(2, 1, 2)
        cycle = k.simplices(1)  # all four edges form the circle
        assert not ho.cycle_is_gf2_boundary(k, cycle, 1)

    def test_same_cycle_bounds_in_full_simplex(self):
        k = cx.vietoris_rips(2, 2, 3)
        cycle = [(0, 1), (0, 2), (1, 3), (2, 3)]
        assert ho.cycle_is_gf2_boundary(k, cycle, 1)

    def test_vertex_pairs_and_components(self):
        k = cx.vietoris_rips(2, 1, 2)  # connected: every even 0-chain bounds
        assert ho.cycle_is_gf2_boundary(k, [(0,), (3,)], 0)
        points = cx.vietoris_rips(2, 0, 1)  # no edges at all
        assert not ho.cycle_is_gf2_boundary(points, [(0,), (3,)], 0)

    def test_non_cycle_rejected(self):
        k = cx.vietoris_rips(2, 1, 2)
        with pytest.raises(ValueError):
            ho.cycle_is_gf2_boundary(k, [(0, 1)], 1)
        with pytest.raises(ValueError):
            ho.cycle_is_gf2_boundary(k, [(0,)], 0)  # odd augmentation
        with pytest.raises(ValueError, match="p must be >= 0"):
            ho.cycle_is_gf2_boundary(k, [], -1)

    def test_unknown_simplex_rejected(self):
        k = cx.vietoris_rips(2, 1, 2)
        with pytest.raises(ValueError):
            ho.cycle_is_gf2_boundary(k, [(0, 3)], 1)

    def test_needs_depth(self):
        k = cx.vietoris_rips(2, 1, 1)
        with pytest.raises(TruncationTooShallow):
            ho.cycle_is_gf2_boundary(k, k.simplices(1), 1)

    def test_cross_polytope_witness_does_not_bound(self, reference, q5_r3):
        # {e_i, ~e_i : i < 5} is a cross-polytope in VR(Q_5;3), and its
        # fundamental 4-cycle is the class of beta~_4 = 1
        verts = [w for i in range(5) for w in (1 << i, 31 ^ 1 << i)]
        report = cx.cross_polytope_witness_check(5, 3, verts)
        assert report.is_cross_polytope_boundary
        cycle = cx.fundamental_cycle(report.recovered_pairs)
        assert len(cycle) == 32
        assert not ho.cycle_is_gf2_boundary(q5_r3, cycle, 4)
        assert not reference_bounds(reference, q5_r3, cycle, 4)
        assert ho.betti_gf2(q5_r3, 4).reduced_betti[4] == 1

    def test_simplex_boundary_bounds(self, reference, q5_r3):
        top = q5_r3.simplices(5)[-1]
        chain = list(itertools.combinations(top, 5))
        assert ho.cycle_is_gf2_boundary(q5_r3, chain, 4)
        assert reference_bounds(reference, q5_r3, chain, 4)

    def test_sum_of_witness_and_simplex_boundary(self, reference, q5_r3):
        # the top degree's Morse columns are the whole complex's critical
        # 5-cells; a boundary added to the witness cycle leaves its class
        verts = [w for i in range(5) for w in (1 << i, 31 ^ 1 << i)]
        chain = cx.fundamental_cycle(cx.cross_polytope_witness_check(5, 3, verts)
                                     .recovered_pairs)
        chain += itertools.combinations(q5_r3.simplices(5)[-1], 5)
        assert not ho.cycle_is_gf2_boundary(q5_r3, chain, 4)
        assert not reference_bounds(reference, q5_r3, chain, 4)

    def test_flow_built_where_the_walk_builds_none(self, reference):
        # VR(Q_5;2) through degree 4 has 49 critical 3-cells and no
        # critical 4-cell, so the walk needs no flow in degree 4 and the
        # cycle test builds it; the 3-sphere of VR(Q_3;2) sits inside
        k = cx.vietoris_rips(5, 2, 4)
        sphere = cx.fundamental_cycle([(v, v ^ 7) for v in (0, 1, 2, 4)])
        filled = list(itertools.combinations(k.simplices(4)[0], 4))
        for chain, bounds in [(sphere, False), (filled, True), (sphere + filled, False)]:
            assert ho.cycle_is_gf2_boundary(k, chain, 3) == bounds
            assert reference_bounds(reference, k, chain, 3) == bounds

    def test_peak_memory_of_q6_r3(self):
        # d_3 and d_4 built whole would peak at 29 MiB; the gradient's flow
        # and Morse columns on the 4-skeleton stay near 11 MiB
        k = cx.vietoris_rips(6, 3, 4)
        cycle = cx.fundamental_cycle([(1 << i, 31 ^ 1 << i) for i in range(4)])
        tracemalloc.start()
        try:
            bounds = ho.cycle_is_gf2_boundary(k, cycle, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bounds  # beta~_3 of VR(Q_6;3) is 0
        assert peak <= 16 << 20


def test_no_homology_path_builds_a_boundary_matrix(monkeypatch, q5_r3):
    def refuse(*args):
        raise AssertionError("a boundary matrix was built")
    monkeypatch.setattr(ho, "boundary_matrix", refuse)
    monkeypatch.setattr(ho.BoundaryMatrix, "dense_rows", refuse)
    assert ho.betti_gf2(q5_r3, 4).reduced_betti == (0, 0, 0, 0, 1)
    assert ho.reduced_homology(q5_r3, 4).reduced_betti == (0, 0, 0, 0, 1)
    zprof = ho.reduced_homology(q5_r3, 4, "z")
    assert (zprof.reduced_betti, zprof.torsion) == ((0, 0, 0, 0, 1), ((),) * 5)
    assert ho.reduced_homology(projective_plane(), 2, "z").torsion == ((), (2,), ())
    assert ho.cycle_is_gf2_boundary(q5_r3, [(0,), (31,)], 0)
    assert ho.cycle_is_gf2_boundary(q5_r3, [(0, 1), (1, 3), (0, 2), (2, 3)], 1)
    chain = itertools.combinations(q5_r3.simplices(5)[0], 5)
    assert ho.cycle_is_gf2_boundary(q5_r3, chain, 4)
    # the patches are in force
    with pytest.raises(AssertionError, match="built"):
        ho.boundary_matrix(q5_r3, 1)
    with pytest.raises(AssertionError, match="built"):
        ho.BoundaryMatrix(0, ()).dense_rows()

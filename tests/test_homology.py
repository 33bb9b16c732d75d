import importlib.util
import itertools
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vrhq import complexes as cx, homology as ho
from vrhq.bitops import iter_bits
from vrhq.errors import DimensionOutOfRange, TooLarge, TruncationTooShallow

from tests.oracles import (brute_reduced_betti, dense_boundary, dense_gf2_rank,
                           determinantal_divisors)

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
    in any order, with rows to drop and columns to skip."""
    n_rows = draw(st.integers(0, 10))
    rows = st.integers(0, n_rows - 1) if n_rows else st.nothing()
    columns = draw(st.lists(st.lists(rows, unique=True).map(tuple), max_size=14))
    bm = ho.BoundaryMatrix(n_rows, tuple(columns))
    return bm, draw(st.sets(st.integers(0, 13))), draw(st.sets(rows))


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
        # clearing: dropping each column of d_p that is the largest facet of a
        # (p+1)-simplex keeps the rank of d_p
        kept = []
        for p in range(max_dim + 1):
            index = {s: i for i, s in enumerate(by_dim[p])}
            cleared = {max(index[s[:t] + s[t + 1:]] for t in range(len(s)))
                       for s in (by_dim[p + 1] if p < max_dim else ())}
            kept.append([j for j in range(f[p]) if j not in cleared])
            assert dense_gf2_rank(mats[p][:, kept[p]]) == ranks[p]
        # compression: dropping from d_{p+1} the rows of the column basis of
        # d_p that gf2_rank returns, with its cleared columns, keeps the rank
        for p in range(max_dim):
            basis = []
            assert ho.gf2_rank(ho._operator(k, p).gf2_columns(), basis) == ranks[p]
            assert dense_gf2_rank(mats[p][:, basis]) == len(basis)
            rows = [i for i in range(f[p]) if i not in basis]
            assert dense_gf2_rank(mats[p + 1][rows][:, kept[p + 1]]) == ranks[p + 1]

    def test_peak_memory_of_q8_r2(self):
        # the largest matrix, d_4, is 94 MiB packed whole and uncompressed,
        # 40 MiB compressed; only the columns a reduction needs are packed
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
        bit = list(range(n_rows))
        view = ho.Gf2Columns(bit, [tuple(iter_bits(c)) for c in cols])
        dense = np.array([[c >> i & 1 for c in cols] for i in range(n_rows)],
                         dtype=np.uint8).reshape(n_rows, len(cols))
        positions = []
        assert ho.gf2_rank(view, positions) == dense_gf2_rank(dense)
        assert dense_gf2_rank(dense[:, positions]) == len(positions)
        if n_rows:
            # the identity, then a failure: once every kept row leads a
            # pivot, no later column is read
            def identity_then_fail():
                yield from [(i,) for i in bit]
                raise AssertionError("a column after full row rank was read")
            assert ho.gf2_rank(ho.Gf2Columns(bit, identity_then_fail())) == n_rows

    def test_deferred_columns_stop_at_full_row_rank(self):
        # every column after the first collides at row 3; reduced in order,
        # the fourth brings the rank to 4 and the copies after it are unread
        class Columns(list):
            def __getitem__(self, j):
                assert j < 4, f"deferred column {j} read after full row rank"
                return super().__getitem__(j)
        cols = Columns([(0, 3), (1, 3), (2, 3), (3,), (3,), (3,)])
        assert ho.gf2_rank(ho.Gf2Columns([0, 1, 2, 3], cols)) == 4

    @settings(max_examples=300, deadline=None)
    @given(sparse_matrices())
    def test_view_ranks_as_its_packed_columns(self, matrix):
        # rows in any order within a column, some rows dropped, some columns
        # skipped: the view packs into the columns it keeps, which the
        # benchmark's tracer counts, and ranks as the dense oracle does
        bm, skip, drop = matrix
        view = bm.gf2_columns(skip, drop)
        rows = [i for i in range(bm.n_rows) if i not in drop]
        cols = [c for j, c in enumerate(bm.columns) if j not in skip]
        # bit i of a packed column is the i-th kept row; iterating twice
        # packs the same columns again
        packed = [sum(1 << i for i, row in enumerate(rows) if row in c) for c in cols]
        assert len(view) == len(packed)
        assert list(view) == list(view) == packed
        dense = np.array([[i in c for c in cols] for i in rows],
                         dtype=np.uint8).reshape(len(rows), len(cols))
        positions = []
        assert ho.gf2_rank(view, positions) == ho.gf2_rank(view) == dense_gf2_rank(dense)
        assert len(set(positions)) == len(positions)
        assert dense_gf2_rank(dense[:, positions]) == len(positions)

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

    @pytest.mark.parametrize("n, r, up_to, betti", [
        (4, 2, 3, (0, 0, 0, 9)),
        (5, 2, 3, (0, 0, 0, 49)),
        # 1792 x 1792 boundary matrices in degrees 4 and 5
        (4, 3, 5, (0, 0, 0, 0, 0, 0)),
    ])
    def test_z_matches_gf2_at_scale(self, n, r, up_to, betti):
        k = cx.vietoris_rips(n, r, up_to + 1)
        zprof = ho.reduced_homology(k, up_to, "z")
        assert zprof.reduced_betti == betti
        assert zprof.torsion == ((),) * (up_to + 1)
        assert_uct(zprof, ho.betti_gf2(k, up_to))

    def test_snf_cap_checked_before_any_matrix(self, monkeypatch):
        # d_3 of VR(Q_5;3) is 2560 x 9280; d_0..d_2 fit the default cap
        k = cx.vietoris_rips(5, 3, 5)
        calls = []

        def counted(name):
            original = getattr(ho, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return wrapper

        for name in ("smith_normal_form", "boundary_matrix"):
            monkeypatch.setattr(ho, name, counted(name))
        with pytest.raises(TooLarge):
            ho.reduced_homology(k, 4, "z")
        assert calls == []

    def test_snf_cap_only_with_integer_coefficients(self):
        k = cx.vietoris_rips(2, 1, 2)
        with pytest.raises(ValueError, match="snf_cap"):
            ho.reduced_homology(k, 1, "gf2", snf_cap=1)
        assert ho.reduced_homology(k, 1, "gf2").reduced_betti == (0, 1)
        # None means the default cap; an explicit one still applies
        assert ho.reduced_homology(k, 1, "z", snf_cap=None).reduced_betti == (0, 1)
        with pytest.raises(TooLarge):
            ho.reduced_homology(k, 1, "z", snf_cap=1)

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

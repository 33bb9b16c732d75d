"""Clique and Vietoris-Rips complexes, plus witness checking.

Complexes are truncated at a caller-supplied maximum dimension: homology up
to degree d only needs simplices up to d + 1, and flag complexes of
hypercubes explode combinatorially well before their true dimension.
Simplices are sorted vertex tuples kept in lexicographic order per
dimension, which keeps boundary matrices reproducible.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .errors import (DimensionTooLarge, DuplicateVertex, OddCount, ParseError,
                     TooLarge)
from .hypercube import (MATERIALIZE_CEILING, build_hamming_graph,
                        hamming_distance, validate_pair)

DEFAULT_MAX_SIMPLICES = 10 ** 8


class SimplicialComplex:
    """Simplices graded by dimension, closed under faces, truncated at
    max_dim_requested.

    Only the buckets up to the last nonempty dimension are stored; the
    truncation is recorded once, in max_dim_requested, so dimensions above
    the last simplex cost nothing until f_vector() pads them with zeros.
    """

    __slots__ = ("n_vertices", "max_dim_requested", "_by_dim")

    def __init__(self, n_vertices, max_dim_requested, by_dim):
        by_dim = [list(bucket) for bucket in by_dim]
        if len(by_dim) > max_dim_requested + 1:
            raise ValueError("by_dim has buckets above max_dim_requested")
        while by_dim and not by_dim[-1]:
            by_dim.pop()
        self.n_vertices = n_vertices
        self.max_dim_requested = max_dim_requested
        self._by_dim = by_dim

    def simplices(self, d: int) -> list[tuple[int, ...]]:
        if 0 <= d < len(self._by_dim):
            return self._by_dim[d]
        return []

    def index_map(self, d: int) -> dict[tuple[int, ...], int]:
        """Canonical simplex -> column/row position for dimension d, built
        afresh: homology asks for each degree's map once."""
        return {s: i for i, s in enumerate(self.simplices(d))}

    def f_vector(self) -> tuple[int, ...]:
        """Simplex counts per dimension, zero-padded up to the truncation."""
        return tuple(len(self.simplices(d)) for d in range(self.max_dim_requested + 1))

    def euler_characteristic(self) -> int:
        """Alternating sum of the f-vector of the complex as built."""
        return sum((-1) ** d * len(bucket) for d, bucket in enumerate(self._by_dim))

    def __eq__(self, other):
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return (self.n_vertices == other.n_vertices
                and self.max_dim_requested == other.max_dim_requested
                and self._by_dim == other._by_dim)

    def __repr__(self):
        return (f"SimplicialComplex(n_vertices={self.n_vertices}, "
                f"f_vector={self.f_vector()})")


def _clique_complex(rows, m, max_dim, max_simplices):
    """All cliques of the graph `rows` up to max_dim, by ordered extension."""
    if max_dim < 0:
        raise ValueError("max_dim must be >= 0")
    cap = DEFAULT_MAX_SIMPLICES if max_simplices is None else max_simplices
    total = m
    if total > cap:
        raise TooLarge(f"simplex count exceeds the cap of {cap}")
    by_dim = [[(v,) for v in range(m)]]
    # exts[i] is the bitset of vertices above the maximum of simplex i of
    # the current dimension that are adjacent to all of its members
    exts = [rows[v] >> (v + 1) << (v + 1) for v in range(m)]
    for d in range(1, max_dim + 1):
        last = d == max_dim
        simplices, nxt_exts = [], []
        for simplex, ext in zip(by_dim[-1], exts):
            e = ext
            while e:
                low = e & -e
                w = low.bit_length() - 1
                e ^= low
                simplices.append(simplex + (w,))
                if not last:
                    # e now holds exactly the bits of ext above w
                    nxt_exts.append(e & rows[w])
            # checked per simplex extended, so an over-cap dimension is
            # never held whole
            if total + len(simplices) > cap:
                raise TooLarge(f"simplex count exceeds the cap of {cap}")
        if not simplices:
            break
        total += len(simplices)
        by_dim.append(simplices)
        exts = nxt_exts
    return by_dim


def vietoris_rips(n: int, r: int, max_dim: int,
                  max_simplices: int | None = None) -> SimplicialComplex:
    """Simplices of dimension <= max_dim on Q_n with pairwise distance <= r.

    This is the clique complex of the distance-<=r graph, so the
    independence complex of its complement Gc_{n,r}; enumeration is by
    ordered clique extension.  Raises TooLarge past the simplex cap.
    """
    g = build_hamming_graph(n, r, complemented=False)
    by_dim = _clique_complex(g.rows(), g.m, max_dim, max_simplices)
    return SimplicialComplex(g.m, max_dim, by_dim)


class WitnessReport(namedtuple("WitnessReport", (
        "is_matching_complement", "is_cross_polytope_boundary",
        "is_total_dominating_in_complement", "missing_pairs", "recovered_pairs"))):
    """Cross-polytope pattern diagnostics for a candidate vertex set, an
    immutable tuple of the five fields below.

    is_matching_complement: the far pairs (distance >= r + 1) are pairwise
    disjoint, i.e. the set carries a matching in the complement graph.
    is_cross_polytope_boundary: every vertex has exactly one far partner, so
    the induced subcomplex is the boundary of a cross-polytope.
    is_total_dominating_in_complement: checked directly against the distance
    predicate, independently of the pattern bits.
    missing_pairs: pairs violating the pattern; a degenerate (u, u) entry
    marks a vertex with no far partner.
    recovered_pairs: the far pairs, sorted, when the pattern holds; else
    empty.  Both pair fields are tuples of (int, int) tuples.
    """

    __slots__ = ()


def cross_polytope_witness_check(n: int, r: int, vertices) -> WitnessReport:
    """Check a vertex list for the cross-polytope pattern at scale r.

    The pairing is recovered, never supplied: each vertex must have exactly
    one partner at distance >= r + 1 within the list, all other pairs lying
    at distance <= r.  The total-domination bit is computed separately by
    scanning all of Q_n against the distance predicate; the report never
    assumes the pattern implies domination.  That scan costs 2^n * |S|, so n
    above the materialization ceiling raises DimensionTooLarge up front,
    once the list has passed the duplicate and parity checks and (n, r) the
    `validate_pair` rule.
    """
    verts = list(vertices)
    if len(set(verts)) != len(verts):
        raise DuplicateVertex("witness vertices must be distinct")
    if len(verts) % 2:
        raise OddCount("witness needs an even number of vertices")
    validate_pair(n, r)
    if n > MATERIALIZE_CEILING:
        raise DimensionTooLarge(
            f"n = {n} exceeds the ceiling {MATERIALIZE_CEILING} for the "
            "2^n-vertex domination scan")
    for v in verts:
        if not 0 <= v < (1 << n):
            raise ValueError(f"label {v} out of range for dimension {n}")

    far_pairs = [(a, b) for a, b in itertools.combinations(sorted(verts), 2)
                 if hamming_distance(a, b) > r]
    far_degree = {v: 0 for v in verts}
    for a, b in far_pairs:
        far_degree[a] += 1
        far_degree[b] += 1

    is_matching = all(d <= 1 for d in far_degree.values())
    is_boundary = bool(verts) and all(d == 1 for d in far_degree.values())

    missing = {(v, v) for v, d in far_degree.items() if d == 0}
    missing.update((a, b) for a, b in far_pairs
                   if far_degree[a] > 1 or far_degree[b] > 1)

    recovered = tuple(sorted(far_pairs)) if is_boundary else ()

    # every u in Q_n needs some s at distance > r; an empty list fails at u = 0
    dominating = True
    for u in range(1 << n):
        for s in verts:
            if (u ^ s).bit_count() > r:
                break
        else:
            dominating = False
            break

    return WitnessReport(
        is_matching_complement=is_matching,
        is_cross_polytope_boundary=is_boundary,
        is_total_dominating_in_complement=dominating,
        missing_pairs=tuple(sorted(missing)),
        recovered_pairs=recovered,
    )


def fundamental_cycle(pairs) -> list[tuple[int, ...]]:
    """The 2^m transversal simplices of a cross-polytope given its m far pairs.

    Picking one vertex from each pair yields a top-dimensional simplex of the
    boundary complex; their GF(2) sum is the fundamental cycle.
    """
    pairs = [tuple(p) for p in pairs]
    seen = set()
    for a, b in pairs:
        if a in seen or b in seen or a == b:
            raise ValueError("pairs must be pairwise disjoint")
        seen.update((a, b))
    return sorted(tuple(sorted(choice)) for choice in itertools.product(*pairs))


def format_complex(k: SimplicialComplex) -> str:
    """Serialize: header 'dim D vertices N', then one simplex per line as
    space-separated increasing vertex indices, grouped by ascending dimension."""
    lines = [f"dim {k.max_dim_requested} vertices {k.n_vertices}"]
    for d, bucket in enumerate(k._by_dim):
        lines.extend(map(("%d " * d + "%d").__mod__, bucket))
    return "\n".join(lines) + "\n"


def parse_complex(text: str) -> SimplicialComplex:
    """Parse the complex file format, validating grading and face closure.

    The header's 'dim D' is the truncation: nothing is allocated per
    declared dimension, and a bucket opens when its dimension first appears.
    Blank lines are skipped.  The simplices are read and checked a
    dimension at a time (`_read_by_dimension`).  If any check fails, the
    file is read again line by line (`_raise_first_fault`), only to raise
    the first fault with its line number.
    """
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty complex file")
    header = lines[0].split()
    if len(header) != 4 or header[0] != "dim" or header[2] != "vertices":
        raise ParseError(f"expected 'dim D vertices N', got {lines[0]!r}", 1)
    try:
        max_dim, n_vertices = int(header[1]), int(header[3])
    except ValueError:
        raise ParseError("non-integer header counts", 1) from None
    if max_dim < 0 or n_vertices < 0:
        raise ParseError("negative header counts", 1)

    by_dim = _read_by_dimension(lines, max_dim, n_vertices)
    if by_dim is None:
        _raise_first_fault(lines, max_dim, n_vertices)
    return SimplicialComplex(n_vertices, max_dim, by_dim)


def _read_by_dimension(lines, max_dim, n_vertices):
    """The simplices of lines[1:] as sorted buckets by dimension, or None
    if the file has a fault.

    The non-blank lines are grouped by token count, which must run 1, 2,
    ... up to at most max_dim + 1, and each group becomes int tuples in one
    pass.  A group repeats no simplex if its set is as long as its list.
    The vertices must lie in range, the edges must increase, and every
    facet of a d-simplex must be a (d-1)-simplex.  Above dimension 1 that
    closure implies the increase, and the range follows from the vertices.
    Each line is split only as its group is consumed: no list of every
    line's tokens is built.
    """
    rows = filter(None, map(str.split, itertools.islice(lines, 1, None)))
    by_dim, prev = [], None
    for size, group in itertools.groupby(rows, len):
        d = size - 1
        if d != len(by_dim) or d > max_dim:
            return None
        try:
            bucket = list(zip(*[map(int, itertools.chain.from_iterable(group))] * size))
        except ValueError:
            return None
        here = set(bucket)
        if len(here) < len(bucket):
            return None
        if d == 0:
            if min(bucket)[0] < 0 or max(bucket)[0] >= n_vertices:
                return None
        elif d == 1 and not all(itertools.starmap(int.__lt__, bucket)):
            return None
        if d and not prev.issuperset(itertools.chain.from_iterable(
                map(itertools.combinations, bucket, itertools.repeat(d)))):
            return None
        bucket.sort()
        by_dim.append(bucket)
        prev = here
    return by_dim


def _raise_first_fault(lines, max_dim, n_vertices):
    """Raise ParseError for the first line of lines[1:] with a fault.

    Each line is checked against one set of the simplices read so far
    (tuple length keeps dimensions apart): a simplex may not repeat, and
    all its facets must come earlier in the file.  When several are
    missing, the error names the facet that omits the lowest vertex.  The
    lines are those `_read_by_dimension` rejected, so one of them fails.
    """
    seen = set()
    top = -1
    for lineno, raw in enumerate(lines[1:], 2):
        line = raw.strip()
        if not line:
            continue
        try:
            verts = tuple(map(int, line.split()))
        except ValueError:
            raise ParseError(f"non-integer vertex in {line!r}", lineno) from None
        d = len(verts) - 1
        if d > max_dim:
            raise ParseError(f"simplex of dimension {d} exceeds header dim {max_dim}", lineno)
        if min(verts) < 0 or max(verts) >= n_vertices:
            raise ParseError("vertex index out of range", lineno)
        if not all(map(int.__lt__, verts, verts[1:])):
            raise ParseError("vertices must be strictly increasing", lineno)
        if d < top:
            raise ParseError("simplices must be grouped by ascending dimension", lineno)
        if verts in seen:
            raise ParseError(f"duplicate simplex {line!r}", lineno)
        if d and not seen.issuperset(itertools.combinations(verts, d)):
            # combinations omit the highest vertex first, so reversed they
            # come in order of the vertex omitted, lowest first
            facet = next(f for f in reversed(list(itertools.combinations(verts, d)))
                         if f not in seen)
            raise ParseError(
                f"missing facet {' '.join(map(str, facet))} of {line!r}", lineno)
        top = max(top, d)
        seen.add(verts)
    raise AssertionError("the per-dimension read rejected a file with no fault")


def write_complex_file(k: SimplicialComplex, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_complex(k))


def read_complex_file(path) -> SimplicialComplex:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_complex(fh.read())

"""Clique, Vietoris-Rips and independence complexes, plus witness checking.

Complexes are truncated at a caller-supplied maximum dimension: homology up
to degree d only needs simplices up to d + 1, and flag complexes of
hypercubes explode combinatorially well before their true dimension.
Simplices are sorted vertex tuples kept in lexicographic order per
dimension, which keeps boundary matrices reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (DimensionTooLarge, DuplicateVertex, OddCount, ParseError,
                     TooLarge)
from .hypercube import (MATERIALIZE_CEILING, Graph, build_hamming_graph,
                        hamming_distance, validate_pair)

DEFAULT_MAX_SIMPLICES = 10 ** 8


class SimplicialComplex:
    """Simplices graded by dimension 0..max_dim_requested, closed under faces."""

    __slots__ = ("n_vertices", "max_dim_requested", "_by_dim")

    def __init__(self, n_vertices, max_dim_requested, by_dim):
        if len(by_dim) != max_dim_requested + 1:
            raise ValueError("by_dim must have one bucket per dimension 0..max_dim_requested")
        self.n_vertices = n_vertices
        self.max_dim_requested = max_dim_requested
        self._by_dim = [list(bucket) for bucket in by_dim]

    def simplices(self, d: int) -> list[tuple[int, ...]]:
        if 0 <= d <= self.max_dim_requested:
            return self._by_dim[d]
        return []

    def index_map(self, d: int) -> dict[tuple[int, ...], int]:
        """Canonical simplex -> column/row position for dimension d, built
        afresh: homology asks for each degree's map once."""
        return {s: i for i, s in enumerate(self.simplices(d))}

    def f_vector(self) -> tuple[int, ...]:
        """Simplex counts per dimension, trailing zeros kept up to the truncation."""
        return tuple(len(bucket) for bucket in self._by_dim)

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
        total += len(simplices)
        by_dim.append(simplices)
        exts = nxt_exts
        if not simplices:
            by_dim.extend([] for _ in range(max_dim - d))
            break
    return by_dim


def vietoris_rips(n: int, r: int, max_dim: int,
                  max_simplices: int | None = None) -> SimplicialComplex:
    """Simplices of dimension <= max_dim on Q_n with pairwise distance <= r.

    This is the clique complex of the distance-<=r graph; enumeration is by
    ordered clique extension.  Raises TooLarge past the simplex cap.
    """
    g = build_hamming_graph(n, r, complemented=False)
    by_dim = _clique_complex(g.rows(), g.m, max_dim, max_simplices)
    return SimplicialComplex(g.m, max_dim, by_dim)


def independence_complex(g: Graph, max_dim: int,
                         max_simplices: int | None = None) -> SimplicialComplex:
    """Clique complex of the complement of g; faces are independent sets of g."""
    comp = g.complement()
    by_dim = _clique_complex(comp.rows(), comp.m, max_dim, max_simplices)
    return SimplicialComplex(comp.m, max_dim, by_dim)


@dataclass(frozen=True)
class WitnessReport:
    """Cross-polytope pattern diagnostics for a candidate vertex set.

    is_matching_complement: the far pairs (distance >= r + 1) are pairwise
    disjoint, i.e. the set carries a matching in the complement graph.
    is_cross_polytope_boundary: every vertex has exactly one far partner, so
    the induced subcomplex is the boundary of a cross-polytope.
    is_total_dominating_in_complement: checked directly against the distance
    predicate, independently of the pattern bits.
    missing_pairs: pairs violating the pattern; a degenerate (u, u) entry
    marks a vertex with no far partner.
    """

    is_matching_complement: bool
    is_cross_polytope_boundary: bool
    is_total_dominating_in_complement: bool
    missing_pairs: tuple[tuple[int, int], ...]
    recovered_pairs: tuple[tuple[int, int], ...]


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
    for d in range(k.max_dim_requested + 1):
        for simplex in k.simplices(d):
            lines.append(" ".join(map(str, simplex)))
    return "\n".join(lines) + "\n"


def parse_complex(text: str) -> SimplicialComplex:
    """Parse the complex file format, validating grading and face closure."""
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

    by_dim = [[] for _ in range(max_dim + 1)]
    seen = [set() for _ in range(max_dim + 1)]
    current_dim = 0
    for lineno, raw in enumerate(lines[1:], 2):
        line = raw.strip()
        if not line:
            continue
        try:
            verts = tuple(int(tok) for tok in line.split())
        except ValueError:
            raise ParseError(f"non-integer vertex in {line!r}", lineno) from None
        d = len(verts) - 1
        if d > max_dim:
            raise ParseError(f"simplex of dimension {d} exceeds header dim {max_dim}", lineno)
        if any(not 0 <= v < n_vertices for v in verts):
            raise ParseError("vertex index out of range", lineno)
        if any(verts[i] >= verts[i + 1] for i in range(len(verts) - 1)):
            raise ParseError("vertices must be strictly increasing", lineno)
        if d < current_dim:
            raise ParseError("simplices must be grouped by ascending dimension", lineno)
        current_dim = d
        if verts in seen[d]:
            raise ParseError(f"duplicate simplex {line!r}", lineno)
        if d > 0:
            for j in range(len(verts)):
                facet = verts[:j] + verts[j + 1:]
                if facet not in seen[d - 1]:
                    raise ParseError(
                        f"missing facet {' '.join(map(str, facet))} of {line!r}", lineno)
        seen[d].add(verts)
        by_dim[d].append(verts)
    for bucket in by_dim:
        bucket.sort()
    return SimplicialComplex(n_vertices, max_dim, by_dim)


def write_complex_file(k: SimplicialComplex, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_complex(k))


def read_complex_file(path) -> SimplicialComplex:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_complex(fh.read())

"""Hypercube graphs under Hamming distance, and bit-packed simple graphs.

Vertices of Q_n are the integers 0..2^n-1 read as binary strings of length
n.  Adjacency rows are stored as arbitrary-width integer bitsets, which
keeps pair queries O(1) and makes neighborhood intersections single AND
operations; the domination solver and clique enumeration live on that
representation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .bitops import iter_bits
from .errors import DimensionTooLarge, InconsistentHeader, ParseError

# 2^24 rows is the practical memory edge for explicit materialization;
# larger n is still served implicitly through hamming_distance().
MATERIALIZE_CEILING = 24


def hamming_distance(a: int, b: int) -> int:
    """Number of coordinates at which the binary strings a and b differ."""
    if a < 0 or b < 0:
        raise ValueError("vertex labels are non-negative integers")
    return (a ^ b).bit_count()


def antipode(v: int, n: int) -> int:
    """Bitwise complement of v within n bits; at Hamming distance n from v."""
    if not 0 <= v < (1 << n):
        raise ValueError(f"label {v} out of range for dimension {n}")
    return v ^ ((1 << n) - 1)


@dataclass(frozen=True)
class HammingSpec:
    """Construction recipe for a Hamming graph on Q_n.

    complemented=False: edges between distinct labels at distance <= r.
    complemented=True:  edges at distance >= r + 1.
    """

    n: int
    r: int
    complemented: bool = False


class Graph:
    """Immutable simple graph on vertices 0..m-1 with bitset adjacency rows."""

    __slots__ = ("m", "_rows", "_max_degree", "hamming")

    def __init__(self, rows, hamming=None, validate=True):
        self.m = len(rows)
        self._rows = list(rows)
        self._max_degree = None
        self.hamming = hamming
        if validate:
            self._validate()

    def _validate(self):
        for v, row in enumerate(self._rows):
            if row >> self.m or row < 0:
                raise ValueError(f"row {v} references vertices outside 0..{self.m - 1}")
            if (row >> v) & 1:
                raise ValueError(f"loop at vertex {v}")
            for w in iter_bits(row):
                if not (self._rows[w] >> v) & 1:
                    raise ValueError(f"asymmetric adjacency between {v} and {w}")

    @classmethod
    def from_edges(cls, m: int, edges) -> "Graph":
        rows = [0] * m
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < m and 0 <= v < m):
                raise ValueError(f"edge ({u}, {v}) out of range for m = {m}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(rows, validate=False)

    def row(self, v: int) -> int:
        """Neighborhood of v as a bitset."""
        return self._rows[v]

    def rows(self) -> list[int]:
        return list(self._rows)

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self._rows[u] >> v) & 1)

    def neighbors(self, v: int):
        return iter_bits(self._rows[v])

    def degree(self, v: int) -> int:
        return self._rows[v].bit_count()

    def degrees(self) -> list[int]:
        return [row.bit_count() for row in self._rows]

    @property
    def max_degree(self) -> int:
        if self._max_degree is None:
            self._max_degree = max((row.bit_count() for row in self._rows), default=0)
        return self._max_degree

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self._rows) // 2

    def has_isolated_vertex(self) -> bool:
        return any(row == 0 for row in self._rows)

    @property
    def vertex_transitive(self) -> bool:
        # Hamming graphs are vertex-transitive under XOR translation; used by
        # the exact solver for root symmetry breaking.
        return self.hamming is not None

    def complement(self) -> "Graph":
        full = (1 << self.m) - 1
        rows = [full & ~row & ~(1 << v) for v, row in enumerate(self._rows)]
        spec = None
        if self.hamming is not None:
            spec = HammingSpec(self.hamming.n, self.hamming.r, not self.hamming.complemented)
        return Graph(rows, hamming=spec, validate=False)


def _halfspace_pattern(n: int, b: int) -> int:
    """Bitset of positions j in [0, 2^n) whose b-th index bit is zero."""
    block = (1 << (1 << b)) - 1
    period = 2 << b
    reps = (1 << n) // period
    unit = ((1 << (period * reps)) - 1) // ((1 << period) - 1)
    return block * unit


def build_hamming_graph(n: int, r: int, complemented: bool = False,
                        ceiling: int = MATERIALIZE_CEILING) -> Graph:
    """Materialize G_{n,r} (distance <= r) or its complement (distance >= r+1).

    The graph is vertex-transitive: row v is the row of vertex 0 with its
    bit positions permuted by j -> j XOR v.  Row v is built from row
    v XOR 2^b, b the lowest set bit of v, by one swap of the half-spaces
    on index bit b, which costs O(2^n / wordsize) per row instead of a
    popcount per pair.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError("n must be a positive integer")
    if not isinstance(r, int) or r < 0:
        raise ValueError("r must be a non-negative integer")
    if n > ceiling:
        raise DimensionTooLarge(
            f"n = {n} exceeds the materialization ceiling {ceiling}; "
            "use hamming_distance() for implicit queries")
    base = 0
    for w in range(1, 1 << n):
        d = w.bit_count()
        if (d > r) if complemented else (d <= r):
            base |= 1 << w
    patterns = [_halfspace_pattern(n, b) for b in range(n)]
    rows = [base]
    for v in range(1, 1 << n):
        low = v & -v
        p = patterns[low.bit_length() - 1]
        row = rows[v ^ low]
        rows.append(((row & p) << low) | ((row >> low) & p))
    return Graph(rows, hamming=HammingSpec(n, r, complemented), validate=False)


def degree_profile(g: Graph) -> dict[int, int]:
    """Histogram mapping degree -> number of vertices with that degree."""
    return dict(Counter(g.degrees()))


def read_dimacs(text: str) -> Graph:
    """Parse DIMACS edge format: optional 'c' comments, one 'p edge M E'
    header, then 'e u v' lines with 1-indexed endpoints."""
    m = None
    declared_edges = None
    edges = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if m is not None:
                raise ParseError("duplicate problem line", lineno)
            if len(parts) != 4 or parts[1] != "edge":
                raise ParseError(f"expected 'p edge M E', got {line!r}", lineno)
            try:
                m, declared_edges = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(f"non-integer counts in {line!r}", lineno) from None
            if m < 0 or declared_edges < 0:
                raise ParseError("negative counts in problem line", lineno)
        elif parts[0] == "e":
            if m is None:
                raise ParseError("edge line before problem line", lineno)
            if len(parts) != 3:
                raise ParseError(f"expected 'e u v', got {line!r}", lineno)
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError(f"non-integer endpoints in {line!r}", lineno) from None
            if not (1 <= u <= m and 1 <= v <= m):
                raise ParseError(f"endpoint out of range 1..{m}", lineno)
            if u == v:
                raise ParseError(f"loop at vertex {u}", lineno)
            edges.add((min(u, v) - 1, max(u, v) - 1))
        else:
            raise ParseError(f"unrecognised line type {parts[0]!r}", lineno)
    if m is None:
        raise ParseError("missing problem line")
    if len(edges) != declared_edges:
        raise InconsistentHeader(
            f"header declares {declared_edges} edges, body has {len(edges)}")
    return Graph.from_edges(m, edges)


def write_dimacs(g: Graph) -> str:
    """Canonical DIMACS text: header, then edges sorted with u < v, 1-indexed."""
    lines = [f"p edge {g.m} {g.edge_count()}"]
    for u in range(g.m):
        row = g.row(u) >> (u + 1) << (u + 1)
        for v in iter_bits(row):
            lines.append(f"e {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"

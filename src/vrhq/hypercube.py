"""Hypercube graphs under Hamming distance, and bit-packed simple graphs.

Vertices of Q_n are the integers 0..2^n-1 read as binary strings of length
n.  Adjacency rows are stored as arbitrary-width integer bitsets, which
keeps pair queries O(1) and makes neighborhood intersections single AND
operations; the domination solver and clique enumeration live on that
representation.
"""

from __future__ import annotations

import math
from collections import deque

from .bitops import dense_bits, halfspace_patterns, iter_bits, mask_of, xor_translate
from .errors import DimensionTooLarge, InconsistentHeader, ParseError

# Bounds the size of an explicit graph, not memory: 2^MATERIALIZE_CEILING
# vertices, whether built on Q_n or read from a DIMACS header.  A graph on
# m vertices holds m adjacency rows of m bits, m^2 / 8 bytes in all, already
# 512 MiB at m = 2^16 and 32 TiB at m = 2^24.  Larger n is still served
# implicitly through hamming_distance().
MATERIALIZE_CEILING = 24


def validate_pair(n, r) -> None:
    """Reject a pair unless n is an integer >= 1 and r an integer >= 0: the
    one rule for every (n, r) a command or function takes."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    if not isinstance(r, int) or r < 0:
        raise ValueError(f"r must be an integer >= 0, got {r!r}")


def hamming_distance(a: int, b: int) -> int:
    """Number of coordinates at which the binary strings a and b differ."""
    if a < 0 or b < 0:
        raise ValueError("vertex labels are non-negative integers")
    return (a ^ b).bit_count()


class Graph:
    """Immutable simple graph on vertices 0..m-1 with bitset adjacency rows."""

    __slots__ = ("m", "_rows", "_max_degree", "_isolated")

    def __init__(self, rows, validate=True):
        self.m = len(rows)
        self._rows = list(rows)
        self._max_degree = self._isolated = None
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

    @property
    def max_degree(self) -> int:
        if self._max_degree is None:
            self._max_degree = max((row.bit_count() for row in self._rows), default=0)
        return self._max_degree

    def has_isolated_vertex(self) -> bool:
        if self._isolated is None:
            self._isolated = 0 in self._rows
        return self._isolated


def _weight_row(n: int, weights) -> int:
    """Row 0 of the Cayley graph of Z_2^n on the nonzero words whose
    Hamming weight is in `weights`."""
    return mask_of(w for w in range(1, 1 << n) if w.bit_count() in weights)


def build_hamming_graph(n: int, r: int, complemented: bool = False) -> Graph:
    """Materialize G_{n,r} (distance <= r) or its complement (distance >= r+1).

    The graph is vertex-transitive: row v is the row of vertex 0 with its
    bit positions permuted by j -> j XOR v.  It is built from row v ^ low,
    low the lowest set bit of v, by one half-space swap (`xor_translate`)
    instead of a popcount per pair.
    """
    validate_pair(n, r)
    if n > MATERIALIZE_CEILING:
        raise DimensionTooLarge(
            f"n = {n} exceeds the materialization ceiling {MATERIALIZE_CEILING}; "
            "use hamming_distance() for implicit queries")
    patterns = halfspace_patterns(n)
    rows = [_weight_row(n, range(r + 1, n + 1) if complemented else range(1, r + 1))]
    for v in range(1, 1 << n):
        rows.append(xor_translate(rows[v & (v - 1)], v & -v, patterns))
    return Graph(rows, validate=False)


# Work cap of each `_maps_onto` search, `vertex_transitive`'s and
# `hamming_labelling`'s, in refinement steps (`_split` calls).  Proving a
# 512-cycle or a relabelled Gc(9,6) transitive takes a small fraction of
# it; a graph that needs more gets no symmetry.
TRANSITIVITY_STEPS = 1 << 14


class _GiveUp(Exception):
    """`vertex_transitive` ran out of steps or time."""


def _split(rows, cells, s, queue):
    """One refinement step: split every cell of `cells` (vertex bitsets, an
    ordered partition) by the number of neighbours its vertices have in the
    splitter cells[s].

    The counts are bit-sliced sums of the splitter's rows, so a cell splits
    by ANDs with their bit planes.  A split cell keeps its index for its
    largest part, the first in count order on ties, and its other parts go
    on the end of `cells` and of `queue` in count order.  The kept part
    needs no turn of its own (Hopcroft's rule): if the cell was queued, it
    keeps the cell's turn; if not, the partition is already equitable with
    respect to the whole cell, and counts in the kept part are counts in
    the cell less counts in the queued parts.  Returns the trace entry of
    the step: the index of each cell with a neighbour in the splitter, with
    the count and size of each of its parts."""
    planes = []
    for row in dense_bits(cells[s], rows):
        for j, plane in enumerate(planes):
            if not row:
                break
            planes[j], row = plane ^ row, plane & row
        if row:
            planes.append(row)
    hit = 0
    for plane in planes:
        hit |= plane
    entry = []
    for i in range(len(cells)):
        cell = cells[i]
        if not cell & hit:
            continue
        parts = [(0, cell)]
        for j, plane in enumerate(planes):
            sliced = []
            for count, part in parts:
                inside = part & plane
                if inside != part:
                    sliced.append((count, part ^ inside))
                if inside:
                    sliced.append((count | 1 << j, inside))
            parts = sliced
        parts.sort()
        sizes = [part.bit_count() for _, part in parts]
        entry.append((i, tuple(zip([count for count, _ in parts], sizes))))
        if len(parts) > 1:
            keep = sizes.index(max(sizes))
            cells[i] = parts[keep][1]
            for k, (_, part) in enumerate(parts):
                if k != keep:
                    queue.append(len(cells))
                    cells.append(part)
    return tuple(entry)


def _individualised(cells, i, v):
    """A copy of `cells` with vertex v, a member of cells[i], moved to a new
    last cell of its own, and the splitter queue that holds only that cell."""
    cells = cells.copy()
    cells[i] ^= 1 << v
    cells.append(1 << v)
    return cells, deque([len(cells) - 1])


def _is_isomorphism(a, b, perm) -> bool:
    """perm (perm[v] the image of v) maps every row of a onto b's row of its image."""
    images = [1 << p for p in perm]
    return all(sum(dense_bits(row, images)) == b[p] for row, p in zip(a, perm))


def _maps_onto(a, b, expired=None):
    """Individualisation-refinement (McKay and Piperno, *J. Symb. Comput.*
    2014) from the graph with rows `a` onto the graph with rows `b`.  Side
    a runs once, here: it individualises vertex 0, then level by level the
    lowest vertex of the smallest non-singleton cell (the first on ties),
    and refines after each to an equitable partition (`_split`, with a
    queue of splitter cells) until it is discrete, keeping each level's
    trace.  The returned onto(w, root) individualises w on side b and
    backtracks over the vertices of the same cells, refining in lockstep:
    a step whose trace entry differs from side a's ends its branch.  A
    discrete leaf maps each cell of side a onto its partner.  onto returns
    the first such map (perm[v] the image of v) that `_is_isomorphism`
    passes, or None, which proves that no isomorphism maps 0 to w.
    Candidates whose root(v) differs from that of side a's vertex come
    first.  Raises _GiveUp after TRANSITIVITY_STEPS refinement steps, or
    once `expired`, if given, is true: it is called once per step and once
    per map checked, each of which reads O(m) rows and cells."""
    expired = expired or (lambda: False)
    m = len(a)
    steps = 0

    def refine(rows, cells, queue, expect):
        """Refine `cells` in place until `queue` is empty; the trace, or
        None at the first step that differs from `expect`."""
        nonlocal steps
        trace = []
        while queue:
            steps += 1
            if steps > TRANSITIVITY_STEPS or expired():
                raise _GiveUp
            entry = _split(rows, cells, queue.popleft(), queue)
            if expect is not None and entry != expect[len(trace)]:
                return None
            trace.append(entry)
        return trace

    leaf, targets, picks, traces = [(1 << m) - 1], [], [], []
    t = v = 0
    while True:
        leaf, queue = _individualised(leaf, t, v)
        targets.append(t)
        picks.append(v)
        traces.append(refine(a, leaf, queue, None))
        if len(leaf) == m:
            break
        t = min((i for i, cell in enumerate(leaf) if cell & (cell - 1)),
                key=lambda i: leaf[i].bit_count())
        v = (leaf[t] & -leaf[t]).bit_length() - 1

    def onto(w, root):
        stack, above = [iter((w,))], [[(1 << m) - 1]]
        while stack:
            k = len(stack) - 1
            v = next(stack[-1], None)
            if v is None:
                stack.pop()
                above.pop()
                continue
            cells, queue = _individualised(above[k], targets[k], v)
            if refine(b, cells, queue, traces[k]) is None:
                continue
            if len(cells) == m:
                if expired():
                    raise _GiveUp
                perm = [0] * m
                for x, y in zip(leaf, cells):
                    perm[x.bit_length() - 1] = y.bit_length() - 1
                if _is_isomorphism(a, b, perm):
                    return perm
                continue
            above.append(cells)
            orbit = root(picks[k + 1])
            stack.append(iter(sorted(iter_bits(cells[targets[k + 1]]),
                                     key=lambda c: root(c) == orbit)))
        return None
    return onto


def vertex_transitive(rows, expired=None) -> bool:
    """True once automorphisms found by `_maps_onto` and merged into orbits
    by union-find put every vertex in the orbit of vertex 0, so that the
    graph with these rows is vertex-transitive; False claims nothing.  For
    each w outside 0's orbit, candidates outside the orbit of side a's
    vertex come first, so that the map found tends to join orbits.  False
    at once on an irregular graph, when no automorphism maps 0 to some w,
    or when `_maps_onto` gives up."""
    m = len(rows)
    if m < 2:
        return m == 1
    if len({row.bit_count() for row in rows}) > 1:
        return False

    def root(v):
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    parent = list(range(m))
    try:
        onto = _maps_onto(rows, rows, expired)
        for w in range(1, m):
            if root(w) == root(0):
                continue
            perm = onto(w, root)
            if perm is None:
                return False
            for v, image in enumerate(perm):
                parent[root(v)] = root(image)
    except _GiveUp:
        return False
    return True


def hamming_labelling(rows, expired=None):
    """(None, None) when these rows are a Cayley graph of Z_2^n on a union
    of Hamming weight classes, as `build_hamming_graph` labels G_{n,r} and
    its complement: row 0 is a union of weight classes, and each row v is
    row 0 XOR-translated by v (`xor_translate`).  Coordinate permutations and
    translations preserve such a graph.  Otherwise (G, perm) when the rows
    are G = G_{n,r} or its complement relabelled by perm, checked on every
    row: perm[v] plays vertex v of G, and `_maps_onto` finds it from G's
    vertex 0 onto vertex 0 here (enough, G being vertex-transitive); rows
    that are not regular have no map.  Only one G on m = 2^n vertices has
    the degree of row 0.  `expired`, if given, is called before each row v
    is compared and before G is built, and by `_maps_onto`; None, also once
    it is true, claims nothing."""
    expired = expired or (lambda: False)
    m = len(rows)
    if m < 2 or m & (m - 1):
        return None
    n = m.bit_length() - 1
    patterns = halfspace_patterns(n)
    if rows[0] == _weight_row(n, {w.bit_count() for w in iter_bits(rows[0])}) and all(
            not expired() and rows[v] == xor_translate(rows[v & (v - 1)], v & -v, patterns)
            for v in range(1, m)):
        return None, None
    degree = rows[0].bit_count()
    for r in range(n):
        below = sum(math.comb(n, d) for d in range(1, r + 1))
        for complemented in (False, True):
            if (m - 1 - below if complemented else below) != degree:
                continue
            if expired() or any(row.bit_count() != degree for row in rows):
                return None
            g = build_hamming_graph(n, r, complemented)
            try:
                perm = _maps_onto(g.rows(), rows, expired)(0, lambda v: v)
            except _GiveUp:
                return None
            return None if perm is None else (g, perm)
    return None


def read_dimacs(text: str, build=None) -> Graph:
    """Parse DIMACS edge format: optional 'c' comments, one 'p edge M E'
    header, then 'e u v' lines with 1-indexed endpoints.

    M above 2^MATERIALIZE_CEILING raises DimensionTooLarge at the problem
    line, before anything is sized by it.  Once the whole file is checked,
    build(M, edges) makes the result from the 0-indexed edge set;
    Graph.from_edges when build is None."""
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
            if m > 1 << MATERIALIZE_CEILING:
                raise DimensionTooLarge(
                    f"line {lineno}: {m} vertices exceed the ceiling 2^{MATERIALIZE_CEILING}"
                    f" = {1 << MATERIALIZE_CEILING} for an explicit graph")
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
    return (build or Graph.from_edges)(m, edges)

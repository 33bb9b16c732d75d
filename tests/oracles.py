"""Independent brute-force oracles used to freeze expected test values.

Everything here deliberately avoids the library's production code paths:
binomials come from a Pascal triangle, complexes from raw subset enumeration
(VR complexes by diameter, independence complexes by non-adjacency),
GF(2) ranks from dense numpy elimination, integer invariant factors from gcds
of Bareiss minors, and the connectivity bound from fractions.Fraction.  Oracle results are frozen into the tests; the oracles
stay around so the freezing can be audited and re-run.  The domination
references are frozen copies of the solver's earlier, simpler form, kept so
that faster rewrites can be required to return the same answer in no more
nodes; gamma_t is also solved as an integer program by scipy's HiGHS.
Vertex-transitivity is decided by networkx's VF2++ isomorphism test.
`reference_parse_complex` is a frozen copy of the complex file parser as it
read one line at a time; the per-dimension parser must accept the same
files and name the same first fault.
`tight_example_graph` is a fixture: a gadget family on which the trivial
bound ceil(m / max_degree) is exact; `dimacs_text` writes a graph as DIMACS
input.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np

from vrhq.complexes import SimplicialComplex
from vrhq.errors import ParseError
from vrhq.hypercube import Graph


def pascal_binomial(n: int, k: int) -> int:
    """C(n, k) built row by row; 0 when k > n."""
    if k > n:
        return 0
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[k]


def bound_oracle(n: int, r: int):
    """Connectivity bound via fractions.Fraction; None means contractible."""
    if r >= n:
        return None
    denom = sum(pascal_binomial(n, i) for i in range(r + 1, n + 1))
    a = Fraction(2 ** (n - 1), denom)
    k = a - 1 if a.denominator == 1 else math.floor(a)
    return int(k) - 1


def brute_rips_by_dim(n: int, r: int, max_dim: int) -> list[list[tuple[int, ...]]]:
    """All diameter-<=r subsets of Q_n up to size max_dim + 1, by enumeration."""
    labels = list(range(1 << n))
    by_dim = []
    for size in range(1, max_dim + 2):
        bucket = []
        for combo in itertools.combinations(labels, size):
            if all((a ^ b).bit_count() <= r for a, b in itertools.combinations(combo, 2)):
                bucket.append(combo)
        by_dim.append(bucket)
    return by_dim


def brute_independent_sets(rows, max_dim: int) -> list[list[tuple[int, ...]]]:
    """All independent sets of the graph with adjacency bitsets `rows`, up to
    size max_dim + 1, by enumeration: its independence complex by dimension."""
    labels = range(len(rows))
    by_dim = []
    for size in range(1, max_dim + 2):
        bucket = []
        for combo in itertools.combinations(labels, size):
            if not any(rows[a] >> b & 1 for a, b in itertools.combinations(combo, 2)):
                bucket.append(combo)
        by_dim.append(bucket)
    return by_dim


def dense_gf2_rank(mat: np.ndarray) -> int:
    """Rank over GF(2) by dense Gaussian elimination on a uint8 matrix."""
    m = (mat % 2).astype(np.uint8)
    n_rows, n_cols = m.shape
    rank = 0
    row = 0
    for col in range(n_cols):
        hits = np.nonzero(m[row:, col])[0]
        if hits.size == 0:
            continue
        pivot = row + hits[0]
        m[[row, pivot]] = m[[pivot, row]]
        clear = m[:, col] == 1
        clear[row] = False
        m[clear] ^= m[row]
        rank += 1
        row += 1
        if row == n_rows:
            break
    return rank


def dense_boundary(by_dim, p: int) -> np.ndarray:
    """Dense GF(2) boundary matrix from raw by-dimension simplex lists."""
    if p == 0:
        return np.ones((1, len(by_dim[0])), dtype=np.uint8) if by_dim[0] else np.zeros((0, 0), dtype=np.uint8)
    rows = {s: i for i, s in enumerate(by_dim[p - 1])}
    cols = by_dim[p] if p < len(by_dim) else []
    mat = np.zeros((len(by_dim[p - 1]), len(cols)), dtype=np.uint8)
    for j, simplex in enumerate(cols):
        for omit in range(len(simplex)):
            facet = simplex[:omit] + simplex[omit + 1:]
            mat[rows[facet], j] ^= 1
    return mat


def brute_reduced_betti(n: int, r: int, up_to: int) -> tuple[int, ...]:
    """Reduced GF(2) Betti numbers of VR(Q_n; r) by subset enumeration plus
    dense rank; independent of the clique-extension and bitset pipelines."""
    by_dim = brute_rips_by_dim(n, r, up_to + 1)
    f = [len(b) for b in by_dim]
    ranks = [dense_gf2_rank(dense_boundary(by_dim, p)) for p in range(up_to + 2)]
    return tuple(f[i] - ranks[i] - ranks[i + 1] for i in range(up_to + 1))


def bareiss_det(matrix) -> int:
    """Exact determinant of a square integer matrix by fraction-free
    (Bareiss) elimination; every division is exact."""
    a = [list(row) for row in matrix]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def determinantal_divisors(matrix) -> tuple[int, ...]:
    """D_1, D_2, ..., D_rank of an integer matrix, D_k the gcd of all k x k
    minors.  The invariant factors are D_k / D_{k-1} with D_0 = 1."""
    n_rows = len(matrix)
    n_cols = len(matrix[0]) if n_rows else 0
    out = []
    for k in range(1, min(n_rows, n_cols) + 1):
        g = 0
        for rows in itertools.combinations(range(n_rows), k):
            for cols in itertools.combinations(range(n_cols), k):
                g = math.gcd(g, bareiss_det([[matrix[i][j] for j in cols] for i in rows]))
        if g == 0:
            break
        out.append(g)
    return tuple(out)


def brute_pattern_sets(n: int, r: int) -> list[tuple[int, ...]]:
    """Vertex subsets of Q_n whose distance->=r+1 graph (within the subset)
    is a perfect matching, found by scanning all 2^(2^n) subsets."""
    total = 1 << n
    out = []
    for mask in range(1, 1 << total):
        if mask.bit_count() % 2:
            continue
        verts = [v for v in range(total) if (mask >> v) & 1]
        ok = True
        for v in verts:
            far = 0
            for w in verts:
                if w != v and (v ^ w).bit_count() > r:
                    far += 1
                    if far > 1:
                        break
            if far != 1:
                ok = False
                break
        if ok:
            out.append(tuple(verts))
    return out


def tight_example_graph(delta: int, pairs: int) -> Graph:
    """Disjoint union of `pairs` gadgets achieving gamma_t = m / delta.

    Each gadget has two adjacent centers, and each center carries delta - 1
    private leaves, so centers have degree delta, the gadget has 2 * delta
    vertices, and both centers together dominate it totally.
    """
    if delta < 2:
        raise ValueError("delta must be >= 2")
    if pairs < 1:
        raise ValueError("pairs must be >= 1")
    comp = 2 * delta
    edges = []
    for p in range(pairs):
        base = p * comp
        a, b = base, base + 1
        edges.append((a, b))
        for leaf in range(base + 2, base + delta + 1):
            edges.append((a, leaf))
        for leaf in range(base + delta + 1, base + comp):
            edges.append((b, leaf))
    return Graph.from_edges(pairs * comp, edges)


def dimacs_text(g: Graph) -> str:
    """DIMACS text of g: the header, then each edge once as 'e u v' with
    u < v, 1-indexed, in ascending order."""
    edges = [(u, v) for u in range(g.m) for v in range(u + 1, g.m) if g.row(u) >> v & 1]
    return "".join([f"p edge {g.m} {len(edges)}\n"] + [f"e {u + 1} {v + 1}\n" for u, v in edges])


def reference_parse_complex(text: str) -> SimplicialComplex:
    """The complex file parser as it was before it read a dimension at a
    time: every line split, converted and checked on its own.

    The header's 'dim D' is the truncation: nothing is allocated per
    declared dimension, and a bucket opens when its dimension first appears.
    Blank lines are skipped.  Every line is checked against one set of the
    simplices read so far (tuple length keeps dimensions apart): a simplex
    may not repeat, and all its facets must come earlier in the file.  When
    several are missing, the error names the facet that omits the lowest
    vertex.
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

    by_dim = []
    seen = set()
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
        if d < len(by_dim) - 1:
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
        if d == len(by_dim):
            by_dim.append([])
        seen.add(verts)
        by_dim[d].append(verts)
    for bucket in by_dim:
        bucket.sort()
    return SimplicialComplex(n_vertices, max_dim, by_dim)


def random_isolated_free_graphs(count: int, max_m: int, seed: int):
    """Deterministic corpus of random simple graphs with no isolated vertex.

    Yields (m, edges) pairs; density varies across the corpus.
    """
    rng = random.Random(seed)
    graphs = []
    while len(graphs) < count:
        m = rng.randint(4, max_m)
        p = rng.uniform(0.15, 0.6)
        edges = [(u, v) for u in range(m) for v in range(u + 1, m)
                 if rng.random() < p]
        touched = set()
        for u, v in edges:
            touched.update((u, v))
        if len(touched) != m:
            continue
        graphs.append((m, edges))
    return graphs


def _bits(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def eager_greedy(rows) -> frozenset[int]:
    """The greedy total dominating set by a full rescan per pick: most newly
    dominated vertices first, lowest index on ties, then the repair phase
    (an unsupported pick gets its highest-degree neighbor)."""
    m = len(rows)
    full = (1 << m) - 1
    chosen = dominated = 0
    while dominated != full:
        undom = full ^ dominated
        best_v, best_cov = -1, 0
        for v in range(m):
            if (chosen >> v) & 1:
                continue
            cov = (rows[v] & undom).bit_count()
            if cov > best_cov:
                best_v, best_cov = v, cov
        chosen |= 1 << best_v
        dominated |= rows[best_v]
    while True:
        unsupported = [v for v in _bits(chosen) if not rows[v] & chosen]
        if not unsupported:
            break
        v = unsupported[0]
        w = max(_bits(rows[v]), key=lambda u: (rows[u].bit_count(), -u))
        chosen |= 1 << w
    return frozenset(_bits(chosen))


def reference_gamma_t(rows, transitive=False):
    """(gamma_t, witness, nodes) from the plain branch-and-bound that every
    later solver node must reproduce on a connected graph: fail-first
    branching, candidates by decreasing residual coverage, pruning on the
    sorted residual coverages, vertex 0 fixed on vertex-transitive input."""
    m = len(rows)
    full = (1 << m) - 1
    incumbent = eager_greedy(rows)
    best = [len(incumbent), sum(1 << v for v in incumbent)]
    lower = -(-m // max(row.bit_count() for row in rows))
    nodes = 0

    def dfs(size, chosen, dominated, selectable):
        nonlocal nodes
        nodes += 1
        if dominated == full:
            if size < best[0]:
                best[:] = [size, chosen]
            return
        undom = full ^ dominated
        branch_cands, branch_count = 0, m + 1
        for u in _bits(undom):
            cands = rows[u] & selectable
            c = cands.bit_count()
            if c == 0:
                return
            if c < branch_count:
                branch_count, branch_cands = c, cands
                if c == 1:
                    break
        need = undom.bit_count()
        coverages = sorted(((rows[v] & undom).bit_count() for v in _bits(selectable)),
                           reverse=True)
        acc = extra = 0
        for cov in coverages:
            if acc >= need:
                break
            acc += cov
            extra += 1
        if acc < need or size + extra >= best[0]:
            return
        order = sorted(_bits(branch_cands), key=lambda v: (-(rows[v] & undom).bit_count(), v))
        sel = selectable
        for v in order:
            sel &= ~(1 << v)
            dfs(size + 1, chosen | (1 << v), dominated | rows[v], sel)

    if best[0] > lower:
        if transitive:
            dfs(1, 1, rows[0], full ^ 1)
        else:
            dfs(0, 0, 0, full)
    return best[0], frozenset(_bits(best[1])), nodes


def milp_gamma_t(rows) -> int:
    """gamma_t as a 0/1 integer program solved by scipy's HiGHS: minimise
    the number of chosen vertices such that every vertex has a chosen
    neighbour.  Shares no code with the branch and bound."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    m = len(rows)
    adjacency = np.array([[(row >> v) & 1 for v in range(m)] for row in rows])
    res = milp(np.ones(m), constraints=LinearConstraint(adjacency, lb=1),
               integrality=np.ones(m), bounds=Bounds(0, 1))
    if not res.success:
        raise AssertionError(f"MILP failed: {res.message}")
    return round(res.fun)


def is_vertex_transitive(rows) -> bool:
    """Whether some automorphism maps vertex 0 onto each vertex w, decided
    by networkx's VF2++ matcher between two copies of the graph: the first
    with vertex 0 labelled apart, the second with w.  Each map found puts
    its cycles in 0's orbit, and a w already there needs no match of its
    own.  A graph and its complement have the same automorphisms; the
    sparser of the two is matched, since VF2++ stalls on dense graphs."""
    import networkx as nx

    m = len(rows)
    g = nx.Graph()
    g.add_nodes_from(range(m))
    g.add_edges_from((u, v) for u in range(m) for v in _bits(rows[u]) if u < v)
    if 2 * g.number_of_edges() > m * (m - 1) // 2:
        g = nx.complement(g)
    h = g.copy()
    nx.set_node_attributes(g, {v: v == 0 for v in range(m)}, "root")
    orbit, perms = {0}, []
    for w in range(1, m):
        if w in orbit:
            continue
        nx.set_node_attributes(h, {v: v == w for v in range(m)}, "root")
        perm = nx.vf2pp_isomorphism(g, h, node_label="root")
        if perm is None:
            return False
        perms.append(perm)
        frontier = [0]
        orbit = {0}
        while frontier:  # 0's orbit under the maps found so far
            v = frontier.pop()
            for p in perms:
                if p[v] not in orbit:
                    orbit.add(p[v])
                    frontier.append(p[v])
    return m > 0

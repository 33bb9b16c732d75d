"""Total domination: verification, bounds, exact search, and the tight family.

A set S totally dominates G when every vertex of G, members of S included,
has a neighbor in S (open-neighborhood semantics: membership in S does not
dominate the member itself).  gamma_t(G) is the minimum size of such a set;
it is undefined for graphs with isolated vertices, which all entry points
reject.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass

from .bitops import iter_bits, mask_of
from .errors import IsolatedVertex, TooLarge
from .hypercube import Graph

EXHAUSTIVE_VERTEX_LIMIT = 20


def _require_no_isolated(g: Graph):
    if g.m == 0 or g.has_isolated_vertex():
        raise IsolatedVertex("total domination is undefined on graphs with isolated vertices")


def is_total_dominating(g: Graph, vertices) -> bool:
    """True iff every vertex of g has at least one neighbor in `vertices`."""
    _require_no_isolated(g)
    smask = mask_of(vertices)
    if smask >> g.m:
        raise ValueError("vertex set references vertices outside the graph")
    return all(g.row(u) & smask for u in range(g.m))


def trivial_lower_bound(g: Graph) -> int:
    """ceil(m / max_degree): every chosen vertex dominates at most Delta others."""
    _require_no_isolated(g)
    return -(-g.m // g.max_degree)


def greedy_upper_bound(g: Graph) -> frozenset[int]:
    """A total dominating set built greedily, used as the solver incumbent.

    Cover phase: repeatedly add the vertex dominating the most currently
    undominated vertices (lowest index on ties).  Repair phase: while some
    chosen vertex has no chosen neighbor, add its highest-degree neighbor.

    The cover phase is lazy (Minoux's accelerated greedy): coverages only
    shrink, so a heap of stale coverages bounds every vertex from above, and
    a popped vertex whose fresh coverage still beats the heap's top is the
    vertex an eager scan would pick.
    """
    _require_no_isolated(g)
    rows = g.rows()
    m = g.m
    full = (1 << m) - 1
    chosen = 0
    dominated = 0
    # key (m - coverage) * m + v: most coverage first, then lowest index;
    # one int per vertex rather than a tuple keeps the heap small
    heap = [(m - row.bit_count()) * m + v for v, row in enumerate(rows)]
    heapq.heapify(heap)
    while dominated != full:
        v = heapq.heappop(heap) % m
        key = (m - (rows[v] & ~dominated).bit_count()) * m + v
        if heap and key > heap[0]:
            heapq.heappush(heap, key)
            continue
        chosen |= 1 << v
        dominated |= rows[v]
    while True:
        unsupported = [v for v in iter_bits(chosen) if not rows[v] & chosen]
        if not unsupported:
            break
        v = unsupported[0]
        w = max(iter_bits(rows[v]), key=lambda u: (rows[u].bit_count(), -u))
        chosen |= 1 << w
    return frozenset(iter_bits(chosen))


@dataclass(frozen=True)
class DominationResult:
    """Outcome of the exact solver.

    status is "exact" (lower == exact == upper == len(witness)) or
    "bounds_only" when the time limit expired first; the witness is always a
    valid total dominating set of size `upper`.  A disconnected graph is
    solved one connected component at a time: `nodes` is summed over the
    components, and a "bounds_only" `lower` is the sum of each component's
    exact value or, where its search was cut short, its ceil(m_i / Delta_i).
    """

    lower: int
    upper: int
    witness: frozenset[int]
    status: str
    exact: int | None = None
    nodes: int = 0
    elapsed_s: float = 0.0

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError("lower bound exceeds upper bound")
        if (self.status == "exact") != (self.exact is not None):
            raise ValueError("exact value present iff status is exact")


def _components(rows) -> list[int]:
    """Vertex bitsets of the connected components, by bitset BFS over rows."""
    unseen = (1 << len(rows)) - 1
    comps = []
    while unseen:
        comp = unseen & -unseen
        frontier = comp
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= rows[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & ~comp
            comp |= frontier
        unseen &= ~comp
        comps.append(comp)
    return comps


def _induced(rows, verts) -> Graph:
    """The subgraph on `verts` (ascending), relabelled to 0..len(verts)-1."""
    index = {v: i for i, v in enumerate(verts)}
    return Graph([mask_of(index[w] for w in iter_bits(rows[v])) for v in verts],
                 validate=False)


def _search(g: Graph, transitive: bool, deadline):
    """Branch-and-bound on one graph; returns (lower, size, witness mask,
    nodes, timed_out), with lower == size when the search finished."""
    rows = g.rows()
    m = g.m
    full = (1 << m) - 1
    delta = g.max_degree

    incumbent = greedy_upper_bound(g)
    best_size = len(incumbent)
    best_mask = mask_of(incumbent)
    lower = trivial_lower_bound(g)
    # live[v] is rows[v] while v is selectable and 0 once it is not; zero
    # rows leave the sum of the k largest coverages unchanged.
    live = list(rows)

    nodes = 0
    timed_out = False

    def branches(size, dominated, selectable, cap):
        # (candidates best first, cap for the children), or None to prune.
        # Lives in its own frame so that the O(m) coverage list is freed
        # before the recursion goes deeper.
        #
        # Admissible residual bound: with k picks left that could still beat
        # the incumbent, the k largest residual coverages must reach the
        # undominated count.  Two O(1) tests come first: no coverage exceeds
        # Delta, and `cap`, the parent's sum of its k-1 largest coverages,
        # bounds this node's k largest (coverages only shrink going down,
        # and k only falls).
        undom = full ^ dominated
        need = undom.bit_count()
        k = best_size - size - 1
        if k * delta < need or cap < need:
            return None
        cover = [(row & undom).bit_count() for row in live]
        top = sorted(cover, reverse=True)[:k]
        total = sum(top)
        if total < need:
            return None
        if len(top) == k:
            total -= top[-1]
        # fail-first: undominated vertex with the fewest remaining dominators
        branch_cands = 0
        branch_count = m + 1
        mask = undom
        while mask:
            low = mask & -mask
            mask ^= low
            cands = rows[low.bit_length() - 1] & selectable
            c = cands.bit_count()
            if c == 0:
                return None
            if c < branch_count:
                branch_count, branch_cands = c, cands
                if c == 1:
                    break
        order = []
        while branch_cands:
            low = branch_cands & -branch_cands
            branch_cands ^= low
            order.append(low.bit_length() - 1)
        # stable, so ties keep ascending vertex order
        order.sort(key=cover.__getitem__, reverse=True)
        return order, total

    def dfs(size, chosen, dominated, selectable, cap):
        nonlocal best_size, best_mask, nodes, timed_out
        nodes += 1
        if deadline is not None and time.monotonic() > deadline:
            timed_out = True
            return
        if dominated == full:
            if size < best_size:
                best_size, best_mask = size, chosen
            return
        got = branches(size, dominated, selectable, cap)
        if got is None:
            return
        order, cap = got
        sel = selectable
        for v in order:
            sel &= ~(1 << v)
            live[v] = 0
            dfs(size + 1, chosen | (1 << v), dominated | rows[v], sel, cap)
            if timed_out:
                break
        for v in order:
            live[v] = rows[v]

    if best_size > lower:
        if transitive:
            live[0] = 0
            dfs(1, 1, rows[0], full ^ 1, m * delta)
        else:
            dfs(0, 0, 0, full, m * delta)
    if not timed_out:
        lower = best_size
    return lower, best_size, best_mask, nodes, timed_out


def exact_gamma_t(g: Graph, time_limit: float | None = None) -> DominationResult:
    """Branch-and-bound for gamma_t.

    State is (chosen bitset, dominated bitset, selectable bitset).  Branching
    is fail-first: pick the undominated vertex with the fewest selectable
    dominators and branch over its candidates in decreasing residual-coverage
    order, excluding each candidate from the subtrees of its successors.  A
    node is pruned when |chosen| plus an admissible residual covering bound
    cannot beat the incumbent.  On vertex-transitive inputs every optimum can
    be XOR-translated to contain vertex 0, so the root fixes it.

    gamma_t is additive over connected components, so a disconnected graph
    is solved one component at a time under the shared deadline, and the
    bounds, witnesses and node counts are summed.

    With no time limit the result is exact.  The deadline is checked at every
    search node; on expiry the result has status "bounds_only", with the
    incumbent as `upper` and, per component, the trivial bound
    ceil(m_i / Delta_i) (or the exact value, for a component that finished)
    summed into `lower`.
    """
    _require_no_isolated(g)
    start = time.monotonic()
    deadline = None if time_limit is None else start + time_limit
    rows = g.rows()
    comps = _components(rows)
    if len(comps) == 1:
        parts = [(range(g.m), g)]
    else:
        # a component of a vertex-transitive graph is vertex-transitive, so
        # each component may fix its own lowest vertex
        parts = [(verts, _induced(rows, verts))
                 for verts in (list(iter_bits(comp)) for comp in comps)]
    lower = upper = nodes = 0
    witness = set()
    timed_out = False
    for verts, part in parts:
        part_lower, size, mask, part_nodes, part_timed_out = _search(
            part, g.vertex_transitive, deadline)
        lower += part_lower
        upper += size
        nodes += part_nodes
        timed_out = timed_out or part_timed_out
        witness.update(verts[i] for i in iter_bits(mask))
    witness = frozenset(witness)
    elapsed = time.monotonic() - start
    if timed_out:
        return DominationResult(lower=lower, upper=upper, witness=witness,
                                status="bounds_only", nodes=nodes, elapsed_s=elapsed)
    return DominationResult(lower=upper, upper=upper, witness=witness,
                            status="exact", exact=upper,
                            nodes=nodes, elapsed_s=elapsed)


def gamma_t_exhaustive(g: Graph) -> int:
    """Ground-truth gamma_t by scanning subsets in order of cardinality.

    Independent of the branch-and-bound path; limited to m <= 20 vertices.
    """
    _require_no_isolated(g)
    if g.m > EXHAUSTIVE_VERTEX_LIMIT:
        raise TooLarge(f"exhaustive search is capped at {EXHAUSTIVE_VERTEX_LIMIT} vertices")
    rows = g.rows()
    vertices = range(g.m)
    for k in range(1, g.m + 1):
        for combo in itertools.combinations(vertices, k):
            smask = 0
            for v in combo:
                smask |= 1 << v
            if all(row & smask for row in rows):
                return k
    raise AssertionError("unreachable: V itself totally dominates")


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

"""Total domination: verification, bounds, exact search, and the tight family.

A set S totally dominates G when every vertex of G, members of S included,
has a neighbor in S (open-neighborhood semantics: membership in S does not
dominate the member itself).  gamma_t(G) is the minimum size of such a set;
it is undefined for graphs with isolated vertices, which all entry points
reject.
"""

from __future__ import annotations

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
    """
    _require_no_isolated(g)
    rows = g.rows()
    full = (1 << g.m) - 1
    chosen = 0
    dominated = 0
    while dominated != full:
        undom = full ^ dominated
        best_v, best_cov = -1, 0
        for v in range(g.m):
            if (chosen >> v) & 1:
                continue
            cov = (rows[v] & undom).bit_count()
            if cov > best_cov:
                best_v, best_cov = v, cov
        chosen |= 1 << best_v
        dominated |= rows[best_v]
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
    valid total dominating set of size `upper`.
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


def exact_gamma_t(g: Graph, time_limit: float | None = None) -> DominationResult:
    """Branch-and-bound for gamma_t.

    State is (chosen bitset, dominated bitset, selectable bitset).  Branching
    is fail-first: pick the undominated vertex with the fewest selectable
    dominators and branch over its candidates in decreasing residual-coverage
    order, excluding each candidate from the subtrees of its successors.  A
    node is pruned when |chosen| plus an admissible residual covering bound
    cannot beat the incumbent.  On vertex-transitive inputs every optimum can
    be XOR-translated to contain vertex 0, so the root fixes it.

    With no time limit the result is exact.  The deadline is checked at every
    search node; on expiry the result has status "bounds_only", with the
    incumbent as `upper` and the trivial bound ceil(m / Delta) as `lower`.
    """
    _require_no_isolated(g)
    start = time.monotonic()
    deadline = None if time_limit is None else start + time_limit
    rows = g.rows()
    m = g.m
    full = (1 << m) - 1

    incumbent = greedy_upper_bound(g)
    best_size = len(incumbent)
    best_mask = mask_of(incumbent)
    lower = trivial_lower_bound(g)

    nodes = 0
    timed_out = False

    def dfs(size, chosen, dominated, selectable):
        nonlocal best_size, best_mask, nodes, timed_out
        nodes += 1
        if timed_out:
            return
        if deadline is not None and time.monotonic() > deadline:
            timed_out = True
            return
        if dominated == full:
            if size < best_size:
                best_size, best_mask = size, chosen
            return
        undom = full ^ dominated
        # fail-first: undominated vertex with the fewest remaining dominators
        branch_cands = 0
        branch_count = m + 1
        for u in iter_bits(undom):
            cands = rows[u] & selectable
            c = cands.bit_count()
            if c == 0:
                return
            if c < branch_count:
                branch_count, branch_cands = c, cands
                if c == 1:
                    break
        # admissible residual bound: fewest further picks whose combined
        # coverage could reach the undominated count (thm-hy style counting
        # on the residual, using actual residual coverages)
        need = undom.bit_count()
        coverages = sorted(
            ((rows[v] & undom).bit_count() for v in iter_bits(selectable)),
            reverse=True)
        acc = 0
        extra = 0
        for cov in coverages:
            if acc >= need:
                break
            acc += cov
            extra += 1
        if acc < need or size + extra >= best_size:
            return
        order = sorted(iter_bits(branch_cands),
                       key=lambda v: (-(rows[v] & undom).bit_count(), v))
        sel = selectable
        for v in order:
            sel &= ~(1 << v)
            dfs(size + 1, chosen | (1 << v), dominated | rows[v], sel)
            if timed_out:
                return

    if best_size > lower:
        if g.vertex_transitive:
            dfs(1, 1, rows[0], full ^ 1)
        else:
            dfs(0, 0, 0, full)

    elapsed = time.monotonic() - start
    witness = frozenset(iter_bits(best_mask))
    if timed_out:
        return DominationResult(lower=lower, upper=best_size, witness=witness,
                                status="bounds_only", nodes=nodes, elapsed_s=elapsed)
    return DominationResult(lower=best_size, upper=best_size, witness=witness,
                            status="exact", exact=best_size,
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

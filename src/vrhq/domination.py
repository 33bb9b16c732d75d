"""Total domination: verification, bounds and exact search.

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
from collections import namedtuple

from .bitops import dense_bits, iter_bits, mask_of
from .errors import IsolatedVertex, SelfCheckFailed, TooLarge
from .hypercube import Graph, hamming_labelling, vertex_transitive

EXHAUSTIVE_VERTEX_LIMIT = 20
# Set-up phases check a deadline once per this many bits of bitset work:
# most steps read one m-bit row, so a check every CHECK_BITS // m steps; a
# step of a refinement search reads up to m rows, so every
# CHECK_BITS // m^2, as does the row check that shares its clock (see
# `_search`).  Small graphs finish these phases at any time limit,
# and on large ones the clock is read well under a millisecond apart.
CHECK_BITS = 1 << 20


class _Expiry:
    """The clock of a phase whose steps each read up to `bits` bits: call it
    once per step; true once `deadline` has passed.  It reads the clock only
    every CHECK_BITS // bits calls, and never without a deadline; the search
    passes bits = CHECK_BITS, one reading per node.  Once true it stays true
    without another reading, and `late` records it, so a later phase can
    tell that this one was cut short."""

    __slots__ = ("deadline", "stride", "steps", "late")

    def __init__(self, deadline, bits):
        self.deadline = deadline
        self.stride = max(1, CHECK_BITS // bits)
        self.steps = 0
        self.late = False

    def __call__(self):
        if self.deadline is not None and not self.late:
            self.steps += 1
            self.late = not self.steps % self.stride and time.monotonic() > self.deadline
        return self.late


UNDEFINED_ON_ISOLATED = "total domination is undefined on graphs with isolated vertices"


def _require_no_isolated(g: Graph):
    if g.m == 0 or g.has_isolated_vertex():
        raise IsolatedVertex(UNDEFINED_ON_ISOLATED)


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


def greedy_upper_bound(g: Graph, deadline: float | None = None) -> frozenset[int]:
    """A total dominating set built greedily, used as the solver incumbent.

    Repeatedly add the vertex dominating the most currently undominated
    vertices, lowest index on ties.  Once every vertex has a chosen neighbour
    the set is total dominating (adjacency is symmetric, so each chosen
    vertex has a chosen neighbour too).

    The loop is lazy (Minoux's accelerated greedy): coverages only shrink,
    so a heap of stale coverages bounds every vertex from above, and a
    popped vertex whose fresh coverage still beats the heap's top is the
    vertex an eager scan would pick.

    `deadline` is a `time.monotonic()` value, checked once per
    CHECK_BITS // m steps, a step being a row counted into the heap or a
    heap pop.  Once it has passed, each vertex still undominated adds its
    lowest neighbour, which completes a valid set in one pass over the
    vertices.
    """
    _require_no_isolated(g)
    rows = g.rows()
    m = g.m
    full = (1 << m) - 1
    chosen = 0
    dominated = 0
    expired = _Expiry(deadline, m)
    # key (m - coverage) * m + v: most coverage first, then lowest index;
    # one int per vertex rather than a tuple keeps the heap small.  A build
    # cut short leaves `expired` true, so the loop completes the empty set.
    heap = []
    for v, row in enumerate(rows):
        if expired():
            break
        heap.append((m - row.bit_count()) * m + v)
    heapq.heapify(heap)
    while dominated != full:
        if expired():
            return frozenset(dense_bits(chosen)).union(
                (row & -row).bit_length() - 1 for row in dense_bits(full ^ dominated, rows))
        v = heapq.heappop(heap) % m
        key = (m - (rows[v] & ~dominated).bit_count()) * m + v
        if heap and key > heap[0]:
            heapq.heappush(heap, key)
            continue
        chosen |= 1 << v
        dominated |= rows[v]
    return frozenset(dense_bits(chosen))


class DominationResult(namedtuple("DominationResult",
                                  "lower upper witness nodes elapsed_s")):
    """Outcome of the exact solver, an immutable tuple: proven bounds
    lower <= gamma_t <= upper and a total dominating set `witness` (a
    frozenset) of size `upper`, which `exact_gamma_t` checks with
    `is_total_dominating` before it returns.

    The bounds are the only record of how far the solve got: `status` is
    "exact" and `exact` is the value when they meet, whether or not the
    search finished, else "bounds_only" and None.  A disconnected graph is
    solved one connected component at a time: `nodes` is summed over the
    components, and `lower` is the sum of each component's exact value or,
    where its search was cut short, its ceil(m_i / Delta_i).
    """

    __slots__ = ()

    def __new__(cls, lower: int, upper: int, witness: frozenset[int], nodes: int = 0,
                elapsed_s: float = 0.0):
        if lower > upper:
            raise ValueError("lower bound exceeds upper bound")
        return super().__new__(cls, lower, upper, witness, nodes, elapsed_s)

    @property
    def status(self) -> str:
        return "exact" if self.lower == self.upper else "bounds_only"

    @property
    def exact(self) -> int | None:
        return self.upper if self.lower == self.upper else None


def _components(rows, deadline=None) -> list[list[int]]:
    """Ascending vertex lists of the connected components, by bitset BFS
    over rows; each list holds the vertices its BFS took off a frontier.

    The deadline is checked every CHECK_BITS // m vertices taken off a
    frontier; once it has passed, the vertices not in a finished component
    form one last part, which need not be connected."""
    unseen = (1 << len(rows)) - 1
    comps = []
    expired = _Expiry(deadline, len(rows))
    while unseen:
        comp = unseen & -unseen
        frontier = comp
        verts = []
        while frontier:
            reach = 0
            while frontier:
                if expired():
                    comps.append(list(dense_bits(unseen)))
                    return comps
                low = frontier & -frontier
                v = low.bit_length() - 1
                verts.append(v)
                reach |= rows[v]
                frontier ^= low
            frontier = reach & ~comp
            comp |= frontier
        unseen &= ~comp
        verts.sort()
        comps.append(verts)
    return comps


def _induced(rows, verts) -> Graph:
    """The subgraph on `verts` (ascending), relabelled to 0..len(verts)-1."""
    index = {v: i for i, v in enumerate(verts)}
    return Graph([mask_of(index[w] for w in iter_bits(rows[v])) for v in verts],
                 validate=False)


def branch_or_prune(rows, undom, selectable, k):
    """One search node: (order, u), the candidates to branch over, best
    first, and the undominated vertex u whose candidates they are; None
    when no k more picks from `selectable` can dominate every vertex of
    `undom` (which is not empty).  This is the only place the search prunes.

    A pick v covers its coverage (rows[v] & undom).bit_count().  Two lower
    bounds on the picks still needed are tested against k:

    * Open packing (rho°(G) <= gamma_t(G); Henning-Yeo, *Total Domination
      in Graphs*, 2013).  Undominated vertices whose candidate sets
      rows[u] & selectable are pairwise disjoint each need a pick of their
      own, so more than k of them prune, as does k <= 0.  They are packed
      greedily by ascending candidate count, lowest index first on ties, so
      the first vertex packed is the fail-first branch vertex.  This needs
      no coverages and runs before they are computed.
    * Coverage.  Any k picks hold one vertex of each of the p packed sets,
      and those p are distinct, so the picks cover at most the largest
      coverage of each packed set plus the k - p largest coverages of the
      other selectable vertices.  That is a sum of k distinct coverages,
      so it is never above the k largest, nor above k * Delta.
    """
    # undominated vertices by ascending candidate count, lowest index first
    # on ties: the sort is stable and dense_bits yields them in ascending order
    pending = sorted(dense_bits(undom),
                     key=lambda v: (rows[v] & selectable).bit_count())
    u = pending[0]
    if not rows[u] & selectable:
        return None
    packed = []
    used = 0
    for row in map(rows.__getitem__, pending):
        if not row & used:  # used lies inside selectable
            if len(packed) >= k:
                return None
            packed.append(row)
            used |= row & selectable
            if used == selectable:
                break
    del pending
    cover = [(row & undom).bit_count() for row in rows]
    order = []
    cands = packed[0] & selectable
    while cands:
        low = cands & -cands
        cands ^= low
        order.append(low.bit_length() - 1)
    # stable, so ties keep ascending vertex order
    order.sort(key=cover.__getitem__, reverse=True)
    maxes = [cover[order[0]]]
    for row in packed[1:]:
        cands = row & selectable
        best = 0
        while cands:
            low = cands & -cands
            cands ^= low
            c = cover[low.bit_length() - 1]
            if c > best:
                best = c
        maxes.append(best)
    bound = sum(maxes)
    free = k - len(packed)
    if free:
        # the k - p largest coverages once the packed maximisers are out
        top = sorted(dense_bits(selectable, cover), reverse=True)[:k]
        for c in maxes:
            if c >= top[-1]:
                top.remove(c)
        bound += sum(top[:free])
    if bound < undom.bit_count():
        return None
    return order, u


def _refine(cells, word):
    """Split each cell (a bitset of coordinates) into its part inside the
    support of `word` and its part outside, dropping empty parts."""
    out = []
    for cell in cells:
        inside = cell & word
        if inside and inside != cell:
            out += (inside, cell ^ inside)
        else:
            out.append(cell)
    return out


def coordinate_orbits(cells, order):
    """The words of `order` grouped into orbits of the coordinate
    permutations that map every cell onto itself.

    Such a permutation moves ones only within a cell, and any arrangement of
    a cell's ones is reachable, so two words share an orbit exactly when
    they have the same number of ones in every cell.  Orbits come in the
    order of their first words in `order`, and each keeps `order`'s order.
    """
    orbits = {}
    for v in order:
        orbits.setdefault(tuple([(v & cell).bit_count() for cell in cells]), []).append(v)
    return list(orbits.values())


def _search(g: Graph, deadline):
    """Branch-and-bound on one graph; returns (lower, size, witness mask,
    nodes), with lower == size unless the search's `_Expiry` ran late.

    A node is one call dfs(size, chosen, dominated, selectable, cells) and
    holds no state beyond its arguments.  It records a leaf, or asks
    `branch_or_prune` whether any child can beat the incumbent and, if so,
    which candidates to branch over.

    A set-up phase under the deadline asks `hamming_labelling(rows)`
    whether g is some G_{n,r} or complement.  When g is a Cayley graph of
    Z_2^n on a union of weight classes in Q_n's labelling, these two among
    them, the automorphisms of Q_n preserve g:
    the translations let the root fix vertex 0, and the coordinate
    permutations are the symmetries left.  The search then branches on
    orbits (orbital branching, Ostrowski,
    Linderoth, Rossi and Smriglio, *Math. Programming* 2011).  Each node
    carries a partition of the n coordinates into cells, one cell at the
    root, and its state (chosen and selectable vertices) is invariant under
    the group H of permutations that keep every cell.  At a branch on the
    undominated vertex u the cells are refined by supp(u), which leaves
    H_u, the subgroup fixing u; the candidates fall into its orbits
    O_1, O_2, ... (`coordinate_orbits`).  Child i picks c_i, the first
    member of O_i, excludes O_1..O_{i-1} and keeps O_i - {c_i} selectable;
    its cells are refined by supp(c_i) as well, so its state is again
    invariant under its group.  Completeness: a set T that solves the
    node holds a candidate of u; let O_i be the first orbit T meets and
    t in T & O_i.  Some h in H_u maps t to c_i.  h is an automorphism that
    keeps the chosen set, the selectable set and every orbit, so h(T) is a
    solution of the same size that holds c_i and misses O_1..O_{i-1}: it
    lies in child i's subtree.  Once every cell is a single coordinate, or
    with no symmetry, the orbits are single vertices.

    When it finds a map, checked on every row, from the natural labelling
    of G_{n,r} or its complement onto g, `_search` runs on the natural
    rows, as above, and its witness is mapped back.  When it finds nothing
    and was not cut short, the phase goes on to ask `vertex_transitive`,
    true only once automorphisms it has checked put every vertex in vertex
    0's orbit; then the root fixes
    vertex 0 as on Q_n, with no cells below it: a minimum set S is not
    empty, and some automorphism maps a member of S to 0, so the image of S
    is a minimum set that holds 0.  Both checks read one `_Expiry`, and a
    check cut short claims nothing.
    """
    rows = g.rows()
    m = g.m
    full = (1 << m) - 1

    incumbent = greedy_upper_bound(g, deadline)
    best_size = len(incumbent)
    best_mask = mask_of(incumbent)
    lower = trivial_lower_bound(g)

    nodes = 0
    stop = _Expiry(deadline, CHECK_BITS)

    def dfs(size, chosen, dominated, selectable, cells):
        # cells is the coordinate partition, None once it is discrete or
        # with no symmetry
        nonlocal best_size, best_mask, nodes
        nodes += 1
        if stop():
            return
        if dominated == full:
            if size < best_size:
                best_size, best_mask = size, chosen
            return
        # a child counts only if it can beat the incumbent: at most
        # best_size - size - 1 more picks
        got = branch_or_prune(rows, full ^ dominated, selectable, best_size - size - 1)
        if got is None:
            return
        order, u = got
        if cells is not None:
            cells = _refine(cells, u)
            if len(cells) == n:
                cells = None
        for orbit in zip(order) if cells is None else coordinate_orbits(cells, order):
            c = orbit[0]
            selectable &= ~(1 << c)
            dfs(size + 1, chosen | (1 << c), dominated | rows[c], selectable,
                cells and _refine(cells, c))
            if stop.late:
                break
            # the rest of the orbit stays selectable in c's subtree only
            for v in orbit[1:]:
                selectable &= ~(1 << v)

    if best_size > lower:
        expired = _Expiry(deadline, m * m)
        found = hamming_labelling(rows, expired)
        if found and found[0]:
            natural, perm = found
            lower, size, mask, nodes = _search(natural, deadline)
            return lower, size, mask_of(perm[v] for v in dense_bits(mask)), nodes
        n = m.bit_length() - 1
        if found or not expired.late and vertex_transitive(rows, expired):
            dfs(1, 1, rows[0], full ^ 1, [(1 << n) - 1] if found else None)
        else:
            dfs(0, 0, 0, full, None)
    if not stop.late:
        lower = best_size
    return lower, best_size, best_mask, nodes


def exact_gamma_t(g: Graph, time_limit: float | None = None) -> DominationResult:
    """Branch-and-bound for gamma_t.

    State is (chosen bitset, dominated bitset, selectable bitset).  Branching
    is fail-first: pick the undominated vertex with the fewest selectable
    dominators and branch over its candidates in decreasing residual-coverage
    order, excluding each candidate from the subtrees of its successors.  A
    node is pruned, in `branch_or_prune` only, when |chosen| plus the open
    packing and coverage bound on the picks still needed cannot beat the
    incumbent.  A prune cuts only subtrees with no set smaller than the
    incumbent, so the incumbent changes at the same leaves however strong
    the bound is, and a stronger prune changes `nodes` but never the value
    or the witness.  On G_{n,r}, its complement or any Cayley graph of
    Z_2^n on a union of weight classes, in Q_n's labelling
    (`hamming_labelling`), the root fixes vertex 0 and the search branches
    on orbits of the coordinate permutations (see `_search`).  A relabelled
    one is solved in its natural labelling, in as many nodes, and its
    witness mapped back.  Any other
    graph that `vertex_transitive` proves vertex-transitive gets the root
    fixed at vertex 0 and no orbital branching.  Symmetry skips subtrees
    that hold only images of sets found elsewhere, so it cuts `nodes` and
    keeps the value; the witness is a minimum set either way, though not
    always the one the search without symmetry would return.

    gamma_t is additive over connected components, so a disconnected graph
    is solved one component at a time under the shared deadline, and the
    bounds, witnesses and node counts are summed; each component gets the
    symmetry its own rows show.

    With no time limit the result is exact.  The deadline covers everything
    after the graph is built: the component split, the greedy incumbent and
    the symmetry phase read the clock once per CHECK_BITS bits of bitset
    work, and the search at every node, each phase through its own
    `_Expiry`.  On expiry `upper` is the incumbent (completed cheaply if the
    greedy was cut short) and `lower` sums, per component, the exact value
    of one that finished or the trivial bound ceil(m_i / Delta_i); the
    result is exact when they meet.  A split cut short leaves the unsplit
    rest as one part.

    The witness is certified before it is returned: it must hold `upper`
    vertices and pass `is_total_dominating` on g.  One that fails is a
    solver bug and raises SelfCheckFailed.
    """
    _require_no_isolated(g)
    start = time.monotonic()
    deadline = None if time_limit is None else start + time_limit
    rows = g.rows()
    comps = _components(rows, deadline)
    if len(comps) == 1:
        parts = [(range(g.m), g)]
    else:
        parts = [(verts, _induced(rows, verts)) for verts in comps]
    lower = upper = nodes = 0
    witness = set()
    for verts, part in parts:
        part_lower, size, mask, part_nodes = _search(part, deadline)
        lower += part_lower
        upper += size
        nodes += part_nodes
        witness.update(verts[i] for i in dense_bits(mask))
    if len(witness) != upper or not is_total_dominating(g, witness):
        raise SelfCheckFailed(f"solver bug: the witness ({len(witness)} vertices) is "
                              f"not a total dominating set of size {upper}")
    return DominationResult(lower=lower, upper=upper, witness=frozenset(witness),
                            nodes=nodes, elapsed_s=time.monotonic() - start)


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

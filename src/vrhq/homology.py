"""Simplicial reduced homology of truncated complexes.

The default detector works over GF(2), and it ranks a small Morse complex,
not the boundary matrices.  A discrete gradient (Forman, *Adv. Math.*
1998) pairs a cell sigma with sigma + (h,), where h is the greatest vertex
above sigma[-1] that extends sigma to a simplex, whenever there is one:
the mirror image of Ripser's apparent pairs (Bauer, *J. Appl. Comput.
Topol.* 2021).  Along a gradient path the last vertex rises strictly, so
the matching is acyclic.  On a complex from `vietoris_rips` the clique
build has recorded the matching of the whole flag complex, its critical
cells and pair counts, top dimension included; on any other complex the
pairs are read off each dimension's cofaces by their heads in one dict
pass, and the top cells pair with nothing.  The Morse boundary of a
critical cell follows its gradient paths, summed in one pass over the
paired cells in decreasing order of their last vertex, and rank d_p =
pairs_p + rank of the Morse boundary in degree p: the pairs are counted,
and only the Morse columns are built.  A cycle bounds iff its image under
the flow bounds in the Morse complex, so the cycle test builds no boundary
matrix either.  One Gaussian elimination serves both: each Morse column is
packed into an integer bitset and reduced in turn.

The integer pipeline ranks the same Morse complex: one gradient walk
serves both rings, each passing in its chain arithmetic.  Over the
integers the flow and the Morse boundary take a signed facet sum, and a
pair's incidence is +-1, so each pair is a unit block and the Morse
boundary carries all the torsion.  The SNF cap bounds the critical rows
and nonzero Morse columns of each degree, and is checked before the
degree's dense matrix is built.  One sparse elimination brings that
matrix to a diagonal, taking the columns in order and pivoting each at
its entry of least absolute value, a +-1 wherever the column has one.
No homology path builds a boundary matrix: `boundary_matrix` and
`BoundaryMatrix.dense_rows` remain as the tests' full-matrix reference.

Reduced homology uses the augmentation map as the dimension-0 boundary, so
beta~_0 = components - 1 falls out of the same code path as every other
degree.  beta~_d needs simplices of dimension d + 1: asking for more than
the complex was built to is TruncationTooShallow, never a silent zero.
"""

from __future__ import annotations

from collections import deque, namedtuple
from functools import reduce
from itertools import combinations, compress, repeat
from math import gcd
from operator import itemgetter, xor

from .bitops import iter_bits, mask_of
from .complexes import SimplicialComplex
from .errors import DimensionOutOfRange, TooLarge, TruncationTooShallow

DEFAULT_SNF_CAP = 5000


class BoundaryMatrix(namedtuple("BoundaryMatrix", "n_rows columns")):
    """A sparse matrix with n_rows rows, an immutable tuple (n_rows, columns).

    `columns` holds one tuple of row indices per column.  From
    `boundary_matrix` it is the operator from p-chains to (p-1)-chains,
    rows indexed by the order of the (p-1)-simplices in the complex: entry
    t is the facet that omits vertex t of the column's simplex, and its
    sign (-1)^t is implied by the position.
    """

    __slots__ = ()

    def gf2_columns(self, units: int = 0) -> Gf2Columns:
        """The columns as a GF(2) matrix, beside `units` unit columns on
        rows of their own.  Nothing is packed here: the view keeps the
        sparse columns, and the unit columns as a count."""
        return Gf2Columns(self.n_rows, self.columns, units)

    def dense_rows(self) -> list[list[int]]:
        out = [[0] * len(self.columns) for _ in range(self.n_rows)]
        for j, col in enumerate(self.columns):
            for t, row in enumerate(col):
                out[row][j] = -1 if t & 1 else 1
        return out


def boundary_matrix(k: SimplicialComplex, p: int) -> BoundaryMatrix:
    """The matrix of the p-th boundary operator in the complex's simplex order."""
    if not 1 <= p <= k.max_dim_requested:
        raise DimensionOutOfRange(
            f"p must lie in 1..{k.max_dim_requested}, got {p}")
    row_of = k.index_map(p - 1).__getitem__
    # combinations() omits the last vertex first; reversed, entry t omits vertex t
    cols = tuple([tuple(map(row_of, combinations(simplex, p)))[::-1]
                  for simplex in k.simplices(p)])
    return BoundaryMatrix(len(k.simplices(p - 1)), cols)


class Gf2Columns:
    """Columns of a GF(2) matrix with n_rows rows, kept sparse, beside
    `units` unit columns.

    Each of `columns` is a tuple of row indices, its nonzero entries.
    Iterating packs each column into an integer, bit i for row i: the one
    place a column is packed.  The unit columns are an identity block on
    rows of their own, held as a count: each adds one to the rank, and
    none is built or packed.
    """

    __slots__ = ("n_rows", "columns", "units")

    def __init__(self, n_rows, columns, units=0):
        self.n_rows = n_rows
        self.columns = columns
        self.units = units

    def __len__(self):
        return self.units + len(self.columns)

    def __iter__(self):
        return map(mask_of, self.columns)


def _gf2_reduce(cur, pivots) -> int:
    """A packed column reduced until its leading row is no pivot's; 0 if
    it reduces to zero."""
    while cur:
        pivot = pivots.get(cur.bit_length() - 1)
        if pivot is None:
            break
        cur ^= pivot
    return cur


def _gf2_pivots(columns) -> dict:
    """Column echelon form over GF(2): packed columns keyed by leading row.

    Each column of the Gf2Columns view is packed, reduced against the
    pivots so far, and kept if anything is left.  The pivots have distinct
    leading rows and span the column space.  The number of rows bounds the
    rank, so the elimination stops at as many pivots as rows, and reads no
    column of a view with no rows.
    """
    full = columns.n_rows
    pivots = {}
    if not full:
        return pivots
    for cur in columns:
        cur = _gf2_reduce(cur, pivots)
        if cur:
            pivots[cur.bit_length() - 1] = cur
            if len(pivots) == full:
                break
    return pivots


def gf2_rank(columns) -> int:
    """Rank of a GF(2) matrix given as a Gf2Columns view."""
    return columns.units + len(_gf2_pivots(columns))


def _leads(cells) -> dict:
    """tau[:-1] -> the greatest tau[-1], over the d-cells tau in any order.

    Its keys are the (d-1)-cells sigma that some vertex h > sigma[-1]
    extends to a d-cell sigma + (h,), and the value is the greatest such
    h.  On the vertices it is {(): greatest vertex}.
    """
    lead = {}
    get = lead.get
    for tau in cells:
        head = tau[:-1]
        h = get(head)
        if h is None or tau[-1] > h:
            lead[head] = tau[-1]
    return lead


def _facet_sum(get, cell, p, sign=1) -> int:
    """The XOR of get(f) over the p-vertex facets f of cell, None read as
    0: the facet sum over GF(2), where signs vanish."""
    return reduce(xor, filter(None, map(get, combinations(cell, p))), 0)


def _signed_sum(get, cell, p, sign=1) -> dict:
    """sign * sum_t (-1)^t get(d_t cell) over the integers, d_t cell the
    facet that omits vertex t, each value a {row: coefficient} dict, None
    read as 0.  The i-th facet that combinations() yields omits vertex
    p - i, so its sign is (-1)^(p + i)."""
    out = {}
    for t, v in enumerate(map(get, combinations(cell, p)), p):
        if v:
            for i, a in v.items():
                out[i] = out.get(i, 0) + (-a if t & 1 else a)
    return {i: sign * a for i, a in out.items() if a}


# A ring's chain arithmetic for the gradient walk: F on the critical cell
# rows[i], the facet sum, a Morse column from a sum, and the zero column.
# GF(2) chains are bitsets and its columns tuples of rows; integer chains
# and columns are {row: coefficient} dicts.
_GF2 = (lambda i: 1 << i, _facet_sum, lambda v: tuple(iter_bits(v)), ())
_Z = (lambda i: {i: 1}, _signed_sum, lambda v: v, {})


def _flow(lead, rows, p, unit, facet_sum) -> dict:
    """The gradient flow F on the (p-1)-cells, nonzero values only, as
    chains on the critical cells rows, F(rows[i]) = unit(i).

    F(c) = c on a critical cell and 0 on a cell paired with a facet.  A
    cell sigma paired with tau = sigma + (h,), the facet d_p tau, maps to
    (-1)^(p+1) sum_{t<p} (-1)^t F(d_t tau), so that F(d tau) = 0.  Each
    d_t tau with t < p ends with h > sigma[-1], so the cells are taken in
    decreasing order of their last vertex and every value read is final.
    By the same ascent, F(sigma) = 0 unless some critical cell ends above
    sigma[-1], so the cells that end no lower than every critical one are
    skipped.
    """
    flow = {c: unit(i) for i, c in enumerate(rows)}
    get = flow.get
    greatest = max(c[-1] for c in rows)
    sign = (-1) ** (p + 1)
    for sigma in sorted([s for s in lead if s[-1] < greatest], key=itemgetter(-1),
                        reverse=True):
        # d_p tau is sigma itself, not yet in flow
        v = facet_sum(get, sigma + (lead[sigma],), p, sign)
        if v:
            flow[sigma] = v
    return flow


def _matching(k, top):
    """The gradient's pairs on the top-skeleton, one degree at a time.

    Yields, for p = 0..top, (pairs, lead, critical): the number of pairs
    of (p-1)- and p-cells; the pairs as a dict sigma -> h for sigma paired
    with sigma + (h,), or None where the complex does not hold it; and the
    critical p-cells, in the complex's order.  In degree 0 the empty
    simplex () pairs with the greatest vertex.

    A complex from `vietoris_rips` hands over what its build recorded: the
    matching of the whole flag complex, so a top cell that some vertex
    extends pairs with a coface that was never built.  Any other complex
    is read here: a cell is paired with a coface when it is a key of the
    next degree's `_leads`, and with a facet tau[:-1] when that maps to
    tau[-1]; a cell is in at most one pair.  Cells of dimension top pair
    with no coface, as none of theirs is read.
    """
    if k._morse is not None:
        pairs, critical = k._morse
        for p in range(top + 1):
            if p < len(pairs):
                yield pairs[p], None, critical[p]
            else:
                yield 0, None, []
        return
    lead = _leads(k.simplices(0))
    for p in range(top + 1):
        cells = k.simplices(p)
        up = _leads(k.simplices(p + 1)) if p < top else {}
        critical = []
        if len(cells) > len(up) + len(lead):
            down = lead.get
            critical = [s for s in cells if s not in up and down(s[:-1]) != s[-1]]
        yield len(lead), lead, critical
        lead = up


def _gradient(k, top, ring=_GF2):
    """The gradient on the top-skeleton (`_matching`), one degree at a
    time, with its flow and Morse boundary in the ring's chains (_GF2 or
    _Z).

    Yields, for p = 0..top, (pairs, rows, cells, columns, flow):
    - pairs, the number of pairs of degree p;
    - rows and cells, the critical (p-1)- and p-cells, in the complex's
      order; in degree 0 the empty simplex is the one possible row,
      critical only when there is no vertex;
    - columns, the Morse boundary: for each critical p-cell c, the sum
      of (-1)^t F(d_t c) over its facets, as a column on rows (a tuple
      of rows over GF(2), a {row: coefficient} dict over Z);
    - flow, F on the (p-1)-cells (`_flow`), built once in each degree
      with critical rows and columns, else {}.  There the pairs of degree
      p are read with `_leads` where `_matching` does not hold them, one
      degree's dict at a time.

    Without rows or without columns the Morse boundary is empty, and
    every column is zero.
    """
    unit, facet_sum, column, zero = ring
    rows = [] if k.simplices(0) else [()]
    for p, (pairs, lead, critical) in enumerate(_matching(k, top)):
        flow = {}
        if p and rows and critical:
            flow = _flow(_leads(k.simplices(p)) if lead is None else lead,
                         rows, p, unit, facet_sum)
            columns = [column(facet_sum(flow.get, c, p)) for c in critical]
        else:
            columns = [zero] * len(critical)
        yield pairs, rows, critical, columns, flow
        rows = critical


class BettiProfile(namedtuple("BettiProfile",
                              "reduced_betti coefficient_field truncation_dim torsion",
                              defaults=(None,))):
    """Reduced Betti numbers beta~_0..beta~_truncation_dim, an immutable
    tuple of the four fields, reduced_betti a tuple of ints.

    Over the integers, torsion[i] lists the invariant factors > 1 of the
    degree-i homology group, a tuple of tuples; over GF(2) torsion is None.
    """

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "dims": list(range(self.truncation_dim + 1)),
            "reduced_betti": list(self.reduced_betti),
            "torsion": None if self.torsion is None else [list(t) for t in self.torsion],
            "coefficients": self.coefficient_field,
            "truncation_dim": self.truncation_dim,
        }


def _check_truncation(k, up_to):
    if up_to < 0:
        raise ValueError("up_to must be >= 0")
    if k.max_dim_requested < up_to + 1:
        raise TruncationTooShallow(
            f"beta~_{up_to} needs simplices of dimension {up_to + 1}, but the "
            f"complex was built to dimension {k.max_dim_requested}")


def _reduced_betti(k, ranks) -> tuple[int, ...]:
    """beta~_i = dim ker d_i - rank d_{i+1}, with d_0 the augmentation map.

    `ranks` holds rank d_0..rank d_{up_to+1}, giving beta~_0..beta~_up_to.
    """
    return tuple(len(k.simplices(i)) - ranks[i] - ranks[i + 1]
                 for i in range(len(ranks) - 1))


def betti_gf2(k: SimplicialComplex, up_to: int) -> BettiProfile:
    """Reduced GF(2) Betti numbers beta~_0..beta~_up_to.

    The ranks of d_0..d_{up_to+1} come from the discrete gradient on the
    (up_to+1)-skeleton (`_gradient`), not from the boundary matrices.

    The matching.  Let h be the greatest vertex above sigma[-1] for which
    sigma + (h,) is a simplex.  sigma pairs with sigma + (h,) when there
    is such an h; the empty simplex pairs with the greatest vertex, which
    is the augmentation d_0.  sigma is the lexicographically least facet
    of its partner, and the partner is sigma's lexicographically greatest
    coface that ends above it, so a cell lies in at most one pair: tau
    pairs with its facet tau[:-1] only when tau[-1] is the greatest vertex
    that extends tau[:-1], and then no vertex above tau[-1] extends tau,
    or it would extend tau[:-1] too.  On a flag complex from
    `vietoris_rips` a top cell pairs even when its partner was not built:
    the matching is that of the whole complex, and d_p of the truncation
    is d_p of the whole for every p it holds.

    Acyclicity.  A step of a gradient path goes from a cell sigma up to its
    partner sigma + (h,) and down to another facet of it, which ends with
    h > sigma[-1].  The last vertex rises strictly along every path, so no
    path closes into a cycle, and by Forman's theorem the critical cells
    with the Morse boundary form a chain complex with the same homology.
    Over GF(2), with F the flow of `_flow`, the Morse boundary of a
    critical p-cell is the sum of F over its facets.

    The rank.  After a change of basis along the gradient, d_p is the
    identity on the pairs of degree p beside the Morse boundary on the
    critical (p-1)-cells, so rank d_p = pairs_p + rank of the Morse
    boundary.  Each degree hands `gf2_rank` the Morse columns, one row per
    critical (p-1)-cell, with the pairs beside them as a count of unit
    columns, so that every rank it returns is a rank of d_p, as the
    benchmark's tracer reads them.  No column is built for a pair, and a
    Morse column is only as wide as the critical rows.
    """
    _check_truncation(k, up_to)
    ranks = []
    for pairs, rows, _, columns, _ in _gradient(k, up_to + 1):
        ranks.append(gf2_rank(BoundaryMatrix(len(rows), tuple(columns))
                              .gf2_columns(pairs)))
    return BettiProfile(_reduced_betti(k, ranks), "gf2", up_to)


def _check_snf_cap(nr: int, nc: int, cap: int) -> None:
    if nr > cap or nc > cap:
        raise TooLarge(f"matrix exceeds the SNF cap of {cap}x{cap}")


def _pivots(rows, cols):
    """Pivot positions (row, column) for `_diagonalize`, each chosen after
    the previous one is eliminated.

    The columns in order; while column j is nonzero, its entry of least
    absolute value, the shortest row breaking ties.  An eliminated column
    stays zero: later pivot rows have no entry in it, and column operations
    change only the pivot row.  Column j itself can be refilled when a
    pivot moves on to a later column of its row, hence the while.
    """
    for j, col in enumerate(cols):
        while col:
            yield min(col, key=lambda i: (abs(rows[i][j]), len(rows[i]))), j


def _diagonalize(rows: list[dict[int, int]], nc: int) -> list[int]:
    """Reduce sparse rows {column: nonzero value} to a diagonal, in place.

    Returns the absolute values of the diagonal entries; `rows` is left
    empty.  For a pivot a at (i, j), row operations with floor quotients
    replace every other entry x of column j by x mod a, and rows whose
    quotient is 0 are left alone.  Once column j holds a alone, column
    operations change only row i, reducing it mod a; then row i is {j: a}
    and splits off a 1x1 block.  While entries are left in column j or in
    row i, they all have absolute value < |a|, so the least of them
    becomes the next pivot.  Each step thus either finishes a pivot or
    lowers |a|, a positive integer, and the elimination ends.  A +-1
    pivot clears its column and row in one step.
    """
    cols = [set() for _ in range(nc)]
    for i, row in enumerate(rows):
        for j in row:
            cols[j].add(i)
    diagonal = []
    for i, j in _pivots(rows, cols):
        while True:
            prow = rows[i]
            a = prow[j]
            for r in [r for r in cols[j] if r != i]:
                row = rows[r]
                q = row[j] // a
                if not q:
                    continue
                for c, b in prow.items():
                    v = row.get(c, 0) - q * b
                    if v:
                        if c not in row:
                            cols[c].add(r)
                        row[c] = v
                    else:
                        del row[c]
                        cols[c].discard(r)
            if len(cols[j]) > 1:
                i = min(cols[j] - {i}, key=lambda r: abs(rows[r][j]))
                continue
            for c in [c for c in prow if c != j]:
                v = prow[c] % a
                if v:
                    prow[c] = v
                else:
                    del prow[c]
                    cols[c].discard(i)
            if len(prow) > 1:
                j = min((c for c in prow if c != j), key=lambda c: abs(prow[c]))
                continue
            cols[j].discard(i)
            rows[i] = {}
            diagonal.append(abs(a))
            break
    return diagonal


def _invariant_factors(diagonal) -> tuple[int, ...]:
    """The divisibility chain of a diagonal matrix's nonzero entries.

    Pairwise (d_i, d_j) -> (gcd, lcm) keeps every prime's exponents and
    the product; after position i it divides all later entries.
    """
    ones = diagonal.count(1)
    d = sorted(x for x in diagonal if x > 1)
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            if d[j] % d[i]:
                g = gcd(d[i], d[j])
                d[i], d[j] = g, d[i] // g * d[j]
    return (1,) * ones + tuple(d)


def smith_normal_form(matrix, cap: int = DEFAULT_SNF_CAP,
                      units: int = 0) -> tuple[int, ...]:
    """Nonzero invariant factors d_1 | d_2 | ... of an integer matrix,
    beside `units` unit columns on rows of their own.

    One exact sparse elimination (`_diagonalize`) brings the matrix to a
    diagonal by unimodular row and column operations, pivoting each
    column in turn at its entry of least absolute value (`_pivots`).
    The diagonal's entries are then put into a divisibility chain
    (`_invariant_factors`).  The unit columns are an identity block, held
    as a count: each adds a factor 1, and none is built.  Matrices with
    more than cap rows or columns raise TooLarge.
    """
    rows = list(matrix)
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    if any(len(row) != nc for row in rows):
        raise ValueError("matrix rows must have equal length")
    _check_snf_cap(nr, nc, cap)
    sparse = [{j: a for j, v in compress(enumerate(row), row) if (a := int(v))}
              for row in rows]
    return (1,) * units + _invariant_factors(_diagonalize(sparse, nc))


def reduced_homology(k: SimplicialComplex, up_to: int, coefficients: str = "gf2",
                     snf_cap: int | None = None) -> BettiProfile:
    """Reduced homology beta~_0..beta~_up_to over GF(2) or the integers.

    Both rank the Morse complex of the discrete gradient on the
    (up_to+1)-skeleton (`_gradient`).  Over the integers the flow and the
    Morse boundary carry signs, and F is again a chain map and a homotopy
    equivalence onto the Morse complex (Forman).  After a change of basis
    along the gradient, d_p is a +-1 unit block on the pairs of degree p
    beside the Morse boundary, so each degree hands `smith_normal_form`
    the Morse boundary's nonzero columns, dense, with the pairs as a count
    of unit columns: the factors it returns are those of d_p.  Free ranks
    follow from their number, and the torsion of degree p is the factors
    > 1 of d_{p+1}.  The critical rows and nonzero columns of each degree
    are checked against snf_cap (TooLarge; DEFAULT_SNF_CAP when None)
    before its dense matrix is built; no boundary matrix is.  The cap
    bounds the integer pipeline only: with "gf2" a cap is a ValueError.
    """
    if coefficients not in ("gf2", "z"):
        raise ValueError("coefficients must be 'gf2' or 'z'")
    if coefficients == "gf2":
        if snf_cap is not None:
            raise ValueError("snf_cap caps coefficients 'z' only")
        return betti_gf2(k, up_to)
    cap = DEFAULT_SNF_CAP if snf_cap is None else snf_cap
    _check_truncation(k, up_to)
    snfs = []
    for pairs, rows, _, columns, _ in _gradient(k, up_to + 1, _Z):
        cols = list(filter(None, columns))
        _check_snf_cap(len(rows), len(cols), cap)
        dense = [list(map(dict.get, cols, repeat(i), repeat(0))) for i in range(len(rows))]
        snfs.append(smith_normal_form(dense, cap, units=pairs))
    betti = _reduced_betti(k, [len(s) for s in snfs])
    torsion = tuple(tuple(d for d in snfs[i + 1] if d > 1) for i in range(up_to + 1))
    return BettiProfile(betti, "z", up_to, torsion=torsion)


def cycle_is_gf2_boundary(k: SimplicialComplex, chain, p: int) -> bool:
    """Whether a GF(2) p-cycle bounds in the complex as built.

    The chain is an iterable of p-simplices (duplicates cancel); it must be a
    genuine cycle (boundary zero, and even vertex count when p = 0, so that
    it represents a reduced class), which its own facets decide.  Requires
    the complex built to p + 1.  The flow F of the gradient on the
    (p+1)-skeleton (`_gradient`) is a chain map onto the Morse complex and
    a homotopy equivalence (Forman), so the chain bounds iff its image,
    the XOR of F over its odd simplices, reduces to 0 against the pivots
    of the Morse boundary in degree p + 1.  On a flag complex from
    `vietoris_rips` that is the gradient of the whole complex, whose
    d_{p+1} is the truncation's.  Where the walk built no flow in degree
    p + 1, as it does only for Morse columns, F is built here.  No
    boundary matrix is built.
    """
    if p < 0:
        raise ValueError("p must be >= 0")
    _check_truncation(k, p)
    simplices = set(k.simplices(p))
    odd = set()  # the p-simplices the chain holds an odd number of times
    for simplex in chain:
        s = tuple(simplex)
        if s not in simplices:
            raise ValueError(f"{s} is not a p-simplex of the complex")
        odd ^= {s}
    # the facets the chain meets an odd number of times; a vertex's one
    # facet is the empty simplex, so at p = 0 this is the augmentation
    facets = set()
    for s in odd:
        facets.symmetric_difference_update(combinations(s, p))
    if facets:
        raise ValueError("the chain is not a cycle")
    _, rows, _, columns, flow = deque(_gradient(k, p + 1), maxlen=1)[0]
    if rows and not flow:
        flow = _flow(_leads(k.simplices(p + 1)), rows, p + 1, *_GF2[:2])
    image = reduce(xor, filter(None, map(flow.get, odd)), 0)
    return not _gf2_reduce(image, _gf2_pivots(Gf2Columns(len(rows), columns)))

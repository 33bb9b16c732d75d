"""Simplicial reduced homology of truncated complexes.

The default detector works over GF(2), and it ranks a small Morse complex,
not the boundary matrices.  A lexicographic discrete gradient (Forman,
*Adv. Math.* 1998) pairs a cell sigma with (h,) + sigma, where h is the
least vertex that extends sigma to a simplex, whenever h < sigma[0]: these
are Ripser's apparent pairs (Bauer, *J. Appl. Comput. Topol.* 2021), read
off each dimension's cofaces by their tails in one dict pass.  Along a
gradient path the first vertex falls strictly, so the matching is acyclic.
The Morse boundary of a critical cell follows its gradient paths, summed
in one pass over the paired cells in order of their first vertex, and
rank d_p = pairs_p + rank of the Morse boundary in degree p: the pairs
are counted, and only the Morse columns are built.  The ranks come from
Gaussian elimination on sparse columns: a column whose leading row is new
becomes a pivot as it is, and the rest are packed into integer bitsets and
reduced once all those are in.

An exact integer pipeline via Smith normal form gives free ranks and
torsion.  It still ranks the full boundary matrices: one sparse
elimination takes the columns in order and pivots each at its entry of
least absolute value, a +-1 wherever the column has one.  Its size cap
bounds the rows and columns of each boundary matrix and is checked
against the f-vector before any matrix is built.  The same gradient would
serve it, since a pair's incidence is +-1, once the Morse boundary carries
signs and the cap is restated on the Morse complex.

Reduced homology uses the augmentation map as the dimension-0 boundary, so
beta~_0 = components - 1 falls out of the same code path as every other
degree.  beta~_d needs simplices of dimension d + 1: asking for more than
the complex was built to is TruncationTooShallow, never a silent zero.
"""

from __future__ import annotations

from collections import namedtuple
from functools import reduce
from itertools import combinations, compress
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


def _operator(k, p):
    """d_p, with d_0 the augmentation map: one row, one column per vertex."""
    if p:
        return boundary_matrix(k, p)
    f0 = len(k.simplices(0))
    return BoundaryMatrix(1 if f0 else 0, ((0,),) * f0)


class Gf2Columns:
    """Columns of a GF(2) matrix with n_rows rows, kept sparse, beside
    `units` unit columns.

    Each of `columns` is a tuple of row indices, its nonzero entries.
    Iterating packs each column into an integer, bit i for row i.  The
    number of rows bounds the rank, so an elimination stops there.  The
    unit columns are an identity block on rows of their own, held as a
    count: each adds one to the rank, and none is built or packed.
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
    it reduces to zero.  A sparse pivot is XORed in bit by bit."""
    while cur:
        pivot = pivots.get(cur.bit_length() - 1)
        if pivot is None:
            break
        if type(pivot) is int:
            cur ^= pivot
        else:
            for i in pivot:
                cur ^= 1 << i
    return cur


def _gf2_pivots(columns) -> dict:
    """Column echelon form over GF(2): reduced columns keyed by leading row.

    `columns` is a Gf2Columns view, taken in one order whatever is asked.
    A sparse column whose leading row is not yet a pivot becomes a pivot as
    it is, never packed.  The columns that collide are reduced after all
    the others, when every pivot they could meet is in: each is packed,
    reduced, and kept packed if anything is left.  The pivots have distinct
    leading rows and span the column space.  The elimination stops at as
    many pivots as rows.
    """
    full, cols = columns.n_rows, columns.columns
    pivots = {}
    collided = []
    for j, cur in enumerate(cols):
        if not cur:
            continue
        lead = max(cur)
        if lead in pivots:
            collided.append(j)
        else:
            pivots[lead] = cur
            if len(pivots) == full:
                return pivots
    for j in collided:
        cur = _gf2_reduce(mask_of(cols[j]), pivots)
        if cur:
            pivots[cur.bit_length() - 1] = cur
            if len(pivots) == full:
                break
    return pivots


def gf2_rank(columns) -> int:
    """Rank of a GF(2) matrix given as a Gf2Columns view."""
    return columns.units + len(_gf2_pivots(columns))


def _leads(cells) -> dict:
    """tau[1:] -> the least tau[0], over the d-cells tau in any order.

    Its keys are the (d-1)-cells sigma that some vertex h < sigma[0]
    extends to a d-cell (h,) + sigma, and the value is the least such h:
    the least vertex that extends sigma at all, since any vertex above
    sigma[0] sorts after it.  On the vertices it is {(): least vertex}.
    """
    lead = {}
    get = lead.get
    for tau in cells:
        tail = tau[1:]
        h = get(tail)
        if h is None or tau[0] < h:
            lead[tail] = tau[0]
    return lead


def _facet_sum(get, cell, p) -> int:
    """The XOR of get(f) over the p-vertex facets f of cell, None read as 0."""
    return reduce(xor, filter(None, map(get, combinations(cell, p))), 0)


def _flow(lead, rows, p) -> dict:
    """The gradient flow F on the (p-1)-cells, nonzero values only, as a
    bitset with bit i for the critical cell rows[i].

    F(c) = c on a critical cell and 0 on a cell paired with a facet.  A
    cell sigma paired with tau = (h,) + sigma maps to the sum of F over
    the other facets of tau.  Each of them starts with h < sigma[0], so the
    cells are taken in order of their first vertex and every value read is
    final.  By the same descent, F(sigma) = 0 unless some critical cell
    starts below sigma[0], so the cells that start no higher than every
    critical one are skipped.
    """
    flow = {c: 1 << i for i, c in enumerate(rows)}
    get = flow.get
    least = min(c[0] for c in rows)
    for sigma in sorted([s for s in lead if s[0] > least], key=itemgetter(0)):
        # the last facet of tau that combinations() yields omits tau[0]:
        # sigma itself, not yet in flow
        v = _facet_sum(get, (lead[sigma],) + sigma, p)
        if v:
            flow[sigma] = v
    return flow


def _gradient(k, top):
    """The lexicographic gradient on the top-skeleton, one degree at a time.

    Yields, for p = 0..top, (lead, rows, cells, columns):
    - lead, the pairs of degree p: sigma -> h for each (p-1)-cell sigma
      paired with the p-cell (h,) + sigma; in degree 0 the empty simplex
      () pairs with the least vertex;
    - rows and cells, the critical (p-1)- and p-cells, in the complex's
      order;
    - columns, the Morse boundary: for each critical p-cell, the tuple of
      positions in rows of the sum of F over its facets.

    A cell is paired with a coface when it is a key of the next degree's
    lead, and with a facet tau[1:] when that maps to tau[0]; a cell is in
    at most one pair.  Cells of dimension top have no cofaces here, as the
    truncated complex has none of theirs built.  A degree with no critical
    rows or no critical cells needs no flow: its columns are zero.
    """
    lead = _leads(k.simplices(0))
    rows = [] if lead else [()]  # with no vertex, the empty simplex is critical
    for p in range(top + 1):
        cells = k.simplices(p)
        up = _leads(k.simplices(p + 1)) if p < top else {}
        critical = []
        if len(cells) > len(up) + len(lead):
            down = lead.get
            critical = [s for s in cells if s not in up and down(s[1:]) != s[0]]
        if rows and critical:
            flow = _flow(lead, rows, p).get
            columns = [tuple(iter_bits(_facet_sum(flow, c, p))) for c in critical]
        else:
            columns = [()] * len(critical)
        yield lead, rows, critical, columns
        lead, rows = up, critical


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

    The ranks of d_0..d_{up_to+1} come from the lexicographic gradient on
    the (up_to+1)-skeleton (`_gradient`), not from the boundary matrices.

    The matching.  Let h be the least vertex for which (h,) + sigma is a
    simplex.  sigma pairs with (h,) + sigma when h < sigma[0]; the empty
    simplex pairs with the least vertex, which is the augmentation d_0.
    sigma is the lexicographically largest facet of its partner, and the
    partner is sigma's lexicographically least coface, so a cell lies in
    at most one pair: tau pairs with its facet tau[1:] only when tau[0] is
    the least vertex that extends tau[1:], and then no h < tau[0] extends
    tau, or h would extend tau[1:] too.

    Acyclicity.  A step of a gradient path goes from a cell sigma up to its
    partner (h,) + sigma and down to another facet of it, which starts
    with h < sigma[0].  The first vertex falls strictly along every path,
    so no path closes into a cycle, and by Forman's theorem the critical
    cells with the Morse boundary form a chain complex with the same
    homology.  Over GF(2), with F the flow of `_flow`, the Morse boundary
    of a critical p-cell is the sum of F over its facets.

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
    for lead, rows, _, columns in _gradient(k, up_to + 1):
        ranks.append(gf2_rank(BoundaryMatrix(len(rows), tuple(columns))
                              .gf2_columns(len(lead))))
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


def smith_normal_form(matrix, cap: int = DEFAULT_SNF_CAP) -> tuple[int, ...]:
    """Nonzero invariant factors d_1 | d_2 | ... of an integer matrix.

    One exact sparse elimination (`_diagonalize`) brings the matrix to a
    diagonal by unimodular row and column operations, pivoting each
    column in turn at its entry of least absolute value (`_pivots`).
    The diagonal's entries are then put into a divisibility chain
    (`_invariant_factors`).  Matrices with more than cap rows or columns
    raise TooLarge.
    """
    rows = list(matrix)
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    if any(len(row) != nc for row in rows):
        raise ValueError("matrix rows must have equal length")
    _check_snf_cap(nr, nc, cap)
    sparse = [{j: a for j, v in compress(enumerate(row), row) if (a := int(v))}
              for row in rows]
    return _invariant_factors(_diagonalize(sparse, nc))


def reduced_homology(k: SimplicialComplex, up_to: int, coefficients: str = "gf2",
                     snf_cap: int | None = None) -> BettiProfile:
    """Reduced homology beta~_0..beta~_up_to over GF(2) or the integers.

    The integer pipeline reports free ranks plus the invariant factors > 1
    per degree; ranks come from the same Smith normal forms.  Every
    operator's shape is checked against snf_cap (TooLarge; DEFAULT_SNF_CAP
    when None) before any boundary matrix is built.  The cap bounds the
    integer pipeline only: with "gf2" a cap is a ValueError.
    """
    if coefficients not in ("gf2", "z"):
        raise ValueError("coefficients must be 'gf2' or 'z'")
    if coefficients == "gf2":
        if snf_cap is not None:
            raise ValueError("snf_cap caps coefficients 'z' only")
        return betti_gf2(k, up_to)
    if snf_cap is None:
        snf_cap = DEFAULT_SNF_CAP
    _check_truncation(k, up_to)
    f = [len(k.simplices(p)) for p in range(up_to + 2)]
    for p in range(up_to + 2):
        _check_snf_cap(f[p - 1] if p else min(f[0], 1), f[p], snf_cap)
    snfs = [smith_normal_form(_operator(k, p).dense_rows(), cap=snf_cap)
            for p in range(up_to + 2)]
    betti = _reduced_betti(k, [len(s) for s in snfs])
    torsion = tuple(tuple(d for d in snfs[i + 1] if d > 1) for i in range(up_to + 1))
    return BettiProfile(betti, "z", up_to, torsion=torsion)


def cycle_is_gf2_boundary(k: SimplicialComplex, chain, p: int) -> bool:
    """Whether a GF(2) p-cycle bounds in the complex as built.

    The chain is an iterable of p-simplices (duplicates cancel); it must be a
    genuine cycle (boundary zero, and even vertex count when p = 0, so that
    it represents a reduced class).  Requires the complex built to p + 1.
    It bounds iff, packed, it reduces to 0 against the pivots of d_{p+1},
    which have distinct leading rows and span im d_{p+1}.
    """
    if p < 0:
        raise ValueError("p must be >= 0")
    _check_truncation(k, p)
    index = k.index_map(p)
    odd = set()  # the p-simplices the chain holds an odd number of times
    for simplex in chain:
        s = tuple(simplex)
        if s not in index:
            raise ValueError(f"{s} is not a p-simplex of the complex")
        odd ^= {index[s]}
    bd = _operator(k, p).columns
    rows = set()  # the rows of d_p the chain meets an odd number of times
    for j in odd:
        rows.symmetric_difference_update(bd[j])
    if rows:
        raise ValueError("the chain is not a cycle")
    cols = boundary_matrix(k, p + 1).gf2_columns()
    return not _gf2_reduce(mask_of(odd), _gf2_pivots(cols))

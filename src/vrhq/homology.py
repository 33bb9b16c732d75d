"""Simplicial reduced homology of truncated complexes.

The default detector works over GF(2): ranks come from Gaussian elimination
on sparse columns, which is orders of magnitude faster than integer
reduction.  A column whose leading row is new becomes a pivot as it is; the
rest are packed into integer bitsets and reduced once all those are in.
Clear and compress (Chen-Kerber 2011; Bauer-Kerber-Reininghaus 2014) shrink
every matrix before it is reduced.  Clearing: a column of d_p that is the
lexicographically largest facet of some (p+1)-simplex is dropped, because
dd = 0 makes it the GF(2) sum of the simplex's other facets, all smaller;
the top degree has no cofaces built and keeps all its columns.
Compression: every degree, the top one included, drops the rows that are
pivot columns of the degree below and numbers the rest densely, so a packed
column is only as wide as the rows left.  Each elimination stops at as many
pivots as rows.  An exact integer pipeline via Smith normal form gives free
ranks and torsion: one sparse elimination takes the columns in order and
pivots each at its entry of least absolute value, a +-1 wherever the column
has one.  Its size cap bounds the rows and columns of each boundary matrix
and is checked against the f-vector before any matrix is built.

Reduced homology uses the augmentation map as the dimension-0 boundary, so
beta~_0 = components - 1 falls out of the same code path as every other
degree.  beta~_d needs simplices of dimension d + 1: asking for more than
the complex was built to is TruncationTooShallow, never a silent zero.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations, compress
from math import gcd

from .complexes import SimplicialComplex
from .errors import DimensionOutOfRange, TooLarge, TruncationTooShallow

DEFAULT_SNF_CAP = 5000


class BoundaryMatrix(namedtuple("BoundaryMatrix", "n_rows columns")):
    """The boundary operator from p-chains to (p-1)-chains, an immutable
    tuple (n_rows, columns).

    Stored sparsely: `columns` holds one tuple of row indices per column,
    rows indexed by the order of the (p-1)-simplices in the complex.  Entry
    t is the facet that omits vertex t of the column's simplex; its sign
    (-1)^t is implied by the position.
    """

    __slots__ = ()

    def gf2_columns(self, skip=frozenset(), drop=frozenset()) -> Gf2Columns:
        """The GF(2) columns left after leaving out the column indices in skip.

        The row indices in drop are left out too, and the other rows are
        renumbered densely in their order, so a packed column is only as
        wide as the kept rows up to its highest one.  Nothing is packed
        here: the view keeps the sparse columns.
        """
        bit = [-1] * self.n_rows
        for i, row in enumerate(r for r in range(self.n_rows) if r not in drop):
            bit[row] = i
        return Gf2Columns(bit, [col for j, col in enumerate(self.columns) if j not in skip])

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
    """Columns of a GF(2) matrix, kept sparse.

    `bit` renumbers the rows: bit[row] is the row's index among the kept
    rows, or -1 for a row left out.  Each of `columns` is a tuple of row
    indices, read through `bit`; its kept rows are its nonzero entries.
    Iterating packs each column into an integer, bit i for kept row i.
    The number of kept rows bounds the rank, so an elimination stops there.
    """

    __slots__ = ("bit", "columns")

    def __init__(self, bit, columns):
        self.bit = bit
        self.columns = columns

    def __len__(self):
        return len(self.columns)

    def __iter__(self):
        return map(self.pack, self.columns)

    def pack(self, col) -> int:
        v = 0
        for i in map(self.bit.__getitem__, col):
            if i >= 0:
                v |= 1 << i
        return v


def _gf2_reduce(cur, pivots, bit) -> int:
    """A packed column reduced until its leading row is no pivot's; 0 if
    it reduces to zero.  A sparse pivot is XORed in bit by bit."""
    while cur:
        pivot = pivots.get(cur.bit_length() - 1)
        if pivot is None:
            break
        if type(pivot) is int:
            cur ^= pivot
        else:
            for i in map(bit.__getitem__, pivot):
                if i >= 0:
                    cur ^= 1 << i
    return cur


def _gf2_pivots(columns, positions=None) -> dict:
    """Column echelon form over GF(2): reduced columns keyed by leading row.

    `columns` is a Gf2Columns view, taken in one order whatever is asked.
    A sparse column whose leading row is not yet a pivot becomes a pivot as
    it is, never packed.  The columns that collide are reduced after all
    the others, when every pivot they could meet is in: each is packed,
    reduced, and kept packed if anything is left.  The pivots have distinct
    leading rows and span the column space.  The elimination stops at as
    many pivots as kept rows.  If positions is a list, the position of each
    column that became a pivot is appended in that order: those columns
    span what the pivots span and are as many, so they are a basis.
    """
    bit, pack, cols = columns.bit, columns.pack, columns.columns
    full = len(bit) - bit.count(-1)  # the kept rows
    pivots = {}
    collided = []
    for j, cur in enumerate(cols):
        lead = max(map(bit.__getitem__, cur), default=-1)
        if lead in pivots:
            collided.append(j)
        elif lead >= 0:
            pivots[lead] = cur
            if positions is not None:
                positions.append(j)
            if len(pivots) == full:
                return pivots
    for j in collided:
        cur = _gf2_reduce(pack(cols[j]), pivots, bit)
        if cur:
            pivots[cur.bit_length() - 1] = cur
            if positions is not None:
                positions.append(j)
            if len(pivots) == full:
                break
    return pivots


def gf2_rank(columns, positions=None) -> int:
    """Rank of a GF(2) matrix given as a Gf2Columns view.

    If positions is a list, the positions of the columns that became
    pivots, a basis of the column space, are appended to it in the order
    `_gf2_pivots` found them.
    """
    return len(_gf2_pivots(columns, positions))


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

    Degrees run in order, and d_{p+1} is built before d_p is reduced.  Two
    reductions keep every rank while shrinking the matrices.

    Clearing.  For a (p+1)-simplex whose lexicographically largest facet is
    s (the facet that omits its lowest vertex, entry 0 of its column), dd = 0
    makes column s of d_p the sum of its other facets' columns, all
    lexicographically smaller; dropping every such s from the largest down
    never changes the rank, so only the rest of d_p is reduced.  The order
    is that of the simplices, not of their indices, so it holds in any
    simplex order.  The top degree up_to + 1 has no cofaces built and keeps
    all its columns.

    Compression.  Let N_p be the columns of d_p that became pivots in its
    elimination, and let P drop the rows indexed by N_p.  d_{p+1} is reduced
    as P d_{p+1}, its other rows renumbered densely.  N_p is a set of
    linearly independent columns of d_p (they are independent after d_p's
    own rows were dropped, hence before), so a vector of ker d_p supported
    inside N_p is a dependency among them and is 0: P is injective on
    ker d_p.  That subspace contains im d_{p+1}, so rank P d_{p+1} =
    rank d_{p+1}.  Clearing still holds on the projected matrix, since the
    relation that makes a column the sum of smaller ones survives P.  The
    rows left number f_p - rank d_p = dim ker d_p, which bounds
    rank d_{p+1}: the elimination stops once it has that many pivots, the
    case beta~_p = 0.  The top degree needs no N_p: it asks for the rank.
    """
    _check_truncation(k, up_to)
    ranks = []
    bm = _operator(k, 0)
    drop = frozenset()  # N_{p-1}, the rows of d_p that P leaves out
    for p in range(up_to + 1):
        nxt = boundary_matrix(k, p + 1)
        cleared = {col[0] for col in nxt.columns}
        kept = [j for j in range(len(bm.columns)) if j not in cleared]
        positions = []
        ranks.append(gf2_rank(bm.gf2_columns(cleared, drop), positions))
        drop = {kept[i] for i in positions}
        bm = nxt
    # the top degree has no cofaces built: every column, and only the rank
    ranks.append(gf2_rank(bm.gf2_columns(drop=drop)))
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
    return not _gf2_reduce(cols.pack(odd), _gf2_pivots(cols), cols.bit)

"""Simplicial reduced homology of truncated complexes.

The default detector works over GF(2): boundary matrices become bit-packed
integer columns and ranks come from Gaussian elimination, which is orders of
magnitude faster than integer reduction.  An exact integer pipeline via
Smith normal form is available for free ranks and torsion on size-capped
matrices.

Reduced homology uses the augmentation map as the dimension-0 boundary, so
beta~_0 = components - 1 falls out of the same code path as every other
degree.  beta~_d needs simplices of dimension d + 1: asking for more than
the complex was built to is TruncationTooShallow, never a silent zero.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import SimplicialComplex
from .errors import DimensionOutOfRange, TooLarge, TruncationTooShallow

DEFAULT_SNF_CAP = 5000


@dataclass(frozen=True)
class BoundaryMatrix:
    """The boundary operator from p-chains to (p-1)-chains.

    Stored sparsely: one (row, sign) list per column, rows indexed by the
    canonical order of (p-1)-simplices.  Signs alternate with the position of
    the omitted vertex.  p = 0 encodes the augmentation map onto a single row.
    """

    p: int
    n_rows: int
    n_cols: int
    columns: tuple[tuple[tuple[int, int], ...], ...]

    def gf2_columns(self) -> list[int]:
        return [sum(1 << row for row, _ in col) for col in self.columns]

    def dense_rows(self) -> list[list[int]]:
        out = [[0] * self.n_cols for _ in range(self.n_rows)]
        for j, col in enumerate(self.columns):
            for row, sign in col:
                out[row][j] = sign
        return out


def boundary_matrix(k: SimplicialComplex, p: int) -> BoundaryMatrix:
    """The matrix of the p-th boundary operator in canonical simplex order."""
    if not 1 <= p <= k.max_dim_requested:
        raise DimensionOutOfRange(
            f"p must lie in 1..{k.max_dim_requested}, got {p}")
    row_index = k.index_map(p - 1)
    cols = []
    for simplex in k.simplices(p):
        entries = []
        for j in range(len(simplex)):
            facet = simplex[:j] + simplex[j + 1:]
            entries.append((row_index[facet], 1 if j % 2 == 0 else -1))
        cols.append(tuple(entries))
    return BoundaryMatrix(p, len(k.simplices(p - 1)), len(cols), tuple(cols))


def _augmentation_matrix(k: SimplicialComplex) -> BoundaryMatrix:
    f0 = len(k.simplices(0))
    return BoundaryMatrix(0, 1 if f0 else 0, f0, tuple(((0, 1),) for _ in range(f0)))


def _operator(k, p):
    return _augmentation_matrix(k) if p == 0 else boundary_matrix(k, p)


def _gf2_pivots(columns) -> dict[int, int]:
    """Column echelon form over GF(2): reduced columns keyed by leading row."""
    pivots = {}
    for col in columns:
        cur = col
        while cur:
            lead = cur.bit_length() - 1
            if lead in pivots:
                cur ^= pivots[lead]
            else:
                pivots[lead] = cur
                break
    return pivots


def gf2_rank(columns) -> int:
    """Rank of a GF(2) matrix given as bit-packed columns."""
    return len(_gf2_pivots(columns))


@dataclass(frozen=True)
class BettiProfile:
    """Reduced Betti numbers beta~_0..beta~_truncation_dim.

    Over the integers, torsion[i] lists the invariant factors > 1 of the
    degree-i homology group; over GF(2) torsion is None.
    """

    reduced_betti: tuple[int, ...]
    coefficient_field: str
    truncation_dim: int
    torsion: tuple[tuple[int, ...], ...] | None = None

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
    f = k.f_vector()
    return tuple(f[i] - ranks[i] - ranks[i + 1] for i in range(len(ranks) - 1))


def betti_gf2(k: SimplicialComplex, up_to: int) -> BettiProfile:
    """Reduced GF(2) Betti numbers beta~_0..beta~_up_to."""
    _check_truncation(k, up_to)
    ranks = [gf2_rank(_operator(k, p).gf2_columns()) for p in range(up_to + 2)]
    return BettiProfile(_reduced_betti(k, ranks), "gf2", up_to)


def smith_normal_form(matrix, cap: int = DEFAULT_SNF_CAP) -> tuple[int, ...]:
    """Nonzero invariant factors d_1 | d_2 | ... of an integer matrix.

    Exact unbounded-integer reduction with smallest-pivot selection; the
    divisibility chain is enforced before each pivot is finalized.  Matrices
    larger than cap x cap raise TooLarge.
    """
    rows = [list(map(int, row)) for row in matrix]
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    if any(len(row) != nc for row in rows):
        raise ValueError("matrix rows must have equal length")
    if nr > cap or nc > cap:
        raise TooLarge(f"matrix exceeds the SNF cap of {cap}x{cap}")

    factors = []
    t = 0
    while t < min(nr, nc):
        # smallest nonzero entry of the trailing submatrix becomes the pivot
        pr = pc = -1
        pv = 0
        for i in range(t, nr):
            for j in range(t, nc):
                a = abs(rows[i][j])
                if a and (pv == 0 or a < pv):
                    pv, pr, pc = a, i, j
        if pv == 0:
            break
        rows[t], rows[pr] = rows[pr], rows[t]
        for row in rows:
            row[t], row[pc] = row[pc], row[t]
        if rows[t][t] < 0:
            rows[t] = [-a for a in rows[t]]

        while True:
            pivot = rows[t][t]
            moved = False
            for i in range(t + 1, nr):
                if rows[i][t] % pivot:
                    q = rows[i][t] // pivot
                    rows[i] = [a - q * b for a, b in zip(rows[i], rows[t])]
                    rows[t], rows[i] = rows[i], rows[t]
                    moved = True
                    break
            if moved:
                continue
            for j in range(t + 1, nc):
                if rows[t][j] % pivot:
                    q = rows[t][j] // pivot
                    for row in rows:
                        row[j] -= q * row[t]
                    for row in rows:
                        row[t], row[j] = row[j], row[t]
                    moved = True
                    break
            if moved:
                continue
            for i in range(t + 1, nr):
                if rows[i][t]:
                    q = rows[i][t] // pivot
                    rows[i] = [a - q * b for a, b in zip(rows[i], rows[t])]
            for j in range(t + 1, nc):
                if rows[t][j]:
                    q = rows[t][j] // pivot
                    for row in rows:
                        row[j] -= q * row[t]
            offender = None
            for i in range(t + 1, nr):
                for j in range(t + 1, nc):
                    if rows[i][j] % pivot:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            rows[t] = [a + b for a, b in zip(rows[t], rows[offender])]
        factors.append(abs(rows[t][t]))
        t += 1
    return tuple(factors)


def reduced_homology(k: SimplicialComplex, up_to: int, coefficients: str = "gf2",
                     snf_cap: int = DEFAULT_SNF_CAP) -> BettiProfile:
    """Reduced homology beta~_0..beta~_up_to over GF(2) or the integers.

    The integer pipeline reports free ranks plus the invariant factors > 1
    per degree; ranks come from the same Smith normal forms.
    """
    if coefficients not in ("gf2", "z"):
        raise ValueError("coefficients must be 'gf2' or 'z'")
    if coefficients == "gf2":
        return betti_gf2(k, up_to)
    _check_truncation(k, up_to)
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
    """
    if p < 0:
        raise ValueError("p must be >= 0")
    _check_truncation(k, p)
    index = k.index_map(p)
    vec = 0
    for simplex in chain:
        s = tuple(simplex)
        if s not in index:
            raise ValueError(f"{s} is not a p-simplex of the complex")
        vec ^= 1 << index[s]
    bd_cols = _operator(k, p).gf2_columns()
    bd = 0
    rest = vec
    while rest:
        low = rest & -rest
        bd ^= bd_cols[low.bit_length() - 1]
        rest ^= low
    if bd:
        raise ValueError("the chain is not a cycle")
    # vec bounds iff reducing it against the pivots of d_{p+1} adds no pivot
    pivots = _gf2_pivots(boundary_matrix(k, p + 1).gf2_columns())
    return len(_gf2_pivots([*pivots.values(), vec])) == len(pivots)

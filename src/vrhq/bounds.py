"""Exact arithmetic for the connectivity lower bound of VR(Q_n; r).

Everything here is pure unbounded-integer arithmetic.  The central quantity
is the ratio

    alpha(n, r) = 2^(n-1) / sum_{i=r+1..n} C(n, i)

whose denominator is the degree of every vertex of the distance->=r+1 graph
on Q_n.  The complex VR(Q_n; r) is guaranteed (k-1)-connected where k is the
largest integer strictly below alpha (k = alpha - 1 when alpha is an
integer, floor(alpha) otherwise), that is c = ceil(alpha) - 2.

Every binomial sum comes from one generator, `_running_tails`, which for
each n walks r upwards from 0: the tail starts at 2^n - 1 and drops by the
next binomial, itself advanced by its ratio C(n, r+1) = C(n, r) * (n-r) /
(r+1), one small-factor update per step.  Every reader stops the walk as
soon as it has what it asked for.  A single pair (`tail_degree`, `alpha`)
walks only to the shorter side of the row, at most n/2 + 1 steps.  A grid
up to N (`grid_table`, `counterexample_scan`, `consistency_check_2r`) costs
O(N^2) big-integer steps, or O(N R) when `grid_table` stops each row at
r_max = R.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import islice

from .errors import DegenerateScale
from .hypercube import validate_pair


def _running_tails(n: int):
    """Yield sum_{i=r+1..n} C(n, i) for r = 0 up to n - 1, subtracting each
    binomial C(n, r+1) = C(n, r) * (n-r) / (r+1) as the walk reaches it."""
    tail = (1 << n) - 1
    b = 1  # C(n, r), starting from C(n, 0)
    for r in range(n):
        yield tail
        b = b * (n - r) // (r + 1)
        tail -= b


def tail_degree(n: int, r: int) -> int:
    """sum_{i=r+1..n} C(n, i): the degree of every vertex of the complement
    graph on Q_n at scale r.  Zero when r >= n (empty sum).  Walks whichever
    side of the row of binomials has fewer terms: the head sum_{i<=r} C(n, i)
    is the tail at n - r - 1 by symmetry, and the row sums to 2^n."""
    validate_pair(n, r)
    if r >= n:
        return 0
    steps = min(r, n - 1 - r)
    walked = next(islice(_running_tails(n), steps, None))
    return walked if steps == r else (1 << n) - walked


class ExactRatio(namedtuple("ExactRatio", "numerator denominator")):
    """A non-negative rational, stored unreduced as computed.  Instances are
    immutable tuples (numerator, denominator) and compare field by field,
    so ExactRatio(64, 8) != ExactRatio(8, 1)."""

    __slots__ = ()

    def __new__(cls, numerator: int, denominator: int):
        if denominator <= 0:
            raise ValueError("denominator must be positive")
        if numerator < 0:
            raise ValueError("numerator must be non-negative")
        return super().__new__(cls, numerator, denominator)

    @property
    def is_integer(self) -> bool:
        return self.numerator % self.denominator == 0


def alpha(n: int, r: int) -> ExactRatio:
    """The exact ratio 2^(n-1) / tail_degree(n, r), stored unreduced.

    Raises DegenerateScale when r >= n: the denominator would be zero
    (the complement graph is all isolated vertices)."""
    validate_pair(n, r)
    if r >= n:
        raise DegenerateScale(f"alpha({n}, {r}) undefined: requires r <= n - 1")
    return ExactRatio(1 << (n - 1), tail_degree(n, r))


def connectivity_lower_bound(n: int, r: int) -> int | None:
    """The guaranteed connectivity c of VR(Q_n; r), or None: contractible.

    For r >= n every pair of vertices is within distance r, the complex is
    the full simplex on 2^n vertices, and the answer is None.  Otherwise k
    is the largest integer strictly below alpha(n, r) and the complex is
    (k-1)-connected: c = k - 1 >= -1, and c = -1 says only that it is
    nonempty."""
    validate_pair(n, r)
    if r >= n:
        return None
    a = alpha(n, r)
    return rounded_connectivity(a.numerator, a.denominator)


def rounded_connectivity(half_order: int, tail: int) -> int:
    """c = ceil(alpha) - 2 for alpha = half_order / tail = 2^(n-1) / tail_degree.

    Meshulam (Domination numbers and homology, JCTA 2003): the independence
    complex Ind(G) is (ceil(gamma_t(G) / 2) - 2)-connected.  VR(Q_n; r) is
    Ind(Gc_{n,r}), and the sphere-covering count gives gamma_t(Gc_{n,r}) >=
    2^n / tail = 2 alpha, so gamma_t >= ceil(2 alpha) and the complex is
    (ceil(ceil(2 alpha) / 2) - 2) = (ceil(alpha) - 2)-connected.  This is
    k - 1 for k the largest integer strictly below alpha."""
    q, rem = divmod(half_order, tail)
    return q + (rem != 0) - 2


# Published example values for (n, r, connectivity).  Exact evaluation
# disagrees with the printed value on the last row: floor(2^19 / 21) - 1
# = 24965, not 24964.  reference_table() flags it instead of correcting it.
PUBLISHED_ROWS = (
    (7, 5, 6),
    (8, 6, 13),
    (9, 7, 24),
    (12, 10, 156),
    (18, 15, 761),
    (18, 16, 6897),
    (20, 16, 387),
    (20, 18, 24964),
)


def reference_table() -> list[tuple[int, int, int, int]]:
    """(n, r, c, printed) for the eight published example rows: c is the
    recomputed bound, printed the published value; they agree when equal."""
    return [(n, r, connectivity_lower_bound(n, r), printed)
            for n, r, printed in PUBLISHED_ROWS]


def published_value(n: int, r: int) -> int | None:
    """The printed connectivity for (n, r) if it is one of the published rows."""
    for pn, pr, pc in PUBLISHED_ROWS:
        if (pn, pr) == (n, r):
            return pc
    return None


def _grid(n_lo: int, n_max: int, r_max: int | None = None):
    """Yield (n, r, c) for n_lo <= n <= n_max and 0 <= r <= min(r_max, n - 1),
    ascending in n, then in r; c is the bound of connectivity_lower_bound,
    from one running tail per n, walked no further than r_max."""
    for n in range(n_lo, n_max + 1):
        top = n - 1 if r_max is None else min(r_max, n - 1)
        half_order = 1 << (n - 1)
        # range first: zip stops before drawing a tail past top
        for r, tail in zip(range(top + 1), _running_tails(n)):
            yield n, r, rounded_connectivity(half_order, tail)


def grid_table(n_max: int, r_max: int | None = None) -> list[tuple[int, int, int]]:
    """(n, r, c) for every pair 1 <= n <= n_max, 0 <= r <= min(r_max, n - 1)."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if r_max is not None and r_max < 0:
        raise ValueError("r_max must be >= 0")
    return list(_grid(1, n_max, r_max))


def counterexample_scan(n_max: int) -> list[tuple[int, int, int]]:
    """All (n, r, c) with 2 <= n <= n_max, n >= r + 2 and bound c >= r + 1.

    Such a bound forces H~_{r+1}(VR(Q_n; r)) = 0, so the reduced homology of
    the complex cannot be concentrated exactly in dimension r + 1."""
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    return [(n, r, c) for n, r, c in _grid(2, n_max)
            if r <= n - 2 and c >= r + 1]


def consistency_check_2r(n_max: int) -> list[tuple[int, int, int]]:
    """Violations of c <= 2^r - 2 over the grid r >= 1, n >= r + 2, n <= n_max.

    A bound c > 2^r - 2 would force H~_{2^r - 1} = 0, contradicting the known
    nonvanishing of homology in that dimension; the returned list is expected
    to be empty."""
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    return [(n, r, c) for n, r, c in _grid(3, n_max)
            if 1 <= r <= n - 2 and c > (1 << r) - 2]

"""Independent checks of vrhq outputs.

Nothing here imports vrhq.  Every expected value comes from arithmetic done
in this file, from a property the method must have, or from the literature:

* the connectivity bound is recomputed with running suffix sums of
  binomials, c = k - 1 where k is the largest integer strictly below
  2^(n-1) / sum_{i>r} C(n, i);
* total domination witnesses are rechecked against the plain Hamming
  predicate d(u, s) >= r + 1, and exact values against the covering-code
  values K(n, n-r-1) of Cohen-Honkala-Litsyn-Lobstein, *Covering Codes*
  (1997), using gamma_t(Gc_{n,r}) = K(n, n-r-1);
* Betti numbers of VR(Q_n; 2) follow the wedge-of-3-spheres closed form of
  Adamaszek-Adams (JACT 2022); RP^2 and the torus have textbook homology;
  Z and GF(2) results must agree by the universal coefficient theorem.

Each check raises CheckFailed with a message naming what disagreed.
"""

from __future__ import annotations

import csv
import io
import json
import math

# Rows printed in the paper as (n, r, connectivity).  The printed value for
# (20, 18) is 24964; exact evaluation gives floor(2^19 / 21) - 1 = 24965.
PAPER_ROWS = ((7, 5, 6), (8, 6, 13), (9, 7, 24), (12, 10, 156), (18, 15, 761),
              (18, 16, 6897), (20, 16, 387), (20, 18, 24964))

# Minimum binary covering codes K(n, R), Covering Codes (1997), Table 6.1.
COVERING_CODES = {(5, 1): 7, (6, 1): 12, (7, 2): 7, (8, 3): 4}

# 6-vertex real projective plane (hemi-icosahedron) and the 7-vertex
# Moebius-Csaszar torus, as lists of triangles.
RP2_TRIANGLES = ((0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 5),
                 (1, 2, 5), (1, 3, 4), (1, 4, 5), (2, 3, 4), (2, 3, 5))
TORUS_TRIANGLES = tuple(tuple(sorted((i % 7, (i + a) % 7, (i + 3) % 7)))
                        for i in range(7) for a in (1, 2))


class CheckFailed(Exception):
    """An output of the program disagrees with the independent computation."""


def expect(condition, message):
    if not condition:
        raise CheckFailed(message)


def envelope(text):
    """Parse a JSON envelope and return its result, requiring status ok."""
    try:
        env = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from None
    expect(env.get("status") == "ok", f"status is {env.get('status')!r}")
    return env


# --- the connectivity bound -------------------------------------------------

def bound_row(n):
    """Connectivity bounds c(n, r) for r = 0..n-1, from suffix sums."""
    binom = [1] * (n + 1)
    for i in range(n):
        binom[i + 1] = binom[i] * (n - i) // (i + 1)
    num = 1 << (n - 1)
    out = [0] * n
    tail = 0
    for r in range(n - 1, -1, -1):
        tail += binom[r + 1]
        out[r] = (num - 1) // tail - 1
    return out


def bound(n, r):
    return bound_row(n)[r]


def tail_degree(n, r):
    return sum(math.comb(n, i) for i in range(r + 1, n + 1))


def check_table_csv(text, n_max):
    """`table --n-max N --format csv`: every row recomputed, plus c <= 2^r - 2."""
    rows = list(csv.reader(io.StringIO(text)))
    expect(rows and rows[0] == ["n", "r", "connectivity", "printed", "agrees"],
           f"unexpected CSV header {rows[:1]}")
    body = rows[1:]
    expect(len(body) == n_max * (n_max + 1) // 2,
           f"{len(body)} rows for n_max {n_max}")
    i = 0
    for n in range(1, n_max + 1):
        for r, c in enumerate(bound_row(n)):
            row = body[i]
            i += 1
            expect(row == [str(n), str(r), str(c), "", ""],
                   f"row {row} differs from (n={n}, r={r}, c={c})")
            expect(r == 0 or c <= (1 << r) - 2,
                   f"c({n},{r}) = {c} exceeds 2^r - 2")


def check_counterexamples(text, n_max):
    """The reported pairs are exactly the grid pairs with c >= r + 1."""
    result = envelope(text)["result"]
    want = [{"n": n, "r": r, "connectivity": c}
            for n in range(2, n_max + 1)
            for r, c in enumerate(bound_row(n)[:n - 1]) if c >= r + 1]
    expect(result["n_max"] == n_max, "n_max not echoed")
    expect(result["pairs"] == want,
           f"{len(result['pairs'])} pairs reported, {len(want)} expected")


def check_paper_table(text):
    """The eight published rows: computed values exact, (20, 18) flagged."""
    rows = envelope(text)["result"]["rows"]
    expect(len(rows) == len(PAPER_ROWS), f"{len(rows)} paper rows")
    for row, (n, r, printed) in zip(rows, PAPER_ROWS):
        c = bound(n, r)
        expect((row["n"], row["r"], row["printed"]) == (n, r, printed),
               f"paper row {row} is not ({n}, {r}, {printed})")
        expect(row["connectivity"] == c, f"c({n},{r}) = {row['connectivity']}, want {c}")
        expect(row["agrees"] == (c == printed), f"agreement flag wrong for ({n},{r})")
    expect(bound(20, 18) == 24965, "exact c(20,18) must be 24965")


def check_bound(text, n, r):
    result = envelope(text)["result"]
    c = bound(n, r)
    alpha = result["alpha"]
    expect(alpha["numerator"] * tail_degree(n, r)
           == alpha["denominator"] * (1 << (n - 1)),
           f"alpha({n},{r}) = {alpha} is not 2^(n-1)/tail")
    expect(result["connectivity"] == c and result["k"] == c + 1,
           f"bound({n},{r}) = {result['connectivity']}, want {c}")
    printed = {(pn, pr): pc for pn, pr, pc in PAPER_ROWS}.get((n, r))
    want = None if printed in (None, c) else {"printed": printed, "computed": c}
    expect(result["paper_discrepancy"] == want,
           f"paper_discrepancy {result['paper_discrepancy']}, want {want}")


# --- total domination -------------------------------------------------------

def far(u, v, r):
    return (u ^ v).bit_count() > r


def dominates(n, r, witness):
    """Every vertex of Q_n has a member of `witness` at distance >= r + 1."""
    ws = list(witness)
    return bool(ws) and all(any(far(u, s, r) for s in ws) for u in range(1 << n))


def gc_dimacs(n, r, perm):
    """DIMACS text of Gc_{n,r} with vertex v renamed perm[v]."""
    m = 1 << n
    edges = sorted(tuple(sorted((perm[u], perm[v])))
                   for u in range(m) for v in range(u + 1, m) if far(u, v, r))
    lines = [f"c Gc({n},{r}) relabelled", f"p edge {m} {len(edges)}"]
    lines += [f"e {a + 1} {b + 1}" for a, b in edges]
    return "\n".join(lines) + "\n"


def check_gamma_t_exact(text, n, r, relabel=None):
    """Exact value equals K(n, n-r-1); the witness dominates Gc_{n,r}.

    `relabel` maps the solver's vertex ids back to Q_n labels when the
    input was a relabelled DIMACS copy."""
    result = envelope(text)["result"]
    want = COVERING_CODES[(n, n - r - 1)]
    expect(result["status"] == "exact", f"status {result['status']}")
    expect(result["exact"] == result["lower"] == result["upper"] == want,
           f"gamma_t(Gc({n},{r})) reported {result['exact']}, want K = {want}")
    witness = result["witness"]
    expect(len(set(witness)) == len(witness) == want,
           f"witness has {len(witness)} vertices, value is {want}")
    labels = witness if relabel is None else [relabel[w] for w in witness]
    expect(dominates(n, r, labels), f"witness does not dominate Gc({n},{r})")
    return result


def check_gamma_t_bounds(text, n, r, time_limit, slack):
    """A time-limited run: its bounds must be sound whatever the time.
    Returns True when the run overran its limit by more than `slack`."""
    env = envelope(text)
    result = env["result"]
    lower, upper, witness = result["lower"], result["upper"], result["witness"]
    expect(lower <= upper, f"lower {lower} > upper {upper}")
    expect(len(set(witness)) == len(witness) == upper,
           f"witness size {len(witness)} != upper {upper}")
    expect(lower >= -(-(1 << n) // tail_degree(n, r)),
           f"lower {lower} below ceil(2^n / degree)")
    expect(dominates(n, r, witness), f"witness does not dominate Gc({n},{r})")
    return env["provenance"]["wall_clock"]["elapsed_s"] > time_limit + slack


def check_witness(text, n, r, vertices):
    """The three verdict bits, recomputed with the plain distance predicate."""
    result = envelope(text)["result"]
    far_pairs = [(a, b) for i, a in enumerate(sorted(vertices))
                 for b in sorted(vertices)[i + 1:] if far(a, b, r)]
    partners = {v: 0 for v in vertices}
    for a, b in far_pairs:
        partners[a] += 1
        partners[b] += 1
    matching = all(d <= 1 for d in partners.values())
    boundary = bool(vertices) and all(d == 1 for d in partners.values())
    got = (result["is_matching_complement"], result["is_cross_polytope_boundary"],
           result["is_total_dominating_in_complement"])
    want = (matching, boundary, dominates(n, r, vertices))
    expect(got == want, f"witness verdicts {got}, want {want}")
    if boundary:
        expect([tuple(p) for p in result["recovered_pairs"]] == far_pairs,
               "recovered pairs differ from the far pairs")


# --- homology ---------------------------------------------------------------

def adamaszek_adams_beta3(n):
    """Rank of H~_3(VR(Q_n; 2)), a wedge of 3-spheres (Adamaszek-Adams)."""
    return sum((j + 1) * ((1 << (n - 2)) - (1 << (i - 1)))
               for i in range(1, n) for j in range(i))


def vr_r2_betti(n, up_to):
    return tuple(adamaszek_adams_beta3(n) if d == 3 else 0 for d in range(up_to + 1))


def homology_result(text, up_to, coefficients):
    result = envelope(text)["result"]
    expect(result["dims"] == list(range(up_to + 1)), f"dims {result['dims']}")
    expect(result["coefficients"] == coefficients,
           f"coefficients {result['coefficients']}")
    return result


def check_betti(text, up_to, coefficients, betti, torsion=None):
    """Reduced Betti numbers (and, over Z, torsion factors) as given."""
    result = homology_result(text, up_to, coefficients)
    expect(tuple(result["reduced_betti"]) == tuple(betti),
           f"reduced Betti {result['reduced_betti']}, want {list(betti)}")
    if coefficients == "z":
        want = [list(t) for t in (torsion or [()] * (up_to + 1))]
        expect(result["torsion"] == want, f"torsion {result['torsion']}, want {want}")
    return result


def check_bound_zeros(result, n, r):
    """beta~_i = 0 for every i at or below the paper's bound c(n, r)."""
    c = bound(n, r)
    nonzero = [i for i, b in enumerate(result["reduced_betti"]) if i <= c and b]
    expect(not nonzero, f"beta~_{nonzero} nonzero at or below c({n},{r}) = {c}")


def check_uct(z_result, gf2_result):
    """dim H~_i(K; GF(2)) = b_i + t_i + t_{i-1}, t_i the even torsion factors."""
    z_betti, torsion = z_result["reduced_betti"], z_result["torsion"]
    even = [sum(1 for d in t if d % 2 == 0) for t in torsion]
    want = [b + even[i] + (even[i - 1] if i else 0) for i, b in enumerate(z_betti)]
    expect(gf2_result["reduced_betti"] == want,
           f"GF(2) Betti {gf2_result['reduced_betti']} but Z gives {want}")


def check_complex(text, n, r, max_dim, f_vector):
    """`complex` output: f-vector equal to an independent clique count, with
    f_0 = 2^n and f_1 = 2^(n-1) sum_{1<=i<=r} C(n, i)."""
    result = envelope(text)["result"]
    f = result["f_vector"]
    expect(f[0] == 1 << n, f"f_0 = {f[0]}, want 2^{n}")
    edges = (1 << (n - 1)) * sum(math.comb(n, i) for i in range(1, r + 1))
    expect(f[1] == edges, f"f_1 = {f[1]}, want {edges}")
    expect(f == list(f_vector), f"f-vector {f}, want {list(f_vector)}")
    expect(result["simplex_count"] == sum(f), "simplex_count is not the f-vector sum")
    expect(result["euler_characteristic"] == sum((-1) ** d * x for d, x in enumerate(f)),
           "Euler characteristic is not the alternating f-vector sum")


def vr_simplices(n, r, max_dim):
    """Simplices of VR(Q_n; r) up to max_dim by dimension, each a sorted
    vertex tuple, by direct clique search."""
    by_dim = [[] for _ in range(max_dim + 1)]

    def grow(simplex, cands):
        by_dim[len(simplex) - 1].append(simplex)
        if len(simplex) <= max_dim:
            for i, w in enumerate(cands):
                grow(simplex + (w,), [x for x in cands[i + 1:] if (w ^ x).bit_count() <= r])

    m = 1 << n
    for v in range(m):
        grow((v,), [w for w in range(v + 1, m) if (v ^ w).bit_count() <= r])
    return by_dim


def vr_f_vector(n, r, max_dim):
    return tuple(len(bucket) for bucket in vr_simplices(n, r, max_dim))


def complex_file(triangles, perm, max_dim=3):
    """A complex file for the closure of `triangles`, vertices renamed by
    `perm`; the header dimension lets homology reach degree max_dim - 1."""
    faces = set()
    for tri in triangles:
        t = tuple(sorted(perm[v] for v in tri))
        faces.update([(t[0],), (t[1],), (t[2],), (t[0], t[1]), (t[0], t[2]),
                      (t[1], t[2]), t])
    lines = [f"dim {max_dim} vertices {len(perm)}"]
    lines += [" ".join(map(str, s)) for s in sorted(faces, key=lambda s: (len(s), s))]
    return "\n".join(lines) + "\n"

"""The four benchmark workloads, as groups of vrhq CLI operations.

A group's operations run in the order listed and one check covers all their
outputs, so a check can compare operations (a file round trip against the
direct build, Z against GF(2)).  Checks raise checks.CheckFailed on a wrong
output and return how many of the group's operations failed in a way the
benchmark expects (the known deadline overrun in gamma-t).

The seed varies the witness translation, the complex-file relabelling, the
`bound` pairs and the operation order; every seed yields the same
operations in the same number.  The DIMACS relabellings are fixed (see
DIMACS_SEED).
"""

from __future__ import annotations

import functools
import os
import random
from dataclasses import dataclass
from typing import Callable

import checks
import reference

GRID_N = 200
BOUND_CALLS = 3
HAMMING_GAMMA_T = ((5, 3), (6, 4), (7, 4), (8, 4))
DIMACS_NR = (6, 4)
DIMACS_COPIES = 2
# The search effort on a relabelled copy depends on the relabelling: single
# copies took 4.3 to 7.1 s.  Drawn from the run's seed, that alone spread
# gamma-t's wall time by about 15 % from seed to seed, so the relabellings
# come from this fixed seed instead and the DIMACS work is the same in
# every run.
DIMACS_SEED = "gc64-relabellings"
WITNESS_NR = (20, 9)
DEADLINE_NR = (11, 9)
DEADLINE_LIMIT_S = 0.1
# The deadline operation counts as failed while its reported elapsed_s
# exceeds the limit by more than this.  The solver checks its clock only
# every 1024 nodes, so it stops at node 1024 whatever the limit, after
# about a second on this instance: nearly three times limit plus slack.
DEADLINE_SLACK_S = 0.25
R2_DIMENSIONS = (4, 5, 6, 7, 8)
ROUND_TRIP = (6, 3, 3)
Z_VR = ((4, 2), (5, 2))


@dataclass
class Group:
    label: str
    argvs: list[list[str]]
    check: Callable[[list[str]], int]


def _bound_grid(rng, workdir):
    n = GRID_N
    pairs = [(20, 18)]
    for _ in range(BOUND_CALLS):
        pn = rng.randrange(2, n + 1)
        pairs.append((pn, rng.randrange(pn)))

    def ok(fn, *args):
        def check(outs):
            fn(outs[0], *args)
            return 0
        return check

    groups = [
        Group("table", [["table", "--n-max", str(n), "--format", "csv"]],
              ok(checks.check_table_csv, n)),
        Group("counterexamples", [["counterexamples", "--n-max", str(n)]],
              ok(checks.check_counterexamples, n)),
        Group("paper", [["table", "--paper"]], ok(checks.check_paper_table)),
    ]
    groups += [Group(f"bound-{pn}-{pr}", [["bound", "--n", str(pn), "--r", str(pr)]],
                     ok(checks.check_bound, pn, pr)) for pn, pr in pairs]
    return groups


def _gamma_t(rng, workdir):
    groups = []
    for n, r in HAMMING_GAMMA_T:
        def check(outs, n=n, r=r):
            checks.check_gamma_t_exact(outs[0], n, r)
            return 0
        groups.append(Group(f"gamma-t-{n}-{r}", [["gamma-t", "--n", str(n), "--r", str(r)]],
                            check))

    n, r = DIMACS_NR
    relabel_rng = random.Random(DIMACS_SEED)
    for copy in range(DIMACS_COPIES):
        perm = list(range(1 << n))
        relabel_rng.shuffle(perm)
        inverse = [0] * len(perm)
        for v, p in enumerate(perm):
            inverse[p] = v
        path = os.path.join(workdir, f"gc{n}{r}-{copy}.col")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(checks.gc_dimacs(n, r, perm))

        def check_dimacs(outs, inverse=inverse):
            checks.check_gamma_t_exact(outs[0], n, r, relabel=inverse)
            return 0
        groups.append(Group(f"gamma-t-dimacs-{copy}", [["gamma-t", "--dimacs", path]],
                            check_dimacs))

    wn, wr = WITNESS_NR
    t = rng.randrange(1 << wn)
    vertices = [t, t ^ ((1 << wn) - 1)]

    def check_witness(outs):
        checks.check_witness(outs[0], wn, wr, vertices)
        return 0
    groups.append(Group("witness", [["witness", "--n", str(wn), "--r", str(wr), "--vertices",
                                     ",".join(map(str, vertices))]], check_witness))

    dn, dr = DEADLINE_NR

    def check_deadline(outs):
        return int(checks.check_gamma_t_bounds(outs[0], dn, dr, DEADLINE_LIMIT_S,
                                               DEADLINE_SLACK_S))
    groups.append(Group("gamma-t-deadline",
                        [["gamma-t", "--n", str(dn), "--r", str(dr),
                          "--time-limit", f"{DEADLINE_LIMIT_S}s"]], check_deadline))
    return groups


@functools.lru_cache(maxsize=None)
def _vr_f_vector(n, r, max_dim):
    return checks.vr_f_vector(n, r, max_dim)


def _homology_gf2(rng, workdir):
    def check_q53(outs):
        result = checks.check_betti(outs[0], 7, "gf2", reference.VR_Q5_R3_GF2)
        checks.check_bound_zeros(result, 5, 3)
        return 0

    groups = [Group("gf2-5-3", [["homology", "--n", "5", "--r", "3", "--up-to", "7"]],
                    check_q53)]
    for n in R2_DIMENSIONS:
        def check_r2(outs, n=n):
            result = checks.check_betti(outs[0], 3, "gf2", checks.vr_r2_betti(n, 3))
            checks.check_bound_zeros(result, n, 2)
            return 0
        groups.append(Group(f"gf2-{n}-2", [["homology", "--n", str(n), "--r", "2",
                                            "--up-to", "3"]], check_r2))

    n, r, d = ROUND_TRIP
    path = os.path.join(workdir, "vr63.cx")

    def check_round_trip(outs):
        checks.check_complex(outs[0], n, r, d, _vr_f_vector(n, r, d))
        from_file = checks.homology_result(outs[1], d - 1, "gf2")
        direct = checks.homology_result(outs[2], d - 1, "gf2")
        checks.expect(from_file["reduced_betti"] == direct["reduced_betti"],
                      f"file round trip gives {from_file['reduced_betti']}, "
                      f"direct build {direct['reduced_betti']}")
        checks.check_bound_zeros(direct, n, r)
        return 0
    groups.append(Group("round-trip", [
        ["complex", "--n", str(n), "--r", str(r), "--max-dim", str(d), "--out", path],
        ["homology", "--complex", path, "--up-to", str(d - 1)],
        ["homology", "--n", str(n), "--r", str(r), "--up-to", str(d - 1)]],
        check_round_trip))
    return groups


def _homology_z(rng, workdir):
    def pair_check(betti, torsion):
        def check(outs):
            z = checks.check_betti(outs[0], len(betti) - 1, "z", betti, torsion)
            gf2 = checks.homology_result(outs[1], len(betti) - 1, "gf2")
            checks.check_uct(z, gf2)
            return 0
        return check

    groups = []
    for n, r in Z_VR:
        src = ["--n", str(n), "--r", str(r), "--up-to", "3"]
        groups.append(Group(f"z-{n}-{r}", [["homology", *src, "--coefficients", "z"],
                                           ["homology", *src]],
                            pair_check(checks.vr_r2_betti(n, 3), None)))

    surfaces = (("rp2", checks.RP2_TRIANGLES, (0, 0, 0), ((), (2,), ())),
                ("torus", checks.TORUS_TRIANGLES, (0, 2, 1), None))
    for name, triangles, betti, torsion in surfaces:
        perm = list(range(len({v for t in triangles for v in t})))
        rng.shuffle(perm)
        path = os.path.join(workdir, f"{name}.cx")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(checks.complex_file(triangles, perm))
        src = ["--complex", path, "--up-to", "2"]
        groups.append(Group(name, [["homology", *src, "--coefficients", "z"],
                                   ["homology", *src]], pair_check(betti, torsion)))
    return groups


WORKLOADS = {
    "bound-grid": _bound_grid,
    "gamma-t": _gamma_t,
    "homology-gf2": _homology_gf2,
    "homology-z": _homology_z,
}


def build(name, seed, workdir):
    """The groups of one workload, with their input files written to workdir."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), workdir)

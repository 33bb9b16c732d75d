"""Recompute the stored GF(2) reference for VR(Q_5; 3).

No closed form or published table gives the reduced GF(2) Betti numbers of
VR(Q_5; 3) through degree 7, so the benchmark checks them against the stored
copy VR_Q5_R3_GF2.  This script recomputes that copy with the clique search
of checks.py and its own GF(2) elimination, without importing vrhq, and
exits 1 if the two differ:

    python3 bench/reference.py
"""

from __future__ import annotations

import checks

# reduced GF(2) Betti numbers of VR(Q_5; 3) in degrees 0..7
VR_Q5_R3_GF2 = (0, 0, 0, 0, 1, 0, 0, 10)


def gf2_rank(columns):
    pivots = {}
    for col in columns:
        while col:
            lead = col.bit_length() - 1
            if lead not in pivots:
                pivots[lead] = col
                break
            col ^= pivots[lead]
    return len(pivots)


def reduced_betti_gf2(n, r, up_to):
    by_dim = checks.vr_simplices(n, r, up_to + 1)
    ranks = [1 if by_dim[0] else 0]  # the augmentation map
    for p in range(1, up_to + 2):
        index = {s: i for i, s in enumerate(by_dim[p - 1])}
        cols = []
        for s in by_dim[p]:
            col = 0
            for j in range(len(s)):
                col ^= 1 << index[s[:j] + s[j + 1:]]
            cols.append(col)
        ranks.append(gf2_rank(cols))
    return [len(by_dim[i]) - ranks[i] - ranks[i + 1] for i in range(up_to + 1)]


def main():
    betti = tuple(reduced_betti_gf2(5, 3, 7))
    print(f"recomputed {list(betti)}, stored {list(VR_Q5_R3_GF2)}")
    return 0 if betti == VR_Q5_R3_GF2 else 1


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Atlas of the enumerated matrix groups.

For each coefficient family and level: the orders of GL2 and SL2 (enumerated
and closed-form), conjugacy class counts, the congruence filtration, and the
exponent.  Levels beyond the element budget are reported closed-form only.
"""

import argparse

from branchlab import clifford, grp, ring


def atlas_row(kind, r, budget):
    spec = ring.make_ring(kind, r=r)
    gl_cf, sl_cf = grp.gl2_order(spec), grp.sl2_order(spec)
    if gl_cf > budget:
        print(f"{kind:>5} r={r}: |GL2| = {gl_cf:,} (closed form; beyond the "
              f"{budget:,} element budget)")
        return
    G = grp.build_gl2(spec, budget=budget)
    L = clifford._layers(G)
    ccG = grp.conjugacy_classes(G)
    ccS = grp.conjugacy_classes(L.sl)
    assert G.n == gl_cf and L.sl.n == sl_cf
    layers = [grp.congruence_subgroup(G, i).n for i in range(1, r)]
    print(f"{kind:>5} r={r}: |GL2| = {G.n:<7,} classes {ccG.k:<4} "
          f"|SL2| = {L.sl.n:<6,} classes {ccS.k:<4} exponent {ccG.exponent:<4} "
          f"congruence layers {layers}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    # default keeps the residue-field-4 family at level 2; raise to taste
    ap.add_argument("--budget", type=int, default=200_000)
    ap.add_argument("--max-r", type=int, default=4)
    args = ap.parse_args()

    for kind in ("z2", "f2t", "f4t", "eis2"):
        for r in range(2, args.max_r + 1):
            atlas_row(kind, r, args.budget)
        print()


if __name__ == "__main__":
    main()

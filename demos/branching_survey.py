#!/usr/bin/env python3
"""Survey the GL2 -> SL2 branching of every regular irreducible at one level.

Runs the full verification pipeline for the chosen ring and prints one row per
regular irreducible: its orbit, trace class, the coset count |D_A|, the number
of constituents delta against the predicted window, and the constituent
dimensions.  Ends with the summary block (witness orbit, minimum-dimension
checks, Mackey coverage).
"""

import argparse
import json

from branchlab import verify


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kind", choices=verify.KINDS, default="f2t")
    ap.add_argument("--r", type=int, default=3)
    ap.add_argument("--budget", type=int, default=None)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--no-mackey", action="store_true",
                    help="skip the induced-character cross-check")
    args = ap.parse_args()

    spec = verify.ring.make_ring(args.kind, r=args.r)
    rep = verify.verify_branching(
        spec,
        budget=args.budget,
        seed=args.seed,
        mackey=False if args.no_mackey else None,
    )

    print(f"{rep.kind} r={rep.r}: |GL2| = {rep.gl_order:,}  |SL2| = {rep.sl_order:,}  "
          f"{rep.num_irreducibles} irreducibles, {rep.summary['num_regular']} regular "
          f"in {rep.summary['num_orbits']} orbits")
    print()
    print(f"{'rho':>5} {'dim':>4} {'orbit':<22} {'trace':>7} {'|D_A|':>5} "
          f"{'delta':>5} {'window':>8} {'constituents':<14} mackey")
    for rec in rep.records:
        window = f"[{rec.delta_min},{rec.delta_max if rec.delta_max is not None else '?'}]"
        dims = "+".join(map(str, rec.constituent_dims))
        flags = ("yes" if rec.mackey_checked else "-") + ("" if rec.passed else "  FAIL")
        print(f"{rec.rho_id:>5} {rec.dim:>4} {rec.orbit_text:<22} {rec.trace_class:>7} "
              f"{rec.dA:>5} {rec.delta:>5} {window:>8} {dims:<14} {flags}")

    print()
    print("summary:", json.dumps(rep.summary, indent=2))
    print()
    print(rep)
    return 0 if rep.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())

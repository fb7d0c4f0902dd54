#!/usr/bin/env python3
"""Exponential-moment abscissa across the three |M| regimes.

Sweeps the boundary family M in {1, 1/2} with P{M = 1} = w, Q ~ Exp(a),
where the boundary abscissa has the closed form r* = a (1 - w): the
restricted transform a_+(s) = w a / (a - s) crosses 1 exactly there.  The
bisected value is compared against the closed form at every w.  Two
reference configs bracket the sweep: an all-contracting law (r_Z = r_Q
exactly) and an expanding one (r_Z = 0).

Usage:
    python scripts/abscissa_demo.py [--rate A] [--steps K] [--json]
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from perpetua.laws import (Exponential, FiniteDiscrete, Independent,
                           UniformContinuous)
from perpetua.moments import r_of_perpetuity


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rate", type=float, default=2.0,
                    help="rate a of the Exp(a) innovation")
    ap.add_argument("--steps", type=int, default=9,
                    help="number of interior weights w in the sweep")
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args()

    rows = []
    for k in range(1, args.steps + 1):
        w = k / (args.steps + 1.0)
        joint = Independent(FiniteDiscrete((1.0, 0.5), (w, 1.0 - w)),
                            Exponential(args.rate))
        closed = args.rate * (1.0 - w)
        res = r_of_perpetuity(joint)
        star = res.r_star
        rows.append({"w": round(w, 6), "closed_form": closed,
                     "bisected_r_star": star, "r_Z": res.r_z,
                     "abs_err": abs(star - closed)})

    contracting = r_of_perpetuity(
        Independent(UniformContinuous(0.0, 1.0), Exponential(3.0)))
    expanding = r_of_perpetuity(
        Independent(FiniteDiscrete((2.0, 0.1), (0.2, 0.8)), Exponential(1.0)))

    if args.json:
        print(json.dumps({"sweep": rows,
                          "contracting": contracting.to_json(),
                          "expanding": expanding.to_json()}, indent=2))
        return 0

    print(f"boundary family M in {{1, 1/2}}, Q ~ Exp({args.rate:g}):")
    print(f"{'w':>8} {'closed form':>12} {'bisected':>12} {'r_Z':>8} {'err':>10}")
    for r in rows:
        print(f"{r['w']:8.3f} {r['closed_form']:12.6f} "
              f"{r['bisected_r_star']:12.6f} {r['r_Z']:8.4f} {r['abs_err']:10.2e}")
    print(f"all-contracting reference: r_Z = {contracting.r_z:g} "
          f"(= r_Q, regime {contracting.regime})")
    print(f"expanding reference:       r_Z = {expanding.r_z:g} "
          f"(regime {expanding.regime})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Characteristic-function modulus scan for Bernoulli convolutions.

Samples Z = sum_k c^k Q_{k+1} with Q = +-1 for several contraction factors c
and writes a plot-ready CSV of |CF(t)| on a dense grid, together with the
analytic cosine product.  At c = 1/2 the law is Uniform[-2, 2] and the
modulus decays like 1/(2t); at c = 1/3 the law is continuous-singular and
the modulus returns to ~0.466 at every t = 3^m pi, which is what the purity
probe keys on.

Usage:
    python scripts/cf_scan.py [--c 0.5 --c 0.3333333333333333] [--n N]
                              [--t-max T] [--seed S] [--out cf_scan.csv]
"""

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from perpetua.laws import Independent, PointMass, SignedRademacher
from perpetua.oracles import bernoulli_convolution_cf, purity_probe
from perpetua.sampling import PerpetuityConfig, cf_modulus_grid, sample_batch


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--c", action="append", type=float, default=None,
                    help="contraction factor in (0, 1); repeatable")
    ap.add_argument("--n", type=int, default=100_000)
    ap.add_argument("--t-max", type=float, default=300.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="cf_scan.csv")
    args = ap.parse_args()

    cs = args.c or [0.5, 1.0 / 3.0]
    ts = np.arange(0.25, args.t_max + 1e-9, 0.25)
    rows = []
    for c in cs:
        joint = Independent(PointMass(c), SignedRademacher(1.0))
        emp = sample_batch(PerpetuityConfig(joint, seed=args.seed), args.n)
        mods = cf_modulus_grid(emp, ts)
        analytic = bernoulli_convolution_cf(c, ts)
        probe = purity_probe(emp, lawM_const=c, t_max=args.t_max)
        print(f"c={c:.6g}: cf_decay={probe.cf_decay} "
              f"max|empirical-analytic|={probe.analytic_cf_check:.4g} "
              f"atoms={len(probe.atoms)}")
        rows.extend((c, t, m, a) for t, m, a in zip(ts, mods, analytic))

    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["c", "t", "cf_modulus_empirical", "cf_modulus_analytic"])
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

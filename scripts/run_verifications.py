#!/usr/bin/env python3
"""Run every named oracle verification and print a scoreboard.

Usage:
    python scripts/run_verifications.py [--seed S] [--n N] [--json]

The sampled checks default to their built-in sizes (10^5 draws, 10^6 for the
moment-formula check); pass --n to override all of them at once, which is
useful for a quick smoke run (expect honest failures at very small n: the
tolerances are calibrated for the default sizes).
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from perpetua.cli import _emit
from perpetua.verify import CHECKS, run_check


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--n", type=int, default=None,
                    help="override the sample size of every sampled check")
    ap.add_argument("--json", action="store_true",
                    help="emit one JSON line per sub-check instead of a table")
    args = ap.parse_args()

    all_ok = True
    for name in CHECKS:
        t0 = time.perf_counter()
        results = run_check(name, seed=args.seed, n=args.n)
        dt = time.perf_counter() - t0
        for r in results:
            all_ok = all_ok and r["pass"]
            if args.json:
                _emit(r, True, None)
            else:
                mark = "ok  " if r["pass"] else "FAIL"
                print(f"{mark} {name:18s} {r['check']:24s} "
                      f"stat={r['statistic']:.6g} limit={r['threshold']:.6g} "
                      f"[{dt:.1f}s]")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())

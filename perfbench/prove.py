"""Repeat the benchmark over seeds and report each metric's median and spread.

    python3 perfbench/prove.py --workloads sample-short,stats --seeds 1-10 [--out perfbench/baseline.json]

Runs ``perfbench/run.py`` once per (workload, seed), one run at a time, for
the ``run_seconds`` of BENCHMARK.json, and prints for every metric the
median, the quartiles as ``statistics.quantiles(values, n=4)`` gives them,
and the spread (q3 - q1) / median.  An end-to-end spread at or above a third
of the metric's bound in BENCHMARK.json is marked ``WIDE``.

``--out`` writes the summaries into a trajectory file in the format of
``perfbench/baseline.json``: the environment, and the end-to-end section
(``--trace 0``) or the per-layer section (``--trace 1``) for the workloads
run.  Sections and workloads already in the file and not run are kept.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy
import scipy

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NOTE = ("Single 2e4-draw sample_batch calls varied by about +-15% between repeats on "
        "this machine; timings are the process CPU seconds spent in library calls "
        "(see perfbench/README.md).")


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def _commit() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, check=True, cwd=ROOT)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def write_trajectory(path, section, seeds, run_seconds, summaries) -> None:
    doc = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    doc.update({
        "what": "First point of the trajectory: medians and quartiles "
                "(statistics.quantiles, n=4) of every metric at the library's seed "
                "commit, measured with this benchmark.",
        "library_commit": _commit(),
        "environment": {"python": platform.python_version(), "numpy": numpy.__version__,
                        "scipy": scipy.__version__, "nproc": os.cpu_count(),
                        "machine": platform.machine()},
        "note": NOTE,
    })
    block = doc.setdefault(section, {})
    block.update(seeds=seeds, run_seconds=run_seconds)
    block.setdefault("workloads", {}).update(summaries)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="trajectory file to write the summaries into")
    args = ap.parse_args()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = _seeds(args.seeds)
    summaries = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(args.trace)]
            done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                                  cwd=ROOT, timeout=600)
            result = json.loads(done.stdout.splitlines()[-1])
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        summary = {n: summarize([r["metrics"][n]["value"] for r in runs])
                   for n in runs[0]["metrics"]}
        for n, s in summary.items():
            wide = n in bounds and s["spread"] >= bounds[n] / 3
            print(f"  {n:40s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
                  f"  spread {s['spread']:.4f}{'  WIDE' if wide else ''}", flush=True)
        summaries[workload] = summary
    if args.out:
        write_trajectory(args.out, "per_layer" if args.trace else "end_to_end",
                         seeds, seconds, summaries)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the perpetua library: one workload per run.

    python3 perfbench/run.py --workload sample-short --seed 1 --seconds 13 --trace 0

Run from anywhere inside a checkout; the library is imported from the
checkout's ``src/``.  With ``--trace 0`` the run measures the workload with
tracing off and prints the end-to-end metrics; with ``--trace 1`` it measures
once untraced and once traced on the same seed and prints the per-layer
metrics.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Timings are the process CPU seconds spent in library calls (see
``workloads.Pass``).  Metric names and units come from BENCHMARK.json;
perfbench/README.md says what each one measures.  Scratch files and trace
dumps go to ``.perfbench/`` in the checkout.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

# One thread per workload process: the CPU-time measurements would otherwise
# also count idle BLAS worker threads.  Set before numpy loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

from tracing import Tracer  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("sample-short", "sample-long", "analyze-mix", "stats")
SETUP_REPEATS = 5           # set-up time is the median of this many fresh processes
CHILD_TIMEOUT_S = 120


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up time and exit")
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def _child_setup_s(args) -> float:
    """Set-up time of a fresh process running the same workload and seed."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          timeout=CHILD_TIMEOUT_S)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def _metric_specs() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {key: {m["name"]: m["unit"] for m in spec[key]}
            for key in ("end_to_end", "per_layer")}


def _end_to_end(measured, setups) -> dict:
    lat_ms = np.asarray(measured.latencies) * 1e3
    return {
        "throughput_per_s": measured.throughput,
        "latency_ms_p50": float(np.percentile(lat_ms, 50)),
        "latency_ms_p99": float(np.percentile(lat_ms, 99)),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_ratio": 1.0 - measured.failed / measured.attempted,
    }


def _traced(args, workload, names):
    """Untraced then traced pass on the same seed; per-layer metrics."""
    untraced = workload.measure(args.seconds)
    tracer = Tracer()
    with tracer.patched(workload.trace_targets(tracer)):
        traced = workload.measure(args.seconds)
    redrawn = None
    attempted = untraced.attempted + traced.attempted
    failed = untraced.failed + traced.failed
    if hasattr(workload, "redraw"):
        redrawn = workload.redraw(Tracer())
        attempted += redrawn["draws"]
        failed += redrawn["mismatched"]
    metrics = dict.fromkeys(names, 0)
    metrics.update(workload.layer_metrics(tracer, traced, redrawn))
    if untraced.throughput:
        metrics["trace.overhead_ratio"] = traced.throughput / untraced.throughput
    unknown = set(metrics) - set(names)
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    dump = tracer.to_json()
    if redrawn is not None:
        dump["redraw"] = {k: v for k, v in redrawn.items() if k != "terms"}
    dump.update(workload=args.workload, seed=args.seed, metrics=metrics)
    with open(os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(dump, fh, indent=1, sort_keys=True)
    return metrics, attempted, failed


def main(argv=None) -> int:
    args = _args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "perpetua", "__init__.py")):
        print(f"error: no perpetua package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        workload = workloads.build(args.workload, args.seed, workdir)
        workload.warm_up()
        setup_s = time.process_time()      # CPU seconds since the process started
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        specs = _metric_specs()
        if args.trace:
            metrics, attempted, failed = _traced(args, workload, specs["per_layer"])
            units = specs["per_layer"]
        else:
            setups = [setup_s] + [_child_setup_s(args) for _ in range(SETUP_REPEATS - 1)]
            measured = workload.measure(args.seconds)
            metrics = _end_to_end(measured, setups)
            attempted, failed = measured.attempted, measured.failed
            units = specs["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

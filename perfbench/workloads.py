"""The four benchmark workloads.

Each workload is a closed loop: one client in one process and one thread
sends its next call only after the previous one returned.  A workload
generates its inputs from the workload seed in ``__init__``, warms up in
``warm_up``, measures in ``measure`` and checks every output of the
measured calls against an oracle.  The library only ever sees the inputs the
benchmark generates.

The library is called through module and class attributes looked up at call
time (``sampling.sample_batch``, ``cli.main``, ...), so the traced run can
swap those bindings for timing wrappers without touching the library.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from time import perf_counter, process_time

import numpy as np
from scipy import special

from perpetua import cli, laws, moments, oracles, sampling, streams
from perpetua.laws import (Beta, Exponential, Gamma, Independent, PointMass,
                           SignedRademacher, UniformContinuous)

import configs

BATCH_N = 20_000
REDRAW_STEP = 10            # the traced run re-draws stream ids 0, 10, 20, ...
STATS_N = 100_000
# Nine configs of each of the seven request kinds.  With half the requests
# fresh, a hot config comes back after about 2 * 63 requests, well inside the
# 256-entry existence cache.
HOT_SET = 63
# analyze-mix stops after this many times --seconds of wall time even if
# its requests are fast enough to leave the busy time short
WALL_LIMIT = 3
# Critical values are set so that a correct sampler fails a check with
# probability below 1e-6 (two-sided KS, asymptotic Kolmogorov law; normal
# tail for the mean).
KS_ALPHA = 1e-6
MEAN_SIGMAS = 5.0
CF_TOLERANCE = 0.02
# Bytes the seed's cf_modulus_grid kernel moves per (t, x) product: it
# writes t*x, reads it twice (cos, sin), writes cos and sin, and reads both
# for the means, all as float64 temporaries larger than the caches.
CF_BYTES_PER_PRODUCT = 56


def ks_critical(n: int, alpha: float = KS_ALPHA) -> float:
    return math.sqrt(-0.5 * math.log(alpha / 2.0) / n)


def call_seed(seed: int, k: int) -> int:
    """Sampler seed of the k-th call of a run, a pure function of (seed, k)."""
    hi, lo = np.random.SeedSequence([seed, k]).generate_state(2)
    return ((int(hi) << 32) | int(lo)) & ((1 << 62) - 1)


def cantor_cdf(x):
    """CDF of the Cantor law on [0, 1], to 2**-40, from ternary digits."""
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    out = np.zeros_like(x)
    active = x < 1.0
    out[~active] = 1.0
    scale = 0.5
    for _ in range(40):
        x = x * 3.0
        digit = np.floor(x)
        x -= digit
        hit = active & (digit == 1.0)
        out[hit] += scale
        out[active & (digit == 2.0)] += scale
        active &= ~hit
        scale *= 0.5
    return out


def bernoulli_third_cdf(x):
    """Z = sum 3^-k Q_{k+1}, Q = +-1, equals 3 C - 3/2 with C Cantor."""
    return cantor_cdf((np.asarray(x, dtype=float) + 1.5) / 3.0)


def gamma2_cdf(x):
    x = np.asarray(x, dtype=float)
    return np.where(x > 0, special.gammainc(2.0, np.maximum(x, 0.0)), 0.0)


def discrete_ks(samples: np.ndarray, p: float) -> float:
    """KS distance of integer samples from Geometric(p) on {1, 2, ...}."""
    kmax = int(samples.max())
    ks = np.arange(1, kmax + 1)
    emp = np.searchsorted(samples, ks, side="right") / samples.size
    return float(np.max(np.abs(emp - (1.0 - (1.0 - p) ** ks))))


class Pass:
    """One measured pass: per-operation latencies and the work they completed.

    Calls are timed in process CPU seconds, which leave out the time the
    hypervisor gives this vCPU to other guests.  ``busy`` is the CPU time
    spent in library calls and ``latencies`` the CPU time of each operation.
    """

    def __init__(self):
        self.latencies: list[float] = []
        self.busy = 0.0
        self.items = 0
        self.attempted = 0
        self.failed = 0

    @property
    def throughput(self) -> float:
        """Checked-good work per CPU second spent in library calls."""
        return self.items / self.busy


# --------------------------------------------------------------------------
# sampling workloads


def _ks_check(cdf):
    def check(emp):
        return sampling.ks_distance(emp, cdf) < ks_critical(emp.n)
    return check


def _geometric_check(emp):
    return (emp.n_truncated == 0 and emp.n_exhausted == 0
            and discrete_ks(emp.samples, 0.3) < ks_critical(emp.n))


def _mean_check(expected):
    def check(emp):
        se = math.sqrt(emp.variance() / emp.n)
        return emp.n_exhausted == 0 and abs(emp.mean() - expected) < MEAN_SIGMAS * se
    return check


# The six configs the acceptance battery samples: paths of 2-100 terms, one
# or two 48-pair blocks per draw.
SHORT_CONFIGS = (
    ("geometric-p0.3", oracles.oracle_geometric(0.3).joint, _geometric_check),
    ("uniform-symmetric", oracles.oracle_uniform_symmetric().joint,
     _ks_check(oracles.oracle_uniform_symmetric().cdf)),
    ("bernoulli-c1/3", Independent(PointMass(1.0 / 3.0), SignedRademacher(1.0)),
     _ks_check(bernoulli_third_cdf)),
    ("gamma-sizebias-a1", oracles.oracle_gamma_sizebias(1.0).joint,
     _ks_check(oracles.oracle_gamma_sizebias(1.0).cdf)),
    ("levy-half-b1", oracles.oracle_levy_half(1.0).joint,
     _ks_check(oracles.oracle_levy_half(1.0).cdf)),
    ("uniform-x-exp1", Independent(UniformContinuous(0.0, 1.0), Exponential(1.0)),
     _ks_check(gamma2_cdf)),
)

# Near-unit discounting, E M = 0.95: paths of about 660 terms, and
# E Z = E Q / (1 - E M) = 20 and 40.
LONG_CONFIGS = (
    ("beta19-x-exp1", Independent(Beta(19.0, 1.0), Exponential(1.0)), _mean_check(20.0)),
    ("u0.9-x-gamma2", Independent(UniformContinuous(0.9, 1.0), Gamma(2.0, 1.0)),
     _mean_check(40.0)),
)


class SamplingWorkload:
    """Closed loop of sample_batch(config, 2e4) calls rotating over the configs.

    A run measures whole rotations, so every run weighs the configs alike,
    and its latencies are those of rotations: single calls differ by config
    and their tail would be the slowest config's one call.
    """

    def __init__(self, seed: int, configs_):
        self.seed = seed
        self.configs = configs_
        self.first_rotation: list = []

    def warm_up(self) -> None:
        for _name, joint, _check in self.configs:
            sampling.sample_batch(sampling.PerpetuityConfig(joint, seed=self.seed), 200)

    def measure(self, seconds: float) -> Pass:
        """Whole rotations until ``seconds`` are spent; one op is one rotation."""
        out = Pass()
        results = []
        failed = False
        while out.busy < seconds and not failed:
            rotation = 0.0
            for _name, joint, check in self.configs:
                cfg = sampling.PerpetuityConfig(joint, seed=call_seed(self.seed, len(results)))
                t0 = process_time()
                try:
                    emp = sampling.sample_batch(cfg, BATCH_N)
                except Exception:  # counted as a failed call; the pass ends here
                    emp = None
                dt = process_time() - t0
                out.busy += dt
                rotation += dt
                results.append((cfg, emp, check))
                failed = emp is None
                if failed:
                    break
            out.latencies.append(rotation)
        for cfg, emp, check in results:
            out.attempted += 1
            if emp is not None and emp.n == BATCH_N and check(emp):
                out.items += BATCH_N
            else:
                out.failed += 1
        self.first_rotation = [(cfg, emp) for cfg, emp, _ in results[: len(self.configs)]
                               if emp is not None]
        return out

    def trace_targets(self, tracer):
        def count_pairs(args, kwargs):
            tracer.add("laws.pairs_drawn", args[2] if len(args) > 2 else kwargs["size"])
        return [
            (sampling, "sample_batch", "sampling.sample_batch", None),
            (sampling, "existence_report", "existence.report", None),
            (streams.RandomStream, "generator", "streams.generator", None),
            (laws.Independent, "draw_pairs", "laws.draw_pairs", count_pairs),
            (laws.FiniteJoint, "draw_pairs", "laws.draw_pairs", count_pairs),
        ]

    def redraw(self, tracer) -> dict:
        """Re-draw a fixed subsample of the first rotation's stream ids.

        ``sample_perpetuity(config, RandomStream(seed, i))`` reproduces draw i
        of the batch, so the term counts and stop reasons below are those of
        the measured batches and repeat exactly at a fixed seed.  A re-drawn
        value missing from its batch is a failure.
        """
        terms = []
        stops = {"exact": 0, "epsilon": 0, "exhausted": 0, "nonfinite": 0}
        mismatched = 0
        targets = [t for t in self.trace_targets(tracer) if t[1] == "draw_pairs"]
        with tracer.patched(targets):
            for cfg, emp in self.first_rotation:
                for i in range(0, BATCH_N, REDRAW_STEP):
                    out = sampling.sample_perpetuity(cfg, streams.RandomStream(cfg.seed, i))
                    terms.append(out.terms)
                    if not math.isfinite(out.value):
                        stops["nonfinite"] += 1
                    elif out.exhausted:
                        stops["exhausted"] += 1
                    elif not out.truncated:
                        stops["exact"] += 1
                    else:
                        stops["epsilon"] += 1
                    j = np.searchsorted(emp.samples, out.value)
                    mismatched += not (j < emp.n and emp.samples[j] == out.value)
        return {"terms": np.asarray(terms), "stops": stops, "draws": len(terms),
                "mismatched": mismatched,
                "pairs": tracer.counters.get("laws.pairs_drawn", 0)}

    def layer_metrics(self, tracer, traced: Pass, redrawn: dict) -> dict:
        draws = traced.items
        batch = tracer.total("sampling.sample_batch")
        terms = redrawn["terms"]
        return {
            "streams.generator_calls": tracer.count("streams.generator") / draws,
            "streams.generator_us": tracer.total("streams.generator") * 1e6 / draws,
            "streams.time_share": tracer.total("streams.generator") / batch,
            "laws.draw_pairs_calls": tracer.count("laws.draw_pairs") / draws,
            "laws.draw_pairs_self_us": tracer.self_time("laws.draw_pairs") * 1e6 / draws,
            "laws.pairs_drawn": tracer.counters.get("laws.pairs_drawn", 0) / draws,
            "laws.pairs_used_ratio": float(terms.sum()) / redrawn["pairs"],
            "sampling.sample_batch_self_us":
                tracer.self_time("sampling.sample_batch") * 1e6 / draws,
            "sampling.terms_p50": float(np.percentile(terms, 50)),
            "sampling.terms_p99": float(np.percentile(terms, 99)),
            "sampling.terms_max": int(terms.max()),
            "sampling.stop_exact": redrawn["stops"]["exact"],
            "sampling.stop_epsilon": redrawn["stops"]["epsilon"],
            "sampling.stop_exhausted": redrawn["stops"]["exhausted"],
            "sampling.stop_nonfinite": redrawn["stops"]["nonfinite"],
        }


# --------------------------------------------------------------------------
# analyze-mix


def _reject_constant(token):
    raise ValueError(f"non-strict JSON constant {token}")


EXPECTED_REGIME = {"contracting": moments.REGIME_CONTRACTING,
                   "boundary": moments.REGIME_BOUNDARY,
                   "expanding": moments.REGIME_EXPANDING}


class AnalyzeWorkload:
    """Closed loop of in-process ``perpetua analyze`` requests.

    Half the requests repeat one of a hot set of configs smaller than the
    existence cache, so they hit it after warm-up; the other half are fresh
    configs that miss it.  A request passes when it exits with the expected
    code (0, or 2 for an invalid config), writes strict JSON and reports the
    existence verdict the config was built for.  Requests of the last
    measured pass whose abscissa regime differs from the constructed one are
    counted in ``regime_mismatches``; they do not fail.
    """

    def __init__(self, seed: int, workdir: str):
        self.rng = np.random.default_rng(seed)
        self.kinds = configs.kinds(self.rng)
        self.out_path = os.path.join(workdir, "report.json")
        self.fresh_path = os.path.join(workdir, "fresh.json")
        self.hot = []
        self.hot_joints = set()
        for i in range(HOT_SET):
            text, argv, expected = configs.make_request(self.rng, next(self.kinds))
            path = os.path.join(workdir, f"hot-{i:02d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            self.hot.append((path, argv, expected))
            if expected["exit"] == 0:
                self.hot_joints.add(laws.joint_from_json(json.loads(text)))
        self.regime_mismatches = 0

    def _next(self):
        if self.rng.random() < 0.5:
            return self.hot[int(self.rng.integers(HOT_SET))]
        text, argv, expected = configs.make_request(self.rng, next(self.kinds))
        with open(self.fresh_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return self.fresh_path, argv, expected

    def _check(self, rc, expected, stderr: str) -> bool:
        if rc != expected["exit"]:
            return False
        if rc != 0:
            return stderr.startswith("error:")
        with open(self.out_path, encoding="utf-8") as fh:
            try:
                report = json.loads(fh.read(), parse_constant=_reject_constant)
            except ValueError:
                return False
        regime = EXPECTED_REGIME.get(expected["kind"])
        if regime is not None and report["abscissa"].get("regime") != regime:
            self.regime_mismatches += 1
        return report["existence"]["verdict"] == expected["verdict"]

    def _serve(self, out: Pass, sink: io.StringIO, path, argv, expected) -> None:
        if os.path.exists(self.out_path):
            os.remove(self.out_path)
        sink.seek(0)
        sink.truncate()
        t0 = process_time()
        try:
            rc = cli.main(["analyze", path, *argv, "--json", "--out", self.out_path])
        except Exception:  # a traceback is a failed request
            rc = None
        dt = process_time() - t0
        out.busy += dt
        out.latencies.append(dt)
        out.attempted += 1
        if rc is not None and self._check(rc, expected, sink.getvalue()):
            out.items += 1
        else:
            out.failed += 1

    def _run(self, requests) -> Pass:
        out = Pass()
        sink = io.StringIO()
        with contextlib.redirect_stderr(sink), contextlib.redirect_stdout(sink):
            for request in requests(out):
                self._serve(out, sink, *request)
        return out

    def warm_up(self) -> None:
        self._run(lambda out: self.hot)

    def measure(self, seconds: float) -> Pass:
        self.regime_mismatches = 0

        def requests(out):
            wall = perf_counter()
            while out.busy < seconds and perf_counter() - wall < WALL_LIMIT * seconds:
                yield self._next()
        return self._run(requests)

    def trace_targets(self, tracer):
        seen = set(self.hot_joints)

        def existence_name(args, kwargs):
            joint = args[0] if args else kwargs["joint"]
            if joint in seen:
                return "existence.report_repeat"
            seen.add(joint)
            return "existence.report_fresh"
        return [
            (cli, "main", "cli.main", None),
            (cli, "joint_from_json", "laws.joint_from_json", None),
            (cli, "existence_report", existence_name, None),
            (moments, "existence_report", existence_name, None),
            (cli, "p_moment_criterion", "moments.p_moment_criterion", None),
            (cli, "r_of_perpetuity", "moments.r_of_perpetuity", None),
        ]

    def layer_metrics(self, tracer, traced: Pass, redrawn) -> dict:
        def per_call(name, scale, self_only=False):
            n = tracer.count(name)
            t = tracer.self_time(name) if self_only else tracer.total(name)
            return t * scale / n if n else 0.0
        return {
            "laws.joint_from_json_us": per_call("laws.joint_from_json", 1e6),
            "existence.report_us_fresh": per_call("existence.report_fresh", 1e6),
            "existence.report_us_repeat": per_call("existence.report_repeat", 1e6),
            "moments.p_moment_criterion_us":
                per_call("moments.p_moment_criterion", 1e6, self_only=True),
            "moments.r_of_perpetuity_us":
                per_call("moments.r_of_perpetuity", 1e6, self_only=True),
            "moments.regime_mismatches": self.regime_mismatches,
            "cli.self_ms": per_call("cli.main", 1e3, self_only=True),
        }


# --------------------------------------------------------------------------
# stats


class StatsWorkload:
    """The statistics pass of the oracle battery on exact oracle samples.

    The samples come from numpy, not from the sampler, so sampler changes
    cannot move this workload.
    """

    C = 1.0 / 3.0
    T_MAX = 300.0

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        digits = 36                 # 3**-36 is far below float resolution
        signs = rng.integers(0, 2, (STATS_N, digits)) * 2.0 - 1.0
        bern = np.sort(signs @ (self.C ** np.arange(digits)))
        unif = np.sort(rng.uniform(-2.0, 2.0, STATS_N))
        self.bern = sampling.EmpiricalDistribution(bern, STATS_N, 0, 0)
        self.unif = sampling.EmpiricalDistribution(unif, STATS_N, 0, 0)
        self.ts = np.arange(0.5, 100.0 + 1e-9, 0.25)
        self.cdf = oracles.oracle_uniform_symmetric().cdf

    def warm_up(self) -> None:
        sampling.cf_modulus_grid(self.unif, self.ts[:8])

    def one_pass(self):
        return (oracles.purity_probe(self.bern, lawM_const=self.C, t_max=self.T_MAX),
                sampling.cf_modulus_grid(self.unif, self.ts),
                sampling.ks_distance(self.unif, self.cdf),
                self.unif.summary(),
                sampling.atom_scan(self.bern, 0.01),
                sampling.empirical_moment(self.unif, 2.0))

    def check(self, probe, mods, ks, summary, atoms, m2) -> bool:
        n = STATS_N
        target = np.abs(np.sin(2.0 * self.ts) / (2.0 * self.ts))
        # U[-2, 2]: mean 0, variance 4/3; E U^2 = 4/3 with variance 16/5 - 16/9
        return (probe.cf_decay == "persistent"
                and probe.analytic_cf_check < CF_TOLERANCE
                and float(np.max(np.abs(mods - target))) < CF_TOLERANCE
                and ks < ks_critical(n)
                and abs(summary["mean"]) < MEAN_SIGMAS * math.sqrt(4.0 / 3.0 / n)
                and atoms == []
                and abs(m2 - 4.0 / 3.0)
                < MEAN_SIGMAS * math.sqrt((16.0 / 5.0 - 16.0 / 9.0) / n))

    def measure(self, seconds: float) -> Pass:
        out = Pass()
        while out.busy < seconds:
            t0 = process_time()
            try:
                results = self.one_pass()
            except Exception:  # counted as a failed pass; the run ends here
                results = None
            dt = process_time() - t0
            out.busy += dt
            out.latencies.append(dt)
            out.attempted += 1
            if results is not None and self.check(*results):
                out.items += 1
            else:
                out.failed += 1
            if results is None:
                break
        return out

    def trace_targets(self, tracer):
        def count_products(args, kwargs):
            emp, ts = args[0], args[1]
            tracer.add("sampling.cf_grid_products", np.size(ts) * emp.n)
        return [
            (oracles, "purity_probe", "oracles.purity_probe", None),
            (oracles, "cf_modulus_grid", "sampling.cf_modulus_grid", count_products),
            (sampling, "cf_modulus_grid", "sampling.cf_modulus_grid", count_products),
            (oracles, "bernoulli_convolution_cf", "oracles.bernoulli_convolution_cf", None),
            (oracles, "atom_scan", "sampling.atom_scan", None),
            (sampling, "atom_scan", "sampling.atom_scan", None),
            (sampling, "ks_distance", "sampling.ks_distance", None),
            (sampling.EmpiricalDistribution, "summary", "sampling.summary", None),
            (sampling, "empirical_moment", "sampling.empirical_moment", None),
        ]

    def layer_metrics(self, tracer, traced: Pass, redrawn) -> dict:
        passes = traced.attempted
        grid = tracer.total("sampling.cf_modulus_grid")
        products = tracer.counters.get("sampling.cf_grid_products", 0)
        return {
            "sampling.cf_modulus_grid_ms": grid * 1e3 / passes,
            "sampling.cf_grid_products": products / passes,
            "sampling.cf_grid_products_per_s": products / grid,
            "sampling.cf_grid_bytes_computed": CF_BYTES_PER_PRODUCT * products / passes,
            "sampling.ks_distance_ms": tracer.total("sampling.ks_distance") * 1e3 / passes,
            "sampling.summary_ms": tracer.total("sampling.summary") * 1e3 / passes,
            "oracles.purity_probe_self_ms":
                tracer.self_time("oracles.purity_probe") * 1e3 / passes,
            "oracles.bernoulli_convolution_cf_ms":
                tracer.total("oracles.bernoulli_convolution_cf") * 1e3 / passes,
        }


def build(name: str, seed: int, workdir: str):
    if name == "sample-short":
        return SamplingWorkload(seed, SHORT_CONFIGS)
    if name == "sample-long":
        return SamplingWorkload(seed, LONG_CONFIGS)
    if name == "analyze-mix":
        return AnalyzeWorkload(seed, workdir)
    return StatsWorkload(seed)

"""Named verification checks against the closed-form oracles.

Each check samples a configuration whose perpetuity law is known exactly and
compares empirical statistics against the reference at documented
thresholds.  Results are plain dicts {oracle, params, check, statistic,
threshold, pass} so both the CLI and the test suite can consume them.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from .errors import PreconditionError
from .laws import (Exponential, FiniteDiscrete, Independent, PointMass,
                   SignedRademacher, UniformContinuous)
from .moments import (cauchy_hadamard_estimate, exp_perpetuity_moment,
                      r_of_perpetuity)
from .oracles import (OracleSpec, levy_q_lt_residual, oracle_gamma_sizebias,
                      oracle_geometric, oracle_levy_half,
                      oracle_pitman_yor_identity, oracle_uniform_digits,
                      oracle_uniform_symmetric, purity_probe)
from .sampling import (PerpetuityConfig, _cf_parts, empirical_moment,
                       fixed_point_residual, ks_distance, sample_batch)

DEFAULT_N = 100_000

# M = 1/3, Q = +-1: a singular law whose CF does not decay
_THIRD = OracleSpec("bernoulli-convolution", {"c": 1.0 / 3.0},
                    joint=Independent(PointMass(1.0 / 3.0), SignedRademacher(1.0)))


def _result(oracle, params, check, statistic, threshold, ok):
    return {"oracle": oracle, "params": dict(params), "check": check,
            "statistic": float(statistic), "threshold": float(threshold),
            "pass": bool(ok)}


def _sample_ks(spec, seed, n, threshold=0.01):
    """Sample ``spec``'s joint; the batch and the KS result against its CDF."""
    emp = sample_batch(PerpetuityConfig(spec.joint, seed=seed), n)
    ks = ks_distance(emp, spec.cdf)
    return emp, _result(spec.name, spec.params, "ks", ks, threshold, ks < threshold)


def check_geometric(seed: int = 0, n: int = DEFAULT_N) -> list[dict]:
    """Exact-stop sampling reproduces Geometric(0.3) on {1, 2, ...}."""
    spec = oracle_geometric(0.3)
    p = spec.params["p"]
    emp = sample_batch(PerpetuityConfig(spec.joint, seed=seed), n)
    out = [_result(spec.name, spec.params, "all-exact",
                   emp.n_truncated + emp.n_exhausted, 0,
                   emp.n_truncated + emp.n_exhausted == 0)]
    kmax = int(emp.samples[-1])
    obs = np.zeros(kmax)
    vals, counts = np.unique(emp.samples, return_counts=True)
    obs[vals.astype(int) - 1] = counts
    pk = spec.pmf(np.arange(1, kmax + 1))
    tv = 0.5 * (float(np.sum(np.abs(obs / n - pk))) + (1.0 - p) ** kmax)
    out.append(_result(spec.name, spec.params, "tv-distance", tv, 0.01, tv < 0.01))
    # lump the tail so every chi-square bin expects >= 5 counts
    k0 = max(2, int(math.log(5.0 / (n * p)) / math.log(1.0 - p)) + 1)
    k0 = min(k0, kmax)
    expected = np.append(n * pk[: k0 - 1], n * (1.0 - p) ** (k0 - 1))
    observed = np.append(obs[: k0 - 1], n - np.sum(obs[: k0 - 1]))
    # Pearson's statistic on k0 bins against chi-square with k0 - 1 dof
    pval = float(special.chdtrc(k0 - 1, np.sum((observed - expected) ** 2 / expected)))
    out.append(_result(spec.name, spec.params, "chi2-gof-pvalue", pval, 0.01,
                       pval > 0.01))
    return out


def check_uniform_digits(seed: int = 0, n: int = DEFAULT_N) -> list[dict]:
    """M = 1/2 with uniform digits gives Uniform(0, 2)."""
    return [_sample_ks(oracle_uniform_digits(2), seed, n)[1]]


def check_uniform_symmetric(seed: int = 0, n: int = DEFAULT_N) -> list[dict]:
    """M = 1/2, Q = +-1 gives Uniform[-2, 2]; CF matches sin(2t)/(2t)."""
    spec = oracle_uniform_symmetric()
    emp, ks = _sample_ks(spec, seed, n)
    ts = np.arange(0.5, 100.0 + 1e-9, 0.25)
    re, im = _cf_parts(emp.samples, ts)
    dev = float(np.max(np.hypot(re - np.sin(2.0 * ts) / (2.0 * ts), im)))
    return [ks, _result(spec.name, spec.params, "cf-identity", dev, 0.02, dev < 0.02)]


def check_singularity(seed: int = 0, n: int = DEFAULT_N) -> list[dict]:
    """c = 1/3 convolution: CF matches the cosine product and does not decay."""
    spec = _THIRD
    emp = sample_batch(PerpetuityConfig(spec.joint, seed=seed), n)
    probe = purity_probe(emp, lawM_const=spec.params["c"], t_max=300.0)
    dev = probe.analytic_cf_check
    out = [_result(spec.name, spec.params, "cf-identity", dev, 0.02, dev < 0.02)]
    out.append(_result(spec.name, spec.params, "cf-persistent",
                       probe.tail_peak, 0.2,
                       probe.cf_decay == "persistent" and probe.tail_peak > 0.2))
    return out


def check_gamma(seed: int = 0, n: int = DEFAULT_N) -> list[dict]:
    """Size-bias identity at alpha = 1: Z ~ Gamma(2, 1)."""
    spec = oracle_gamma_sizebias(1.0)
    emp, ks = _sample_ks(spec, seed, n)
    # Gamma(2, 1): mean 2, variance 2
    tol = 3.0 * math.sqrt(2.0 / n)
    dev = abs(emp.mean() - 2.0)
    return [ks, _result(spec.name, spec.params, "mean-3sigma", dev, tol, dev < tol)]


def check_levy_half(seed: int = 0, n: int = DEFAULT_N) -> list[dict]:
    """Stable(1/2) law; the Q identification is LT-validated first."""
    b = 1.0
    lt_res = levy_q_lt_residual(b)
    spec = oracle_levy_half(b)
    out = [_result(spec.name, spec.params, "q-lt-identification", lt_res, 1e-8,
                   lt_res < 1e-8)]
    if lt_res >= 1e-8:
        return out
    out.append(_sample_ks(spec, seed, n, threshold=0.015)[1])
    return out


def check_pitman_yor(seed: int = 0, n: int | None = None) -> list[dict]:
    """Transform identity: closed LT equals -phi'(s)/(2/3)."""
    dev = oracle_pitman_yor_identity((0.5, 1.0, 2.0))
    return [_result("pitman-yor-lt", {}, "lt-identity", dev, 1e-6, dev < 1e-6)]


def check_fixed_point_residuals(seed: int = 0, n: int = DEFAULT_N) -> list[dict]:
    """Distributional fixed-point residual for every sampled oracle config."""
    specs = [oracle_geometric(0.3), oracle_uniform_symmetric(), _THIRD,
             oracle_gamma_sizebias(1.0), oracle_levy_half(1.0)]
    out = []
    for k, spec in enumerate(specs):
        res = fixed_point_residual(PerpetuityConfig(spec.joint, seed=seed + k), n)
        out.append(_result(spec.name, spec.params, "fixed-point-residual",
                           res, 0.01, res < 0.01))
    return out


def check_exp_moments(seed: int = 0, n: int = 1_000_000) -> list[dict]:
    """Moment formula E Z^k = k! (k+1) for M ~ U(0,1), Q ~ Exp(1)."""
    law_m = UniformContinuous(0.0, 1.0)
    joint = Independent(law_m, Exponential(1.0))
    emp = sample_batch(PerpetuityConfig(joint, seed=seed), n)
    out = []
    for k in (1, 2, 3):
        analytic = exp_perpetuity_moment(1.0, law_m, k)
        rel = abs(empirical_moment(emp, float(k)) / analytic - 1.0)
        out.append(_result("exp-moment-formula", {"a": 1.0, "k": k},
                           f"moment-{k}-rel-err", rel, 0.05, rel < 0.05))
    return out


def check_abscissa_boundary(seed: int = 0, n: int | None = None) -> list[dict]:
    """Abscissa routing across the three regimes plus the ratio trend."""
    out = []
    boundary = Independent(FiniteDiscrete((1.0, 0.5), (0.5, 0.5)), Exponential(2.0))
    res = r_of_perpetuity(boundary)
    star, rz = res.r_star, res.r_z
    out.append(_result("abscissa", {"regime": "boundary"}, "r-star",
                       abs(star - 1.0), 1e-6, abs(star - 1.0) < 1e-6))
    out.append(_result("abscissa", {"regime": "boundary"}, "r-z",
                       abs(rz - 1.0), 1e-6, abs(rz - 1.0) < 1e-6))
    contracting = Independent(UniformContinuous(0.0, 1.0), Exponential(3.0))
    rz_c = r_of_perpetuity(contracting).r_z
    out.append(_result("abscissa", {"regime": "all-contracting"}, "r-z-exact",
                       rz_c, 3.0, rz_c == 3.0))
    expanding = Independent(FiniteDiscrete((2.0, 0.1), (0.2, 0.8)), Exponential(1.0))
    rz_e = r_of_perpetuity(expanding).r_z
    out.append(_result("abscissa", {"regime": "expanding"}, "r-z-zero",
                       rz_e, 0.0, rz_e == 0.0))
    moments = [exp_perpetuity_moment(1.0, UniformContinuous(0.0, 1.0), k)
               for k in range(1, 11)]
    est = cauchy_hadamard_estimate(moments)
    out.append(_result("abscissa", {"source": "moment-sequence"}, "ratio-trend",
                       abs(est - 1.0), 0.1, abs(est - 1.0) <= 0.1))
    return out


CHECKS = {
    "geometric": check_geometric,
    "uniform-digits": check_uniform_digits,
    "uniform-symmetric": check_uniform_symmetric,
    "gamma": check_gamma,
    "levy-half": check_levy_half,
    "pitman-yor": check_pitman_yor,
    "exp-moments": check_exp_moments,
    "abscissa-boundary": check_abscissa_boundary,
    "singularity": check_singularity,
    "fixed-point-residuals": check_fixed_point_residuals,
}


def run_check(name: str, seed: int = 0, n: int | None = None) -> list[dict]:
    if name not in CHECKS:
        raise PreconditionError(
            f"unknown check {name!r}; valid: {', '.join(sorted(CHECKS))}")
    fn = CHECKS[name]
    if n is None:
        return fn(seed=seed)
    return fn(seed=seed, n=n)

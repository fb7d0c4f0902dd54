"""End-to-end acceptance battery.

Each test covers one release criterion at its stated tolerance and prints a
single ACCEPTANCE line (visible even under pytest capture) so a log scrape
shows the full scorecard.  Tolerances are contractual: do not loosen them
here; a failure means the library, not the test, needs attention.
"""

import time

import numpy as np
import pytest

from perpetua.existence import existence_report, product_vanishes_verdict
from perpetua.laws import (Exponential, FiniteDiscrete, Independent,
                           LogPareto, PointMass, SignedRademacher,
                           UniformContinuous)
from perpetua.moments import p_moment_criterion
from perpetua.sampling import (PerpetuityConfig, _batch_chunk, empirical_moment,
                               sample_batch)
from perpetua.verify import (check_abscissa_boundary, check_exp_moments,
                             check_fixed_point_residuals, check_gamma,
                             check_geometric, check_levy_half,
                             check_pitman_yor, check_singularity,
                             check_uniform_symmetric)


def _gate(capsys, idx, label, subchecks):
    """Print one scorecard line, then assert every sub-check passed."""
    fails = []
    for sc in subchecks:
        if isinstance(sc, dict):
            if not sc["pass"]:
                fails.append(f"{sc['check']}={sc['statistic']:.6g} "
                             f"(limit {sc['threshold']:.6g})")
        else:
            ok, detail = sc
            if not ok:
                fails.append(detail)
    with capsys.disabled():
        print(f"\nACCEPTANCE {idx:02d} {label}: {'FAIL' if fails else 'PASS'}")
    assert not fails, f"criterion {idx} ({label}): " + "; ".join(fails)


def test_c01_geometric_example(capsys):
    _gate(capsys, 1, "geometric-example", check_geometric(seed=0, n=100_000))


def test_c02_uniform_symmetric(capsys):
    _gate(capsys, 2, "uniform-symmetric",
          check_uniform_symmetric(seed=0, n=100_000))


def test_c03_singularity_probe(capsys):
    _gate(capsys, 3, "singularity-probe", check_singularity(seed=0, n=100_000))


def test_c04_gamma_size_bias(capsys):
    _gate(capsys, 4, "gamma-size-bias", check_gamma(seed=0, n=100_000))


def test_c05_levy_half(capsys):
    results = check_levy_half(seed=0, n=100_000)
    # the LT identification must run first and gate the sampled comparison
    subchecks = list(results)
    subchecks.append((results[0]["check"] == "q-lt-identification"
                      and len(results) == 2, "LT gate did not precede KS"))
    _gate(capsys, 5, "levy-half", subchecks)


def test_c06_pitman_yor_identity(capsys):
    _gate(capsys, 6, "pitman-yor-identity", check_pitman_yor(seed=0))


def test_c07_fixed_point_residuals(capsys):
    results = check_fixed_point_residuals(seed=0, n=100_000)
    subchecks = list(results)
    subchecks.append((len(results) == 5, "expected residuals for 5 configs"))
    _gate(capsys, 7, "fixed-point-residuals", subchecks)


def test_c08_moment_formula(capsys):
    t0 = time.perf_counter()
    results = check_exp_moments(seed=0, n=1_000_000)
    elapsed = time.perf_counter() - t0
    subchecks = list(results)
    subchecks.append((elapsed <= 120.0, f"runtime {elapsed:.1f}s exceeds 120s"))
    _gate(capsys, 8, "moment-formula", subchecks)


def test_c09_abscissa(capsys):
    _gate(capsys, 9, "abscissa", check_abscissa_boundary(seed=0))


def test_c10_p_moment_criterion(capsys):
    joint = Independent(FiniteDiscrete((3.0, 0.05), (0.25, 0.75)),
                        Exponential(1.0))
    small = p_moment_criterion(joint, 0.1)
    emp = sample_batch(PerpetuityConfig(joint, seed=0), 100_000)
    emp_mom = empirical_moment(emp, 0.1)
    big = p_moment_criterion(joint, 2.0)
    rep = existence_report(joint)
    _gate(capsys, 10, "p-moment-criterion", [
        (small.finite, "p=0.1 moment not reported finite"),
        (emp_mom <= small.zstar_bound * 1.1,
         f"empirical {emp_mom:.4g} exceeds bound {small.zstar_bound:.4g}*1.1"),
        (not big.finite, "p=2 moment not reported infinite"),
        (product_vanishes_verdict(joint.law_m) == "yes",
         "product-vanishes verdict is not yes"),
        (rep.pi_to_zero == "yes", "existence report pi_to_zero is not yes"),
    ])


def test_c11_divergent_tail_integral(capsys):
    joint = Independent(UniformContinuous(0.0, 1.0), LogPareto(0.5))
    rep = existence_report(joint)
    _gate(capsys, 11, "divergent-tail-integral", [
        (rep.verdict == "diverges-in-probability",
         f"verdict {rep.verdict!r}"),
        (rep.i_finite == "no", f"i_finite {rep.i_finite!r}"),
        (rep.i_method == "analytic", f"i_method {rep.i_method!r}"),
    ])


def test_c12_parallel_reproducibility(capsys):
    # draw i uses stream (seed, i) alone, so sorting together the draws of
    # any split of the ids into _batch_chunk calls gives sample_batch's
    # bytes: here the 16 and 32 even spans that 4 and 8 threads once took,
    # and an uneven split
    joint = Independent(UniformContinuous(0.0, 1.0), Exponential(1.0))
    n = 20_000
    partitions = [np.linspace(0, n, 17).astype(int), np.linspace(0, n, 33).astype(int),
                  [0, 1, 255, 256, 7000, n]]
    per_seed = {}
    for seed in (1, 2):
        cfg = PerpetuityConfig(joint, seed=seed)
        blobs = {sample_batch(cfg, n).samples.tobytes()}
        for cuts in partitions:
            values = [_batch_chunk(cfg, range(a, b))[0] for a, b in zip(cuts[:-1], cuts[1:])]
            blobs.add(np.sort(np.concatenate(values)).tobytes())
        per_seed[seed] = blobs
    _gate(capsys, 12, "parallel-reproducibility", [
        (len(per_seed[1]) == 1, "seed 1 output varies with chunking"),
        (len(per_seed[2]) == 1, "seed 2 output varies with chunking"),
        (per_seed[1] != per_seed[2], "seeds 1 and 2 produced identical sets"),
    ])

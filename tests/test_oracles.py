import math

import numpy as np
import pytest
from scipy import special, stats

from perpetua.errors import PreconditionError
from perpetua.laws import (FiniteDiscrete, Independent, InverseGamma,
                           PointMass, SignedRademacher, Weibull)
from perpetua.oracles import (bernoulli_convolution_cf, levy_q_lt_residual,
                              oracle_gamma_sizebias, oracle_geometric,
                              oracle_levy_half, oracle_pitman_yor_identity,
                              oracle_uniform_digits, oracle_uniform_symmetric,
                              pitman_yor_lt, purity_probe)
from perpetua.sampling import PerpetuityConfig, sample_batch

# |product_{k>=1} cos(pi / 3^k)|, the common CF value on the lattice 3^m pi
THIRD_CF_AT_PI = 0.46627457895504937


def _batch(joint, n, seed):
    return sample_batch(PerpetuityConfig(joint, seed=seed), n)


# --- geometric ---------------------------------------------------------------


@pytest.mark.parametrize("p", [0.3, 0.7])
def test_geometric_pmf_matches_scipy(p):
    spec = oracle_geometric(p)
    k = np.arange(1, 41)
    np.testing.assert_allclose(spec.pmf(k), stats.geom(p).pmf(k), rtol=0, atol=1e-15)


def test_geometric_pmf_off_support_is_zero():
    pmf = oracle_geometric(0.3).pmf
    assert pmf(0) == 0.0
    assert pmf(-3) == 0.0
    assert pmf(2.5) == 0.0
    np.testing.assert_array_equal(pmf(np.array([0.0, 0.5, -1.0])), 0.0)


def test_geometric_joint_encodes_exact_stop():
    spec = oracle_geometric(0.3)
    law_m, law_q = spec.joint.law_m, spec.joint.law_q
    assert isinstance(law_m, FiniteDiscrete)
    assert law_m.point_prob(0.0) == pytest.approx(0.3)
    assert law_m.point_prob(1.0) == pytest.approx(0.7)
    assert isinstance(law_q, PointMass) and law_q.value == 1.0
    assert spec.name == "geometric" and spec.params == {"p": 0.3}


@pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.5])
def test_geometric_requires_open_unit_p(p):
    with pytest.raises(PreconditionError):
        oracle_geometric(p)


# --- uniform oracles ---------------------------------------------------------


def test_uniform_digits_cdf_is_linear_ramp():
    spec = oracle_uniform_digits(10)
    xs = np.array([-1.0, 0.0, 2.5, 5.0, 10.0, 12.0])
    np.testing.assert_allclose(spec.cdf(xs), [0.0, 0.0, 0.25, 0.5, 1.0, 1.0])
    assert spec.joint.law_m.value == pytest.approx(0.1)


@pytest.mark.parametrize("n", [1, 0, 2.0, "4"])
def test_uniform_digits_requires_integer_n_ge_2(n):
    with pytest.raises(PreconditionError):
        oracle_uniform_digits(n)


def test_uniform_symmetric_cdf():
    spec = oracle_uniform_symmetric()
    xs = np.array([-3.0, -2.0, 0.0, 1.0, 2.0, 3.0])
    np.testing.assert_allclose(spec.cdf(xs), [0.0, 0.0, 0.5, 0.75, 1.0, 1.0])
    assert isinstance(spec.joint.law_m, PointMass)
    assert isinstance(spec.joint.law_q, SignedRademacher)


# --- gamma size-bias ---------------------------------------------------------


@pytest.mark.parametrize("alpha", [1.0, 2.5])
def test_gamma_sizebias_cdf_matches_scipy(alpha):
    spec = oracle_gamma_sizebias(alpha)
    xs = np.array([0.2, 0.7, 1.3, 2.9, 4.1])
    ref = stats.gamma(a=alpha + 1.0, scale=1.0 / alpha).cdf(xs)
    np.testing.assert_allclose(spec.cdf(xs), ref, rtol=0, atol=1e-12)
    assert spec.cdf(0.0) == 0.0
    assert spec.cdf(-1.0) == 0.0


@pytest.mark.parametrize("alpha", [1.0, 2.5])
def test_gamma_sizebias_density_is_size_biased(alpha):
    # density_Z(x) = x density_Q(x) / E Q with E Q = 1, so the ratio is 1
    xs = np.array([0.2, 0.7, 1.3, 2.9, 4.1])
    pdf_z = stats.gamma(a=alpha + 1.0, scale=1.0 / alpha).pdf(xs)
    pdf_q = stats.gamma(a=alpha, scale=1.0 / alpha).pdf(xs)
    np.testing.assert_allclose(pdf_z / (xs * pdf_q), 1.0, rtol=1e-12)


def test_gamma_sizebias_requires_positive_alpha():
    with pytest.raises(PreconditionError):
        oracle_gamma_sizebias(0.0)


# --- levy-half ---------------------------------------------------------------


@pytest.mark.parametrize("b", [1.0, 2.5])
def test_levy_cdf_median_closed_form(b):
    spec = oracle_levy_half(b)
    median = b * b / (4.0 * special.erfcinv(0.5) ** 2)
    assert median / (b * b) == pytest.approx(1.0990, abs=1e-3)
    assert spec.cdf(median) == pytest.approx(0.5, abs=1e-12)
    assert spec.cdf(0.0) == 0.0
    assert spec.cdf(1e12) == pytest.approx(1.0, abs=1e-5)
    xs = np.array([0.1, 0.5, 1.0, 5.0, 50.0])
    assert np.all(np.diff(spec.cdf(xs)) > 0)


def test_levy_lt_closed_form():
    spec = oracle_levy_half(2.0)
    s = np.array([0.5, 1.0, 2.0])
    np.testing.assert_allclose(spec.lt(s), np.exp(-2.0 * np.sqrt(s)), rtol=1e-15)


def test_levy_joint_components():
    spec = oracle_levy_half(1.0)
    assert isinstance(spec.joint.law_m, Weibull)
    assert isinstance(spec.joint.law_q, InverseGamma)


@pytest.mark.parametrize("b", [1.0, 2.0])
def test_levy_q_lt_residual_small(b):
    assert levy_q_lt_residual(b) < 1e-8


def test_levy_q_lt_residual_rejects_bad_grid():
    with pytest.raises(PreconditionError):
        levy_q_lt_residual(1.0, s_grid=(0.5, 0.0))


def test_levy_requires_positive_b():
    with pytest.raises(PreconditionError):
        oracle_levy_half(-1.0)


# --- pitman-yor transform ----------------------------------------------------


def test_pitman_yor_lt_tends_to_one_at_zero():
    assert pitman_yor_lt(1e-9) == pytest.approx(1.0, abs=1e-8)


def test_pitman_yor_lt_monotone_across_branches():
    # grid straddles both internal branch switches (x = 0.01 and x = 100)
    s_grid = [1e-8, 4.05e-5, 6.05e-5, 0.5, 2.0, 50.0, 4900.5, 5100.5, 8000.0]
    vals = [pitman_yor_lt(s) for s in s_grid]
    assert all(a > b > 0.0 for a, b in zip(vals, vals[1:]))


def test_pitman_yor_lt_agrees_with_direct_formula():
    def direct(s):
        x = math.sqrt(2.0 * s)
        return 3.0 * (x * math.cosh(x) - math.sinh(x)) / math.sinh(x) ** 3

    # series branch vs direct where direct still carries ~10 digits
    s_small = 0.009 ** 2 / 2.0
    assert pitman_yor_lt(s_small) == pytest.approx(direct(s_small), rel=1e-8)
    # exponential branch vs direct below the overflow point of sinh^3
    s_large = 101.0 ** 2 / 2.0
    assert pitman_yor_lt(s_large) == pytest.approx(direct(s_large), rel=1e-12)


def test_pitman_yor_lt_requires_positive_s():
    with pytest.raises(PreconditionError):
        pitman_yor_lt(0.0)
    with pytest.raises(PreconditionError):
        pitman_yor_lt(-1.0)


def test_pitman_yor_identity_residual_small():
    assert oracle_pitman_yor_identity((0.5, 1.0, 2.0)) < 1e-6


def test_pitman_yor_identity_rejects_bad_grid():
    with pytest.raises(PreconditionError):
        oracle_pitman_yor_identity((0.5, 0.0))


# --- bernoulli convolution CF ------------------------------------------------


def test_viete_product_identity():
    # product of cos(t / 2^k) telescopes to |sin(2t) / (2t)|
    ts = np.array([0.5, 1.0, 3.7, 12.0, 47.5, 99.25])
    ref = np.abs(np.sin(2.0 * ts) / (2.0 * ts))
    np.testing.assert_allclose(bernoulli_convolution_cf(0.5, ts), ref,
                               rtol=0, atol=1e-12)


def test_third_cf_constant_on_scaling_lattice():
    # CF(3t) = cos(3t) CF(t), so |CF| repeats its value at t = 3^m pi
    ts = np.array([3.0 ** m * math.pi for m in range(5)])
    np.testing.assert_allclose(bernoulli_convolution_cf(1.0 / 3.0, ts),
                               THIRD_CF_AT_PI, rtol=0, atol=1e-12)


@pytest.mark.parametrize("c", [0.0, 1.0, 1.5, -0.3])
def test_bernoulli_cf_requires_contraction(c):
    with pytest.raises(PreconditionError):
        bernoulli_convolution_cf(c, np.array([1.0]))


# --- purity probe ------------------------------------------------------------


def test_purity_probe_decaying_for_uniform_symmetric():
    emp = _batch(oracle_uniform_symmetric().joint, 20_000, seed=11)
    probe = purity_probe(emp, lawM_const=0.5)
    assert probe.cf_decay == "decaying"
    assert probe.atoms == []
    assert probe.analytic_cf_check is not None
    assert probe.analytic_cf_check < 0.05


def test_purity_probe_persistent_for_singular_third():
    joint = Independent(PointMass(1.0 / 3.0), SignedRademacher(1.0))
    emp = _batch(joint, 20_000, seed=12)
    probe = purity_probe(emp, lawM_const=1.0 / 3.0)
    assert probe.cf_decay == "persistent"
    assert probe.atoms == []
    assert probe.analytic_cf_check < 0.05


def test_purity_probe_persistent_for_lattice():
    emp = _batch(oracle_geometric(0.3).joint, 20_000, seed=13)
    probe = purity_probe(emp)
    assert probe.cf_decay == "persistent"
    assert probe.analytic_cf_check is None
    values = [v for v, _ in probe.atoms]
    masses = [p for _, p in probe.atoms]
    assert values[0] == 1.0  # most frequent atom first
    assert masses[0] == pytest.approx(0.3, abs=0.02)
    assert masses == sorted(masses, reverse=True)


def test_purity_probe_small_sample_still_labels():
    emp = _batch(oracle_uniform_symmetric().joint, 64, seed=14)
    probe = purity_probe(emp)
    assert probe.cf_decay in {"decaying", "persistent", "inconclusive"}
    js = probe.to_json()
    assert js["method"] == "cf-scan-heuristic"
    assert set(js) == {"atoms", "cf_decay", "analytic_cf_check", "method"}


def test_purity_probe_requires_t_range():
    emp = _batch(oracle_uniform_symmetric().joint, 64, seed=14)
    with pytest.raises(PreconditionError):
        purity_probe(emp, t_max=2.0)

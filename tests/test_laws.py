import math
import time
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from perpetua.errors import LawValidationError, PreconditionError
from perpetua.laws import (EVENTS, Beta, Exponential, FiniteDiscrete,
                           FiniteJoint, Gamma, Independent, InverseGamma,
                           LogPareto, PointMass, Poisson, SignedRademacher,
                           UniformContinuous, UniformDiscreteRange, Weibull,
                           event_prob, joint_from_json, joint_to_json,
                           law_from_json, law_to_json)
from perpetua.streams import LANE_M, LANE_Q, RandomStream

# Density-backed families paired with their scipy counterparts; abs moments
# are cross-checked against direct quadrature of x^p times the density.
_SCIPY_PAIRS = [
    (Exponential(1.7), stats.expon(scale=1 / 1.7)),
    (Gamma(2.3, 1.4), stats.gamma(a=2.3, scale=1 / 1.4)),
    (Beta(1.0, 2.0), stats.beta(1.0, 2.0)),
    (Beta(2.5, 0.7), stats.beta(2.5, 0.7)),
    (UniformContinuous(0.25, 1.75), stats.uniform(0.25, 1.5)),
    (UniformContinuous(-2.0, 2.0), stats.uniform(-2.0, 4.0)),
    (Weibull(0.5, 1.0), stats.weibull_min(0.5, scale=1.0)),
    (Weibull(2.0, 0.8), stats.weibull_min(2.0, scale=0.8)),
    (InverseGamma(1.5, 0.25), stats.invgamma(1.5, scale=0.25)),
]


@pytest.mark.parametrize("law,dist", _SCIPY_PAIRS,
                         ids=[type(l).__name__ + repr(i) for i, (l, _) in enumerate(_SCIPY_PAIRS)])
@pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
def test_abs_moment_matches_density_quadrature(law, dist, p):
    got = law.abs_moment(p)
    if math.isinf(got):
        # quad cannot certify divergence; only check the finite cases
        pytest.skip("infinite moment")
    lo, hi = dist.support()
    val, _ = integrate.quad(lambda x: abs(x) ** p * dist.pdf(x), lo, hi,
                            limit=200)
    assert got == pytest.approx(val, rel=1e-8)


@pytest.mark.parametrize("law,dist", _SCIPY_PAIRS,
                         ids=[type(l).__name__ + repr(i) for i, (l, _) in enumerate(_SCIPY_PAIRS)])
def test_cdf_matches_scipy(law, dist):
    xs = np.linspace(*dist.support(), 31) if np.isfinite(dist.support()).all() \
        else np.linspace(0.01, 8.0, 31)
    for x in xs:
        assert law.cdf(float(x)) == pytest.approx(dist.cdf(x), abs=1e-10)


@pytest.mark.parametrize("law,dist", _SCIPY_PAIRS,
                         ids=[type(l).__name__ + repr(i) for i, (l, _) in enumerate(_SCIPY_PAIRS)])
def test_sampling_tracks_cdf(law, dist):
    gen = RandomStream(seed=11).generator()
    xs = np.sort(law.sample_block(gen, 4000))
    ecdf = np.arange(1, xs.size + 1) / xs.size
    ks = float(np.max(np.abs(ecdf - dist.cdf(xs))))
    assert ks < 0.035


def test_log_abs_mean_values():
    assert PointMass(0.5).log_abs_mean() == pytest.approx(-math.log(2))
    assert Beta(1.0, 1.0).log_abs_mean() == pytest.approx(-1.0)
    fd = FiniteDiscrete((3.0, 0.05), (0.25, 0.75))
    expect = 0.25 * math.log(3) + 0.75 * math.log(0.05)
    assert fd.log_abs_mean() == pytest.approx(expect)
    assert expect == pytest.approx(-1.9721, abs=1e-4)


def test_log_abs_mean_scipy_cross_check():
    # E log M for Beta(2, 3) via direct quadrature of log(x) * pdf
    law = Beta(2.0, 3.0)
    val, _ = integrate.quad(lambda x: math.log(x) * stats.beta(2, 3).pdf(x), 0, 1)
    assert law.log_abs_mean() == pytest.approx(val, rel=1e-8)


def test_restricted_exp_moment_examples():
    j = Independent(FiniteDiscrete((1.0, 0.5), (0.5, 0.5)), Exponential(2.0))
    assert j.restricted_exp_moment(1.0, +1, 1.0) == pytest.approx(1.0)
    assert j.restricted_exp_moment(0.7, +1, -1.0) == 0.0
    fj = FiniteJoint(((-1.0, 1.0, 0.3), (0.5, 1.0, 0.7)))
    assert fj.restricted_exp_moment(1.0, +1, -1.0) == pytest.approx(0.3 * math.e)


def test_event_prob_examples():
    assert event_prob(Independent(Beta(1.0, 2.0), Exponential(1.0)), "|M|<1") == 1.0
    j = Independent(FiniteDiscrete((1.0, 0.5), (0.5, 0.5)), Exponential(1.0))
    assert event_prob(j, "M=1") == 0.5
    fj = FiniteJoint(((0.0, 1.0, 0.2), (1.0, 1.0, 0.8)))
    assert event_prob(fj, "M=0") == pytest.approx(0.2)
    assert event_prob(fj, "Q=0") == 0.0
    with pytest.raises(PreconditionError):
        event_prob(j, "M=7")


def test_event_prob_all_events_are_probabilities():
    joints = [
        Independent(SignedRademacher(1.0), UniformContinuous(-1.0, 1.0)),
        Independent(UniformContinuous(-1.5, 1.5), PointMass(0.0)),
        FiniteJoint(((1.0, 0.0, 0.25), (-1.0, 2.0, 0.25), (0.5, 1.0, 0.5))),
    ]
    for j in joints:
        for ev in EVENTS:
            p = event_prob(j, ev)
            assert 0.0 <= p <= 1.0
    fj = joints[2]
    assert event_prob(fj, "|M|=1") == pytest.approx(0.5)
    assert event_prob(fj, "M=-1") == pytest.approx(0.25)
    assert event_prob(fj, "|M|<=1") == 1.0


def test_exp_moment_at_zero_is_one():
    laws = [PointMass(2.0), FiniteDiscrete((1.0, -3.0), (0.5, 0.5)),
            UniformContinuous(-1.0, 5.0), UniformDiscreteRange(4),
            Exponential(0.5), Gamma(2.0, 3.0), Beta(2.0, 2.0),
            Weibull(1.5, 1.0), Poisson(2.5), InverseGamma(1.5, 1.0),
            SignedRademacher(2.0), LogPareto(0.5)]
    for law in laws:
        assert law.exp_moment(0.0) == pytest.approx(1.0)
        assert law.exp_moment(0.0, of_abs=True) == pytest.approx(1.0)


def test_exp_moment_closed_forms():
    assert Exponential(2.0).exp_moment(1.0) == pytest.approx(2.0)
    assert math.isinf(Exponential(2.0).exp_moment(2.0))
    assert Gamma(2.0, 3.0).exp_moment(1.0) == pytest.approx((3.0 / 2.0) ** 2.0)
    lam = 1.3
    assert Poisson(lam).exp_moment(0.4) == pytest.approx(
        math.exp(lam * (math.exp(0.4) - 1.0)), rel=1e-10)
    n = 5
    s = 0.37
    direct = sum(math.exp(s * k) for k in range(n)) / n
    assert UniformDiscreteRange(n).exp_moment(s) == pytest.approx(direct, rel=1e-12)
    assert UniformContinuous(0.0, 2.0).exp_moment(1.0) == pytest.approx(
        (math.exp(2.0) - 1.0) / 2.0)


def test_exp_moment_against_scipy_expect():
    for law, dist, hi in [(Beta(2.0, 2.0), stats.beta(2, 2), 1.0),
                          (Weibull(2.0, 1.0), stats.weibull_min(2, scale=1), 40.0)]:
        want, _ = integrate.quad(lambda x: math.exp(0.8 * x) * dist.pdf(x),
                                 0.0, hi, limit=200)
        assert law.exp_moment(0.8) == pytest.approx(want, rel=1e-7)


def test_exp_moment_of_abs_splits_sign():
    law = UniformContinuous(-2.0, 1.0)
    want, _ = integrate.quad(lambda x: math.exp(0.5 * abs(x)) / 3.0, -2.0, 1.0)
    assert law.exp_moment(0.5, of_abs=True) == pytest.approx(want, rel=1e-9)
    rad = SignedRademacher(1.5)
    assert rad.exp_moment(0.4, of_abs=True) == pytest.approx(math.exp(0.6))
    assert rad.exp_moment(0.4) == pytest.approx(math.cosh(0.6))


def test_exp_abscissa_values():
    assert Exponential(2.0).exp_abscissa() == 2.0
    assert Gamma(1.5, 3.0).exp_abscissa() == 3.0
    assert math.isinf(Beta(1.0, 1.0).exp_abscissa())
    assert math.isinf(Poisson(1.0).exp_abscissa())
    assert math.isinf(Weibull(2.0, 1.0).exp_abscissa())
    assert Weibull(1.0, 2.0).exp_abscissa() == pytest.approx(0.5)
    assert Weibull(0.5, 1.0).exp_abscissa() == 0.0
    assert InverseGamma(1.5, 1.0).exp_abscissa() == 0.0
    assert LogPareto(0.5).exp_abscissa() == 0.0
    assert math.isinf(PointMass(3.0).exp_abscissa())


def test_log_pareto_tail_properties():
    heavy = LogPareto(0.5)
    assert math.isinf(heavy.log_plus_abs_moment())
    assert math.isinf(heavy.abs_moment(0.1))
    light = LogPareto(2.0)
    # E log X = index / (index - 1) for index > 1
    assert light.log_plus_abs_moment() == pytest.approx(2.0)
    assert math.isinf(light.abs_moment(0.5))
    assert heavy.cdf(math.e) == pytest.approx(0.0)
    assert heavy.cdf(math.exp(4.0)) == pytest.approx(1.0 - 4.0 ** -0.5)


def test_poisson_pmf_and_cdf_match_scipy():
    law = Poisson(2.5)
    ref = stats.poisson(2.5)
    for k in range(12):
        assert law.point_prob(float(k)) == pytest.approx(ref.pmf(k), rel=1e-10)
        assert law.cdf(float(k)) == pytest.approx(ref.cdf(k), rel=1e-10)
    assert law.point_prob(1.5) == 0.0


@pytest.mark.parametrize("lam", [50.0, 1e3, 1e7, 1e18])
def test_poisson_point_prob_at_the_mean_matches_mpmath(lam):
    # k log(mean) - mean - log k! cancels at large k: at 1e18 it gave 1.0
    with mpmath.workdps(50):
        k = mpmath.mpf(lam)
        want = float(mpmath.exp(k * mpmath.log(k) - k - mpmath.loggamma(k + 1)))
    assert Poisson(lam).point_prob(lam) == pytest.approx(want, rel=1e-13, abs=0.0)


def test_finite_discrete_validation():
    with pytest.raises(LawValidationError):
        FiniteDiscrete((1.0, 2.0), (0.5, 0.6))
    with pytest.raises(LawValidationError):
        FiniteDiscrete((1.0, 1.0), (0.5, 0.5))
    with pytest.raises(LawValidationError):
        FiniteDiscrete((1.0,), (1.0, 0.0))
    with pytest.raises(LawValidationError):
        Exponential(-1.0)
    with pytest.raises(LawValidationError):
        UniformContinuous(2.0, 2.0)
    with pytest.raises(LawValidationError):
        FiniteJoint(((0.5, 1.0, 0.7),))


def test_finite_joint_marginals_aggregate_duplicates():
    fj = FiniteJoint(((0.5, 1.0, 0.25), (0.5, 2.0, 0.25), (2.0, 1.0, 0.5)))
    m = fj.marginal_m()
    assert sorted(zip(m.values, m.probs)) == [(0.5, 0.5), (2.0, 0.5)]
    q = fj.marginal_q()
    assert sorted(zip(q.values, q.probs)) == [(1.0, 0.75), (2.0, 0.25)]


def test_finite_joint_active_atoms_built_once():
    fj = FiniteJoint(((0.5, 1.0, 0.25), (0.5, 2.0, 0.0), (2.0, 1.0, 0.75)))
    assert fj._active == ((0.5, 1.0, 0.25), (2.0, 1.0, 0.75))
    assert fj._active is fj._active


def test_restricted_factorization_identity():
    m = FiniteDiscrete((1.0, -1.0, 0.5), (0.3, 0.2, 0.5))
    q = Exponential(1.5)
    j = Independent(m, q)
    for s in (0.0, 0.3, 1.0):
        want = q.exp_moment(s) * event_prob(j, "M=1")
        assert j.restricted_exp_moment(s, +1, 1.0) == pytest.approx(want, rel=1e-12)
        wantm = q.exp_moment(-s) * event_prob(j, "M=-1") if s == 0 else \
            q.exp_moment(-s) * 0.2
        assert j.restricted_exp_moment(s, -1, -1.0) == pytest.approx(wantm, rel=1e-12)


@given(st.floats(min_value=0.0, max_value=2.0),
       st.floats(min_value=0.0, max_value=2.0))
@settings(max_examples=40, deadline=None)
def test_exp_moment_monotone_in_s_for_nonneg_laws(s1, s2):
    lo, hi = sorted((s1, s2))
    for law in (Exponential(2.5), Gamma(2.0, 3.0), Beta(1.5, 1.5),
                UniformDiscreteRange(3), Poisson(1.0)):
        assert law.exp_moment(lo) <= law.exp_moment(hi) * (1 + 1e-12)


@given(st.sampled_from([-1, 1]), st.sampled_from([1.0, -1.0, 0.5]))
@settings(max_examples=20, deadline=None)
def test_restricted_at_zero_equals_event_prob(q_sign, m_atom):
    fj = FiniteJoint(((1.0, 0.5, 0.4), (-1.0, 1.5, 0.1), (0.5, -2.0, 0.5)))
    ev = {1.0: "M=1", -1.0: "M=-1", 0.5: None}[m_atom]
    got = fj.restricted_exp_moment(0.0, q_sign, m_atom)
    if ev is None:
        assert got == pytest.approx(0.5)
    else:
        assert got == pytest.approx(event_prob(fj, ev))


_ALL_LAWS = [
    PointMass(1.5), FiniteDiscrete((3.0, 0.05), (0.25, 0.75)),
    UniformContinuous(-2.0, 2.0), UniformDiscreteRange(3), Exponential(2.0),
    Gamma(2.0, 2.0), Beta(1.0, 3.0), Weibull(0.5, 1.0), Poisson(1.5),
    InverseGamma(1.5, 0.25), SignedRademacher(1.0), LogPareto(0.5),
]


@pytest.mark.parametrize("law", _ALL_LAWS, ids=[l.family for l in _ALL_LAWS])
def test_law_json_round_trip(law):
    back = law_from_json(law_to_json(law))
    assert back == law
    assert law_to_json(back) == law_to_json(law)


def test_joint_json_round_trip():
    ind = Independent(Beta(1.0, 1.0), Exponential(1.0))
    assert joint_from_json(joint_to_json(ind)) == ind
    fj = FiniteJoint(((0.5, 1.0, 0.25), (2.0, -1.0, 0.75)))
    assert joint_from_json(joint_to_json(fj)) == fj


@pytest.mark.parametrize("obj,needle", [
    ({"coupling": "independent", "M": {"family": "point_mass", "params": {"value": 1}}},
     "config.Q: required"),
    ({"coupling": "independent", "Q": {"family": "point_mass", "params": {"value": 1}}},
     "config.M: required"),
    ({"coupling": "weird"}, "config.coupling: unknown coupling"),
    ({"coupling": "independent",
      "M": {"family": "nope", "params": {}},
      "Q": {"family": "point_mass", "params": {"value": 1}}},
     "config.M.family: unknown family"),
    ({"coupling": "independent",
      "M": {"family": "exponential", "params": {"rate": "x"}},
      "Q": {"family": "point_mass", "params": {"value": 1}}},
     "config.M.params.rate: expected a number"),
    ({"coupling": "independent",
      "M": {"family": "exponential", "params": {"rte": 1.0}},
      "Q": {"family": "point_mass", "params": {"value": 1}}},
     "config.M.params: wrong parameter names"),
    ({"coupling": "finite_joint", "atoms": []}, "config.atoms: required nonempty array"),
    ({"coupling": "finite_joint", "atoms": [[1.0, 2.0]]},
     "config.atoms[0]: expected [m, q, prob]"),
    ({"coupling": "independent",
      "M": {"family": "uniform_discrete_range", "params": {"n": math.inf}},
      "Q": {"family": "point_mass", "params": {"value": 1}}},
     "config.M.params.n: expected an integer"),
    ({"coupling": "independent",
      "M": {"family": "uniform_discrete_range", "params": {"n": math.nan}},
      "Q": {"family": "point_mass", "params": {"value": 1}}},
     "config.M.params.n: expected an integer"),
], ids=["missing-Q", "missing-M", "bad-coupling", "bad-family", "bad-param",
        "wrong-param-name", "empty-atoms", "short-atom", "inf-integer", "nan-integer"])
def test_json_errors_name_the_offending_path(obj, needle):
    with pytest.raises(LawValidationError) as e:
        joint_from_json(obj, "config")
    assert needle in str(e.value)


def test_sample_ops_are_deterministic():
    law = Gamma(2.0, 1.0)
    a = law.sample_block(RandomStream(3, 5).generator(), 4)
    b = law.sample_block(RandomStream(3, 5).generator(), 4)
    np.testing.assert_array_equal(a, b)
    j = Independent(Beta(1.0, 1.0), Exponential(1.0))
    m1, q1 = j.draw_pairs(RandomStream(3, 5), 4)
    m2, q2 = j.draw_pairs(RandomStream(3, 5), 4)
    np.testing.assert_array_equal(m1, m2)
    np.testing.assert_array_equal(q1, q2)


def test_independent_draw_pairs_marginal_lanes_do_not_interact():
    # changing Q's family must not perturb the M draws (separate lanes)
    j1 = Independent(Beta(1.0, 1.0), Exponential(1.0))
    j2 = Independent(Beta(1.0, 1.0), Gamma(3.0, 2.0))
    m1, _ = j1.draw_pairs(RandomStream(0, 0), 100)
    m2, _ = j2.draw_pairs(RandomStream(0, 0), 100)
    np.testing.assert_array_equal(m1, m2)


def test_point_mass_marginal_keys_no_generator():
    stream = RandomStream(0, 0)
    ms, qs = Independent(PointMass(0.5), Exponential(1.0)).draw_pairs(stream, 10)
    np.testing.assert_array_equal(ms, np.full(10, 0.5))
    assert LANE_M not in stream._gens and LANE_Q in stream._gens


def test_weibull_survival_keeps_tiny_tails():
    law = Weibull(2.0, 66.0 ** -0.5)
    assert law.prob_abs_gt(1.0) == pytest.approx(math.exp(-66.0), rel=1e-12)
    assert law.prob_abs_gt(0.0) == 1.0 and law.prob_abs_gt(-1.0) == 1.0
    assert Weibull(0.5, 1.0).prob_abs_gt(1.0) == pytest.approx(1.0 - Weibull(0.5, 1.0).cdf(1.0))


def test_finite_joint_draws_respect_probabilities():
    fj = FiniteJoint(((0.0, 1.0, 0.2), (1.0, 1.0, 0.8)))
    ms, qs = fj.draw_pairs(RandomStream(1, 0), 20000)
    assert np.mean(ms == 0.0) == pytest.approx(0.2, abs=0.01)
    np.testing.assert_array_equal(qs, np.ones_like(qs))


def test_support_and_point_prob():
    assert PointMass(2.0).support() == (2.0, 2.0)
    assert PointMass(2.0).point_prob(2.0) == 1.0
    assert Exponential(1.0).support() == (0.0, math.inf)
    assert Exponential(1.0).point_prob(0.5) == 0.0
    assert UniformDiscreteRange(3).support() == (0.0, 2.0)
    assert UniformDiscreteRange(3).point_prob(2.0) == pytest.approx(1 / 3)
    assert SignedRademacher(1.0).point_prob(-1.0) == pytest.approx(0.5)


# --- functionals at the edges of valid parameters -----------------------------

_POISSON_MEANS = [0.2, 5.0, 2000.0, 3000.0, 1e5, 1e10, 1e18, 9.223372006484771e18]


@pytest.mark.parametrize("lam", _POISSON_MEANS)
def test_poisson_moments_at_any_mean(lam):
    law = Poisson(lam)
    assert law.abs_moment(1.0) == pytest.approx(lam, rel=1e-12)
    assert law.abs_moment(2.0) == pytest.approx(lam + lam * lam, rel=1e-12)
    if lam >= 1e5:  # E log X = log lam - 1/(2 lam) - 5/(12 lam^2) + O(lam^-3)
        want = math.log(lam) - 1.0 / (2.0 * lam) - 5.0 / (12.0 * lam * lam)
        assert law.log_plus_abs_moment() == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("lam", [0.2, 5.0, 50.0, 1000.0])
def test_poisson_series_match_direct_sums(lam):
    ks = np.arange(1, int(lam + 60 * math.sqrt(lam) + 200))
    pmf = stats.poisson(lam).pmf(ks)
    for p in (0.5, 3.5):
        assert Poisson(lam).abs_moment(p) == pytest.approx(
            math.fsum(ks ** p * pmf), rel=1e-12)
    assert Poisson(lam).log_plus_abs_moment() == pytest.approx(
        math.fsum(np.log(ks) * pmf), rel=1e-12)


def test_poisson_functionals_finish_fast_at_the_largest_mean():
    law = Poisson(9.223372006484771e18)
    start = time.process_time()
    law.abs_moment(1.0)
    law.abs_moment(2.5)
    law.log_plus_abs_moment()
    assert time.process_time() - start < 0.5


@pytest.mark.parametrize("n", [2, 10, 1000, 65536, 65537, 70000])
def test_uniform_range_moments_exact_and_expanded(n):
    law = UniformDiscreteRange(n)
    assert law.abs_moment(1.0) == pytest.approx((n - 1) / 2, rel=1e-13)
    assert law.abs_moment(2.0) == pytest.approx((n - 1) * (2 * n - 1) / 6, rel=1e-13)
    for p in (0.5, 3.5):
        want = math.fsum(float(k) ** p for k in range(1, n)) / n
        assert law.abs_moment(p) == pytest.approx(want, rel=1e-13)
    want = math.fsum(math.log(k) for k in range(2, n)) / n
    assert law.log_plus_abs_moment() == pytest.approx(want, rel=1e-13)


def test_uniform_range_lists_no_atoms_and_finishes_fast():
    law = UniformDiscreteRange(2 ** 63)
    assert law.finite_atoms() is None
    start = time.process_time()
    assert law.abs_moment(1.0) == pytest.approx((2 ** 63 - 1) / 2, rel=1e-13)
    assert law.log_plus_abs_moment() == pytest.approx(
        math.lgamma(2.0 ** 63) / 2 ** 63, rel=1e-15)
    assert law.prob_abs_gt(1.0) == pytest.approx(1.0)
    assert law.prob_abs_lt(1.0) == 2.0 ** -63
    assert time.process_time() - start < 0.5
    assert UniformDiscreteRange(2).prob_abs_gt(1.0) == 0.0
    assert UniformDiscreteRange(3).prob_abs_lt(1.0) == pytest.approx(1 / 3)


def _log_plus_by_mpmath(law):
    """E log+ X = E log X + E log- X at 40 digits; X > 0 has a Gamma or inverse-Gamma law."""
    with mpmath.workdps(40):
        a = mpmath.mpf(law.shape)
        if isinstance(law, Gamma):
            r = mpmath.mpf(law.rate)
            mean_log = mpmath.digamma(a) - mpmath.log(r)
            log_pdf = lambda x: a * mpmath.log(r) + (a - 1) * mpmath.log(x) - r * x
        else:
            b = mpmath.mpf(law.scale)
            mean_log = mpmath.log(b) - mpmath.digamma(a)
            log_pdf = lambda x: a * mpmath.log(b) - (a + 1) * mpmath.log(x) - b / x
        log_minus = mpmath.quad(
            lambda x: -mpmath.log(x) * mpmath.exp(log_pdf(x) - mpmath.loggamma(a)), [0, 1])
        return float(mean_log + log_minus)


# mass far above 1 went missing when E log+ was one quadrature of log x pdf(x)
# over (1, inf)
@pytest.mark.parametrize("law", [Gamma(1.0, 1e-8), Gamma(1.0, 1e-300), Gamma(1e8, 1.0),
                                 InverseGamma(1e-8, 1.0), InverseGamma(1.0, 1e300)])
def test_log_plus_of_gamma_laws_far_from_one_matches_mpmath(law):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = law.log_plus_abs_moment()
    assert caught == []
    assert got == pytest.approx(_log_plus_by_mpmath(law), rel=1e-12)


# every Gamma and InverseGamma law of tests/analysis_golden.json, whose
# log_plus_abs_moment rows are held to this reference
@pytest.mark.parametrize("law", [Gamma(0.5, 0.5), Gamma(4.0, 3.0), Gamma(2.0, 5.0),
                                 Gamma(1.0, 1.0), Gamma(2.0, 1.0), InverseGamma(1.5, 0.5),
                                 InverseGamma(4.0, 2.0), InverseGamma(1.0, 0.1),
                                 InverseGamma(3.0, 0.5), InverseGamma(3.0, 2.0)])
def test_log_plus_of_gamma_laws_matches_mpmath(law):
    assert law.log_plus_abs_moment() == pytest.approx(_log_plus_by_mpmath(law), rel=1e-12)


@pytest.mark.parametrize("law", [Poisson(0.5), Poisson(1e10), UniformDiscreteRange(10),
                                 UniformDiscreteRange(10 ** 6)])
def test_moments_beyond_the_float_range_raise_overflow(law):
    with pytest.raises(OverflowError):
        law.abs_moment(1e300)
    with pytest.raises(OverflowError):
        law.abs_moment(700.0)


# E M^p = B(a + p, b) / B(a, b) and E log M = digamma(a) - digamma(a + b)
# cancelled once a >> b: Beta(1e15, 1) gave E log M = 0 and E M = 1
@pytest.mark.parametrize("a, b", [(a, b) for a in (1e6, 1e12, 1e15, 1e300) for b in (1.0, 2.5)]
                         + [(1e300, 1e300), (2.0, 3.0)])
def test_beta_moments_match_mpmath(a, b):
    law = Beta(a, b)
    # 40 digits beyond the magnitude of log Gamma(a + b), which cancels
    with mpmath.workdps(45 + int(math.log10(a + b))):
        ma, mb = mpmath.mpf(a), mpmath.mpf(b)
        log_mean = mpmath.digamma(ma) - mpmath.digamma(ma + mb)
        assert law.log_abs_mean() == pytest.approx(float(log_mean), rel=1e-12, abs=0.0)
        for p in (0.5, 1.0, 3.3):
            mp = mpmath.mpf(p)
            want = float(mpmath.exp(mpmath.loggamma(ma + mp) - mpmath.loggamma(ma)
                                    - mpmath.loggamma(ma + mb + mp) + mpmath.loggamma(ma + mb)))
            got = law.abs_moment(p)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)
            assert (got < 1.0) == (want < 1.0)  # the moment criterion compares with 1

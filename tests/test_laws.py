import math
import time
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from perpetua.errors import LawValidationError
from perpetua.laws import (Beta, Exponential, FiniteDiscrete, FiniteJoint,
                           Gamma, Independent, InverseGamma, LogPareto,
                           PointMass, Poisson, SignedRademacher,
                           UniformContinuous, UniformDiscreteRange, Weibull,
                           _abs_below_one, _abs_may_equal_one,
                           _abs_may_exceed_one, _abs_may_fall_below_one,
                           joint_from_json, joint_to_json, law_from_json,
                           law_to_json)
from perpetua.streams import LANE_M, LANE_Q, LanePool, RandomStream

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
    (Beta(19.0, 1.0), stats.beta(19.0, 1.0)),
    (Beta(1.0, 1.0), stats.beta(1.0, 1.0)),
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
    # what the package reads of the distribution function: the support, and
    # whether |X| exceeds or falls below 1 with positive probability
    assert law.support() == tuple(map(float, dist.support()))
    assert _abs_may_exceed_one(law) == (dist.sf(1.0) + dist.cdf(-1.0) > 0.0)
    assert _abs_may_fall_below_one(law) == (dist.cdf(1.0) - dist.cdf(-1.0) > 0.0)
    assert not (law.has_atom_at(0.0) or _abs_may_equal_one(law))


@pytest.mark.parametrize("law,dist", _SCIPY_PAIRS,
                         ids=[type(l).__name__ + repr(i) for i, (l, _) in enumerate(_SCIPY_PAIRS)])
def test_sampling_tracks_cdf(law, dist):
    gen = RandomStream(seed=11).generator()
    xs = np.sort(law.sample_block(gen, 4000))
    ecdf = np.arange(1, xs.size + 1) / xs.size
    ks = float(np.max(np.abs(ecdf - dist.cdf(xs))))
    assert ks < 0.035


@pytest.mark.parametrize("law,invert", [
    (Beta(19.0, 1.0), lambda u: u ** (1.0 / 19.0)),
    (Beta(1.0, 3.5), lambda u: 0.0 - np.expm1(np.log(u) / 3.5)),
], ids=["beta19-1", "beta1-3.5"])
def test_beta_inverts_one_uniform_block(law, invert):
    # Beta(a, 1) and Beta(1, b) are their inverse cdfs at u = 1 - U, U the
    # stream's own random() block
    got = law.sample_block(RandomStream(5, 3).generator(LANE_M), 1000)
    u = 1.0 - RandomStream(5, 3).generator(LANE_M).random(1000)
    assert got.tobytes() == invert(u).tobytes()


@pytest.mark.parametrize("a,b", [(19.0, 1.0), (1.0, 1.0), (0.5, 1.0), (1.0, 3.5)])
def test_inverted_beta_passes_ks(a, b):
    xs = Beta(a, b).sample_block(RandomStream(seed=29).generator(), 10 ** 5)
    assert stats.kstest(xs, stats.beta(a, b).cdf).pvalue > 1e-6


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("a,b,lo,hi", [
    (1e-300, 1.0, 0.0, 0.0), (5e-324, 1.0, 0.0, 0.0),
    (1e300, 1.0, 1.0, 1.0), (1.0, 1e-300, 1.0, 1.0), (1.0, 5e-324, 1.0, 1.0),
    (1.0, 1e300, 5e-324, 1e-298),
])
def test_inverted_beta_extremes_match_numpy(a, b, lo, hi):
    # the values numpy's beta sampler gives at these parameters, without a
    # floating-point warning, NaN or -0.0
    xs = Beta(a, b).sample_block(RandomStream(seed=30).generator(), 10 ** 4)
    assert lo <= xs.min() and xs.max() <= hi
    assert not (np.isnan(xs).any() or np.signbit(xs).any())


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
    # the events existence and the regime read: atom probabilities from
    # point_prob, the rest from the structural predicates
    assert _abs_below_one(Independent(Beta(1.0, 2.0), Exponential(1.0)).marginal_m())
    j = Independent(FiniteDiscrete((1.0, 0.5), (0.5, 0.5)), Exponential(1.0))
    assert j.marginal_m().point_prob(1.0) == 0.5
    fj = FiniteJoint(((0.0, 1.0, 0.2), (1.0, 1.0, 0.8)))
    assert fj.marginal_m().point_prob(0.0) == pytest.approx(0.2)
    assert fj.marginal_m().has_atom_at(0.0)
    assert fj.marginal_q().point_prob(0.0) == 0.0
    assert not fj.marginal_q().has_atom_at(0.0) and fj.marginal_q().as_point() == 1.0


def test_event_prob_all_events_are_probabilities():
    joints = [
        Independent(SignedRademacher(1.0), UniformContinuous(-1.0, 1.0)),
        Independent(UniformContinuous(-1.5, 1.5), PointMass(0.0)),
        FiniteJoint(((1.0, 0.0, 0.25), (-1.0, 2.0, 0.25), (0.5, 1.0, 0.5))),
    ]
    for j in joints:
        for law in (j.marginal_m(), j.marginal_q()):
            for x in (0.0, 1.0, -1.0):
                p = law.point_prob(x)
                assert 0.0 <= p <= 1.0
                assert law.has_atom_at(x) == (p > 0.0)
    m = joints[2].marginal_m()
    assert m.point_prob(1.0) + m.point_prob(-1.0) == pytest.approx(0.5)
    assert m.point_prob(-1.0) == pytest.approx(0.25)
    assert _abs_may_equal_one(m) and _abs_may_fall_below_one(m)
    assert not _abs_may_exceed_one(m)  # P{|M| <= 1} = 1
    assert joints[1].marginal_q().as_point() == 0.0  # P{Q = 0} = 1
    assert _abs_may_exceed_one(joints[1].marginal_m())


def test_exp_moment_at_zero_is_one():
    laws = [PointMass(2.0), FiniteDiscrete((1.0, -3.0), (0.5, 0.5)),
            UniformContinuous(-1.0, 5.0), UniformDiscreteRange(4),
            Exponential(0.5), Gamma(2.0, 3.0), Beta(2.0, 2.0),
            Weibull(1.5, 1.0), Poisson(2.5), InverseGamma(1.5, 1.0),
            SignedRademacher(2.0), LogPareto(0.5)]
    for law in laws:
        assert law.exp_moment(0.0) == pytest.approx(1.0)


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


# rate / (rate - s) rounds away the low digits of s / rate, which a large
# shape multiplies back up: the old form was 4.1e-8 off at (1e11, 1e11, 0.5)
@pytest.mark.parametrize("shape, rate", [(0.5, 0.5), (1.0, 1.0), (4.0, 3.0), (2.0, 5.0),
                                         (1e11, 1e11), (3.0, 1e15), (1e15, 1e15)])
def test_gamma_exp_moment_matches_mpmath(shape, rate):
    law = Gamma(shape, rate)
    for s in (-2.0 * rate, -2.0, -0.5, -1e-3, 1e-3, 0.1, 0.5, 0.4 * rate, 0.9 * rate):
        if s >= rate:
            continue
        with mpmath.workdps(40):
            want = float((mpmath.mpf(rate) / (mpmath.mpf(rate) - mpmath.mpf(s))) ** shape)
        assert law.exp_moment(s) == pytest.approx(want, rel=1e-13, abs=0.0)


# Weibull shape 1 is Exp(1 / scale), and 1 / scale overflows below about
# 5.6e-309: E e^{sX} = 1 / (1 - s scale) needs no rate
@pytest.mark.parametrize("scale", [5e-324, 1e-310, 5.5e-309, 0.2, 1e300])
def test_weibull_shape_one_exp_moment_at_any_scale(scale):
    law = Weibull(1.0, scale)
    for s in (-1e300, -2.0, -1e-8, 0.5, 1e300):
        want = 1.0 / (1.0 - s * scale) if s * scale < 1.0 else math.inf
        assert law.exp_moment(s) == pytest.approx(want, rel=1e-15)


def test_exp_moment_against_scipy_expect():
    for law, dist, hi in [(Beta(2.0, 2.0), stats.beta(2, 2), 1.0),
                          (Weibull(2.0, 1.0), stats.weibull_min(2, scale=1), 40.0)]:
        want, _ = integrate.quad(lambda x: math.exp(0.8 * x) * dist.pdf(x),
                                 0.0, hi, limit=200)
        assert law.exp_moment(0.8) == pytest.approx(want, rel=1e-7)


def test_signed_rademacher_exp_moment_is_cosh():
    assert SignedRademacher(1.5).exp_moment(0.4) == pytest.approx(math.cosh(0.6))


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
    assert not heavy.log_plus_abs_finite() and not LogPareto(1.0).log_plus_abs_finite()
    assert math.isinf(heavy.log_abs_mean())
    assert math.isinf(heavy.abs_moment(0.1))
    light = LogPareto(2.0)
    # E log X = index / (index - 1) for index > 1
    assert light.log_plus_abs_finite()
    assert light.log_abs_mean() == pytest.approx(2.0)
    assert math.isinf(light.abs_moment(0.5))
    assert heavy.support() == (math.e, math.inf)
    assert _abs_may_exceed_one(heavy) and not _abs_may_fall_below_one(heavy)


def test_poisson_pmf_and_cdf_match_scipy():
    law = Poisson(2.5)
    ref = stats.poisson(2.5)
    cdf = 0.0
    for k in range(12):
        assert law.point_prob(float(k)) == pytest.approx(ref.pmf(k), rel=1e-10)
        cdf += law.point_prob(float(k))
        assert cdf == pytest.approx(ref.cdf(k), rel=1e-10)
        assert law.has_atom_at(float(k))
    assert law.point_prob(1.5) == 0.0
    assert not law.has_atom_at(1.5) and not law.has_atom_at(-1.0)


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
        want = q.exp_moment(s) * m.point_prob(1.0)
        assert j.restricted_exp_moment(s, +1, 1.0) == pytest.approx(want, rel=1e-12)
        wantm = q.exp_moment(-s) * m.point_prob(-1.0) if s == 0 else \
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
    want = {1.0: 0.4, -1.0: 0.1, 0.5: 0.5}[m_atom]
    got = fj.restricted_exp_moment(0.0, q_sign, m_atom)
    assert got == pytest.approx(want)
    assert got == pytest.approx(fj.marginal_m().point_prob(m_atom))


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
    pool = LanePool()
    ms, qs = Independent(PointMass(0.5), Exponential(1.0)).draw_rows(0, [0, 1], 10, pool)
    np.testing.assert_array_equal(ms, np.full((2, 10), 0.5))
    assert LANE_M not in pool._lanes and LANE_Q in pool._lanes


@pytest.mark.parametrize("size", [48, (3, 48), (256, 96), 47, 1])
def test_signed_rademacher_block_matches_integers_and_generator_state(size):
    # the sign bits are read off random_raw for an even count: values and the
    # generator state after the call must be those of Generator.integers(0, 2)
    law = SignedRademacher(1.7)
    for key in range(100):
        want_gen, got_gen = (np.random.Generator(np.random.Philox(key=key)) for _ in range(2))
        want = law.scale * (2.0 * want_gen.integers(0, 2, size) - 1.0)
        got = law.sample_block(got_gen, size)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        want_state, got_state = want_gen.bit_generator.state, got_gen.bit_generator.state
        for k in ("counter", "key"):
            np.testing.assert_array_equal(got_state["state"][k], want_state["state"][k])
        np.testing.assert_array_equal(got_state["buffer"], want_state["buffer"])
        assert got_state["buffer_pos"] == want_state["buffer_pos"]
        # an odd count leaves half a word buffered; uinteger is read only then
        assert got_state["has_uint32"] == want_state["has_uint32"]
        if want_state["has_uint32"]:
            assert got_state["uinteger"] == want_state["uinteger"]
        assert got_gen.integers(0, 2 ** 32, 3, dtype=np.uint32).tolist() == \
            want_gen.integers(0, 2 ** 32, 3, dtype=np.uint32).tolist()
        assert got_gen.random() == want_gen.random()


def test_signed_rademacher_even_block_needs_no_buffered_half():
    # an odd count leaves half a word buffered, which integers(0, 2) reads
    # first and the random_raw path does not: the signs then differ, so an
    # even block must not follow an odd one on the same generator
    law = SignedRademacher(1.0)
    want_gen, got_gen = (np.random.Generator(np.random.Philox(key=5)) for _ in range(2))
    assert law.sample_block(got_gen, 47).tolist() == \
        (2.0 * want_gen.integers(0, 2, 47) - 1.0).tolist()
    assert got_gen.bit_generator.state["has_uint32"] == 1
    assert law.sample_block(got_gen, 48).tolist() != \
        (2.0 * want_gen.integers(0, 2, 48) - 1.0).tolist()


def test_signed_rademacher_draw_path_matches_integers():
    # the blocks of one path, as the sampler draws them: even counts, then an
    # odd last one
    law = SignedRademacher(1.0)
    joint = Independent(law, Exponential(1.0))
    for stream_id in range(20):
        stream = RandomStream(3, stream_id)
        want_gen = RandomStream(3, stream_id).generator(LANE_M)
        for size in (48, 96, 47):
            ms, _ = joint.draw_pairs(stream, size)
            assert ms.tolist() == (2.0 * want_gen.integers(0, 2, size) - 1.0).tolist()


# one law of each family, and beta on both its samplers; log_pareto(0.2)
# overflows to inf in about a quarter of its draws
_ROW_LAWS = (
    PointMass(0.5), FiniteDiscrete((0.0, 0.5, 2.0), (0.2, 0.3, 0.5)),
    UniformContinuous(-1.0, 2.0), UniformDiscreteRange(7), Exponential(1.5),
    Gamma(2.5, 0.5), Beta(19.0, 1.0), Beta(2.5, 0.7), Beta(1.0, 3.5),
    Weibull(0.5, 2.0), Poisson(3.0),
    InverseGamma(1.5, 0.25), SignedRademacher(1.7), LogPareto(0.2),
)
_ROW_JOINTS = (
    *(Independent(law, Gamma(2.0, 1.0)) for law in _ROW_LAWS),
    *(Independent(UniformContinuous(0.0, 1.0), law) for law in _ROW_LAWS),
    FiniteJoint(((0.5, 1.0, 0.5), (-0.9, -2.0, 0.3), (1.5, 0.5, 0.2))),
    FiniteJoint(((0.0, 3.0, 0.2), (0.8, -1.0, 0.8))),
)
_ROW_SIZES = (1, 47, 48, 49, 96, 2 * 48 + 1)


def _assert_rows_are_draw_pairs(joint, seed, ids, size, pool):
    ms, qs = joint.draw_rows(seed, ids, size, pool)
    want = [joint.draw_pairs(RandomStream(seed, i), size) for i in ids]
    assert ms.shape == qs.shape == (len(ids), size)
    assert ms.dtype == qs.dtype == np.float64
    assert ms.tobytes() == np.array([m for m, _ in want]).tobytes()
    assert qs.tobytes() == np.array([q for _, q in want]).tobytes()
    return ms, qs


@settings(max_examples=150, deadline=None)
@given(joint=st.sampled_from(_ROW_JOINTS),
       seed=st.integers(0, 2 ** 64 - 1),
       ids=st.lists(st.integers(0, 2 ** 40), min_size=1, max_size=6),
       sizes=st.lists(st.sampled_from(_ROW_SIZES), min_size=1, max_size=3))
def test_draw_rows_are_stacked_draw_pairs(joint, seed, ids, sizes):
    # one pool serves several waves, as in a batch, so an odd-sized wave
    # must leave nothing buffered for the next
    pool = LanePool()
    for size in sizes:
        _assert_rows_are_draw_pairs(joint, seed, ids, size, pool)


@pytest.mark.parametrize("size", _ROW_SIZES)
@pytest.mark.parametrize("law", [SignedRademacher(1.7), Poisson(3.0), Poisson(1e15),
                                 UniformDiscreteRange(7), UniformDiscreteRange(2 ** 63),
                                 LogPareto(0.2)], ids=repr)
def test_draw_rows_of_laws_without_a_digest(law, size):
    # no golden digest covers these samplers in a batch; log_pareto(0.2)
    # must overflow to inf in its rows as in its per-stream draws
    pool = LanePool()
    ids = [*range(40), 2 ** 40]
    for joint in (Independent(law, Exponential(1.0)), Independent(Beta(2.0, 1.0), law)):
        for seed in (0, 2 ** 64 - 1):
            ms, qs = _assert_rows_are_draw_pairs(joint, seed, ids, size, pool)
    if isinstance(law, LogPareto) and size > 1:
        assert np.isinf(qs).any() and np.isfinite(qs).any()


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


@pytest.mark.parametrize("lam", [0.2, 5.0, 50.0, 1000.0])
def test_poisson_series_match_direct_sums(lam):
    ks = np.arange(1, int(lam + 60 * math.sqrt(lam) + 200))
    pmf = stats.poisson(lam).pmf(ks)
    for p in (0.5, 3.5):
        assert Poisson(lam).abs_moment(p) == pytest.approx(
            math.fsum(ks ** p * pmf), rel=1e-12)


def test_poisson_functionals_finish_fast_at_the_largest_mean():
    law = Poisson(9.223372006484771e18)
    start = time.process_time()
    law.abs_moment(1.0)
    law.abs_moment(2.5)
    assert time.process_time() - start < 0.5


@pytest.mark.parametrize("n", [2, 10, 1000, 65536, 65537, 70000])
def test_uniform_range_moments_exact_and_expanded(n):
    law = UniformDiscreteRange(n)
    assert law.abs_moment(1.0) == pytest.approx((n - 1) / 2, rel=1e-13)
    assert law.abs_moment(2.0) == pytest.approx((n - 1) * (2 * n - 1) / 6, rel=1e-13)
    for p in (0.5, 3.5):
        want = math.fsum(float(k) ** p for k in range(1, n)) / n
        assert law.abs_moment(p) == pytest.approx(want, rel=1e-13)


def test_uniform_range_lists_no_atoms_and_finishes_fast():
    law = UniformDiscreteRange(2 ** 63)
    assert law.finite_atoms() is None
    start = time.process_time()
    assert law.abs_moment(1.0) == pytest.approx((2 ** 63 - 1) / 2, rel=1e-13)
    assert _abs_may_exceed_one(law) and _abs_may_fall_below_one(law)
    assert law.has_atom_at(0.0) and law.has_atom_at(2.0 ** 62)
    assert not law.has_atom_at(2.0 ** 63) and not law.has_atom_at(-1.0)
    assert law.point_prob(0.0) == 2.0 ** -63
    assert time.process_time() - start < 0.5
    assert not _abs_may_exceed_one(UniformDiscreteRange(2))
    assert _abs_may_equal_one(UniformDiscreteRange(2))
    assert _abs_may_fall_below_one(UniformDiscreteRange(3))
    assert UniformDiscreteRange(3).point_prob(0.0) == pytest.approx(1 / 3)


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


def _assert_log_plus_agrees(law, want):
    """log_plus_abs_finite() against a reference E log+ X, which also bounds E log X."""
    assert law.log_plus_abs_finite() == math.isfinite(want)
    assert law.log_abs_mean() <= want + 1e-12 * abs(want)


# Gamma and InverseGamma laws with mass far above 1
@pytest.mark.parametrize("law", [Gamma(1.0, 1e-8), Gamma(1.0, 1e-300), Gamma(1e8, 1.0),
                                 InverseGamma(1e-8, 1.0), InverseGamma(1.0, 1e300)])
def test_log_plus_of_gamma_laws_far_from_one_matches_mpmath(law):
    _assert_log_plus_agrees(law, _log_plus_by_mpmath(law))


# every Gamma and InverseGamma law of tests/analysis_golden.json
@pytest.mark.parametrize("law", [Gamma(0.5, 0.5), Gamma(4.0, 3.0), Gamma(2.0, 5.0),
                                 Gamma(1.0, 1.0), Gamma(2.0, 1.0), InverseGamma(1.5, 0.5),
                                 InverseGamma(4.0, 2.0), InverseGamma(1.0, 0.1),
                                 InverseGamma(3.0, 0.5), InverseGamma(3.0, 2.0)])
def test_log_plus_of_gamma_laws_matches_mpmath(law):
    _assert_log_plus_agrees(law, _log_plus_by_mpmath(law))


@pytest.mark.parametrize("law", [Poisson(0.5), Poisson(1e10), UniformDiscreteRange(10),
                                 UniformDiscreteRange(10 ** 6), Weibull(0.5, 1.0)])
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


# E X^p = scale^p Gamma(1 + p / shape) overflowed in its Gamma factor while
# scale^p brought the product back into range: Weibull(0.005, 1e-300) has
# E X = 1e-300 Gamma(201) = 7.9e74
@pytest.mark.parametrize("shape, scale, p", [(0.005, 1e-300, 1.0), (0.01, 1e-280, 2.0),
                                             (0.5, 0.5, 3.5), (3.0, 2.0, 2.0),
                                             (2.0, 1e150, 2.0), (1.0, 1e-300, 40.0)])
def test_weibull_moments_match_mpmath(shape, scale, p):
    with mpmath.workdps(40):
        want = float(mpmath.mpf(scale) ** p * mpmath.gamma(1 + mpmath.mpf(p) / shape))
    # e^log is good to about |log| ulps, 426 of them at 7.9e-186
    assert Weibull(shape, scale).abs_moment(p) == pytest.approx(want, rel=1e-12, abs=0.0)


# --- E|X|^p of the log-Gamma-ratio families against mpmath ---------------------
# Every parameter and every order over wide grids, plus gamma and inverse_gamma
# laws whose rate or scale sits next to their shape, where E X or E X^2 is 1
# or within 1e-9 of it.  The old log-Gamma differences cancelled there:
# Gamma(1e11, 1e11) gave E X = 0.99969, a finite E|Z| where it is infinite.
# Weibull's E X^p = scale^p Gamma(1 + p / shape) is the same helper at x = 1.
# Tiny orders below x = 30, and p / shape down to 5e-18, are where a gammaln
# difference returned log E X^p = 0: E X^0.5 of Weibull(1e17, 1) rounds to 1
# but is Gamma(1 + 5e-18) < 1.
_SWEEP_PARAMS = (1e-300, 1e-10, 0.5, 2.0, 19.0, 1e3, 1e6, 1e12, 1e15, 1e100, 1e300)
_SWEEP_ORDERS = (0.25, 0.5, 1.0, 2.0, 3.3, 40.0, 1e3, 1e6, 1e10, 1e15, 1e100, 1e300)
_TINY_ORDERS = (5e-18, 1e-10)
# inverse_gamma orders next to the shape a, where E X^p = scale^p
# Gamma(a - p) / Gamma(a) and the first step of the shift, log(1 - p / a),
# is next to log 0: log1p of the rounded quotient -p / a is 0.3% off there
# at a = 0.7, p = a (1 - 1e-14)
_NEAR_SHAPE = (1e-3, 1e-7, 1e-14)


def _near_one(a):
    return [c for c in (a, a * (1 + 1e-9), a * (1 - 1e-9), a + 1.0, a - 1.0) if c > 0]


_RATIO_LAWS = list(dict.fromkeys(
    [cls(a, b) for cls in (Gamma, InverseGamma, Beta) for a in _SWEEP_PARAMS
     for b in _SWEEP_PARAMS]
    + [cls(a, c) for cls in (Gamma, InverseGamma) for a in (0.4, 2.5, 19.0, 1e3, 1e11, 1e15)
       for c in _near_one(a)]
    + [Exponential(r) for r in _SWEEP_PARAMS + tuple(_near_one(1.0))]
    + [Weibull(k, lam) for k in (1e-10, 0.5, 2.0, 19.0, 1e6, 1e17, 1e300)
       for lam in (1e-300, 0.5, 1.0, 2.0, 1e300)]))


def _log_abs_moment_by_mpmath(law, p):
    lg, log = mpmath.loggamma, mpmath.log
    if isinstance(law, Exponential):
        return lg(1 + p) - p * log(law.rate)
    if isinstance(law, Gamma):
        a = mpmath.mpf(law.shape)
        return lg(a + p) - lg(a) - p * log(law.rate)
    if isinstance(law, InverseGamma):
        a = mpmath.mpf(law.shape)
        return p * log(law.scale) + lg(a - p) - lg(a) if p < a else mpmath.inf
    if isinstance(law, Weibull):
        return p * log(law.scale) + lg(1 + p / law.shape)
    a, b = mpmath.mpf(law.alpha), mpmath.mpf(law.beta)
    return lg(a + p) - lg(a) - lg(a + b + p) + lg(a + b)


def _sign(x):
    return (x > 0) - (x < 0)


def test_log_gamma_ratio_moments_match_mpmath():
    misses, checked = [], 0
    for law in _RATIO_LAWS:
        params = list(law.params_json().values())
        x = 1.0 if isinstance(law, (Exponential, Weibull)) else params[0]
        near_shape = tuple(x * (1.0 - r) for r in _NEAR_SHAPE) if isinstance(law, InverseGamma) else ()
        for p in _SWEEP_ORDERS + (_TINY_ORDERS if x < 30.0 else ()) + near_shape:
            # the order Gamma's argument moves by, whose rounding the log carries
            step = {Beta: min(params[-1], p), Weibull: max(p, p / params[0])}.get(type(law), p)
            if not step < math.inf:
                continue
            # the log-Gammas that cancel are below 10^(digits + 3); 60 digits
            # beyond them, and beyond a tiny order, which the log scales with,
            # up to 700 digits, which resolve every log that a float holds
            digits = max(0, int(math.log10(sum(params) + max(p, step))))
            tiny = max(0, -int(math.log10(min(p, step))))
            with mpmath.workdps(min(60 + 2 * digits + tiny, 700)):
                log_want = _log_abs_moment_by_mpmath(law, mpmath.mpf(p))
                # an exact 0, as log E G of G ~ Gamma(a, a), comes out about
                # 10^(digits + 3 - dps) off 0, below every other log of the
                # grid that a float holds
                if abs(log_want) < mpmath.mpf(10) ** (digits + 20 - mpmath.mp.dps):
                    log_want = mpmath.mpf(0)
                got = law._log_abs_moment(p)
                err = float(abs(mpmath.mpf(got) - log_want)) if got != log_want else 0.0
                log_want = float(log_want)
            checked += 1
            # where E|X|^p is a normal float, 1e-12 of it, and of a log below 1,
            # or 2^-48 of the step; elsewhere, 1e-12 of the log.  The moment
            # criterion reads the sign of the log, which must be exact
            in_range = -690.0 < log_want < 709.0
            tol = max(2.0 ** -48 * step,
                      1e-12 * (min(1.0, abs(log_want)) if in_range else abs(log_want)))
            if not (err <= tol and _sign(got) == _sign(log_want)):
                misses.append((law, p, got, log_want, err))
    assert checked > 5000
    assert misses == []


# E log X = digamma(a) - log(rate) of gamma and log(scale) - digamma(a) of
# inverse_gamma cancelled once rate or scale is near a: Gamma(1e15, 1e15)
# gave 0.0 against -5e-16
@pytest.mark.parametrize("a", [10.0, 1e4, 1e8, 1e15, 1e300])
@pytest.mark.parametrize("ratio", [1.0, 1e-3, 2.5, 1e5])
def test_gamma_log_means_match_mpmath(a, ratio):
    c = a * ratio
    # 30 digits beyond those that digamma(a) and log(a) share
    with mpmath.workdps(30 + int(math.log10(a))):
        want = float(mpmath.digamma(mpmath.mpf(a)) - mpmath.log(mpmath.mpf(c)))
    assert Gamma(a, c).log_abs_mean() == pytest.approx(want, rel=1e-13, abs=0.0)
    assert InverseGamma(a, c).log_abs_mean() == pytest.approx(-want, rel=1e-13, abs=0.0)


# near its root c = e^digamma(a), about a - 1/2 + 1/(24a), the sum
# log(a / c) + digamma(a) - log a cancels down to a few ulps of its terms:
# at a = 1e15, c = a - 0.5 it is +4.2e-32, and rounding a / c gave -5.6e-17
@pytest.mark.parametrize("a, c", [(30.0, 29.5), (1e4, 1e4 - 0.5), (1e8, 1e8 - 0.5),
                                  (1e15, 1e15 - 0.5), (1e15, 1e15 - 0.375),
                                  (1e15, 1e15 - 0.625), (4e15, 4e15 - 0.5)])
def test_gamma_log_means_near_their_root_match_mpmath(a, c):
    # 30 digits beyond those that digamma(a), log(c) and a / c - 1 share
    with mpmath.workdps(30 + 2 * int(math.log10(a))):
        want = float(mpmath.digamma(mpmath.mpf(a)) - mpmath.log(mpmath.mpf(c)))
    assert Gamma(a, c).log_abs_mean() == pytest.approx(want, rel=1e-13, abs=0.0)
    assert InverseGamma(a, c).log_abs_mean() == pytest.approx(-want, rel=1e-13, abs=0.0)


# below the large-a expansion, digamma(a) - digamma(a + b) cancelled once
# b << a: Beta(19, 1e-300) gave E log M = 0 and Beta(19, 1e-10) was off by 6e-6
@pytest.mark.parametrize("a, b", [(a, a * f) for a in (1e-300, 1e-5, 0.5, 1.0, 19.0, 9999.0)
                                  for f in (1e-12, 1e-4, 0.0099, 0.0101)]
                         + [(19.0, 1e-300), (19.0, 1e-10), (0.5, 1e-12), (2.0, 5e-324)])
def test_beta_log_mean_with_beta_far_below_alpha_matches_mpmath(a, b):
    # 40 digits beyond those that digamma(a) and digamma(a + b) share
    with mpmath.workdps(45 + int(math.log10(a) - math.log10(b))):
        ma, mb = mpmath.mpf(a), mpmath.mpf(b)
        want = float(mpmath.digamma(ma) - mpmath.digamma(ma + mb))
    assert Beta(a, b).log_abs_mean() == pytest.approx(want, rel=1e-12, abs=0.0)


def _weibull_log_plus_by_mpmath(law):
    """E log+ X = E1(scale^-shape) / shape at 40 digits (0 once E1 is below e^-10^4)."""
    with mpmath.workdps(40):
        k = mpmath.mpf(law.shape)
        u0 = mpmath.mpf(law.scale) ** -k
        return 0.0 if u0 > 1e4 else float(mpmath.e1(u0) / k)


@pytest.mark.parametrize("law", [Weibull(k, lam) for k in (1e-300, 1e-8, 1e-3, 0.5, 1.0, 5.0,
                                                           50.0, 1e3, 1e300)
                                 for lam in (1e-300, 1e-8, 1e-3, 0.5, 0.9, 1.0, 2.0, 1e3,
                                             1e300)]
                         + [Weibull(1.0, 0.2)],
                         ids=lambda law: f"{law.shape:g}-{law.scale:g}")
def test_weibull_log_plus_matches_mpmath(law):
    _assert_log_plus_agrees(law, _weibull_log_plus_by_mpmath(law))


# --- the three Gamma means against mpmath --------------------------------------
# E e^{sX} of InverseGamma(a, b) = b / G, Weibull(k, lam) = lam G^{1/k} and
# LogPareto(i) = exp(exp(G / i)), G ~ Gamma(a, 1) (a = 1 for the last two),
# share one quadrature over T = log(G / a).


def _gamma_mean_by_mpmath(a, psi_h, d1_h, d2_h, marks=()):
    """E e^{psi_h(T)} for T = log(G / a) at 17 + log10(a) digits.

    psi_h + log density is unimodal in every case below: its peak is bisected
    from the derivative d1_h + d log density, and the line is cut there and at
    8^j Laplace widths on each side, and at 8^j widths about each (point,
    width) of ``marks``, until the integrand falls below e^-50 of its peak.
    """
    with mpmath.workdps(17 + max(0, int(math.log10(a)))):
        a = mpmath.mpf(a)
        c0 = a * mpmath.log(a) - a - mpmath.loggamma(a)

        def psi(t):
            if t > 3000:
                return -mpmath.inf
            return psi_h(t) - a * (mpmath.expm1(t) - t) + c0

        def d1(t):
            return d1_h(t) - a * mpmath.expm1(t)

        x0, x1 = mpmath.mpf(-1), mpmath.mpf(1)
        for i in range(200):
            if d1(x0) <= 0:
                x0 -= 2 ** i
            elif d1(x1) >= 0:
                x1 += 2 ** i
            else:
                break
        for _ in range(200):
            mid = (x0 + x1) / 2
            if mid in (x0, x1):
                break
            x0, x1 = (mid, x1) if d1(mid) > 0 else (x0, mid)
        peak = (x0 + x1) / 2
        top = psi(peak)
        curv = a * mpmath.exp(peak) - d2_h(peak)
        cuts = {peak}
        for point, width in [(peak, 1 / mpmath.sqrt(curv) if curv > 0 else 1)] + list(marks):
            for sign in (-1, 1):
                for j in range(-1, 40):
                    x = point + sign * width * mpmath.mpf(8) ** j
                    cuts.add(x)
                    if psi(x) < top - 50:
                        break

        def f(t):
            v = psi(t) - top
            return mpmath.exp(v) if v > -10 ** 4 else mpmath.mpf(0)

        return float(mpmath.exp(top) * mpmath.quad(f, sorted(cuts), maxdegree=5))


def _gamma_mean_reference(law, s):
    """exp_moment(s) by mpmath."""
    mp = mpmath.mpf
    if s == 0 or (s > 0 and law.exp_abscissa() == 0.0):
        return 1.0 if s == 0 else math.inf
    if isinstance(law, InverseGamma):
        a, z = mp(law.shape), -mp(s) * law.scale
        if a <= 1e4:  # 2 z^{a/2} K_a(2 sqrt z) / Gamma(a); mpmath's K_a is slow at larger orders
            with mpmath.workdps(30):
                try:
                    return float(2 * z ** (a / 2) * mpmath.besselk(a, 2 * mpmath.sqrt(z))
                                 / mpmath.gamma(a))
                except mpmath.libmp.NoConvergence:
                    pass
        ell = mpmath.log(z / a)
        return _gamma_mean_by_mpmath(a, lambda t: -mpmath.exp(ell - t), lambda t: mpmath.exp(ell - t),
                                     lambda t: -mpmath.exp(ell - t))
    if isinstance(law, Weibull):
        k, z = mp(law.shape), mp(s) * law.scale
        with mpmath.workdps(40):
            if k == 1:
                return float(1 / (1 - z)) if z < 1 else math.inf
            if k == 2:  # 1 + sqrt(pi) z/2 e^{z^2/4} erfc(-z/2)
                return float(1 + mpmath.sqrt(mpmath.pi) * z / 2 * mpmath.exp(z * z / 4)
                             * mpmath.erfc(-z / 2))
            if k <= 1e-6:  # a step at sigma = -k log(-z) smoothed over k: E h =
                # F(sigma) - euler k f(sigma) - (pi^2/12 + euler^2/2) k^2 f'(sigma) + O(k^3)
                sigma = -k * mpmath.log(-z)
                f = mpmath.exp(sigma - mpmath.exp(sigma))
                return float(-mpmath.expm1(-mpmath.exp(sigma)) - mpmath.euler * k * f
                             - (mpmath.pi ** 2 / 12 + mpmath.euler ** 2 / 2) * k * k * f
                             * -mpmath.expm1(sigma))
        ell, sign = mpmath.log(abs(z)), mpmath.sign(z)

        def e(t):
            return sign * mpmath.exp(ell + t / k)

        return _gamma_mean_by_mpmath(1, e, lambda t: e(t) / k, lambda t: e(t) / k ** 2,
                                     marks=[(-k * ell, k)])
    # X = e^{1 + x}, P{x > y} = (1 + y)^-index for y >= 0: E e^{sX} =
    # e^{se} int_0^inf e^{s e expm1(x)} index (1 + x)^(-index-1) dx, cut on
    # the scales of both factors near x = 0 and about x = log(-1/s) - 1
    with mpmath.workdps(17):
        index, s = mp(law.index), mp(s)
        c = min(1 / (-s * mpmath.e), 1 / index)
        x0 = mpmath.log(-1 / s) - 1
        cuts = {mp(0), mpmath.inf} | {c * mp(8) ** j for j in range(-2, 30) if c * 8 ** j < 1000}
        cuts |= {x0 + d for d in (-5, -2, -1, 0, 1, 2, 5) if x0 + d > 0}
        integral = mpmath.quad(lambda x: mpmath.exp(s * mpmath.e * mpmath.expm1(x) + mpmath.log(index)
                                                    - (index + 1) * mpmath.log1p(x))
                               if x < 800 else mpmath.mpf(0), sorted(cuts))
        return float(mpmath.exp(s * mpmath.e) * integral)


_SWEEP_S = (-100.0, -2.0, -0.5, -1e-8, 0.5, 2.0)
_SPREAD = (1e-8, 1.0, 1e8)
# every law of tests/analysis_golden.json and its analyze configs whose
# functionals are Gamma means, at the s of its exp_moment rows, the parameter
# corners of the Q laws of perfbench/configs.py, the cases that were wrong
# without a warning, and the shapes, scales and indices of _SPREAD
_GAMMA_MEAN_POINTS = list(dict.fromkeys(
    [(law, s) for law in (InverseGamma(1.5, 0.5), InverseGamma(4.0, 2.0), InverseGamma(1.0, 0.1),
                            InverseGamma(3.0, 0.5), InverseGamma(1.5, 2.0), InverseGamma(4.0, 0.5),
                            Weibull(0.5, 0.5), Weibull(3.0, 2.0), Weibull(1.0, 0.2),
                            Weibull(0.5, 1.0), Weibull(3.0, 0.5), Weibull(0.5, 2.0),
                            LogPareto(0.3), LogPareto(1.0), LogPareto(1.5), LogPareto(4.0),
                            LogPareto(0.5))
       for s in (-2.0, -0.5, 0.0, 0.1, 0.5, 2.0)]
    + [(InverseGamma(1.0, 1e-10), -0.5), (InverseGamma(1000.0, 1.0), -0.5),
       (InverseGamma(10.0, 1e-10), -1.0)]
    + [(cls(a, b), s) for cls in (InverseGamma, Weibull) for a in _SPREAD for b in _SPREAD
       for s in _SWEEP_S]
    + [(LogPareto(i), s) for i in _SPREAD for s in _SWEEP_S]))


def test_gamma_means_match_mpmath():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = [law.exp_moment(s) for law, s in _GAMMA_MEAN_POINTS]
    assert caught == []
    misses = []
    for (law, s), value in zip(_GAMMA_MEAN_POINTS, got):
        want = _gamma_mean_reference(law, s)
        if value != pytest.approx(want, rel=1e-12, abs=1e-300):
            misses.append((law, s, value, want))
    assert misses == []


# --- the three Gamma means at the float limits --------------------------------
# shape, scale and index in {1e-300, 1, 1e300}, every pair but (1, 1), at
# the s of _SWEEP_S: 108 points.  Where the mpmath reference above fails at
# these extremes, the reference is the exact limit of the mean:
# - a = 1e-300: G has density a x^{-1} e^{-x} up to a factor 1 + O(a log x),
#   so E e^{-z / G} = 2 a K_0(2 sqrt z), and for log_pareto
#   E h(e^{e^{G / i}}) = i int_0^inf h(e^{e^y}) dy;
# - a = 1e300: X = b / G or scale G^{1/shape} equals b / a, resp. scale, to
#   1e-150, so E e^{sX} = e^{s b / a}, resp. e^{s scale}.
_WIDE = (1e-300, 1.0, 1e300)
_WIDE_PAIRS = [(a, b) for a in _WIDE for b in _WIDE if (a, b) != (1.0, 1.0)]
_WIDE_POINTS = ([(cls(a, b), s) for cls in (InverseGamma, Weibull) for a, b in _WIDE_PAIRS
                 for s in _SWEEP_S]
                + [(LogPareto(i), s) for i in (1e-300, 1e300) for s in _SWEEP_S])


def _wide_limit(law, s):
    """The exact limit of the mean at a float-limit parameter, or None."""
    mp = mpmath.mpf
    if s > 0 and law.exp_abscissa() == 0.0:
        return math.inf
    with mpmath.workdps(30):
        if isinstance(law, InverseGamma) and law.shape == 1e300:
            return float(mpmath.exp(mp(s) * law.scale / law.shape))
        if isinstance(law, InverseGamma) and law.shape == 1e-300:
            z = -mp(s) * law.scale
            return float(2 * law.shape * mpmath.besselk(0, 2 * mpmath.sqrt(z)))
        if isinstance(law, Weibull) and law.shape == 1e300:
            return float(mpmath.exp(mp(s) * law.scale))
        if isinstance(law, LogPareto) and law.index == 1e-300:
            return float(law.index * mpmath.quad(lambda y: mpmath.exp(s * mpmath.exp(mpmath.exp(y))),
                                                 mpmath.linspace(0, 4, 33)))
    return None


def test_gamma_means_at_the_float_limits():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = [law.exp_moment(s) for law, s in _WIDE_POINTS]
    assert caught == []
    assert len(_WIDE_POINTS) == 108
    misses = []
    for (law, s), value in zip(_WIDE_POINTS, got):
        want = _wide_limit(law, s)
        if want is None:
            want = _gamma_mean_reference(law, s)
        if value != pytest.approx(want, rel=1e-12, abs=1e-300):
            misses.append((law, s, value, want))
    assert misses == []

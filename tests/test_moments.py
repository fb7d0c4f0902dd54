import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from perpetua.errors import PreconditionError
from perpetua.existence import VERDICT_CONVERGES, VERDICT_EXACT_STOP, existence_report
from perpetua.laws import (Beta, Exponential, FiniteDiscrete, FiniteJoint,
                           Gamma, Independent, InverseGamma, PointMass,
                           Poisson, SignedRademacher, UniformContinuous,
                           Weibull)
from perpetua.moments import (REGIME_BOUNDARY, REGIME_CONTRACTING,
                              REGIME_EXPANDING, _boundary_feasible,
                              _boundary_terms, cauchy_hadamard_estimate,
                              classify_regime, exp_perpetuity_moment,
                              p_moment_criterion, r_of_perpetuity)

BOUNDARY = Independent(FiniteDiscrete((1.0, 0.5), (0.5, 0.5)), Exponential(2.0))
# probabilities that sum to 0.9999999999999999, one ulp below 1
ROUNDED_CONTRACTING = Independent(
    FiniteDiscrete((0.5, 0.2, 0.1), (0.7, 0.2, 0.1)), Exponential(2.0))
ROUNDED_BOUNDARY = Independent(
    FiniteDiscrete((1.0, 0.2, 0.1), (0.7, 0.2, 0.1)), Exponential(2.0))
TWO_SCALE = Independent(FiniteDiscrete((3.0, 0.05), (0.25, 0.75)), Exponential(1.0))


def test_p_moment_point_mass_example():
    rep = p_moment_criterion(Independent(PointMass(0.5), Exponential(1.0)), 1.0)
    assert rep.m_pow == pytest.approx(0.5)
    assert rep.q_pow == pytest.approx(1.0)
    assert rep.finite
    assert rep.zstar_bound == pytest.approx(2.0)


def test_p_moment_two_scale_p2_infinite():
    rep = p_moment_criterion(TWO_SCALE, 2.0)
    assert rep.m_pow == pytest.approx(2.251875)
    assert not rep.finite
    assert math.isinf(rep.zstar_bound)


def test_p_moment_two_scale_small_p_finite():
    rep = p_moment_criterion(TWO_SCALE, 0.1)
    want_m = 0.25 * 3.0 ** 0.1 + 0.75 * 0.05 ** 0.1
    assert rep.m_pow == pytest.approx(want_m)
    assert rep.q_pow == pytest.approx(special.gamma(1.1))
    assert rep.finite
    assert rep.zstar_bound == pytest.approx(special.gamma(1.1) / (1 - want_m))
    assert rep.zstar_bound == pytest.approx(5.7615, abs=2e-4)


def test_zstar_bound_minkowski_branch():
    j = Independent(PointMass(0.5), Exponential(1.0))
    want = (math.sqrt(2.0) / (1.0 - math.sqrt(0.25))) ** 2
    assert p_moment_criterion(j, 2.0).zstar_bound == pytest.approx(want)
    assert want == pytest.approx(8.0)


def test_zstar_bound_infinite_when_criterion_fails():
    assert math.isinf(p_moment_criterion(TWO_SCALE, 2.0).zstar_bound)
    heavy = Independent(PointMass(0.5), Gamma(0.5, 1.0))
    assert math.isfinite(p_moment_criterion(heavy, 1.0).zstar_bound)


def test_p_moment_criterion_computes_each_moment_once(monkeypatch):
    calls = []
    for cls in (Beta, Exponential):
        def counted(self, p, _orig=cls.abs_moment):
            calls.append(type(self).__name__)
            return _orig(self, p)
        monkeypatch.setattr(cls, "abs_moment", counted)
    rep = p_moment_criterion(Independent(Beta(2.0, 3.0), Exponential(1.5)), 2.0)
    assert rep.finite
    assert sorted(calls) == ["Beta", "Exponential"]
    # Minkowski: E M^2 = 1/5 and E Q^2 = 2 / 1.5^2
    assert rep.zstar_bound == pytest.approx((math.sqrt(2.0) / 1.5 / (1.0 - math.sqrt(0.2))) ** 2)


def test_r_star_search_ends_when_the_bracket_is_one_float_wide():
    # a_+(s) = 0.3 e^{s 1e-12} < 1 up to s = log(1/0.3) 1e12, where adjacent
    # floats are farther apart than the bisection tolerance
    joint = FiniteJoint(((1.0, 1e-12, 0.3), (0.5, 1.0, 0.7)))
    res = r_of_perpetuity(joint)
    assert res.r_star == pytest.approx(math.log(1 / 0.3) * 1e12, rel=1e-12)
    assert res.r_z == pytest.approx(math.log(1 / 0.3) * 1e12, rel=1e-12)


def test_moments_beyond_float_range_are_refused_not_raised():
    # E|Q|^400 = 400! is finite but exceeds float64, and so does 3^1000
    tail = Independent(PointMass(0.5), Weibull(1.0, 1.0))
    big_m = Independent(FiniteDiscrete((3.0, 0.1), (0.5, 0.5)), Exponential(1.0))
    for joint, p in ((tail, 400.0), (big_m, 1000.0)):
        with pytest.raises(PreconditionError, match="float range"):
            p_moment_criterion(joint, p)


def test_moment_report_json_extended_reals():
    d = p_moment_criterion(TWO_SCALE, 2.0).to_json()
    assert d["zstar_bound"] == "inf"
    assert d["finite"] is False
    assert set(d) == {"p", "m_pow", "q_pow", "finite", "zstar_bound"}


def test_p_moment_rejects_bad_p_and_degenerate():
    with pytest.raises(PreconditionError):
        p_moment_criterion(TWO_SCALE, 0.0)
    with pytest.raises(PreconditionError):
        p_moment_criterion(TWO_SCALE, math.inf)
    with pytest.raises(PreconditionError):
        p_moment_criterion(FiniteJoint(((0.5, 0.5, 1.0),)), 1.0)
    with pytest.raises(PreconditionError):
        p_moment_criterion(Independent(Beta(1.0, 1.0), PointMass(0.0)), 1.0)


def test_classify_regime_three_ways():
    assert classify_regime(Independent(Beta(1.0, 1.0), Exponential(1.0))) \
        == REGIME_CONTRACTING
    assert classify_regime(BOUNDARY) == REGIME_BOUNDARY
    assert classify_regime(
        Independent(FiniteDiscrete((2.0, 0.1), (0.2, 0.8)), Exponential(1.0))) \
        == REGIME_EXPANDING
    assert classify_regime(ROUNDED_CONTRACTING) == REGIME_CONTRACTING
    assert classify_regime(ROUNDED_BOUNDARY) == REGIME_BOUNDARY
    # P{M > 1} = e^-66 here, which 1 - P{M <= 1} rounds to 0; the support keeps it
    assert classify_regime(Independent(Weibull(2.0, 66.0 ** -0.5), Exponential(1.0))) \
        == REGIME_EXPANDING
    with pytest.raises(PreconditionError):
        classify_regime(Independent(SignedRademacher(1.0), Exponential(1.0)))
    # the probabilities add up to 1 only within rounding; no atom lies in (-1, 1)
    with pytest.raises(PreconditionError):
        classify_regime(
            Independent(FiniteDiscrete((-1.0, 1.0), (0.3, 0.7)), Exponential(1.0)))


def test_exp_feasible_at_boundary_example():
    # P{M=1} = 1/2, Q ~ Exp(2): a_+(s) = s-dependent, threshold at s = 1
    assert classify_regime(BOUNDARY) == REGIME_BOUNDARY
    a_minus, a_plus, b_minus, b_plus = _boundary_terms(BOUNDARY, 0.5)
    assert _boundary_feasible(a_minus, a_plus, b_minus, b_plus)
    assert a_plus == pytest.approx(0.5 * 2.0 / 1.5)
    assert a_minus == pytest.approx(0.5 * 2.0 / 2.5)
    assert b_plus == 0.0 and b_minus == 0.0
    terms = _boundary_terms(BOUNDARY, 1.2)
    assert not _boundary_feasible(*terms)
    assert terms[1] >= 1.0


def test_exp_feasible_expanding_never():
    j = Independent(FiniteDiscrete((2.0, 0.1), (0.2, 0.8)), Exponential(1.0))
    assert classify_regime(j) == REGIME_EXPANDING
    assert r_of_perpetuity(j).r_z == 0.0


def test_exp_feasible_contracting_tracks_q():
    j = Independent(Beta(1.0, 1.0), Exponential(3.0))
    assert classify_regime(j) == REGIME_CONTRACTING
    res = r_of_perpetuity(j)
    assert res.r_z == res.r_q == 3.0


def test_r_star_boundary_closed_form():
    # with P{M=1} = theta and Q ~ Exp(a), a_+(s) < 1 iff s < a(1 - theta)
    assert r_of_perpetuity(BOUNDARY).r_star == pytest.approx(1.0, abs=1e-6)
    other = Independent(FiniteDiscrete((1.0, 0.25), (0.8, 0.2)), Exponential(5.0))
    assert r_of_perpetuity(other).r_star == pytest.approx(5.0 * 0.2, abs=1e-6)


def test_r_star_requires_boundary_regime():
    # r* is bisected only in the boundary regime; the others read it off
    res = r_of_perpetuity(Independent(Beta(1.0, 1.0), Exponential(1.0)))
    assert res.regime == REGIME_CONTRACTING
    assert math.isinf(res.r_star) and res.bisection_trace is None


def test_r_star_negative_q_on_unit_atom():
    # Q = -1 on {M = 1}: a_-(s) = e^s / 2 crosses 1 at log 2
    fj = FiniteJoint(((1.0, -1.0, 0.5), (0.5, 1.0, 0.5)))
    assert r_of_perpetuity(fj).r_star == pytest.approx(math.log(2.0), abs=1e-6)


def test_r_star_infinite_when_q_vanishes_on_unit_atom():
    # Q = 0 on {M = 1}: a_pm = 1/2 for every s, so the predicate never fails
    fj = FiniteJoint(((1.0, 0.0, 0.5), (0.5, 1.0, 0.25), (0.5, 2.0, 0.25)))
    res = r_of_perpetuity(fj)
    assert math.isinf(res.r_star)
    assert math.isinf(res.r_q)
    assert math.isinf(res.r_z)
    assert res.boundary_detail is None


def test_r_of_perpetuity_contracting():
    res = r_of_perpetuity(Independent(Beta(1.0, 1.0), Exponential(3.0)))
    assert res.regime == REGIME_CONTRACTING
    assert res.r_q == 3.0
    assert math.isinf(res.r_star)
    assert res.r_z == 3.0
    assert res.boundary_detail is None and res.bisection_trace is None
    res = r_of_perpetuity(ROUNDED_CONTRACTING)
    assert res.regime == REGIME_CONTRACTING
    assert res.r_z == 2.0


def test_r_of_perpetuity_boundary():
    res = r_of_perpetuity(BOUNDARY)
    assert res.regime == REGIME_BOUNDARY
    assert res.r_q == 2.0
    assert res.r_star == pytest.approx(1.0, abs=1e-6)
    assert res.r_z == pytest.approx(1.0, abs=1e-6)
    assert res.boundary_detail is not None
    assert res.boundary_detail["a_plus"] == pytest.approx(1.0, abs=1e-6)
    assert res.bisection_trace is not None
    # P{M = 1} = 0.7 with Q ~ Exp(2): a_+(s) < 1 iff s < 2 (1 - 0.7)
    res = r_of_perpetuity(ROUNDED_BOUNDARY)
    assert res.regime == REGIME_BOUNDARY
    assert res.r_z == pytest.approx(0.6, abs=1e-6)


def test_r_of_perpetuity_is_cached_per_joint(monkeypatch):
    # a boundary-regime r* costs dozens of E e^{sQ} quadratures: a repeat
    # request for an equal joint reads the cache instead
    def joint():
        return Independent(FiniteDiscrete((1.0, 0.5), (0.5, 0.5)), Weibull(2.0, 1.0))

    calls = []
    exp_moment = Weibull.exp_moment
    monkeypatch.setattr(Weibull, "exp_moment",
                        lambda self, *args, **kw: calls.append(args) or exp_moment(self, *args, **kw))
    r_of_perpetuity.cache_clear()
    first = r_of_perpetuity(joint())
    assert first.regime == REGIME_BOUNDARY and calls
    calls.clear()
    again = r_of_perpetuity(joint())
    assert calls == []
    assert again == first and again.to_json() == first.to_json()
    with pytest.raises(TypeError):  # a cached result hands out no mutable detail
        again.boundary_detail["a_plus"] = 0.0


def test_r_of_perpetuity_expanding():
    j = Independent(FiniteDiscrete((2.0, 0.1), (0.2, 0.8)), Exponential(1.0))
    res = r_of_perpetuity(j)
    assert res.regime == REGIME_EXPANDING
    assert res.r_star is None
    assert res.r_z == 0.0


def test_r_of_perpetuity_requires_convergence():
    with pytest.raises(PreconditionError):
        r_of_perpetuity(Independent(PointMass(1.0), Exponential(1.0)))
    with pytest.raises(PreconditionError):
        r_of_perpetuity(FiniteJoint(((0.5, 0.5, 1.0),)))


def test_bisection_trace_is_nested_and_converged():
    res = r_of_perpetuity(BOUNDARY)
    trace = res.bisection_trace
    widths = [hi - lo for lo, hi in trace]
    assert all(w2 <= w1 + 1e-15 for w1, w2 in zip(widths, widths[1:]))
    assert widths[-1] <= 1e-9 * 2
    d = res.to_json()
    assert d["r_Q"] == 2.0
    assert isinstance(d["bisection_trace"], list)


def test_exp_moment_formula_uniform_example():
    u = UniformContinuous(0.0, 1.0)
    # E M^k = 1/(k+1) so prod (1 - E M^k) telescopes to 1/(n+1)
    assert exp_perpetuity_moment(1.0, u, 1) == pytest.approx(2.0)
    assert exp_perpetuity_moment(1.0, u, 2) == pytest.approx(6.0)
    assert exp_perpetuity_moment(1.0, u, 3) == pytest.approx(24.0)
    assert exp_perpetuity_moment(2.0, u, 2) == pytest.approx(6.0 / 4.0)


def test_exp_moment_formula_rounded_probabilities():
    # E M = 0.4, so E Z = E Q / (1 - E M) = 0.5 / 0.6
    law_m = ROUNDED_CONTRACTING.law_m
    assert exp_perpetuity_moment(2.0, law_m, 1) == pytest.approx(0.5 / 0.6, rel=1e-12)


def test_exp_moment_formula_preconditions():
    u = UniformContinuous(0.0, 1.0)
    with pytest.raises(PreconditionError):
        exp_perpetuity_moment(0.0, u, 1)
    with pytest.raises(PreconditionError):
        exp_perpetuity_moment(1.0, u, 0)
    with pytest.raises(PreconditionError):
        exp_perpetuity_moment(1.0, PointMass(1.0), 1)
    with pytest.raises(PreconditionError):
        exp_perpetuity_moment(1.0, PointMass(1.5), 1)
    with pytest.raises(PreconditionError):
        exp_perpetuity_moment(1.0, UniformContinuous(-0.5, 0.5), 1)
    with pytest.raises(PreconditionError):  # P{M > 1} = e^-40, which 1 - P{M <= 1} rounds to 0
        exp_perpetuity_moment(1.0, Exponential(40.0), 1)


def test_cauchy_hadamard_from_exact_uniform_moments():
    u = UniformContinuous(0.0, 1.0)
    ms = [exp_perpetuity_moment(1.0, u, n) for n in range(1, 11)]
    est = cauchy_hadamard_estimate(ms)
    # power-series coefficients are n + 1, so the last ratio is 10/11
    assert est == pytest.approx(10.0 / 11.0)
    assert abs(est - 1.0) <= 0.1


def test_cauchy_hadamard_validation():
    with pytest.raises(PreconditionError):
        cauchy_hadamard_estimate([1.0, 2.0])
    with pytest.raises(PreconditionError):
        cauchy_hadamard_estimate([1.0, -2.0, 3.0])
    with pytest.raises(PreconditionError):
        cauchy_hadamard_estimate([1.0, math.inf, 3.0])


@given(st.floats(min_value=0.05, max_value=3.0),
       st.floats(min_value=0.05, max_value=3.0))
@settings(max_examples=30, deadline=None)
def test_feasibility_monotone_in_s(s1, s2):
    lo, hi = sorted((s1, s2))
    # the feasible set is an interval containing small s
    assert (_boundary_feasible(*_boundary_terms(BOUNDARY, hi))
            <= _boundary_feasible(*_boundary_terms(BOUNDARY, lo)))


@given(st.floats(min_value=0.05, max_value=0.9),
       st.floats(min_value=0.05, max_value=0.9))
@settings(max_examples=30, deadline=None)
def test_row_sum_sufficiency(pa, s):
    # if a_- + b_- < 1 and a_+ + b_+ < 1 then the determinant condition holds
    fj = FiniteJoint(((1.0, 1.0, pa / 2), (-1.0, 1.0, pa / 2),
                      (0.5, 1.0, 1.0 - pa)))
    a_minus, a_plus, b_minus, b_plus = _boundary_terms(fj, s)
    if (a_minus + b_minus < 1.0) and (a_plus + b_plus < 1.0):
        assert _boundary_feasible(a_minus, a_plus, b_minus, b_plus)


@given(st.floats(min_value=0.5, max_value=4.0),
       st.floats(min_value=0.05, max_value=0.85))
@settings(max_examples=25, deadline=None)
def test_first_moment_consistency(a, em):
    # n = 1 reduces to E Z = E Q / (1 - E M)
    law_m = PointMass(em)
    got = exp_perpetuity_moment(a, law_m, 1)
    assert got == pytest.approx((1.0 / a) / (1.0 - em), rel=1e-12)


def test_regimes_are_exclusive_and_exhaustive():
    joints = [
        Independent(Beta(1.0, 1.0), Exponential(1.0)),
        BOUNDARY,
        Independent(FiniteDiscrete((2.0, 0.1), (0.2, 0.8)), Exponential(1.0)),
        FiniteJoint(((1.0, 1.0, 0.3), (-0.5, 2.0, 0.7))),
        FiniteJoint(((-1.0, 1.0, 0.3), (0.5, 2.0, 0.7))),
    ]
    for j in joints:
        assert classify_regime(j) in (REGIME_CONTRACTING, REGIME_BOUNDARY,
                                      REGIME_EXPANDING)


def _log_uniform(lo, hi):
    return st.floats(min_value=math.log(lo), max_value=math.log(hi)).map(math.exp)


# every family whose mass beyond 1, or at 0, can be below 1e-300: P{X > 1}
# is e^-rate of exponential, below e^-900 for gamma (shape <= 10, rate >=
# 1e3), below scale^shape <= 1e-350 for inverse_gamma and e^-(1/scale)^shape
# <= e^-1000 for weibull; P{X = 0} is e^-mean of poisson, and finite_discrete
# carries an atom of probability 1e-310
_TINY_TAILS = st.one_of(
    _log_uniform(700.0, 1e300).map(Exponential),
    st.builds(Gamma, st.floats(min_value=0.1, max_value=10.0), _log_uniform(1e3, 1e300)),
    st.builds(InverseGamma, st.floats(min_value=50.0, max_value=1e3), _log_uniform(1e-300, 1e-7)),
    st.builds(Weibull, st.floats(min_value=0.5, max_value=5.0), _log_uniform(1e-300, 1e-6)),
    _log_uniform(700.0, 1e18).map(Poisson),
    st.sampled_from([0.0, 2.0, -1.5]).map(
        lambda v: FiniteDiscrete((v, 0.5), (1e-310, 1.0))),
)


@given(_TINY_TAILS)
@settings(max_examples=60, deadline=None)
def test_tiny_tails_and_atoms_decide_regime_and_verdict(law_m):
    # existence and the regime follow the support and the atoms, however
    # small the probability beyond 1 or at 0: below 1e-300 every probability
    # computed from a cdf or a pmf rounds to 0
    joint = Independent(law_m, Exponential(1.0))
    rep = existence_report(joint)
    lo, hi = law_m.support()
    if law_m.has_atom_at(0.0):
        assert (rep.verdict, rep.nonzero_ok) == (VERDICT_EXACT_STOP, False)
        return
    assert (lo < -1.0 or hi > 1.0) and rep.verdict == VERDICT_CONVERGES
    res = r_of_perpetuity(joint)
    assert (res.regime, res.r_z) == (REGIME_EXPANDING, 0.0)

import numpy as np
import pytest

from perpetua.errors import PreconditionError
from perpetua.existence import (VERDICT_CONVERGES, VERDICT_DEGENERATE,
                                VERDICT_DIVERGES, VERDICT_EXACT_STOP,
                                degeneracy_scan, existence_report,
                                product_vanishes_verdict,
                                tail_integral_verdict)
from perpetua.laws import (Beta, Exponential, FiniteDiscrete, FiniteJoint,
                           Independent, LogPareto, PointMass, SignedRademacher,
                           UniformContinuous)


def test_pi_to_zero_examples():
    assert product_vanishes_verdict(PointMass(0.5)) == "yes"
    assert product_vanishes_verdict(PointMass(1.0)) == "no"
    assert product_vanishes_verdict(FiniteDiscrete((3.0, 0.05), (0.25, 0.75))) == "yes"
    assert product_vanishes_verdict(PointMass(2.0)) == "no"
    assert product_vanishes_verdict(SignedRademacher(1.0)) == "no"
    assert product_vanishes_verdict(Beta(1.0, 1.0)) == "yes"


def test_tail_integral_analytic_examples():
    assert tail_integral_verdict(
        Independent(PointMass(0.5), PointMass(1.0))) == ("finite", "analytic")
    assert tail_integral_verdict(
        Independent(Beta(1.0, 1.0), Exponential(1.0))) == ("finite", "analytic")
    # Q = e^W with slowly-varying W tail: E log^+ Q = E W = inf
    assert tail_integral_verdict(
        Independent(Beta(1.0, 1.0), LogPareto(0.5))) == ("infinite", "analytic")


def test_tail_integral_requires_vanishing_products():
    with pytest.raises(PreconditionError):
        tail_integral_verdict(Independent(PointMass(1.0), Exponential(1.0)))


def test_degeneracy_scan_examples():
    assert degeneracy_scan(FiniteJoint(((0.5, 0.5, 1.0),))) == pytest.approx(1.0)
    fj = FiniteJoint(((0.5, 1.0, 0.5), (0.25, 1.5, 0.5)))
    assert degeneracy_scan(fj) == pytest.approx(2.0)
    assert degeneracy_scan(Independent(Beta(1.0, 1.0), Exponential(1.0))) is None
    # atom with m=1 must carry q=0 for a constant to exist
    assert degeneracy_scan(FiniteJoint(((1.0, 1.0, 0.5), (0.5, 1.0, 0.5)))) is None
    assert degeneracy_scan(
        FiniteJoint(((1.0, 0.0, 0.5), (0.5, 1.0, 0.5)))) == pytest.approx(2.0)
    assert degeneracy_scan(
        Independent(PointMass(0.5), PointMass(1.0))) == pytest.approx(2.0)
    assert degeneracy_scan(
        Independent(UniformContinuous(0.2, 0.8), PointMass(0.0))) == 0.0


def test_degeneracy_constant_is_exact_on_samples():
    from perpetua.streams import RandomStream
    fj = FiniteJoint(((0.5, 1.0, 0.5), (0.25, 1.5, 0.5)))
    c = degeneracy_scan(fj)
    ms, qs = fj.draw_pairs(RandomStream(0, 0), 10**4)
    assert float(np.max(np.abs(qs + ms * c - c))) == 0.0


def test_existence_report_examples():
    assert existence_report(
        Independent(FiniteDiscrete((0.0, 1.0), (0.3, 0.7)), PointMass(1.0))
    ).verdict == VERDICT_EXACT_STOP
    assert existence_report(
        Independent(Beta(1.0, 1.0), Exponential(1.0))).verdict == VERDICT_CONVERGES
    assert existence_report(
        Independent(PointMass(1.0), Exponential(1.0))).verdict == VERDICT_DIVERGES
    assert existence_report(
        Independent(Beta(1.0, 1.0), LogPareto(0.5))).verdict == VERDICT_DIVERGES


def test_existence_report_fields_converging():
    rep = existence_report(Independent(Beta(1.0, 1.0), Exponential(1.0)))
    assert rep.nonzero_ok
    assert rep.pi_to_zero == "yes"
    assert rep.i_finite == "yes"
    assert rep.i_method == "analytic"
    assert rep.degenerate_at is None
    d = rep.to_json()
    assert d["verdict"] == VERDICT_CONVERGES
    assert set(d) == {"nonzero_ok", "pi_to_zero", "i_finite", "i_method",
                      "degenerate_at", "verdict"}


def test_existence_report_divergence_reason_is_integral():
    rep = existence_report(Independent(Beta(1.0, 1.0), LogPareto(0.5)))
    assert rep.pi_to_zero == "yes"
    assert rep.i_finite == "no"
    assert rep.i_method == "analytic"
    assert rep.verdict == VERDICT_DIVERGES


def test_existence_report_degenerate():
    rep = existence_report(FiniteJoint(((0.5, 0.5, 1.0),)))
    assert rep.verdict == VERDICT_DEGENERATE
    assert rep.degenerate_at == pytest.approx(1.0)
    # Q identically zero is degenerate at 0 regardless of M
    rep0 = existence_report(Independent(Beta(1.0, 1.0), PointMass(0.0)))
    assert rep0.verdict == VERDICT_DEGENERATE
    assert rep0.degenerate_at == 0.0


def test_existence_report_expanding_degenerate_still_labeled():
    # the scan finds c = -1 for M = 2, Q = 1: Z_n = c(1 - Pi_n) is constant
    # only in the vanishing-product limit, but the fixed point is still c
    rep = existence_report(Independent(PointMass(2.0), PointMass(1.0)))
    assert rep.verdict == VERDICT_DEGENERATE
    assert rep.degenerate_at == pytest.approx(-1.0)


def test_exact_stop_needs_no_condition_on_q():
    rep = existence_report(
        Independent(FiniteDiscrete((0.0, 2.0), (0.1, 0.9)), LogPareto(0.5)))
    assert rep.verdict == VERDICT_EXACT_STOP


def test_cached_report_instance_reuse():
    j = Independent(Beta(1.0, 1.0), Exponential(1.0))
    assert existence_report(j) is existence_report(j)

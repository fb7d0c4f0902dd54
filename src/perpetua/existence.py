"""Existence and convergence analysis for perpetuities.

The perpetuity driven by i.i.d. pairs (M, Q) is the a.s. limit of
Z_n = Q_1 + M_1 Q_2 + M_1 M_2 Q_3 + ...; it exists for nondegenerate inputs
with P{M = 0} = 0 exactly when the partial products M_1 ... M_n vanish a.s.
and the tail integral

    I = integral over (1, inf) of  log x / A(log x)  dP_{|Q|}(x),
    A(x) = E min(log^- |M|, x),

is finite; when the products vanish but I diverges, |Z_n| tends to infinity
in probability.  When P{M = 0} > 0 the series terminates at the first zero
factor regardless of Q, and sampling is exact.

The integral verdict is decided analytically: whenever the products vanish
a.s., A is bounded below on [1, inf) by the positive constant A(1), and A is
bounded above by x, so I converges if and only if E log^+ |Q| < inf.  A
Monte-Carlo fallback (a tail-index regression on sampled log^+ |Q|) is
available for diagnostics and is always labeled as heuristic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import PreconditionError
from .laws import (FiniteJoint, Independent, JointLaw, ScalarLaw, _abs_below_one,
                   event_prob)
from .laws import _quad  # shared quadrature settings
from .streams import RandomStream

VERDICT_CONVERGES = "converges-a.s."
VERDICT_DIVERGES = "diverges-in-probability"
VERDICT_DEGENERATE = "trivial-degenerate"
VERDICT_EXACT_STOP = "exact-stop"
VERDICT_UNKNOWN = "unknown"

# absolute tolerance for agreement of degenerate fixed-point candidates
DEGENERACY_TOL = 1e-12

_MC_SEED = 0x5EED_BA5E


@dataclass(frozen=True)
class ExistenceReport:
    """Structured convergence verdict for one joint law."""

    nonzero_ok: bool
    pi_to_zero: str
    i_finite: str
    i_method: str | None
    degenerate_at: float | None
    verdict: str

    def to_json(self) -> dict:
        return {
            "nonzero_ok": self.nonzero_ok,
            "pi_to_zero": self.pi_to_zero,
            "i_finite": self.i_finite,
            "i_method": self.i_method,
            "degenerate_at": self.degenerate_at,
            "verdict": self.verdict,
        }


def log_contraction_profile(law_m: ScalarLaw, x: float) -> float:
    """A(x) = E min(log^- |M|, x), the clipped mean contraction exponent.

    Nondecreasing and 1-Lipschitz in x, with A(x) -> E log^- |M| as x grows.
    Requires P{M = 0} = 0 (otherwise log|M| is undefined on a positive-
    probability event).
    """
    if law_m.point_prob(0.0) > 0:
        raise PreconditionError("contraction profile undefined: P{M = 0} > 0")
    if not (isinstance(x, (int, float)) and x >= 0):
        raise PreconditionError(f"x must be >= 0, got {x!r}")
    if x == 0:
        return 0.0
    atoms = law_m.finite_atoms()
    if atoms is not None:
        return float(sum(p * min(max(-math.log(abs(v)), 0.0), x) for v, p in atoms))
    # tail form: A(x) = integral_0^x P{|M| < e^{-y}} dy; the integrand
    # vanishes past -log inf|M|, so clip there to keep A exactly constant
    lo, hi = law_m.support()
    m_inf = lo if lo > 0 else (-hi if hi < 0 else 0.0)
    upper = float(x)
    if m_inf > 0:
        upper = min(upper, max(-math.log(m_inf), 0.0))
    if upper == 0.0:
        return 0.0
    pts = [d for d in (1.0, 10.0, 100.0) if d < upper]
    return _quad(lambda y: law_m.prob_abs_lt(math.exp(-y)), 0.0, upper,
                 points=pts or None)


def product_vanishes_verdict(law_m: ScalarLaw) -> str:
    """Whether M_1 M_2 ... M_n -> 0 a.s.; "yes", "no", or "unknown".

    Decided by the sign of E log|M| (the strong law): negative, including
    -inf, gives "yes"; nonnegative gives "no".  When |M| < 1 a.s., log|M| < 0
    a.s. and the answer is "yes" even where E log|M| rounds to 0, as for
    Beta(1e300, 1e-300).  Requires P{M = 0} = 0.
    """
    if law_m.point_prob(0.0) > 0:
        raise PreconditionError("product verdict undefined: P{M = 0} > 0")
    if _abs_below_one(law_m):
        return "yes"
    drift = law_m.log_abs_mean()
    if math.isnan(drift):
        return "unknown"
    return "yes" if drift < 0 else "no"


def tail_integral_verdict(joint: JointLaw, method: str = "auto") -> tuple[str, str]:
    """Finiteness of the tail integral I = E[log^+ |Q| / A(log^+ |Q|)]; (verdict, method).

    Precondition: the partial products vanish a.s.  In that case A is bounded
    below by A(1) > 0 and above by x on [1, inf), so I < inf exactly when
    E log^+ |Q| < inf; this analytic route always applies.  ``method`` may
    force "monte-carlo", a flagged heuristic that regresses the sampled tail
    of log^+ |Q| and never feeds the analytic verdict.
    """
    law_m = joint.marginal_m()
    law_q = joint.marginal_q()
    if product_vanishes_verdict(law_m) != "yes":
        raise PreconditionError(
            "tail integral verdict requires the partial products to vanish a.s.")
    if method in ("auto", "analytic"):
        lq = law_q.log_plus_abs_moment()
        return ("finite" if math.isfinite(lq) else "infinite", "analytic")
    if method == "monte-carlo":
        stream = RandomStream(_MC_SEED, 0)
        n = 1 << 20
        _, qs = joint.draw_pairs(stream, n)
        with np.errstate(divide="ignore", invalid="ignore"):
            lp = np.maximum(np.log(np.abs(qs)), 0.0)
        lp = np.where(np.isfinite(lp), lp, np.log(np.finfo(float).max))
        # tail-index regression: fit P{log^+|Q| > T} ~ T^(-a) on dyadic
        # thresholds; a regularly-varying tail with a <= 1 has infinite mean
        ts = 2.0 ** np.arange(2, 9)
        counts = np.array([(lp > t).sum() for t in ts], dtype=float)
        keep = counts >= 32
        if int(keep.sum()) < 3:
            return ("finite", "monte-carlo-heuristic")
        slope = -float(np.polyfit(np.log(ts[keep]), np.log(counts[keep]), 1)[0])
        if slope <= 0.9:
            return ("infinite", "monte-carlo-heuristic")
        if slope >= 1.1:
            return ("finite", "monte-carlo-heuristic")
        return ("unknown", "monte-carlo-heuristic")
    raise PreconditionError(f"unknown method {method!r}; valid: auto, analytic, monte-carlo")


def degeneracy_scan(joint: JointLaw) -> float | None:
    """The constant c with P{Q + M c = c} = 1, or None.

    Candidates c = q / (1 - m) from atoms with m != 1 must agree within
    1e-12 absolute; atoms with m = 1 must carry q = 0 exactly.  The partial
    sums then satisfy Z_n = c (1 - M_1 ... M_n), so c is the a.s. limit
    whenever the products vanish (and trivially when c = 0).
    """
    if isinstance(joint, FiniteJoint):
        cands = []
        for m, q, _p in joint._active:
            if m == 1.0:
                if q != 0.0:
                    return None
            else:
                cands.append(q / (1.0 - m))
        if not cands:
            return 0.0
        if max(cands) - min(cands) <= DEGENERACY_TOL:
            return float(cands[0])
        return None
    assert isinstance(joint, Independent)
    q0 = joint.law_q.as_point()
    m0 = joint.law_m.as_point()
    if q0 == 0.0:
        return 0.0
    if q0 is None or m0 is None or m0 == 1.0:
        return None
    return q0 / (1.0 - m0)


@lru_cache(maxsize=256)
def _cached_report(joint: JointLaw) -> ExistenceReport:
    p_m_zero = event_prob(joint, "M=0")
    p_q_zero = event_prob(joint, "Q=0")
    nonzero_ok = p_m_zero == 0.0 and p_q_zero < 1.0
    degenerate_at = degeneracy_scan(joint)

    if degenerate_at is not None:
        pi = product_vanishes_verdict(joint.marginal_m()) if p_m_zero == 0.0 else "yes"
        return ExistenceReport(nonzero_ok, pi, "unknown", None,
                               degenerate_at, VERDICT_DEGENERATE)
    if p_m_zero > 0.0:
        # the series stops at the first zero factor; no condition on Q needed
        return ExistenceReport(nonzero_ok, "yes", "unknown", None,
                               None, VERDICT_EXACT_STOP)
    pi = product_vanishes_verdict(joint.marginal_m())
    if pi == "yes":
        i_verdict, i_method = tail_integral_verdict(joint)
        verdict = {"finite": VERDICT_CONVERGES,
                   "infinite": VERDICT_DIVERGES,
                   "unknown": VERDICT_UNKNOWN}[i_verdict]
        i_finite = {"finite": "yes", "infinite": "no", "unknown": "unknown"}[i_verdict]
        return ExistenceReport(nonzero_ok, pi, i_finite, i_method, None, verdict)
    if pi == "no":
        return ExistenceReport(nonzero_ok, pi, "unknown", None, None, VERDICT_DIVERGES)
    return ExistenceReport(nonzero_ok, pi, "unknown", None, None, VERDICT_UNKNOWN)


def existence_report(joint: JointLaw) -> ExistenceReport:
    """Full routing: degeneracy, zero factors, product decay, tail integral.

    Verdicts: "converges-a.s." (the series has an a.s. finite limit),
    "diverges-in-probability" (|Z_n| -> inf in probability),
    "trivial-degenerate" (Z = c identically), "exact-stop" (P{M = 0} > 0:
    the series terminates at the first zero factor), or "unknown".
    """
    return _cached_report(joint)

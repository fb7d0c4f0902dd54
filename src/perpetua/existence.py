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

The integral verdict is decided analytically: I < inf exactly when
E log^+ |Q| < inf (Goldie & Maller, "Stability of perpetuities", Ann.
Probab. 2000).  Whenever the products vanish a.s., P{|M| < 1} > 0, so
A(1) > 0, and A(y) >= min(y, 1) A(1) bounds the integrand by
max(log x, 1) / A(1): E log^+ |Q| < inf gives I < inf.  Conversely
A <= E log^- |M|, so I >= E log^+ |Q| / E log^- |M|: E log^+ |Q| = inf gives
I = inf provided E log^- |M| < inf.  Every M that reaches this test has
P{M = 0} = 0, and then E log^- |M| < inf for every family in ``laws``:
poisson and uniform_discrete_range always have an atom at 0, log_pareto
lies above e, and each other family has E log |M| > -inf, which the tests
check over the golden table.  A family with E log^- |M| = inf would need
the integral A itself.  E log^+ |Q| is finite for every family but
log_pareto with index <= 1, so the verdict is the predicate
``log_plus_abs_finite`` and no quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import PreconditionError
from .laws import FiniteJoint, Independent, JointLaw, ScalarLaw, _abs_below_one

VERDICT_CONVERGES = "converges-a.s."
VERDICT_DIVERGES = "diverges-in-probability"
VERDICT_DEGENERATE = "trivial-degenerate"
VERDICT_EXACT_STOP = "exact-stop"
VERDICT_UNKNOWN = "unknown"

# absolute tolerance for agreement of degenerate fixed-point candidates
DEGENERACY_TOL = 1e-12


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


def product_vanishes_verdict(law_m: ScalarLaw) -> str:
    """Whether M_1 M_2 ... M_n -> 0 a.s.; "yes", "no", or "unknown".

    Decided by the sign of E log|M| (the strong law): negative, including
    -inf, gives "yes"; nonnegative gives "no".  When |M| < 1 a.s., log|M| < 0
    a.s. and the answer is "yes" even where E log|M| rounds to 0, as for
    Beta(1e300, 1e-300).  Requires P{M = 0} = 0.
    """
    if law_m.has_atom_at(0.0):
        raise PreconditionError("product verdict undefined: P{M = 0} > 0")
    if _abs_below_one(law_m):
        return "yes"
    drift = law_m.log_abs_mean()
    if math.isnan(drift):
        return "unknown"
    return "yes" if drift < 0 else "no"


def tail_integral_verdict(joint: JointLaw) -> tuple[str, str]:
    """Finiteness of the tail integral I = E[log^+ |Q| / A(log^+ |Q|)]; (verdict, method).

    Precondition: the partial products vanish a.s.  Then A(1) > 0 and
    A <= E log^- |M| < inf, so I < inf exactly when E log^+ |Q| < inf (see
    the module docstring), which is the Q law's ``log_plus_abs_finite``; the
    method is always "analytic".
    """
    if product_vanishes_verdict(joint.marginal_m()) != "yes":
        raise PreconditionError(
            "tail integral verdict requires the partial products to vanish a.s.")
    finite = joint.marginal_q().log_plus_abs_finite()
    return ("finite" if finite else "infinite", "analytic")


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
def existence_report(joint: JointLaw) -> ExistenceReport:
    """Full routing: degeneracy, zero factors, product decay, tail integral.

    Verdicts: "converges-a.s." (the series has an a.s. finite limit),
    "diverges-in-probability" (|Z_n| -> inf in probability),
    "trivial-degenerate" (Z = c identically), "exact-stop" (P{M = 0} > 0:
    the series terminates at the first zero factor), or "unknown".  Reports
    are cached per joint law.
    """
    m_zero = joint.marginal_m().has_atom_at(0.0)
    nonzero_ok = not m_zero and joint.marginal_q().as_point() != 0.0
    degenerate_at = degeneracy_scan(joint)

    if degenerate_at is not None:
        pi = "yes" if m_zero else product_vanishes_verdict(joint.marginal_m())
        return ExistenceReport(nonzero_ok, pi, "unknown", None,
                               degenerate_at, VERDICT_DEGENERATE)
    if m_zero:
        # the series stops at the first zero factor; no condition on Q needed
        return ExistenceReport(nonzero_ok, "yes", "unknown", None,
                               None, VERDICT_EXACT_STOP)
    pi = product_vanishes_verdict(joint.marginal_m())
    if pi == "yes":
        i_verdict, i_method = tail_integral_verdict(joint)
        if i_verdict == "finite":
            return ExistenceReport(nonzero_ok, pi, "yes", i_method, None, VERDICT_CONVERGES)
        return ExistenceReport(nonzero_ok, pi, "no", i_method, None, VERDICT_DIVERGES)
    if pi == "no":
        return ExistenceReport(nonzero_ok, pi, "unknown", None, None, VERDICT_DIVERGES)
    return ExistenceReport(nonzero_ok, pi, "unknown", None, None, VERDICT_UNKNOWN)

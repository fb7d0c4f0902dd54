"""Moment criteria and exponential-moment abscissas for perpetuities.

For p > 0 the perpetuity has a finite p-th absolute moment exactly when
E|M|^p < 1 and E|Q|^p < inf (given the nonzero and nondegeneracy
conditions), and the dominating series Z* = sum |Pi_{k-1} Q_k| obeys the
explicit bounds E(Z*)^p <= E|Q|^p / (1 - E|M|^p) for p <= 1 and
(||Q||_p / (1 - ||M||_p))^p for p > 1.

Exponential moments depend on how |M| sits relative to 1.  When |M| < 1
a.s. the abscissa of convergence r(Z) = sup{s : E e^{s|Z|} < inf} equals
r(Q).  When P{|M| = 1} is in (0, 1) with P{|M| <= 1} = 1, the abscissa is
min(r(Q), r*) where r* is the supremum of s satisfying

    a_-(s) < 1,  a_+(s) < 1,  b_-(s) b_+(s) < (1 - a_-(s)) (1 - a_+(s)),

with a_pm(s) = E e^{pm s Q} 1{M = 1} and b_pm(s) = E e^{pm s Q} 1{M = -1}.
The feasible set is an interval, so r* is located by bracket doubling and
bisection.  Any mass of |M| above 1 kills all exponential moments (r_Z = 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import PreconditionError
from .existence import VERDICT_CONVERGES, existence_report
from .laws import JointLaw, ScalarLaw, _abs_below_one, event_prob

REGIME_CONTRACTING = "all-contracting"
REGIME_BOUNDARY = "boundary"
REGIME_EXPANDING = "expanding"

_BRACKET_CAP = 1e18


def _ext(x):
    """JSON-safe extended real: +-inf as "inf"/"-inf", NaN as null."""
    if x is None or math.isnan(x):
        return None
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


@dataclass(frozen=True)
class MomentReport:
    p: float
    m_pow: float
    q_pow: float
    finite: bool
    zstar_bound: float

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "m_pow": _ext(self.m_pow),
            "q_pow": _ext(self.q_pow),
            "finite": self.finite,
            "zstar_bound": _ext(self.zstar_bound),
        }


@dataclass(frozen=True)
class ExpFeasibility:
    feasible: bool
    regime: str
    a_minus: float
    a_plus: float
    b_minus: float
    b_plus: float
    q_exp_abs: float

    def to_json(self) -> dict:
        return {
            "feasible": self.feasible,
            "regime": self.regime,
            "a_minus": _ext(self.a_minus),
            "a_plus": _ext(self.a_plus),
            "b_minus": _ext(self.b_minus),
            "b_plus": _ext(self.b_plus),
            "q_exp_abs": _ext(self.q_exp_abs),
        }


@dataclass(frozen=True)
class AbscissaResult:
    regime: str
    r_q: float
    r_star: float | None
    r_z: float
    boundary_detail: dict | None
    bisection_trace: tuple | None

    def to_json(self) -> dict:
        detail = None
        if self.boundary_detail is not None:
            detail = {k: _ext(v) for k, v in self.boundary_detail.items()}
        return {
            "regime": self.regime,
            "r_Q": _ext(self.r_q),
            "r_star": _ext(self.r_star),
            "r_Z": _ext(self.r_z),
            "boundary_detail": detail,
            "bisection_trace": [list(b) for b in self.bisection_trace]
            if self.bisection_trace is not None else None,
        }


def _require_nondegenerate(joint: JointLaw, what: str) -> None:
    rep = existence_report(joint)
    if not rep.nonzero_ok:
        raise PreconditionError(
            f"{what} requires P{{M=0}} = 0 and P{{Q=0}} < 1")
    if rep.degenerate_at is not None:
        raise PreconditionError(
            f"{what} requires a nondegenerate pair; the perpetuity is the "
            f"constant {rep.degenerate_at}")


def classify_regime(joint: JointLaw) -> str:
    """Position of |M| relative to 1: all-contracting, boundary, or expanding.

    Each branch tests an event for probability exactly zero rather than its
    complement for exactly one, so finite laws whose probabilities add up to
    1 only within rounding keep their regime.
    """
    if event_prob(joint, "|M|>1") > 0.0:
        return REGIME_EXPANDING
    if event_prob(joint, "|M|=1") == 0.0:
        return REGIME_CONTRACTING
    if event_prob(joint, "|M|<1") > 0.0:
        return REGIME_BOUNDARY
    raise PreconditionError("|M| = 1 a.s.: no exponential-moment regime applies")


def p_moment_criterion(joint: JointLaw, p: float) -> MomentReport:
    """Finiteness of E|Z|^p: equivalent to E|M|^p < 1 and E|Q|^p < inf.

    E|M|^p < 1 holds whenever |M| < 1 a.s., also where E|M|^p rounds to 1.
    """
    if not (isinstance(p, (int, float)) and math.isfinite(p) and p > 0):
        raise PreconditionError(f"p must be a finite real > 0, got {p!r}")
    _require_nondegenerate(joint, "p_moment_criterion")
    try:
        m_pow = joint.marginal_m().abs_moment(p)
        q_pow = joint.marginal_q().abs_moment(p)
    except OverflowError:
        raise PreconditionError(
            f"E|M|^p or E|Q|^p exceeds the float range at p = {p!r}") from None
    finite = (m_pow < 1.0 or _abs_below_one(joint.marginal_m())) and math.isfinite(q_pow)
    bound = _zstar_from_moments(p, m_pow, q_pow) if finite else math.inf
    return MomentReport(float(p), m_pow, q_pow, finite, bound)


def zstar_bound(joint: JointLaw, p: float) -> float:
    """Bound on E(Z*)^p for the absolute series Z* = sum |Pi_{k-1} Q_k|.

    E|Q|^p / (1 - E|M|^p) for p <= 1 (subadditivity of x^p); the Minkowski
    form (||Q||_p / (1 - ||M||_p))^p for p > 1.  Returns +inf when
    E|M|^p >= 1 or E|Q|^p = inf, and when the bound exceeds the float range.
    """
    if not (isinstance(p, (int, float)) and math.isfinite(p) and p > 0):
        raise PreconditionError(f"p must be a finite real > 0, got {p!r}")
    try:
        m_pow = joint.marginal_m().abs_moment(p)
        q_pow = joint.marginal_q().abs_moment(p)
    except OverflowError:  # a moment exceeds the float range
        return math.inf
    return _zstar_from_moments(p, m_pow, q_pow)


def _zstar_from_moments(p: float, m_pow: float, q_pow: float) -> float:
    """``zstar_bound`` from E|M|^p and E|Q|^p already at hand."""
    if m_pow >= 1.0 or not math.isfinite(q_pow):
        return math.inf
    try:
        if p <= 1.0:
            return q_pow / (1.0 - m_pow)
        return (q_pow ** (1.0 / p) / (1.0 - m_pow ** (1.0 / p))) ** p
    except OverflowError:  # the bound exceeds the float range
        return math.inf


def _boundary_terms(joint: JointLaw, s: float) -> tuple[float, float, float, float]:
    a_minus = joint.restricted_exp_moment(s, -1, 1.0)
    a_plus = joint.restricted_exp_moment(s, +1, 1.0)
    b_minus = joint.restricted_exp_moment(s, -1, -1.0)
    b_plus = joint.restricted_exp_moment(s, +1, -1.0)
    return a_minus, a_plus, b_minus, b_plus


def _boundary_feasible(a_minus, a_plus, b_minus, b_plus) -> bool:
    if not (a_minus < 1.0 and a_plus < 1.0):
        return False
    lhs = b_minus * b_plus
    rhs = (1.0 - a_minus) * (1.0 - a_plus)
    return bool(lhs < rhs)  # NaN (0 * inf) compares False, which is correct


def exp_feasible_at(joint: JointLaw, s: float) -> ExpFeasibility:
    """Whether E e^{s|Z|} < inf at a given s > 0, with the decision terms."""
    if not (isinstance(s, (int, float)) and math.isfinite(s) and s > 0):
        raise PreconditionError(f"s must be a finite real > 0, got {s!r}")
    _require_nondegenerate(joint, "exp_feasible_at")
    regime = classify_regime(joint)
    q_exp = joint.marginal_q().exp_moment(s, of_abs=True)
    a_minus, a_plus, b_minus, b_plus = _boundary_terms(joint, s)
    if regime == REGIME_CONTRACTING:
        feasible = math.isfinite(q_exp)
    elif regime == REGIME_BOUNDARY:
        feasible = math.isfinite(q_exp) and _boundary_feasible(
            a_minus, a_plus, b_minus, b_plus)
    else:
        feasible = False
    return ExpFeasibility(feasible, regime, a_minus, a_plus, b_minus, b_plus, q_exp)


def _r_star_search(joint: JointLaw, tol: float) -> tuple[float, tuple]:
    def pred(s: float) -> bool:
        return _boundary_feasible(*_boundary_terms(joint, s))

    trace = []
    if not pred(tol):
        return 0.0, ((tol, tol),)
    lo, hi = tol, 1.0
    if pred(1.0):
        lo = 1.0
        hi = 2.0
        while pred(hi):
            lo, hi = hi, hi * 2.0
            if hi > _BRACKET_CAP:
                return math.inf, tuple(trace) + ((lo, math.inf),)
        trace.append((lo, hi))
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # lo and hi are adjacent floats, wider apart than tol
            break
        if pred(mid):
            lo = mid
        else:
            hi = mid
        trace.append((lo, hi))
    return 0.5 * (lo + hi), tuple(trace)


def r_star(joint: JointLaw, tol: float = 1e-9) -> float:
    """sup{s > 0 : the boundary-regime predicate holds}, by bisection.

    The predicate set equals {s : E e^{s|Z|} < inf} up to its endpoint, an
    interval, so bracketing is sound.  Requires the boundary regime.
    """
    if not (0 < tol < 1):
        raise PreconditionError(f"tol must be in (0, 1), got {tol!r}")
    if classify_regime(joint) != REGIME_BOUNDARY:
        raise PreconditionError("r_star requires the boundary regime "
                                "(P{|M|=1} in (0,1) and P{|M|<=1} = 1)")
    value, _ = _r_star_search(joint, tol)
    return value


def r_of_perpetuity(joint: JointLaw, tol: float = 1e-9) -> AbscissaResult:
    """Abscissa of convergence r(Z) of the perpetuity's exponential moments."""
    _require_nondegenerate(joint, "r_of_perpetuity")
    rep = existence_report(joint)
    if rep.verdict != VERDICT_CONVERGES:
        raise PreconditionError(
            f"r_of_perpetuity requires a convergent perpetuity, got verdict "
            f"{rep.verdict!r}")
    regime = classify_regime(joint)
    r_q = joint.marginal_q().exp_abscissa()
    if regime == REGIME_CONTRACTING:
        # a_pm = b_pm = 0 identically, so the boundary predicate never binds
        return AbscissaResult(regime, r_q, math.inf, r_q, None, None)
    if regime == REGIME_EXPANDING:
        return AbscissaResult(regime, r_q, None, 0.0, None, None)
    star, trace = _r_star_search(joint, tol)
    r_z = min(r_q, star)
    detail = None
    if math.isfinite(r_z):
        a_minus, a_plus, b_minus, b_plus = _boundary_terms(joint, r_z)
        detail = {"a_minus": a_minus, "a_plus": a_plus,
                  "b_minus": b_minus, "b_plus": b_plus}
    return AbscissaResult(regime, r_q, star, r_z, detail, trace)


def exp_perpetuity_moment(a: float, law_m: ScalarLaw, n: int) -> float:
    """E Z^n for Q ~ Exponential(a) independent of M with P{0 <= M <= 1} = 1.

    Closed form n! / (a^n prod_{k=1..n} (1 - E M^k)); requires E M^k < 1
    for k <= n (that is, E M < 1 unless M has an atom at 1 of full mass).
    """
    if not (isinstance(n, int) and n >= 1):
        raise PreconditionError(f"n must be a positive integer, got {n!r}")
    if not (isinstance(a, (int, float)) and math.isfinite(a) and a > 0):
        raise PreconditionError(f"a must be a finite real > 0, got {a!r}")
    lo, _hi = law_m.support()
    if lo < 0 or law_m.prob_abs_gt(1.0) > 0.0:
        raise PreconditionError("exp_perpetuity_moment requires P{0 <= M <= 1} = 1")
    if law_m.abs_moment(1.0) >= 1.0:
        raise PreconditionError("exp_perpetuity_moment requires E M < 1")
    prod = 1.0
    for k in range(1, n + 1):
        mk = law_m.abs_moment(float(k))
        if mk == 1.0:
            raise PreconditionError(f"E M^{k} = 1: moment formula undefined")
        prod *= 1.0 - mk
    return math.factorial(n) / (a ** n * prod)


def cauchy_hadamard_estimate(moments) -> float:
    """Abscissa estimate a_{N-1}/a_N from the sequence E Z^1..E Z^N, a_n = E Z^n/n!."""
    n = len(moments)
    if n < 3:
        raise PreconditionError("cauchy_hadamard_estimate needs at least 3 moments")
    for m in moments:
        if not (isinstance(m, (int, float)) and math.isfinite(m) and m > 0):
            raise PreconditionError("moment entries must be finite and positive")
    return (moments[-2] / math.factorial(n - 1)) / (moments[-1] / math.factorial(n))

"""Moment criteria and exponential-moment abscissas for perpetuities.

For p > 0 the perpetuity has a finite p-th absolute moment exactly when
E|M|^p < 1 and E|Q|^p < inf (given the nonzero and nondegeneracy
conditions), and the dominating series Z* = sum |Pi_{k-1} Q_k| obeys the
explicit bounds E(Z*)^p <= E|Q|^p / (1 - E|M|^p) for p <= 1 and
(||Q||_p / (1 - ||M||_p))^p for p > 1.  The verdict reads the sign of
log E|M|^p, and the bound -expm1 of it, so a moment within rounding of 1
keeps both.

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
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

from .errors import PreconditionError
from .existence import VERDICT_CONVERGES, existence_report
from .laws import (_LOG_FLOAT_MAX, JointLaw, ScalarLaw, _abs_below_one, _abs_may_equal_one,
                   _abs_may_exceed_one, _abs_may_fall_below_one)

REGIME_CONTRACTING = "all-contracting"
REGIME_BOUNDARY = "boundary"
REGIME_EXPANDING = "expanding"

_BRACKET_CAP = 1e18
# bisection tolerance for r*, absolute
_R_STAR_TOL = 1e-9


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
class AbscissaResult:
    regime: str
    r_q: float
    r_star: float | None
    r_z: float
    boundary_detail: Mapping[str, float] | None
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

    Each branch asks whether an event has positive probability, and answers
    from M's support and atoms, never from a probability.  So a tail beyond
    1 that 1 - P{M <= 1} rounds to 0, as P{M > 1} = e^-40 of
    exponential(40), still makes the regime expanding, and finite laws whose
    probabilities add up to 1 only within rounding keep their regime.
    """
    law_m = joint.marginal_m()
    if _abs_may_exceed_one(law_m):
        return REGIME_EXPANDING
    if not _abs_may_equal_one(law_m):
        return REGIME_CONTRACTING
    if _abs_may_fall_below_one(law_m):
        return REGIME_BOUNDARY
    raise PreconditionError("|M| = 1 a.s.: no exponential-moment regime applies")


def p_moment_criterion(joint: JointLaw, p: float) -> MomentReport:
    """Finiteness of E|Z|^p: equivalent to E|M|^p < 1 and E|Q|^p < inf.

    E|M|^p < 1 is read from the sign of log E|M|^p, and holds whenever
    |M| < 1 a.s.  ``zstar_bound`` is the bound on E(Z*)^p of the module
    docstring, with 1 - E|M|^p as -expm1(log E|M|^p) for p <= 1 and
    1 - ||M||_p as -expm1(log E|M|^p / p) for p > 1; it saturates to inf.
    """
    if not (isinstance(p, (int, float)) and math.isfinite(p) and p > 0):
        raise PreconditionError(f"p must be a finite real > 0, got {p!r}")
    _require_nondegenerate(joint, "p_moment_criterion")
    law_m = joint.marginal_m()
    try:
        m_pow, log_m = law_m._moment_and_log(p)
        q_pow, log_q = joint.marginal_q()._moment_and_log(p)
    except OverflowError:
        raise PreconditionError(
            f"E|M|^p or E|Q|^p exceeds the float range at p = {p!r}") from None
    finite = (log_m < 0.0 or _abs_below_one(law_m)) and log_q < math.inf
    bound = math.inf  # also where |M| < 1 a.s. but log E|M|^p rounds to 0
    if finite and log_m < 0.0:
        k = max(p, 1.0)
        gap = -math.expm1(log_m / k)  # 0 where log_m / k underflows
        log_bound = log_q - k * math.log(gap) if gap else math.inf
        bound = math.exp(log_bound) if log_bound <= _LOG_FLOAT_MAX else math.inf
    return MomentReport(float(p), m_pow, q_pow, finite, bound)


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


def _r_star_search(joint: JointLaw) -> tuple[float, tuple]:
    """r* = sup{s > 0 : the boundary predicate holds} and the bisection trace.

    The predicate set equals {s : E e^{s|Z|} < inf} up to its endpoint, an
    interval, so bracket doubling and bisection are sound.
    """
    def pred(s: float) -> bool:
        return _boundary_feasible(*_boundary_terms(joint, s))

    trace = []
    if not pred(_R_STAR_TOL):
        return 0.0, ((_R_STAR_TOL, _R_STAR_TOL),)
    lo, hi = _R_STAR_TOL, 1.0
    if pred(1.0):
        lo = 1.0
        hi = 2.0
        while pred(hi):
            lo, hi = hi, hi * 2.0
            if hi > _BRACKET_CAP:
                return math.inf, tuple(trace) + ((lo, math.inf),)
        trace.append((lo, hi))
    while hi - lo > _R_STAR_TOL:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # lo and hi are adjacent floats, wider apart than _R_STAR_TOL
            break
        if pred(mid):
            lo = mid
        else:
            hi = mid
        trace.append((lo, hi))
    return 0.5 * (lo + hi), tuple(trace)


@lru_cache(maxsize=256)
def r_of_perpetuity(joint: JointLaw) -> AbscissaResult:
    """Abscissa of convergence r(Z) of the perpetuity's exponential moments.

    Results are cached per joint law, as existence reports are; the
    boundary detail of a cached result is a read-only mapping.
    """
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
    star, trace = _r_star_search(joint)
    r_z = min(r_q, star)
    detail = None
    if math.isfinite(r_z):
        a_minus, a_plus, b_minus, b_plus = _boundary_terms(joint, r_z)
        detail = MappingProxyType({"a_minus": a_minus, "a_plus": a_plus,
                                   "b_minus": b_minus, "b_plus": b_plus})
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
    lo, hi = law_m.support()
    if lo < 0 or hi > 1:
        raise PreconditionError("exp_perpetuity_moment requires P{0 <= M <= 1} = 1")
    prod = 1.0
    for k in range(1, n + 1):
        log_mk = law_m._log_abs_moment(float(k))
        if log_mk >= 0.0:
            raise PreconditionError(f"exp_perpetuity_moment requires E M^{k} < 1")
        prod *= -math.expm1(log_mk)  # 1 - E M^k
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

"""Scalar law families and joint laws for the pair (M, Q).

A perpetuity is driven by i.i.d. copies of a pair (M, Q); this module gives
the closed vocabulary of marginal families and the two supported couplings
(independent marginals, finite joint atoms).  Every family carries an exact
sampler plus the analytic functionals the rest of the package needs:
moments of |X|, exponential moments and their abscissa of convergence,
atom probabilities and logarithmic moments.  A sampler is one numpy
generator call per stream key (``_draw``) and an elementwise rest
(``_finish``), so a joint's ``draw_rows`` makes one call per draw of a wave
and finishes the whole wave's rows at once.

Where each functional comes from:

- point_mass, finite_discrete, signed_rademacher: one private atom-law base
  sums every functional over the family's atom table; signed_rademacher
  keeps cosh for E e^{sX}.
- uniform, exponential, gamma, beta, weibull, inverse_gamma, log_pareto:
  closed forms, except three functionals that are means of one
  G ~ Gamma(a, 1): E e^{sX} of inverse_gamma (scale / G), of weibull
  (scale G^{1/shape}, a = 1) and of log_pareto (exp(exp(G / index)),
  a = 1).  One quadrature helper, ``_log_gamma_mean``, integrates each over
  T = log(G / a); it cuts the line at the mode of T, at its right shoulder
  for a < e^-40 and at the point where the caller says the integrand
  switches, and grades every piece toward its features.  Each piece goes to
  the package's own tanh-sinh rule (Takahasi & Mori 1974) on nested levels
  h = 2^-3 ... 2^-8; a piece stops at the first level where the error that
  its last three sums predict, d_k^2 / d_{k-1} with d_k = |S_k - S_{k-1}|,
  is below 1e-14 of the mean, or at level 8.  scipy.special is the only
  scipy module the package imports.  E e^{sX} keeps its closed forms at
  s = 0, for weibull shape 1 and where s > 0 has no finite moment.  E log M
  of beta(a, b) switches to a large-a expansion, and to a series in b for
  b << a, where the closed form cancels.
- poisson: closed forms for the pmf and E e^{sX}.
- uniform_discrete_range: closed forms; E|X|^p is an exact sum up to 2^16
  atoms and an Euler-Maclaurin expansion above.
- E|X|^p: each family defines the one of ``abs_moment`` and
  ``_log_abs_moment`` that it computes, and ``ScalarLaw`` derives the other.
  The log-Gamma-ratio families (``_log_gamma_ratio``), weibull, poisson and
  log_pareto give the log, so a moment within rounding of 1 keeps the sign
  of its log; the atom laws, uniform and uniform_discrete_range the moment.
- Whether |X| exceeds, equals or falls below 1 with positive probability is
  read off ``support()`` and the atoms, never off a probability that may
  round to 0 or 1 (``_abs_may_exceed_one`` and its neighbours).
- params_json reads the dataclass fields.

A finite moment beyond the float range raises OverflowError.  All laws are
frozen, hashable value types with a stable JSON form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cache, cached_property
from typing import Union

import numpy as np
from numpy.random import Generator
from scipy import special

from .errors import DrawError, LawValidationError, PreconditionError
from .streams import LANE_M, LANE_Q, LANE_MAIN, LanePool, RandomStream

# a piece of the line next to a feature of an integrand spans this many of
# the feature's widths before the piece from the next cut takes over
_FEATURE_WIDTHS = 40.0

# the largest parameters numpy's samplers accept: Generator.poisson refuses
# lam above 2^63 - 1 - 10 sqrt(2^63 - 1), Generator.integers a high above 2^63
_POISSON_MEAN_MAX = 9.223372006484771e18
_INTEGERS_HIGH_MAX = 2 ** 63

# Poisson series: integers are summed one by one up to this many, and a
# wider window is integrated by the trapezoid rule on this many nodes
_POISSON_NODES = 4096
# uniform_discrete_range moments: an exact sum up to this many atoms, the
# Euler-Maclaurin expansion above
_RANGE_EXACT_MAX = 1 << 16
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)
_FLOAT_TINY = np.finfo(float).tiny
_FLOAT_MAX = np.finfo(float).max
# E log M of Beta(a, b) uses a large-a expansion from a = _BETA_ASYMPTOTIC on,
# where the digamma difference cancels; the omitted terms are below 1e-17 of
# it there
_BETA_ASYMPTOTIC = 1e4
# below it, E log M of Beta(a, b) is a series in b from b = _BETA_SMALL * a
# down, where the digamma difference cancels; its terms fall by a factor of
# b / a or more, so _BETA_SMALL_TERMS of them reach 1e-18 relative
_BETA_SMALL = 0.01
_BETA_SMALL_TERMS = 9
# E log X of gamma and inverse_gamma takes digamma(a) - log a as its
# asymptotic series from shape a = _DIGAMMA_SERIES on, where the difference
# cancels; the omitted terms are below 3e-18 of it there, and below 1e-15 of
# e^digamma(a) - a + 1/2, the part of it that decides the sign near c = a - 1/2
_DIGAMMA_SERIES = 30.0

# the top bits of the low and the high 32-bit half of a 64-bit word
_HALF_WORD_TOP_BITS = np.array([31, 63], dtype=np.uint64)

def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise LawValidationError(msg)


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def _exp(x: float) -> float:
    """exp that saturates to inf instead of raising OverflowError."""
    return math.exp(x) if x < 709.0 else math.inf


def _log_ratio(x: float, y: float, d: float = 0.0) -> float:
    """log((x + d) / y) for x + d, y > 0: the quotient rounded once where it is
    a normal float, and what x + d rounds off added back (Knuth's two-sum)."""
    s = x + d
    b = s - x
    q = s / y
    log = math.log(q) if _FLOAT_TINY <= q < math.inf else math.log(s) - math.log(y)
    return log + ((x - (s - b)) + (d - b)) / s


# below |t| = 1/4 the terms of e^t - 1 - t through t^14 reach 1e-18 relative
_EXPM1_MINUS_TAYLOR = tuple(1.0 / math.factorial(n) for n in range(14, 1, -1))


def _expm1_minus(t, a: float):
    """a (e^t - 1 - t) for a float or an array t, without the cancellation
    near t = 0; inf past the float range.

    expm1(t) - t is exact but for the rounding of expm1(t), about 2^-53 |t|,
    so up to a = 16 the product is good to 2^-51 absolute on |t| < 1/4, and
    only a larger a takes the Taylor series on the entries with |t| < 1/4.
    """
    def taylor(u):
        acc = _EXPM1_MINUS_TAYLOR[0]
        for c in _EXPM1_MINUS_TAYLOR[1:]:
            acc = acc * u + c
        return acc * u * u

    if isinstance(t, float):
        if a > 16.0 and abs(t) < 0.25:
            return a * taylor(t)
        return a * (math.expm1(t) - t) if t < 709.0 else math.inf
    out = np.expm1(t) - t
    if a > 16.0:
        near = np.abs(t) < 0.25
        if near.any():
            out[near] = taylor(t[near])
    return a * out


def _digamma_minus_log_of(a: float, c: float) -> float:
    """digamma(a) - log c for a >= _DIGAMMA_SERIES and c > 0, from the
    asymptotic series D = digamma(a) - log a = -1/(2a) + r, with
    r = -sum B_2k / (2k a^2k) through a^-10.

    Far from c = a the sum log(a / c) + D does not cancel. Where c / 2 <= a
    <= 2c it is log1p((e^digamma(a) - c) / c), and e^digamma(a) - c =
    (a - c - 1/2) + a (e^D - 1 - D) + a r, whose first term is exact wherever
    it is below 1; so next to the root, near c = a - 1/2 + 1/(24a), the error
    is a rounding of a (e^D - 1 - D) + a r, about 1/(24a), not of log c.
    """
    a2 = a * a
    r = -(1 / 12 - (1 / 120 - (1 / 252 - (1 / 240 - 1 / (132 * a2)) / a2) / a2) / a2) / a2
    d = -0.5 / a + r
    if not c / 2 <= a <= 2 * c:
        return _log_ratio(a, c) + d
    return math.log1p(((a - c) - 0.5 + (_expm1_minus(d, a) + a * r)) / c)


# The tanh-sinh rule of Takahasi & Mori, "Double exponential formulas for
# numerical integration" (Publ. RIMS 1974): x = (1 + tanh(pi/2 sinh t)) / 2
# maps the line onto [0, 1], and the error of the trapezoid rule in t at step
# h = 2^-k, |t| <= _TS_T_MAX, falls about as e^{-c / h}, even with an
# integrable singularity at an end, so each halving of h about squares it.
# Level k adds the odd multiples of 2^-k to the nodes of level k - 1; a call
# evaluates levels 3-5 at once, then one level at a time up to 8, and stops
# once its sums meet _TS_TOL (see _converged).
_TS_T_MAX = 3.4  # the outermost weights are below 1e-18
_TS_STAGES_LEVELS = ((3, 4, 5), (6,), (7,), (8,))
_TS_TOL = 1e-14


def _tanh_sinh_stages():
    """Per stage: (end, offset, weight, starts, steps), a node at x = end + offset.

    ``end`` is 0 or 1, the end a node is nearer to, and ``offset`` its signed
    distance from that end, kept exactly instead of rounding 1 - 4e-21 to 1.
    ``weight`` is dx/dt there.  The nodes of the stage's levels follow one
    another, level i from index ``starts[i]`` on, and ``steps`` holds the
    levels' h.
    """
    k_max = _TS_STAGES_LEVELS[-1][-1]
    j = np.arange(-int(_TS_T_MAX * 2 ** k_max), int(_TS_T_MAX * 2 ** k_max) + 1)
    t = np.ldexp(j.astype(float), -k_max)
    u = 0.5 * math.pi * np.sinh(t)
    dist = 1.0 / (1.0 + np.exp(2.0 * np.abs(u)))  # (1 - tanh|u|) / 2
    dxdt = 0.25 * math.pi * np.cosh(t) / np.cosh(u) ** 2
    level = np.full(j.size, k_max)
    for k in range(1, k_max - _TS_STAGES_LEVELS[0][0] + 1):
        level[j % (1 << k) == 0] = k_max - k
    stages = []
    for levels in _TS_STAGES_LEVELS:
        on = np.concatenate([np.flatnonzero(level == k) for k in levels])
        starts = np.cumsum([0] + [np.count_nonzero(level == k) for k in levels[:-1]])
        stages.append(((t[on] > 0).astype(float), np.where(t[on] > 0, -dist[on], dist[on]),
                       dxdt[on], starts, [math.ldexp(1.0, -k) for k in levels]))
    return tuple(stages)


_TS_STAGES = _tanh_sinh_stages()


def _converged(s0, s1, s2, total) -> bool:
    """Whether a row's S_k = s2 is within _TS_TOL * total of its integral.

    s0 and s1 are the row's S_{k-2} and S_{k-1}, and ``total`` > 0 is the
    sum of all rows' latest sums.  With d_k = |S_k - S_{k-1}|, about the
    error of S_{k-1}, the error of S_k is taken as d_k^2 / d_{k-1}: the next
    difference if the ratio of the last two held, which is no smaller than
    the d_k^2 that quadratic convergence gives.  Sums that agree to
    _TS_TOL * total stop at once.
    """
    d1, d2 = abs(s1 - s0), abs(s2 - s1)
    return d2 <= _TS_TOL * total or d2 / total * d2 <= _TS_TOL * d1


def _tanh_sinh(f, lengths: list) -> float:
    """The sum over rows i of int_0^{lengths[i]} of row i of f, >= 0.

    f(v, rows) takes the nodes v of shape (len(rows), n), one row per entry
    of ``rows`` (a list of row numbers, or a slice for all of them), and
    returns the integrand there.  Each row gets one tanh-sinh rule and stops
    on its own, at the first level where ``_converged`` holds, or returns
    its level 8 sum; all rows stop once their total is 0 or inf.  The
    per-level sums are few, so they are kept in floats.
    """
    ids, rows, span = range(len(lengths)), slice(None), np.array(lengths)[:, None]
    raw = [0.0] * len(lengths)  # per row, the sum of f dx/dt over the nodes so far
    sums = [[] for _ in lengths]  # per row, the sums of its levels so far
    for end, offset, weight, starts, steps in _TS_STAGES:
        level = np.add.reduceat(f(span * end + span * offset, rows) * weight, starts, axis=1)
        for r, row_level in zip(ids, level.tolist()):
            for x, h in zip(row_level, steps):
                raw[r] += x
                sums[r].append(h * lengths[r] * raw[r])
        total = sum(s[-1] for s in sums)
        if not 0.0 < total < math.inf:
            break
        ids = rows = [r for r in ids if not _converged(*sums[r][-3:], total)]
        if not ids:
            break
        span = np.array([lengths[r] for r in ids])[:, None]
    return sum(s[-1] for s in sums)


def _log_gamma_mean(a, log_h, switch, width) -> float:
    """E h(T) for T = log(G / a), G ~ Gamma(a, 1), h = e^{log_h}.

    T has density sqrt(a / 2 pi) e^{-delta(a) - a (e^t - 1 - t)} about its
    mode 0, with no cancellation at large a.  The integrand varies on the
    density's side widths at 0 and on ``width`` at ``switch``, where the
    caller says h changes regime (a non-finite switch adds no cut).  The
    line is cut there.  A finite piece is split so that the
    half at its finer feature spans _FEATURE_WIDTHS of its widths, and a
    tail is split there when the density is wider still.  Below a = e^-40
    the density's right shoulder, a (e^t - 1) = 1, is one more feature: it
    ends a plateau of width -log a over a width of 1.  Each part is one
    integral in v, t = end +- w (e^v - 1), graded toward the end's feature of
    width w, so that no feature falls between the nodes.  All parts go to one
    tanh-sinh rule (``_tanh_sinh``), one row each, evaluated together in
    numpy; a row stops at the first level where d_k^2 / d_{k-1}, the error
    its last three sums predict, is below _TS_TOL = 1e-14 of the sum of all
    rows (``_converged``).  ``log_h`` maps floats and numpy arrays alike.
    """
    log_a = math.log(a)
    c0 = 0.5 * log_a - _HALF_LOG_2PI - float(_stirling_remainder(np.float64(a), log_a))
    r = min(math.sqrt(2.0 / a) + 1.0 / a, 1e300)  # a (e^t - 1 - t) = 1 about here
    w_left, w_right = r, math.log1p(r)

    # below a = e^-700 the factor e^c0 is taken out of the integrand, which
    # would otherwise fall among the subnormal floats
    c_in = max(c0, -700.0)

    def log_g(t):  # NaN, inf - inf, is a growing h beaten by the density's right tail
        return c_in + log_h(t) - _expm1_minus(t, a)

    def scale(t):  # the density's width at t, no finer than the float spacing
        d = a * abs(_exp(t) - 1.0)
        w = w_left if t < 0 else w_right
        return max(min(w, 1.0 / d) if d * w > 1.0 else w, 16.0 * math.ulp(t))

    features = [(0.0, w_right)]
    if -log_a > _FEATURE_WIDTHS:  # the right shoulder, a (e^t - 1) = 1 about here
        features.append((-log_a, 1.0))
    if -math.inf < switch < math.inf:
        features.append((switch, max(min(width, scale(switch)), 16.0 * math.ulp(switch))))

    def cut_width(p):  # a feature seen from p is no finer than its distance
        return min([scale(p)] + [max(w, abs(p - f)) for f, w in features])

    def tail_span(end, sign, w):
        # log g is unimodal along a tail: it ends at the first doubling step
        # where log g is 100 below the largest value met, or -inf, or at 1e308
        top, span = -math.inf, w
        while span < 1e308:
            v = log_g(end + sign * span)
            if not v > top - 100.0:
                break
            top, span = max(top, v), 2.0 * span
        return span

    pieces = []  # (end, sign, w, span): t runs from end over span, graded by w
    cuts = sorted({f for f, _ in features} | {-math.inf, math.inf})
    with np.errstate(all="ignore"):
        for p, q in zip(cuts, cuts[1:]):
            if math.isinf(p) or math.isinf(q):
                end, sign = (q, -1.0) if math.isinf(p) else (p, 1.0)
                w = cut_width(end)
                m = end + sign * _FEATURE_WIDTHS * w
                if scale(m) > _FEATURE_WIDTHS * w:
                    pieces.append((end, sign, w, _FEATURE_WIDTHS * w))
                    end, w = m, scale(m)
                pieces.append((end, sign, w, tail_span(end, sign, w)))
            else:
                wp, wq = cut_width(p), cut_width(q)
                d = min(_FEATURE_WIDTHS * min(wp, wq), 0.5 * (q - p))
                m = p + d if wp <= wq else q - d
                pieces += [(p, 1.0, wp, m - p), (q, -1.0, wq, q - m)]
        ends, steps, bases = np.array([(e, s * w, c_in + math.log(w)) for e, s, w, _ in pieces]).T
        ends, steps, bases = ends[:, None], steps[:, None], bases[:, None]

        def f(v, rows):  # over v, the graded integrand g(t) dt/dv = g(t) w e^v
            t = ends[rows] + steps[rows] * np.expm1(v)
            y = log_h(t) - _expm1_minus(t, a) + (bases[rows] + v)
            return np.exp(np.fmax(y, -math.inf))  # NaN is 0 too

        # a span / w past the float range, for a subnormal w, is cut to it
        total = _tanh_sinh(f, [math.log1p(min(span / w, _FLOAT_MAX)) for _, _, w, span in pieces])
    return math.exp(c0 - c_in) * total


@cache
def _field_names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


def _stirling_remainder(k, log_k):
    """log Gamma(k) - ((k - 1/2) log k - k + log(2 pi)/2), which is also
    log k! - ((k + 1/2) log k - k + log(2 pi)/2); a series for k >= 30."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # in the unused branch
        k2 = k * k
        series = (1 / 12 - (1 / 360 - (1 / 1260 - 1 / (1680 * k2)) / k2) / k2) / k
        return np.where(k >= 30.0, series,
                        special.gammaln(k + 1.0) - (k + 0.5) * log_k + k - _HALF_LOG_2PI)


# below t = 1/64 the terms of log1p(t) - t through t^11 reach 1e-19 relative
_LOG1P_MINUS_TAYLOR = tuple((-1.0) ** (n + 1) / n for n in range(11, 1, -1))
# Stirling's series sum_n B_2n / (2n (2n - 1) z^(2n - 1)) of the remainder;
# from z = _STIRLING_FROM on its first eight terms reach 2e-18 of it
_STIRLING_FROM = 10.0
_STIRLING_COEFFS = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360,
                    1 / 156, -3617 / 122400)


def _log1p_ratio(a: float, b: float) -> float:
    """log(1 + a / b) for b > 0 and a > -b, also where a / b overflows or
    rounds next to -1; below a = -b / 2, a + b is exact."""
    return math.log1p(a / b) if -0.5 * b < a < b else _log_ratio(a + b, b)


def _log_gamma_ratio(x: float, p: float, y: float = 1.0) -> float:
    """log Gamma(x + p) - log Gamma(x) - p log y for x, y > 0 and x + p > 0.

    Below |p| = 64 the integer part n of p is exact steps Gamma(z + 1) =
    z Gamma(z) down from z = x + p, an fsum of +-log((x + p - n + j) / y) by
    ``_log_ratio``, so a unit mean E G, G ~ Gamma(a, a), is exactly e^0.  The
    rest is shifted up by steps -log1p(p / (x + j)) until x and x + p reach
    _STIRLING_FROM, and then is Stirling's formula differenced term by term,
    with t = p / x: x (log1p(t) - t) - log1p(t) / 2 + p (log1p(t) +
    log(x / y)) plus the series' difference, with log1p(t) - t a series below
    |t| = 1/64.  No step rounds x + p against x, so a tiny p keeps its digits.
    """
    total = 0.0
    if 1.0 <= abs(p) < 64.0:
        n = int(p)
        p -= n
        steps = [_log_ratio(x, y, p + j) for j in range(min(n, 0), max(n, 0))]
        total = math.copysign(1.0, n) * math.fsum(steps)
        if p == 0.0:
            return total
    up = max(0, math.ceil(_STIRLING_FROM - min(x, x + p)))
    total -= sum([_log1p_ratio(p, x + j) for j in range(up)])
    x += up
    t = p / x
    log1p_t = math.log1p(t)
    if abs(t) < 1.0 / 64.0:
        acc = _LOG1P_MINUS_TAYLOR[0]
        for c in _LOG1P_MINUS_TAYLOR[1:]:
            acc = acc * t + c
        shift = p * t * acc  # x (log1p(t) - t), whose leading term is -x t^2 / 2
    else:
        shift = x * (log1p_t - t)
    # with u = 1/x and v = 1/(x + p), v^m - u^m = (v - u) s_m for s_m =
    # sum_i u^i v^(m-1-i), s_(m+2) = v^2 s_m + u^m (u + v), and v - u = -t v
    u, v = 1.0 / x, 1.0 / (x + p)
    s, u_m, series = 1.0, u, _STIRLING_COEFFS[0]
    for c in _STIRLING_COEFFS[1:]:
        s = v * v * s + u_m * (u + v)
        u_m *= u * u
        series += c * s
    return total + shift - 0.5 * log1p_t + p * (log1p_t + _log_ratio(x, y)) - t * v * series


def _moment_from_log(log: float) -> float:
    """e^log of a log-moment: inf for an infinite moment, OverflowError for a
    finite one past the float range or at nan."""
    if log == math.inf:
        return math.inf
    if not log <= _LOG_FLOAT_MAX:
        raise OverflowError("moment exceeds the float range")
    return math.exp(log)


def _poisson_log_pmf(k: np.ndarray, d: np.ndarray, lam: float) -> np.ndarray:
    """log P{X = k} for X ~ Poisson(lam) at real k = lam + d >= 1, for any lam.

    Loader's saddle-point form -bd0 - log(2 pi k)/2 - delta(k), where
    bd0 = k log(k/lam) - (k - lam), avoids the cancellation of
    k log lam - lam - log k! (three terms near 4e19 at lam = 1e18).  bd0 is
    summed as its series in v = d/(k + lam) where |v| < 0.1, and delta(k) =
    log k! - log(Stirling's formula) is ``_stirling_remainder``.
    """
    log_k = np.log(k)
    bd0 = k * (log_k - math.log(lam)) - d
    v = d / (k + lam)
    near = np.flatnonzero(np.abs(v) < 0.1)
    if near.size:
        v = v[near]
        v2 = v * v
        series, term = d[near] * v, 2.0 * k[near] * v
        # term j is about v^(2j-1) relative to the sum: stop below 1e-17
        vmax = float(np.abs(v).max())
        terms = 1 if vmax == 0.0 else math.ceil((1.0 - 17.0 / math.log10(vmax)) / 2.0)
        for j in range(1, terms + 1):
            term *= v2
            series += term / (2 * j + 1)
        bd0[near] = series
    return -bd0 - 0.5 * log_k - _HALF_LOG_2PI - _stirling_remainder(k, log_k)


class ScalarLaw:
    """Common interface for one-dimensional law families."""

    family = "abstract"

    # -- sampling ---------------------------------------------------------
    #
    # A sampler is the one numpy call ``_draw``, which runs once per stream
    # key, and the elementwise rest ``_finish``, which runs once on the rows
    # of a whole wave (``draw_rows``); each row equals ``sample_block`` on
    # that row's generator, bit for bit.

    def _draw(self, gen, size) -> np.ndarray:
        raise NotImplementedError

    def _finish(self, raw: np.ndarray) -> np.ndarray:
        return raw

    def sample_block(self, gen, size) -> np.ndarray:
        return self._finish(self._draw(gen, size))

    # -- atoms and support -------------------------------------------------

    def point_prob(self, x: float) -> float:
        """P{X = x}; zero for continuous families."""
        return 0.0

    def has_atom_at(self, x: float) -> bool:
        """Whether P{X = x} > 0, decided exactly: no probability is rounded."""
        return False

    def support(self) -> tuple[float, float]:
        """The closed hull (lo, hi) of the values X takes.

        A continuous family has a positive density on all of it, and
        poisson and uniform_discrete_range have an atom on every integer of
        it, so for them an interval that meets the support in more than a
        point, or in an integer, has positive probability.  An atom law's
        support is the hull of its atoms.
        """
        raise NotImplementedError

    # -- moments ----------------------------------------------------------

    # a family defines one of the next two, and the other is derived from it

    def abs_moment(self, p: float) -> float:
        """E |X|^p for p > 0; may be infinite, and raises OverflowError where
        it is finite but past the float range."""
        self._check_p(p)
        return _moment_from_log(self._log_abs_moment(p))

    def _log_abs_moment(self, p: float) -> float:
        """log E |X|^p for p > 0: -inf for a moment of 0, inf for an infinite one."""
        moment = self.abs_moment(p)
        return math.log(moment) if moment > 0.0 else -math.inf

    def _moment_and_log(self, p: float) -> tuple[float, float]:
        """E |X|^p as ``abs_moment`` gives it and its log, from the one of the
        two that the family defines.  A moment that rounded to 0 is below
        2^-1074, whose log it takes, so that a bound built on it stays one."""
        if type(self).abs_moment is ScalarLaw.abs_moment:
            log = self._log_abs_moment(p)
            return _moment_from_log(log), log
        moment = self.abs_moment(p)
        return moment, math.log(moment or math.ulp(0.0))

    def exp_moment(self, s: float) -> float:
        """E e^{sX}; may be infinite."""
        raise NotImplementedError

    def exp_abscissa(self) -> float:
        """sup{s >= 0 : E e^{s|X|} < inf}."""
        raise NotImplementedError

    def log_abs_mean(self) -> float:
        """E log|X|; undefined (raises) when P{X = 0} > 0."""
        raise NotImplementedError

    def log_plus_abs_finite(self) -> bool:
        """Whether E log^+ |X| = E max(log|X|, 0) is finite."""
        return True

    # -- structure --------------------------------------------------------

    def as_point(self) -> float | None:
        """The constant c when P{X = c} = 1, else None."""
        return None

    def finite_atoms(self) -> tuple[tuple[float, float], ...] | None:
        """((value, prob), ...) for purely atomic laws with finitely many atoms."""
        return None

    def params_json(self) -> dict:
        """The parameters by field name, in field order; tuples become lists."""
        params = {}
        for name in _field_names(type(self)):
            value = getattr(self, name)
            params[name] = list(value) if isinstance(value, tuple) else value
        return params

    def _check_p(self, p: float) -> None:
        if not (isinstance(p, (int, float)) and math.isfinite(p) and p > 0):
            raise PreconditionError(f"moment order must be a finite real > 0, got {p!r}")


class _AtomLaw(ScalarLaw):
    """A law with finitely many atoms; every functional sums its atom table.

    ``atoms`` is ((value, prob), ...) over the atoms of positive probability,
    set once by ``_set_atoms`` after validation.  Probabilities are summed
    over the atoms, never taken as a complement, so an event with no atom has
    probability exactly 0 even when the table adds up to 1 only within
    rounding.  The sums are plain loops: a generator expression costs four
    times as much on the one- and two-atom tables the analyze path meets.
    """

    atoms: tuple

    def _set_atoms(self, atoms: tuple) -> None:
        object.__setattr__(self, "atoms", atoms)  # frozen: written once, in __post_init__

    def point_prob(self, x):
        total = 0.0
        for v, p in self.atoms:
            total += p if v == x else 0.0
        return total

    def has_atom_at(self, x):
        for v, _ in self.atoms:
            if v == x:
                return True
        return False

    def support(self):
        values = [v for v, _ in self.atoms]
        return (min(values), max(values))

    def abs_moment(self, p):
        self._check_p(p)
        total = 0.0
        for v, pr in self.atoms:
            total += pr * abs(v) ** p
        return total

    def exp_moment(self, s):
        total = 0.0
        for v, pr in self.atoms:
            e = _exp(s * v)
            if math.isinf(e):
                return math.inf
            total += pr * e
        return total

    def exp_abscissa(self):
        return math.inf

    def log_abs_mean(self):
        total = 0.0
        for v, pr in self.atoms:
            if v == 0:
                raise PreconditionError("log moment undefined: P{X = 0} > 0")
            total += pr * math.log(abs(v))
        return total

    def as_point(self):
        return self.atoms[0][0] if len(self.atoms) == 1 else None

    def finite_atoms(self):
        return self.atoms


@dataclass(frozen=True)
class PointMass(_AtomLaw):
    value: float

    family = "point_mass"

    def __post_init__(self):
        _require(_finite(self.value), "point_mass: value must be finite")
        self._set_atoms(((float(self.value), 1.0),))

    def _draw(self, gen, size):
        # no randomness: gen is None; empty + fill is a quarter of np.full's overhead
        block = np.empty(size)
        block.fill(float(self.value))
        return block


@dataclass(frozen=True)
class FiniteDiscrete(_AtomLaw):
    values: tuple
    probs: tuple

    family = "finite_discrete"

    def __post_init__(self):
        _require(isinstance(self.values, tuple) and isinstance(self.probs, tuple),
                 "finite_discrete: values and probs must be tuples")
        _require(len(self.values) == len(self.probs) and len(self.values) >= 1,
                 "finite_discrete: values and probs must have equal positive length")
        _require(all(_finite(v) for v in self.values),
                 "finite_discrete: values must be finite")
        _require(all(_finite(p) and p >= 0 for p in self.probs),
                 "finite_discrete: probs must be nonnegative")
        _require(abs(sum(self.probs) - 1.0) <= 1e-12,
                 "finite_discrete: probs must sum to 1 within 1e-12")
        _require(len(set(self.values)) == len(self.values),
                 "finite_discrete: values must be distinct")
        self._set_atoms(tuple((float(v), float(p))
                              for v, p in zip(self.values, self.probs) if p > 0))

    @cached_property
    def _cum(self) -> np.ndarray:
        c = np.cumsum(np.asarray(self.probs, dtype=float))
        c[-1] = 1.0
        return c

    @cached_property
    def _varr(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    def _draw(self, gen, size):
        return gen.random(size)

    def _finish(self, raw):
        idx = np.searchsorted(self._cum, raw, side="right")
        return self._varr[np.minimum(idx, len(self.values) - 1)]


@dataclass(frozen=True)
class UniformContinuous(ScalarLaw):
    lo: float
    hi: float

    family = "uniform"

    def __post_init__(self):
        _require(_finite(self.lo) and _finite(self.hi) and self.lo < self.hi,
                 "uniform: requires finite lo < hi")

    def _width(self):
        return self.hi - self.lo

    def _draw(self, gen, size):
        return gen.random(size)

    def _finish(self, raw):
        return self.lo + self._width() * raw

    def support(self):
        return (self.lo, self.hi)

    def abs_moment(self, p):
        self._check_p(p)

        def g(t):
            return math.copysign(abs(t) ** (p + 1), t) / (p + 1)

        return (g(self.hi) - g(self.lo)) / self._width()

    def exp_moment(self, s):
        if s == 0:
            return 1.0
        return (_exp(s * self.hi) - _exp(s * self.lo)) / (s * self._width())

    def exp_abscissa(self):
        return math.inf

    def log_abs_mean(self):
        def g(t):
            return t * math.log(abs(t)) - t if t != 0 else 0.0

        return (g(self.hi) - g(self.lo)) / self._width()


@dataclass(frozen=True)
class UniformDiscreteRange(ScalarLaw):
    """Uniform law on the integers {0, 1, ..., n - 1}."""

    n: int

    family = "uniform_discrete_range"

    def __post_init__(self):
        _require(isinstance(self.n, int) and 1 <= self.n <= _INTEGERS_HIGH_MAX,
                 "uniform_discrete_range: n must be an integer in [1, 2^63]")

    def _draw(self, gen, size):
        return gen.integers(0, self.n, size)

    def _finish(self, raw):
        return raw.astype(float)

    def point_prob(self, x):
        return 1.0 / self.n if self.has_atom_at(x) else 0.0

    def has_atom_at(self, x):
        return 0 <= x < self.n and x % 1.0 == 0.0

    def support(self):
        return (0.0, float(self.n - 1))

    def abs_moment(self, p):
        """(1^p + ... + (n-1)^p) / n; raises OverflowError beyond the float range."""
        self._check_p(p)
        n = self.n
        if n <= _RANGE_EXACT_MAX:
            with np.errstate(over="ignore"):
                total = float(np.sum(np.arange(1.0, n) ** p))
            if math.isinf(total):
                raise OverflowError("moment exceeds the float range")
            return total / n
        # Euler-Maclaurin: sum_{k <= N} k^p = zeta(-p) + N^(p+1)/(p+1) + N^p/2
        # + sum_j B_2j/(2j)! p (p-1) ... (p-2j+2) N^(p-2j+1); N >= 2^16, so
        # three Bernoulli terms reach rounding error
        big_n = float(n - 1)
        log_main = (p + 1.0) * math.log(big_n) - math.log(p + 1.0) - math.log(n)
        if log_main > _LOG_FLOAT_MAX:
            raise OverflowError("moment exceeds the float range")
        rel, falling = 1.0 + (p + 1.0) / (2.0 * big_n), 1.0
        for j, b2j in ((1, 1 / 6), (2, -1 / 30), (3, 1 / 42)):
            falling *= (p - 2 * j + 3) * (p - 2 * j + 2)
            rel += b2j / math.factorial(2 * j) * falling / big_n ** (2 * j)
        return math.exp(log_main + math.log(rel)) + float(special.zeta(-p)) / n

    def exp_moment(self, s):
        if s == 0 or self.n == 1:
            return 1.0
        if s * self.n < 700.0:
            return math.expm1(s * self.n) / (self.n * math.expm1(s))
        # log-space form avoids overflow in the geometric sum
        log_val = (s * (self.n - 1) + math.log1p(-math.exp(-s * self.n))
                   - math.log1p(-math.exp(-s)) - math.log(self.n))
        return _exp(log_val)

    def exp_abscissa(self):
        return math.inf

    def log_abs_mean(self):
        raise PreconditionError("log moment undefined: P{X = 0} > 0")

    def as_point(self):
        return 0.0 if self.n == 1 else None


@dataclass(frozen=True)
class Exponential(ScalarLaw):
    rate: float

    family = "exponential"

    def __post_init__(self):
        _require(_finite(self.rate) and self.rate > 0, "exponential: rate must be > 0")

    def _draw(self, gen, size):
        return gen.standard_exponential(size)

    def _finish(self, raw):
        return raw / self.rate

    def support(self):
        return (0.0, math.inf)

    def _log_abs_moment(self, p):
        return _log_gamma_ratio(1.0, p, self.rate)

    def exp_moment(self, s):
        if s >= self.rate:
            return math.inf
        return self.rate / (self.rate - s)

    def exp_abscissa(self):
        return self.rate

    def log_abs_mean(self):
        return -np.euler_gamma - math.log(self.rate)


@dataclass(frozen=True)
class Gamma(ScalarLaw):
    shape: float
    rate: float

    family = "gamma"

    def __post_init__(self):
        _require(_finite(self.shape) and self.shape > 0, "gamma: shape must be > 0")
        _require(_finite(self.rate) and self.rate > 0, "gamma: rate must be > 0")

    def _draw(self, gen, size):
        return gen.standard_gamma(self.shape, size)

    def _finish(self, raw):
        return raw / self.rate

    def support(self):
        return (0.0, math.inf)

    def _log_abs_moment(self, p):
        return _log_gamma_ratio(self.shape, p, self.rate)

    def exp_moment(self, s):
        r = self.rate
        if s >= r:
            return math.inf
        # r / (r - s) rounds away the low digits of s / r, which the shape
        # multiplies back up; log1p keeps them
        log_ratio = -math.log1p(-s / r) if abs(s) < r / 2 else math.log(r / (r - s))
        return _exp(self.shape * log_ratio)

    def exp_abscissa(self):
        return self.rate

    def log_abs_mean(self):
        if self.shape < _DIGAMMA_SERIES:
            return float(special.digamma(self.shape)) - math.log(self.rate)
        return _digamma_minus_log_of(self.shape, self.rate)


@dataclass(frozen=True)
class Beta(ScalarLaw):
    alpha: float
    beta: float

    family = "beta"

    def __post_init__(self):
        _require(_finite(self.alpha) and self.alpha > 0, "beta: alpha must be > 0")
        _require(_finite(self.beta) and self.beta > 0, "beta: beta must be > 0")

    def _draw(self, gen, size):
        return gen.beta(self.alpha, self.beta, size)

    def support(self):
        return (0.0, 1.0)

    def _log_abs_moment(self, p):
        # B(a + p, b) / B(a, b) = Gamma(a + p) Gamma(a + b) / (Gamma(a) Gamma(a + b + p)),
        # symmetric in p and b: log-Gamma ratios stepping by the smaller from a
        # and y = a + gap, and step log(y / a) as log1p(gap / a), unrounded.
        # Below _STIRLING_FROM both ratios shift a up by the same steps, whose
        # difference log1p(step gap / ((a + j) (a + gap + j + step))) is taken
        # whole: apart, the two cancel when step and gap are both tiny
        a, step, gap = self.alpha, min(p, self.beta), max(p, self.beta)
        up = max(0, math.ceil(_STIRLING_FROM - a))
        total = -sum([_log1p_ratio(step * (gap / (a + j + gap + step)), a + j) for j in range(up)])
        a += up
        y = a + gap
        return (total + _log_gamma_ratio(a, step, a) - _log_gamma_ratio(y, step, y)
                - step * _log1p_ratio(gap, a))

    def exp_moment(self, s):
        return float(special.hyp1f1(self.alpha, self.alpha + self.beta, s))

    def exp_abscissa(self):
        return math.inf

    def log_abs_mean(self):
        a, b = self.alpha, self.beta
        if a >= _BETA_ASYMPTOTIC:
            # digamma(z) = log z - 1/(2z) - 1/(12 z^2) + O(1/z^4), differenced
            # between z = a and a + b = 1/v: 1/a - v = b v / a
            v = 1.0 / (a + b)
            return -math.log1p(b / a) - b * v / a * (0.5 + (1.0 / a + v) / 12.0)
        if b > _BETA_SMALL * a:
            return float(special.digamma(a) - special.digamma(a + b))
        # digamma(a) - digamma(a + b) = -sum_n b^n psi^(n)(a) / n!, and
        # psi^(n)(a) / n! = (-1)^(n+1) zeta(n + 1, a); below a = 1 the
        # recurrence psi(a) = psi(a + 1) - 1/a moves the series to a + 1,
        # where zeta stays in the float range
        shift = 0.0
        if a < 1.0:
            shift = -(b / a) / (a + b)
            a += 1.0
        n = np.arange(1, _BETA_SMALL_TERMS + 1)
        return shift + float(np.sum((-b) ** n * special.zeta(n + 1.0, a)))


@dataclass(frozen=True)
class Weibull(ScalarLaw):
    """Weibull law with tail P{X > x} = exp(-(x / scale)^shape)."""

    shape: float
    scale: float

    family = "weibull"

    def __post_init__(self):
        _require(_finite(self.shape) and self.shape > 0, "weibull: shape must be > 0")
        _require(_finite(self.scale) and self.scale > 0, "weibull: scale must be > 0")

    def _draw(self, gen, size):
        return gen.weibull(self.shape, size)

    def _finish(self, raw):
        return self.scale * raw

    def support(self):
        return (0.0, math.inf)

    def _log_abs_moment(self, p):
        # E X^p = scale^p Gamma(1 + p / shape)
        return p * math.log(self.scale) + _log_gamma_ratio(1.0, p / self.shape)

    def exp_moment(self, s):
        k, lam = self.shape, self.scale
        if s == 0:
            return 1.0
        if k == 1:  # X = lam E, E ~ Exp(1); 1 / lam overflows for lam below 2^-1024
            z = s * lam
            return 1.0 / (1.0 - z) if z < 1.0 else math.inf
        if k < 1 and s > 0:
            return math.inf
        # X = lam e^{T / k} for T = log G, G ~ Exp(1) = Gamma(1, 1): s X = +-e^{ell + T/k}
        ell = math.log(abs(s)) + math.log(lam)
        if s < 0:
            # h switches at T = -k ell, over a width of k
            return _log_gamma_mean(1.0, lambda t: -np.exp(ell + t / k), -k * ell, k)
        # h outgrows the density up to the peak of e^{ell + T/k} - e^T, near
        # T = k (ell - log k) / (k - 1) where e^T >> 1, of width about e^{-T/2}
        peak = k * (ell - math.log(k)) / (k - 1.0) if ell > math.log(k) else -math.inf
        return _log_gamma_mean(1.0, lambda t: np.exp(ell + t / k), peak, _exp(-0.5 * peak))

    def exp_abscissa(self):
        if self.shape > 1:
            return math.inf
        if self.shape == 1:
            return 1.0 / self.scale
        return 0.0

    def log_abs_mean(self):
        return math.log(self.scale) - np.euler_gamma / self.shape


@dataclass(frozen=True)
class Poisson(ScalarLaw):
    mean: float

    family = "poisson"

    def __post_init__(self):
        _require(_finite(self.mean) and 0 < self.mean <= _POISSON_MEAN_MAX,
                 f"poisson: mean must be in (0, {_POISSON_MEAN_MAX!r}]")

    def _draw(self, gen, size):
        return gen.poisson(self.mean, size)

    def _finish(self, raw):
        return raw.astype(float)

    def point_prob(self, x):
        if not self.has_atom_at(x):
            return 0.0
        k = int(x)
        if k < 30:  # as accurate as _poisson_log_pmf below its Stirling branch
            return math.exp(k * math.log(self.mean) - self.mean - special.gammaln(k + 1))
        k = np.array([float(k)])
        return math.exp(_poisson_log_pmf(k, k - self.mean, self.mean)[0])

    def has_atom_at(self, x):
        return x >= 0 and x % 1.0 == 0.0

    def support(self):
        return (0.0, math.inf)

    def _log_abs_moment(self, p):
        """log E X^p.

        The summand k^p P{X = k} is log-concave in k.  Offsets d = k - mean
        within +-(40 sqrt(mean) + 60) hold all of it but e^-700; the window
        is widened while the weight pushes mass past its right end.  Up to
        _POISSON_NODES integers are summed one by one.  A wider window means
        a mean above 2400, where the summand is smooth on the scale
        sqrt(mean) > 49, and the trapezoid rule on _POISSON_NODES equally
        spaced offsets (steps >= 1) sums it to rounding error.  The window
        stops widening once one term alone is past the float range.
        """
        lam = self.mean
        d_hi = 40.0 * math.sqrt(lam) + 60.0
        d_lo = max(1.0 - lam, -d_hi)
        while True:
            if d_hi - d_lo < _POISSON_NODES:
                k = np.arange(math.ceil(lam + d_lo), math.floor(lam + d_hi) + 1.0)
                d, step = k - lam, 1.0
            else:
                d, step = np.linspace(d_lo, d_hi, _POISSON_NODES, retstep=True)
                k = lam + d
            log_terms = p * np.log(k) + _poisson_log_pmf(k, d, lam)
            top = float(log_terms.max())
            if log_terms[-1] < top - 80.0 or top > _LOG_FLOAT_MAX:
                break
            d_hi *= 2.0
        return top + math.log(step * float(np.sum(np.exp(log_terms - top))))

    def exp_moment(self, s):
        return _exp(self.mean * math.expm1(s))

    def exp_abscissa(self):
        return math.inf

    def log_abs_mean(self):
        raise PreconditionError("log moment undefined: P{X = 0} > 0")


@dataclass(frozen=True)
class InverseGamma(ScalarLaw):
    """Law of scale / G with G ~ Gamma(shape, 1)."""

    shape: float
    scale: float

    family = "inverse_gamma"

    def __post_init__(self):
        _require(_finite(self.shape) and self.shape > 0, "inverse_gamma: shape must be > 0")
        _require(_finite(self.scale) and self.scale > 0, "inverse_gamma: scale must be > 0")

    def _draw(self, gen, size):
        return gen.standard_gamma(self.shape, size)

    def _finish(self, raw):
        return self.scale / raw

    def support(self):
        return (0.0, math.inf)

    def _log_abs_moment(self, p):
        a = self.shape
        if p >= a:
            return math.inf
        # E X^p = scale^p Gamma(a - p) / Gamma(a), from x = a, which is exact
        return _log_gamma_ratio(a, -p, self.scale)

    def exp_moment(self, s):
        # no positive exponential moment
        if s == 0:
            return 1.0
        if s > 0:
            return math.inf
        # s X = -e^{ell - T} for T = log(G / shape): h switches at T = ell,
        # over a width of 1
        ell = math.log(-s) + _log_ratio(self.scale, self.shape)
        return _log_gamma_mean(self.shape, lambda t: -np.exp(ell - t), ell, 1.0)

    def exp_abscissa(self):
        return 0.0

    def log_abs_mean(self):
        if self.shape < _DIGAMMA_SERIES:
            return math.log(self.scale) - float(special.digamma(self.shape))
        return -_digamma_minus_log_of(self.shape, self.scale)


@dataclass(frozen=True)
class SignedRademacher(_AtomLaw):
    """Equal-probability atoms at +scale and -scale."""

    scale: float

    family = "signed_rademacher"

    def __post_init__(self):
        _require(_finite(self.scale) and self.scale > 0,
                 "signed_rademacher: scale must be > 0")
        self._set_atoms(((-float(self.scale), 0.5), (float(self.scale), 0.5)))

    def _draw(self, gen, size):
        shape = size if isinstance(size, tuple) else (size,)
        if shape[-1] % 2:
            return gen.integers(0, 2, size)
        # integers(0, 2, size) takes bit 31 of each 32-bit half of the raw
        # 64-bit words, low half first (Lemire's method for a range of 2 never
        # rejects), but starts with the half a generator buffers after an odd
        # count of 32-bit draws.  With no half buffered (has_uint32 == 0) the
        # words give the same signs and leave the same state.  The package's
        # draw paths make an odd count only as a stream's last draw, so they
        # never come here with a half buffered; reading the state to check
        # would cost about what this path saves.
        return gen.bit_generator.random_raw(shape[:-1] + (shape[-1] // 2,))

    def _finish(self, raw):
        # sign bits: integers(0, 2) gives them as they are, words hold two each
        if raw.dtype == np.uint64:
            bits = (raw[..., None] >> _HALF_WORD_TOP_BITS) & np.uint64(1)
            raw = bits.reshape(raw.shape[:-1] + (-1,))
        return np.array((-self.scale, self.scale)).take(raw)

    def exp_moment(self, s):
        if abs(s) * self.scale > 709:
            return math.inf
        return math.cosh(s * self.scale)  # the atom sum is 1 ulp off for some s


@dataclass(frozen=True)
class LogPareto(ScalarLaw):
    """Law of e^W with P{W > w} = w^{-index} for w >= 1.

    The slowly-varying tail makes E log^+ X infinite when index <= 1 while
    log X itself is heavy enough that no power moment E X^p is finite.
    """

    index: float

    family = "log_pareto"

    def __post_init__(self):
        _require(_finite(self.index) and self.index > 0, "log_pareto: index must be > 0")

    def _draw(self, gen, size):
        return gen.pareto(self.index, size)

    def _finish(self, raw):
        with np.errstate(over="ignore"):
            return np.exp(1.0 + raw)

    def support(self):
        return (math.e, math.inf)

    def _log_abs_moment(self, p):
        # E e^{pW} with W power-tailed is infinite for every p > 0
        return math.inf

    def exp_moment(self, s):
        # X > e: no positive exponential moment
        if s == 0:
            return 1.0
        if s > 0:
            return math.inf
        # X = exp(exp(G / index)), G ~ Exp(1), T = log G: h = e^{sX} switches
        # where -s (X - e) = 1, i.e. x = -1/(e s) = X/e - 1, T = log(index log log X),
        # and log h moves by 1 over a width of 1 / ((1 + 1/x) log X log log X)
        x = max(-1.0 / (math.e * s), _FLOAT_TINY)
        log_x = 1.0 + math.log1p(x)
        log_log_x = math.log1p(math.log1p(x))
        index = self.index
        return _log_gamma_mean(1.0, lambda t: s * np.exp(np.exp(np.exp(t) / index)),
                               math.log(index) + math.log(log_log_x),
                               x / ((1.0 + x) * log_x * log_log_x))

    def exp_abscissa(self):
        return 0.0

    def log_abs_mean(self):
        a = self.index
        return a / (a - 1.0) if a > 1 else math.inf

    def log_plus_abs_finite(self):
        return self.index > 1


FAMILIES = {
    cls.family: cls
    for cls in (
        PointMass, FiniteDiscrete, UniformContinuous, UniformDiscreteRange,
        Exponential, Gamma, Beta, Weibull, Poisson, InverseGamma,
        SignedRademacher, LogPareto,
    )
}


# --------------------------------------------------------------------------
# joint laws


def _lane_generator(law: ScalarLaw, stream: RandomStream, lane: int):
    return None if isinstance(law, PointMass) else stream.generator(lane)


def _keyed_draws(draw, pool: LanePool, lane: int, seed: int, ids, size: int) -> np.ndarray:
    """``draw(gen, size)`` on one lane of each stream (seed, i), i in ``ids``, as rows."""
    rows = []
    for i, gen in zip(ids, pool.rekeyed(lane, seed, ids)):
        try:
            rows.append(draw(gen, size))
        except Exception as exc:
            raise DrawError(i, exc) from exc
    return np.array(rows)


def _lane_rows(law: ScalarLaw, pool: LanePool, lane: int, seed: int, ids,
               size: int) -> np.ndarray:
    """Row k is ``law.sample_block`` on lane ``lane`` of stream (seed, ids[k])."""
    if isinstance(law, PointMass):
        return law._draw(None, (len(ids), size))
    return law._finish(_keyed_draws(law._draw, pool, lane, seed, ids, size))


@dataclass(frozen=True)
class Independent:
    """Pair (M, Q) with independent marginals."""

    law_m: ScalarLaw
    law_q: ScalarLaw

    coupling = "independent"

    def __post_init__(self):
        _require(isinstance(self.law_m, ScalarLaw) and isinstance(self.law_q, ScalarLaw),
                 "independent: both marginals must be scalar laws")

    def marginal_m(self) -> ScalarLaw:
        return self.law_m

    def marginal_q(self) -> ScalarLaw:
        return self.law_q

    def draw_pairs(self, stream: RandomStream, size: int):
        """Draw ``size`` pairs; marginals consume separate lanes of the stream.

        A point-mass marginal needs no randomness, so its lane is never keyed.
        """
        ms = self.law_m.sample_block(_lane_generator(self.law_m, stream, LANE_M), size)
        qs = self.law_q.sample_block(_lane_generator(self.law_q, stream, LANE_Q), size)
        return ms, qs

    def draw_rows(self, seed: int, ids, size: int, pool: LanePool):
        """Row k is ``draw_pairs(RandomStream(seed, ids[k]), size)``, bit for bit.

        Each marginal makes one numpy call per stream and finishes all rows
        at once; a point-mass marginal is one fill.
        """
        return (_lane_rows(self.law_m, pool, LANE_M, seed, ids, size),
                _lane_rows(self.law_q, pool, LANE_Q, seed, ids, size))

    def restricted_exp_moment(self, s: float, q_sign: int, m_atom: float) -> float:
        """E e^{(q_sign) s Q} 1{M = m_atom} for s >= 0 and q_sign in {-1, +1}."""
        pm = self.law_m.point_prob(m_atom)
        if pm == 0.0:
            return 0.0
        e = self.law_q.exp_moment(q_sign * s)
        return pm * e

    def to_json(self) -> dict:
        return {
            "coupling": "independent",
            "M": law_to_json(self.law_m),
            "Q": law_to_json(self.law_q),
        }


@dataclass(frozen=True)
class FiniteJoint:
    """Pair (M, Q) supported on finitely many atoms (m, q) with probabilities."""

    atoms: tuple

    coupling = "finite_joint"

    def __post_init__(self):
        _require(isinstance(self.atoms, tuple) and len(self.atoms) >= 1,
                 "finite_joint: atoms must be a nonempty tuple")
        for a in self.atoms:
            _require(isinstance(a, tuple) and len(a) == 3,
                     "finite_joint: each atom must be (m, q, prob)")
            _require(all(_finite(x) for x in a), "finite_joint: atom entries must be finite")
            _require(a[2] >= 0, "finite_joint: atom probabilities must be nonnegative")
        _require(abs(sum(a[2] for a in self.atoms) - 1.0) <= 1e-12,
                 "finite_joint: atom probabilities must sum to 1 within 1e-12")
        pairs = [(a[0], a[1]) for a in self.atoms]
        _require(len(set(pairs)) == len(pairs), "finite_joint: (m, q) atoms must be distinct")

    @cached_property
    def _active(self) -> tuple:
        """The atoms of positive probability as float triples, built once."""
        return tuple((float(m), float(q), float(p)) for m, q, p in self.atoms if p > 0)

    @cached_property
    def _cum(self) -> np.ndarray:
        c = np.cumsum(np.asarray([a[2] for a in self.atoms], dtype=float))
        c[-1] = 1.0
        return c

    @cached_property
    def _marr(self) -> np.ndarray:
        return np.asarray([a[0] for a in self.atoms], dtype=float)

    @cached_property
    def _qarr(self) -> np.ndarray:
        return np.asarray([a[1] for a in self.atoms], dtype=float)

    def _aggregate(self, idx: int) -> FiniteDiscrete:
        agg: dict[float, float] = {}
        for a in self._active:
            agg[a[idx]] = agg.get(a[idx], 0.0) + a[2]
        vals = tuple(sorted(agg))
        return FiniteDiscrete(vals, tuple(agg[v] for v in vals))

    @cached_property
    def _marginals(self) -> tuple[FiniteDiscrete, FiniteDiscrete]:
        return self._aggregate(0), self._aggregate(1)

    def marginal_m(self) -> ScalarLaw:
        return self._marginals[0]

    def marginal_q(self) -> ScalarLaw:
        return self._marginals[1]

    def _pairs(self, u: np.ndarray):
        idx = np.searchsorted(self._cum, u, side="right")
        idx = np.minimum(idx, len(self.atoms) - 1)
        return self._marr[idx], self._qarr[idx]

    def draw_pairs(self, stream: RandomStream, size: int):
        return self._pairs(stream.generator(LANE_MAIN).random(size))

    def draw_rows(self, seed: int, ids, size: int, pool: LanePool):
        """Row k is ``draw_pairs(RandomStream(seed, ids[k]), size)``, bit for bit."""
        return self._pairs(_keyed_draws(Generator.random, pool, LANE_MAIN, seed, ids, size))

    def restricted_exp_moment(self, s: float, q_sign: int, m_atom: float) -> float:
        total = 0.0
        for m, q, p in self._active:
            if m == m_atom:
                total += p * _exp(q_sign * s * q)
        return total

    def to_json(self) -> dict:
        return {"coupling": "finite_joint", "atoms": [list(a) for a in self.atoms]}


JointLaw = Union[Independent, FiniteJoint]


# --------------------------------------------------------------------------
# module-level operations


def _abs_may_exceed_one(law: ScalarLaw) -> bool:
    """Whether P{|X| > 1} > 0: whether the support reaches past -1 or 1.

    Exact for every family (see ``ScalarLaw.support``); an atom law's
    support is the hull of its atoms, so it reaches past +-1 only at an atom.
    """
    lo, hi = law.support()
    return lo < -1.0 or hi > 1.0


def _abs_may_equal_one(law: ScalarLaw) -> bool:
    """Whether P{|X| = 1} > 0."""
    return law.has_atom_at(1.0) or law.has_atom_at(-1.0)


def _abs_may_fall_below_one(law: ScalarLaw) -> bool:
    """Whether P{|X| < 1} > 0: an atom in (-1, 1), or a support that meets it."""
    atoms = law.finite_atoms()
    if atoms is not None:
        return any(abs(v) < 1.0 for v, _ in atoms)
    lo, hi = law.support()
    return lo < 1.0 and hi > -1.0


def _abs_below_one(law: ScalarLaw) -> bool:
    """Whether P{|X| < 1} = 1: no support past +-1 and no atom at +-1.

    Both tests are exact, where a probability computed as 1 may have
    rounded a positive remainder away.
    """
    return not (_abs_may_exceed_one(law) or _abs_may_equal_one(law))


# --------------------------------------------------------------------------
# JSON (de)serialization


def law_to_json(law: ScalarLaw) -> dict:
    return {"family": law.family, "params": law.params_json()}


def _as_number(x, path: str, integer: bool = False):
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise LawValidationError(f"{path}: expected a number, got {x!r}")
    if integer:
        if isinstance(x, float) and not (math.isfinite(x) and x == int(x)):
            raise LawValidationError(f"{path}: expected an integer, got {x!r}")
        return int(x)
    return float(x)


def law_from_json(obj, path: str = "law") -> ScalarLaw:
    """Parse a {"family", "params"} object; errors carry the config path."""
    if not isinstance(obj, dict):
        raise LawValidationError(f"{path}: expected an object")
    family = obj.get("family")
    if family not in FAMILIES:
        raise LawValidationError(
            f"{path}.family: unknown family {family!r} "
            f"(valid: {', '.join(sorted(FAMILIES))})")
    params = obj.get("params")
    if not isinstance(params, dict):
        raise LawValidationError(f"{path}.params: required object")
    cls = FAMILIES[family]
    try:
        if cls is FiniteDiscrete:
            values = params.get("values")
            probs = params.get("probs")
            if not isinstance(values, list) or not isinstance(probs, list):
                raise LawValidationError(f"{path}.params: values and probs must be arrays")
            law = FiniteDiscrete(
                tuple(_as_number(v, f"{path}.params.values") for v in values),
                tuple(_as_number(p, f"{path}.params.probs") for p in probs))
        elif cls is UniformDiscreteRange:
            law = UniformDiscreteRange(_as_number(params.get("n"), f"{path}.params.n",
                                                  integer=True))
        else:
            fields = {k: _as_number(v, f"{path}.params.{k}") for k, v in params.items()}
            law = cls(**fields)
    except LawValidationError as exc:
        raise LawValidationError(f"{path}: {exc}") from None
    except TypeError:
        raise LawValidationError(
            f"{path}.params: wrong parameter names for family {family!r}") from None
    return law


def joint_from_json(obj, path: str = "config") -> JointLaw:
    """Parse a joint-law object of either coupling; errors carry the config path."""
    if not isinstance(obj, dict):
        raise LawValidationError(f"{path}: expected an object")
    coupling = obj.get("coupling", "independent")
    if coupling == "independent":
        if "M" not in obj:
            raise LawValidationError(f"{path}.M: required")
        if "Q" not in obj:
            raise LawValidationError(f"{path}.Q: required")
        return Independent(law_from_json(obj["M"], f"{path}.M"),
                           law_from_json(obj["Q"], f"{path}.Q"))
    if coupling == "finite_joint":
        atoms = obj.get("atoms")
        if not isinstance(atoms, list) or not atoms:
            raise LawValidationError(f"{path}.atoms: required nonempty array")
        parsed = []
        for i, a in enumerate(atoms):
            if not isinstance(a, list) or len(a) != 3:
                raise LawValidationError(f"{path}.atoms[{i}]: expected [m, q, prob]")
            parsed.append(tuple(_as_number(x, f"{path}.atoms[{i}]") for x in a))
        try:
            return FiniteJoint(tuple(parsed))
        except LawValidationError as exc:
            raise LawValidationError(f"{path}: {exc}") from None
    raise LawValidationError(
        f"{path}.coupling: unknown coupling {coupling!r} "
        f"(valid: independent, finite_joint)")


def joint_to_json(joint: JointLaw) -> dict:
    return joint.to_json()

"""Scalar law families and joint laws for the pair (M, Q).

A perpetuity is driven by i.i.d. copies of a pair (M, Q); this module gives
the closed vocabulary of marginal families and the two supported couplings
(independent marginals, finite joint atoms).  Every family carries exact
samplers plus the analytic functionals the rest of the package needs:
moments of |X|, exponential moments and their abscissa of convergence,
distribution functions, atom probabilities and logarithmic moments.

Where each functional comes from:

- point_mass, finite_discrete, signed_rademacher: one private atom-law base
  sums every functional over the family's atom table; signed_rademacher
  keeps cosh for E e^{sX}.
- uniform, exponential, gamma, beta, weibull, inverse_gamma, log_pareto:
  closed forms, except adaptive quadrature (relative tolerance 1e-10) for
  E e^{sX} of weibull, inverse_gamma and log_pareto and for E log^+ X of
  gamma, weibull and inverse_gamma.  E M^p and E log M of beta(a, b) switch
  to large-a expansions where the closed forms cancel.
- poisson: closed forms for the cdf, the pmf and E e^{sX}; E|X|^p and
  E log^+ X sum a window around the mean, integer by integer or, for a
  large mean, by the trapezoid rule.
- uniform_discrete_range: closed forms; E|X|^p is an exact sum up to 2^16
  atoms and an Euler-Maclaurin expansion above.
- P{|X| < u} and P{|X| > u} come from the cdf, or from the atom sums.
- params_json reads the dataclass fields.

A moment beyond the float range raises OverflowError.  All laws are frozen,
hashable value types with a stable JSON form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cache, cached_property
from typing import Union

import numpy as np
from scipy import integrate, special

from .errors import LawValidationError, PreconditionError
from .streams import LANE_M, LANE_Q, LANE_MAIN, RandomStream

_QUAD_EPSREL = 1e-10
_QUAD_LIMIT = 200

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
# Beta(a, b) moments use large-a expansions from a = _BETA_ASYMPTOTIC * max(p, 1)
# on, where the betaln and digamma differences cancel; the omitted terms are
# below 1e-17 * max(p, 1) in log E M^p there
_BETA_ASYMPTOTIC = 1e4

EVENTS = ("M=0", "M=1", "M=-1", "|M|=1", "|M|<1", "|M|<=1", "|M|>1", "Q=0")


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise LawValidationError(msg)


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def _quad(f, lo, hi, points=None) -> float:
    val, _ = integrate.quad(
        f, lo, hi, epsabs=1e-13, epsrel=_QUAD_EPSREL, limit=_QUAD_LIMIT,
        points=points,
    )
    return val


def _exp(x: float) -> float:
    """exp that saturates to inf instead of raising OverflowError."""
    return math.exp(x) if x < 709.0 else math.inf


def _pow(x: float, y: float) -> float:
    """x ** y for x >= 0 that saturates to inf instead of raising OverflowError."""
    try:
        return x ** y
    except OverflowError:
        return math.inf


def _log_gamma_parts(a: float, l0: float) -> tuple[float, float]:
    """E (L - l0)^+ and E (L - l0)^- for L = log G, G ~ Gamma(a, 1).

    Gamma(a, r) is G / r and InverseGamma(a, b) is b / G, so their E log^+
    are the first part at l0 = log r and the second at l0 = log b.  Only the
    side of l0 that holds at most half of the mass of L is integrated, over
    the density e^{a l - e^l} / Gamma(a) of L; the other side follows from
    E L = digamma(a), so mass far from x = 1 is never left to quadrature.
    """
    c = float(special.gammaln(a))

    def density(l):
        return math.exp(a * l - _exp(l) - c)

    drift = float(special.digamma(a)) - l0
    if special.gammaincc(a, _exp(l0)) <= 0.5:
        upper = _quad(lambda l: (l - l0) * density(l), l0, math.inf)
        return upper, upper - drift
    lower = _quad(lambda l: (l0 - l) * density(l), -math.inf, l0)
    return lower + drift, lower


def _exp_moment_by_quad(law, s, of_abs=False) -> float:
    """E e^{sX} of a law on (lo, inf), lo >= 0, with a pdf and no positive
    exponential moment; X > 0, so ``of_abs`` changes nothing."""
    if s == 0:
        return 1.0
    if s > 0:
        return math.inf
    return _quad(lambda x: math.exp(s * x) * law.pdf(x), law.support()[0], math.inf)


@cache
def _field_names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


def _poisson_log_pmf(k: np.ndarray, d: np.ndarray, lam: float) -> np.ndarray:
    """log P{X = k} for X ~ Poisson(lam) at real k = lam + d >= 1, for any lam.

    Loader's saddle-point form -bd0 - log(2 pi k)/2 - delta(k), where
    bd0 = k log(k/lam) - (k - lam), avoids the cancellation of
    k log lam - lam - log k! (three terms near 4e19 at lam = 1e18).  bd0 is
    summed as its series in v = d/(k + lam) where |v| < 0.1, and delta(k) =
    log k! - log(Stirling's formula) as its asymptotic series for k >= 30.
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
    k2 = k * k
    stirling = np.where(
        k >= 30.0,
        (1 / 12 - (1 / 360 - (1 / 1260 - 1 / (1680 * k2)) / k2) / k2) / k,
        special.gammaln(k + 1.0) - (k + 0.5) * log_k + k - _HALF_LOG_2PI)
    return -bd0 - 0.5 * log_k - _HALF_LOG_2PI - stirling


class ScalarLaw:
    """Common interface for one-dimensional law families."""

    family = "abstract"

    # -- sampling ---------------------------------------------------------

    def sample_block(self, gen, size: int) -> np.ndarray:
        raise NotImplementedError

    # -- distribution functions ------------------------------------------

    def cdf(self, x: float) -> float:
        raise NotImplementedError

    def point_prob(self, x: float) -> float:
        """P{X = x}; zero for continuous families."""
        return 0.0

    def prob_abs_lt(self, u: float) -> float:
        """P{|X| < u}."""
        if u <= 0:
            return 0.0
        return max(0.0, (self.cdf(u) - self.point_prob(u)) - self.cdf(-u))

    def prob_abs_le(self, u: float) -> float:
        """P{|X| <= u}."""
        if u < 0:
            return 0.0
        return max(0.0, self.cdf(u) - self.cdf(-u) + self.point_prob(-u))

    def prob_abs_gt(self, u: float) -> float:
        """P{|X| > u}."""
        return max(0.0, 1.0 - self.prob_abs_le(u))

    def support(self) -> tuple[float, float]:
        raise NotImplementedError

    # -- moments ----------------------------------------------------------

    def abs_moment(self, p: float) -> float:
        """E |X|^p for p > 0; may be infinite."""
        raise NotImplementedError

    def exp_moment(self, s: float, of_abs: bool = False) -> float:
        """E e^{sX}, or E e^{s|X|} when ``of_abs`` is set; may be infinite."""
        raise NotImplementedError

    def exp_abscissa(self) -> float:
        """sup{s >= 0 : E e^{s|X|} < inf}."""
        raise NotImplementedError

    def log_abs_mean(self) -> float:
        """E log|X|; undefined (raises) when P{X = 0} > 0."""
        raise NotImplementedError

    def log_plus_abs_moment(self) -> float:
        """E log^+ |X| = E max(log|X|, 0); may be infinite."""
        raise NotImplementedError

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

    def cdf(self, x):
        total = 0.0
        for v, p in self.atoms:
            total += p if v <= x else 0.0
        return total

    def point_prob(self, x):
        total = 0.0
        for v, p in self.atoms:
            total += p if v == x else 0.0
        return total

    def prob_abs_lt(self, u):
        total = 0.0
        for v, p in self.atoms:
            total += p if abs(v) < u else 0.0
        return total

    def prob_abs_gt(self, u):
        total = 0.0
        for v, p in self.atoms:
            total += p if abs(v) > u else 0.0
        return total

    def support(self):
        values = [v for v, _ in self.atoms]
        return (min(values), max(values))

    def abs_moment(self, p):
        self._check_p(p)
        total = 0.0
        for v, pr in self.atoms:
            total += pr * abs(v) ** p
        return total

    def exp_moment(self, s, of_abs=False):
        total = 0.0
        for v, pr in self.atoms:
            e = _exp(s * (abs(v) if of_abs else v))
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

    def log_plus_abs_moment(self):
        total = 0.0
        for v, pr in self.atoms:
            total += pr * math.log(abs(v)) if abs(v) > 1 else 0.0
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

    def sample_block(self, gen, size):
        block = np.empty(size)  # empty + fill: a quarter of np.full's overhead
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

    def sample_block(self, gen, size):
        idx = np.searchsorted(self._cum, gen.random(size), side="right")
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

    def sample_block(self, gen, size):
        return self.lo + self._width() * gen.random(size)

    def cdf(self, x):
        if x <= self.lo:
            return 0.0
        if x >= self.hi:
            return 1.0
        return (x - self.lo) / self._width()

    def support(self):
        return (self.lo, self.hi)

    def abs_moment(self, p):
        self._check_p(p)

        def g(t):
            return math.copysign(abs(t) ** (p + 1), t) / (p + 1)

        return (g(self.hi) - g(self.lo)) / self._width()

    def exp_moment(self, s, of_abs=False):
        if s == 0:
            return 1.0
        if of_abs and self.lo < 0:
            # split at 0: |X| folds the negative part
            neg = (_exp(-s * self.lo) - 1.0) / s
            top = min(self.hi, 0.0)
            if top < 0:
                neg -= (_exp(-s * top) - 1.0) / s
            pos = 0.0
            if self.hi > 0:
                pos = (_exp(s * self.hi) - 1.0) / s
            return (neg + pos) / self._width()
        return (_exp(s * self.hi) - _exp(s * self.lo)) / (s * self._width())

    def exp_abscissa(self):
        return math.inf

    def log_abs_mean(self):
        def g(t):
            return t * math.log(abs(t)) - t if t != 0 else 0.0

        return (g(self.hi) - g(self.lo)) / self._width()

    def log_plus_abs_moment(self):
        def h(t):
            if abs(t) <= 1:
                return 0.0
            if t > 1:
                return t * math.log(t) - t + 1
            return t * math.log(-t) - t - 1

        return (h(self.hi) - h(self.lo)) / self._width()


@dataclass(frozen=True)
class UniformDiscreteRange(ScalarLaw):
    """Uniform law on the integers {0, 1, ..., n - 1}."""

    n: int

    family = "uniform_discrete_range"

    def __post_init__(self):
        _require(isinstance(self.n, int) and 1 <= self.n <= _INTEGERS_HIGH_MAX,
                 "uniform_discrete_range: n must be an integer in [1, 2^63]")

    def sample_block(self, gen, size):
        return gen.integers(0, self.n, size).astype(float)

    def cdf(self, x):
        if x < 0:
            return 0.0
        return min(math.floor(x) + 1, self.n) / self.n

    def point_prob(self, x):
        if x == int(x) and 0 <= x < self.n:
            return 1.0 / self.n
        return 0.0

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

    def exp_moment(self, s, of_abs=False):
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

    def log_plus_abs_moment(self):
        return float(special.gammaln(self.n)) / self.n  # log (n-1)! / n

    def as_point(self):
        return 0.0 if self.n == 1 else None


@dataclass(frozen=True)
class Exponential(ScalarLaw):
    rate: float

    family = "exponential"

    def __post_init__(self):
        _require(_finite(self.rate) and self.rate > 0, "exponential: rate must be > 0")

    def sample_block(self, gen, size):
        return gen.standard_exponential(size) / self.rate

    def cdf(self, x):
        return -math.expm1(-self.rate * x) if x > 0 else 0.0

    def support(self):
        return (0.0, math.inf)

    def abs_moment(self, p):
        self._check_p(p)
        return math.exp(special.gammaln(p + 1) - p * math.log(self.rate))

    def exp_moment(self, s, of_abs=False):
        if s >= self.rate:
            return math.inf
        return self.rate / (self.rate - s)

    def exp_abscissa(self):
        return self.rate

    def log_abs_mean(self):
        return -np.euler_gamma - math.log(self.rate)

    def log_plus_abs_moment(self):
        # integration by parts turns the tail integral into E1(rate)
        return float(special.exp1(self.rate))


@dataclass(frozen=True)
class Gamma(ScalarLaw):
    shape: float
    rate: float

    family = "gamma"

    def __post_init__(self):
        _require(_finite(self.shape) and self.shape > 0, "gamma: shape must be > 0")
        _require(_finite(self.rate) and self.rate > 0, "gamma: rate must be > 0")

    def sample_block(self, gen, size):
        return gen.standard_gamma(self.shape, size) / self.rate

    def cdf(self, x):
        return float(special.gammainc(self.shape, self.rate * x)) if x > 0 else 0.0

    def support(self):
        return (0.0, math.inf)

    def abs_moment(self, p):
        self._check_p(p)
        a, r = self.shape, self.rate
        return math.exp(special.gammaln(a + p) - special.gammaln(a) - p * math.log(r))

    def exp_moment(self, s, of_abs=False):
        if s >= self.rate:
            return math.inf
        return _exp(self.shape * math.log(self.rate / (self.rate - s)))

    def exp_abscissa(self):
        return self.rate

    def log_abs_mean(self):
        return float(special.digamma(self.shape)) - math.log(self.rate)

    def log_plus_abs_moment(self):
        return _log_gamma_parts(self.shape, math.log(self.rate))[0]


@dataclass(frozen=True)
class Beta(ScalarLaw):
    alpha: float
    beta: float

    family = "beta"

    def __post_init__(self):
        _require(_finite(self.alpha) and self.alpha > 0, "beta: alpha must be > 0")
        _require(_finite(self.beta) and self.beta > 0, "beta: beta must be > 0")

    def sample_block(self, gen, size):
        return gen.beta(self.alpha, self.beta, size)

    def cdf(self, x):
        if x <= 0:
            return 0.0
        if x >= 1:
            return 1.0
        return float(special.betainc(self.alpha, self.beta, x))

    def support(self):
        return (0.0, 1.0)

    def _large_alpha_terms(self) -> tuple[float, float, float, float]:
        """log1p(b/a), d = 1/a - 1/(a+b) = b/(a(a+b)), u = 1/a and v = 1/(a+b)."""
        a, b = self.alpha, self.beta
        v = 1.0 / (a + b)
        return math.log1p(b / a), b * v / a, 1.0 / a, v

    def abs_moment(self, p):
        self._check_p(p)
        a, b = self.alpha, self.beta
        if a < _BETA_ASYMPTOTIC * max(p, 1.0):
            return math.exp(special.betaln(a + p, b) - special.betaln(a, b))
        # log E M^p = D(a) - D(a+b) with D(z) = log Gamma(z+p) - log Gamma(z)
        # = p log z + c2/z + c3/z^2 + c4/z^3 + O(p^5 / z^4); the p log z
        # terms give -p log1p(b/a), the rest d (c2 + c3 (u+v) + c4 (u^2+uv+v^2))
        c2 = p * (p - 1.0) / 2.0
        c3 = -p * (p - 1.0) * (2.0 * p - 1.0) / 12.0
        c4 = (p * (p - 1.0)) ** 2 / 12.0
        log_ratio, d, u, v = self._large_alpha_terms()
        return math.exp(-p * log_ratio + d * (c2 + c3 * (u + v) + c4 * (u * u + u * v + v * v)))

    def exp_moment(self, s, of_abs=False):
        return float(special.hyp1f1(self.alpha, self.alpha + self.beta, s))

    def exp_abscissa(self):
        return math.inf

    def log_abs_mean(self):
        if self.alpha < _BETA_ASYMPTOTIC:
            return float(special.digamma(self.alpha) - special.digamma(self.alpha + self.beta))
        # digamma(z) = log z - 1/(2z) - 1/(12 z^2) + O(1/z^4), differenced as above
        log_ratio, d, u, v = self._large_alpha_terms()
        return -log_ratio - d * (0.5 + (u + v) / 12.0)

    def log_plus_abs_moment(self):
        return 0.0


@dataclass(frozen=True)
class Weibull(ScalarLaw):
    """Weibull law with tail P{X > x} = exp(-(x / scale)^shape)."""

    shape: float
    scale: float

    family = "weibull"

    def __post_init__(self):
        _require(_finite(self.shape) and self.shape > 0, "weibull: shape must be > 0")
        _require(_finite(self.scale) and self.scale > 0, "weibull: scale must be > 0")

    def sample_block(self, gen, size):
        return self.scale * gen.weibull(self.shape, size)

    def cdf(self, x):
        if x <= 0:
            return 0.0
        return -math.expm1(-_pow(x / self.scale, self.shape))

    def prob_abs_gt(self, u):
        # the survival function itself: 1 - cdf(u) rounds tails below 1e-16 to 0
        if u <= 0:
            return 1.0
        return math.exp(-_pow(u / self.scale, self.shape))

    def support(self):
        return (0.0, math.inf)

    def abs_moment(self, p):
        self._check_p(p)
        return self.scale ** p * math.exp(special.gammaln(1 + p / self.shape))

    def exp_moment(self, s, of_abs=False):
        # substitute u = (x/scale)^shape; the weight becomes e^{-u}
        k, lam = self.shape, self.scale
        if s == 0:
            return 1.0
        if k == 1:
            return Exponential(1.0 / lam).exp_moment(s)
        if k < 1 and s > 0:
            return math.inf

        def f(u):
            return _exp(s * lam * _pow(u, 1.0 / k) - u)

        return _quad(f, 0.0, math.inf)

    def exp_abscissa(self):
        if self.shape > 1:
            return math.inf
        if self.shape == 1:
            return 1.0 / self.scale
        return 0.0

    def log_abs_mean(self):
        return math.log(self.scale) - np.euler_gamma / self.shape

    def log_plus_abs_moment(self):
        k, lam = self.shape, self.scale
        u0 = _pow(lam, -k)
        if u0 == math.inf:  # log^+ X = 0 unless (X / lam)^k >= u0
            return 0.0

        def f(u):
            return (math.log(lam) + math.log(u) / k) * math.exp(-u)

        return _quad(f, u0, math.inf)


@dataclass(frozen=True)
class Poisson(ScalarLaw):
    mean: float

    family = "poisson"

    def __post_init__(self):
        _require(_finite(self.mean) and 0 < self.mean <= _POISSON_MEAN_MAX,
                 f"poisson: mean must be in (0, {_POISSON_MEAN_MAX!r}]")

    def sample_block(self, gen, size):
        return gen.poisson(self.mean, size).astype(float)

    def cdf(self, x):
        if x < 0:
            return 0.0
        return float(special.pdtr(math.floor(x), self.mean))

    def point_prob(self, x):
        if x != int(x) or x < 0:
            return 0.0
        k = int(x)
        if k < 30:  # as accurate as _poisson_log_pmf below its Stirling branch
            return math.exp(k * math.log(self.mean) - self.mean - special.gammaln(k + 1))
        k = np.array([float(k)])
        return math.exp(_poisson_log_pmf(k, k - self.mean, self.mean)[0])

    def support(self):
        return (0.0, math.inf)

    def _series(self, log_weight, k_min: int) -> float:
        """E f(X) 1{X >= k_min} from a vectorized log f; OverflowError past the float range.

        The summand f(k) P{X = k} is log-concave in k.  Offsets d = k - mean
        within +-(40 sqrt(mean) + 60) hold all of it but e^-700; the window
        is widened while the weight pushes mass past its right end.  Up to
        _POISSON_NODES integers are summed one by one.  A wider window means
        a mean above 2400, where the summand is smooth on the scale
        sqrt(mean) > 49, and the trapezoid rule on _POISSON_NODES equally
        spaced offsets (steps >= 1) sums it to rounding error.
        """
        lam = self.mean
        d_hi = 40.0 * math.sqrt(lam) + 60.0
        d_lo = max(k_min - lam, -d_hi)
        while True:
            if d_hi - d_lo < _POISSON_NODES:
                k = np.arange(math.ceil(lam + d_lo), math.floor(lam + d_hi) + 1.0)
                d, step = k - lam, 1.0
            else:
                d, step = np.linspace(d_lo, d_hi, _POISSON_NODES, retstep=True)
                k = lam + d
            log_terms = log_weight(k) + _poisson_log_pmf(k, d, lam)
            top = float(log_terms.max())
            if top > _LOG_FLOAT_MAX:  # one term alone is out of range
                raise OverflowError("moment exceeds the float range")
            if log_terms[-1] < top - 80.0:
                break
            d_hi *= 2.0
        return math.exp(top + math.log(step * float(np.sum(np.exp(log_terms - top)))))

    def abs_moment(self, p):
        self._check_p(p)
        return self._series(lambda k: p * np.log(k), 1)

    def exp_moment(self, s, of_abs=False):
        return _exp(self.mean * math.expm1(s))

    def exp_abscissa(self):
        return math.inf

    def log_abs_mean(self):
        raise PreconditionError("log moment undefined: P{X = 0} > 0")

    def log_plus_abs_moment(self):
        return self._series(lambda k: np.log(np.log(k)), 2)


@dataclass(frozen=True)
class InverseGamma(ScalarLaw):
    """Law of scale / G with G ~ Gamma(shape, 1)."""

    shape: float
    scale: float

    family = "inverse_gamma"

    def __post_init__(self):
        _require(_finite(self.shape) and self.shape > 0, "inverse_gamma: shape must be > 0")
        _require(_finite(self.scale) and self.scale > 0, "inverse_gamma: scale must be > 0")

    def sample_block(self, gen, size):
        return self.scale / gen.standard_gamma(self.shape, size)

    def cdf(self, x):
        if x <= 0:
            return 0.0
        return float(special.gammaincc(self.shape, self.scale / x))

    def pdf(self, x):
        if x <= 0:
            return 0.0
        a, b = self.shape, self.scale
        return math.exp(a * math.log(b) - (a + 1) * math.log(x) - b / x
                        - special.gammaln(a))

    def support(self):
        return (0.0, math.inf)

    def abs_moment(self, p):
        self._check_p(p)
        a, b = self.shape, self.scale
        if p >= a:
            return math.inf
        return math.exp(p * math.log(b) + special.gammaln(a - p) - special.gammaln(a))

    exp_moment = _exp_moment_by_quad

    def exp_abscissa(self):
        return 0.0

    def log_abs_mean(self):
        return math.log(self.scale) - float(special.digamma(self.shape))

    def log_plus_abs_moment(self):
        return _log_gamma_parts(self.shape, math.log(self.scale))[1]


@dataclass(frozen=True)
class SignedRademacher(_AtomLaw):
    """Equal-probability atoms at +scale and -scale."""

    scale: float

    family = "signed_rademacher"

    def __post_init__(self):
        _require(_finite(self.scale) and self.scale > 0,
                 "signed_rademacher: scale must be > 0")
        self._set_atoms(((-float(self.scale), 0.5), (float(self.scale), 0.5)))

    def sample_block(self, gen, size):
        return self.scale * (2.0 * gen.integers(0, 2, size) - 1.0)

    def exp_moment(self, s, of_abs=False):
        if of_abs:
            return super().exp_moment(s, of_abs)
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

    def sample_block(self, gen, size):
        w = 1.0 + gen.pareto(self.index, size)
        with np.errstate(over="ignore"):
            return np.exp(w)

    def cdf(self, x):
        if x <= math.e:
            return 0.0
        return 1.0 - math.log(x) ** (-self.index)

    def pdf(self, x):
        if x <= math.e:
            return 0.0
        a = self.index
        return a * math.log(x) ** (-a - 1) / x

    def support(self):
        return (math.e, math.inf)

    def abs_moment(self, p):
        self._check_p(p)
        # E e^{pW} with W power-tailed is infinite for every p > 0
        return math.inf

    exp_moment = _exp_moment_by_quad

    def exp_abscissa(self):
        return 0.0

    def log_abs_mean(self):
        a = self.index
        return a / (a - 1.0) if a > 1 else math.inf

    def log_plus_abs_moment(self):
        return self.log_abs_mean()


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

    def draw_pairs(self, stream: RandomStream, size: int):
        gen = stream.generator(LANE_MAIN)
        idx = np.searchsorted(self._cum, gen.random(size), side="right")
        idx = np.minimum(idx, len(self.atoms) - 1)
        return self._marr[idx], self._qarr[idx]

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


def event_prob(joint: JointLaw, event: str) -> float:
    """Probability of a structural event such as "M=0" or "|M|<=1"."""
    m = joint.marginal_m()
    q = joint.marginal_q()
    if event == "M=0":
        return m.point_prob(0.0)
    if event == "M=1":
        return m.point_prob(1.0)
    if event == "M=-1":
        return m.point_prob(-1.0)
    if event == "|M|=1":
        return m.point_prob(1.0) + m.point_prob(-1.0)
    if event == "|M|<1":
        return m.prob_abs_lt(1.0)
    if event == "|M|<=1":
        return m.prob_abs_le(1.0)
    if event == "|M|>1":
        return m.prob_abs_gt(1.0)
    if event == "Q=0":
        return q.point_prob(0.0)
    raise PreconditionError(f"unknown event {event!r}; valid events: {', '.join(EVENTS)}")


def _abs_below_one(law: ScalarLaw) -> bool:
    """Whether P{|X| < 1} = 1, read off the support and the atoms at +-1.

    A probability computed as 1 may have rounded a positive remainder away;
    the support bounds and the atom probabilities are exact.
    """
    lo, hi = law.support()
    return -1.0 <= lo and hi <= 1.0 and law.point_prob(1.0) == law.point_prob(-1.0) == 0.0


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

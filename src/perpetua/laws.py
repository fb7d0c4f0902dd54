"""Scalar law families and joint laws for the pair (M, Q).

A perpetuity is driven by i.i.d. copies of a pair (M, Q); this module gives
the closed vocabulary of marginal families and the two supported couplings
(independent marginals, finite joint atoms).  Every family carries exact
samplers plus the analytic functionals the rest of the package needs:
moments of |X|, exponential moments and their abscissa of convergence,
distribution functions, atom probabilities and logarithmic moments.

Functionals use closed forms where the family admits one and adaptive
quadrature (relative tolerance 1e-10) otherwise.  All laws are frozen,
hashable value types with a stable JSON form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np
from scipy import integrate, special

from .errors import LawValidationError, PreconditionError
from .streams import LANE_M, LANE_Q, LANE_MAIN, RandomStream

_QUAD_EPSREL = 1e-10
_QUAD_LIMIT = 200

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


class ScalarLaw:
    """Common interface for one-dimensional law families."""

    family = "abstract"

    # -- sampling ---------------------------------------------------------

    def sample_block(self, gen, size: int) -> np.ndarray:
        raise NotImplementedError

    def sample(self, gen) -> float:
        return float(self.sample_block(gen, 1)[0])

    # -- distribution functions ------------------------------------------

    def cdf(self, x: float) -> float:
        raise NotImplementedError

    def point_prob(self, x: float) -> float:
        """P{X = x}; zero for continuous families."""
        return 0.0

    def prob_abs_lt(self, u: float) -> float:
        """P{|X| < u}; summed over the atoms as in ``prob_abs_gt``."""
        atoms = self.finite_atoms()
        if atoms is not None:
            return float(sum(p for v, p in atoms if abs(v) < u))
        if u <= 0:
            return 0.0
        return max(0.0, (self.cdf(u) - self.point_prob(u)) - self.cdf(-u))

    def prob_abs_le(self, u: float) -> float:
        """P{|X| <= u}."""
        if u < 0:
            return 0.0
        return max(0.0, self.cdf(u) - self.cdf(-u) + self.point_prob(-u))

    def prob_abs_gt(self, u: float) -> float:
        """P{|X| > u}.

        Summed over the atoms when the law has finitely many, so it is exactly
        0 when no atom lies above u even if the probabilities add up to 1 only
        within rounding.
        """
        atoms = self.finite_atoms()
        if atoms is not None:
            return float(sum(p for v, p in atoms if abs(v) > u))
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
        raise NotImplementedError

    def _check_p(self, p: float) -> None:
        if not (isinstance(p, (int, float)) and math.isfinite(p) and p > 0):
            raise PreconditionError(f"moment order must be a finite real > 0, got {p!r}")


@dataclass(frozen=True)
class PointMass(ScalarLaw):
    value: float

    family = "point_mass"

    def __post_init__(self):
        _require(_finite(self.value), "point_mass: value must be finite")

    def sample_block(self, gen, size):
        block = np.empty(size)  # empty + fill: a quarter of np.full's overhead
        block.fill(float(self.value))
        return block

    def cdf(self, x):
        return 1.0 if x >= self.value else 0.0

    def point_prob(self, x):
        return 1.0 if x == self.value else 0.0

    def support(self):
        return (self.value, self.value)

    def abs_moment(self, p):
        self._check_p(p)
        return abs(self.value) ** p

    def exp_moment(self, s, of_abs=False):
        x = abs(self.value) if of_abs else self.value
        return _exp(s * x)

    def exp_abscissa(self):
        return math.inf

    def log_abs_mean(self):
        if self.value == 0:
            raise PreconditionError("log moment undefined: P{X = 0} > 0")
        return math.log(abs(self.value))

    def log_plus_abs_moment(self):
        return max(math.log(abs(self.value)), 0.0) if self.value != 0 else 0.0

    def as_point(self):
        return float(self.value)

    def finite_atoms(self):
        return ((float(self.value), 1.0),)

    def params_json(self):
        return {"value": self.value}


@dataclass(frozen=True)
class FiniteDiscrete(ScalarLaw):
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

    @cached_property
    def _cum(self) -> np.ndarray:
        c = np.cumsum(np.asarray(self.probs, dtype=float))
        c[-1] = 1.0
        return c

    @cached_property
    def _varr(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    def _active(self):
        return [(float(v), float(p)) for v, p in zip(self.values, self.probs) if p > 0]

    def sample_block(self, gen, size):
        idx = np.searchsorted(self._cum, gen.random(size), side="right")
        return self._varr[np.minimum(idx, len(self.values) - 1)]

    def cdf(self, x):
        return float(sum(p for v, p in zip(self.values, self.probs) if v <= x))

    def point_prob(self, x):
        return float(sum(p for v, p in zip(self.values, self.probs) if v == x))

    def support(self):
        act = [v for v, p in self._active()]
        return (min(act), max(act))

    def abs_moment(self, p):
        self._check_p(p)
        return float(sum(pr * abs(v) ** p for v, pr in self._active()))

    def exp_moment(self, s, of_abs=False):
        total = 0.0
        for v, pr in self._active():
            x = abs(v) if of_abs else v
            e = _exp(s * x)
            if math.isinf(e):
                return math.inf
            total += pr * e
        return total

    def exp_abscissa(self):
        return math.inf

    def log_abs_mean(self):
        if any(v == 0 for v, _ in self._active()):
            raise PreconditionError("log moment undefined: P{X = 0} > 0")
        return float(sum(pr * math.log(abs(v)) for v, pr in self._active()))

    def log_plus_abs_moment(self):
        return float(sum(pr * math.log(abs(v)) for v, pr in self._active() if abs(v) > 1))

    def as_point(self):
        act = self._active()
        return act[0][0] if len(act) == 1 else None

    def finite_atoms(self):
        return tuple(self._active())

    def params_json(self):
        return {"values": list(self.values), "probs": list(self.probs)}


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

    def pdf(self, x):
        return 1.0 / self._width() if self.lo <= x <= self.hi else 0.0

    def params_json(self):
        return {"lo": self.lo, "hi": self.hi}


@dataclass(frozen=True)
class UniformDiscreteRange(ScalarLaw):
    """Uniform law on the integers {0, 1, ..., n - 1}."""

    n: int

    family = "uniform_discrete_range"

    def __post_init__(self):
        _require(isinstance(self.n, int) and self.n >= 1,
                 "uniform_discrete_range: n must be an integer >= 1")

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
        self._check_p(p)
        return float(sum(k ** p for k in range(1, self.n))) / self.n

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
        return float(sum(math.log(k) for k in range(2, self.n))) / self.n

    def as_point(self):
        return 0.0 if self.n == 1 else None

    def finite_atoms(self):
        return tuple((float(k), 1.0 / self.n) for k in range(self.n))

    def params_json(self):
        return {"n": self.n}


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

    def pdf(self, x):
        return self.rate * math.exp(-self.rate * x) if x >= 0 else 0.0

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

    def params_json(self):
        return {"rate": self.rate}


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

    def pdf(self, x):
        if x <= 0:
            return 0.0
        a, r = self.shape, self.rate
        return math.exp(a * math.log(r) + (a - 1) * math.log(x) - r * x
                        - special.gammaln(a))

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
        return _quad(lambda x: math.log(x) * self.pdf(x), 1.0, math.inf)

    def params_json(self):
        return {"shape": self.shape, "rate": self.rate}


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

    def pdf(self, x):
        if not 0 < x < 1:
            return 0.0
        a, b = self.alpha, self.beta
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x)
                        - special.betaln(a, b))

    def support(self):
        return (0.0, 1.0)

    def abs_moment(self, p):
        self._check_p(p)
        a, b = self.alpha, self.beta
        return math.exp(special.betaln(a + p, b) - special.betaln(a, b))

    def exp_moment(self, s, of_abs=False):
        return float(special.hyp1f1(self.alpha, self.alpha + self.beta, s))

    def exp_abscissa(self):
        return math.inf

    def log_abs_mean(self):
        return float(special.digamma(self.alpha) - special.digamma(self.alpha + self.beta))

    def log_plus_abs_moment(self):
        return 0.0

    def params_json(self):
        return {"alpha": self.alpha, "beta": self.beta}


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
        return -math.expm1(-((x / self.scale) ** self.shape))

    def prob_abs_gt(self, u):
        # the survival function itself: 1 - cdf(u) rounds tails below 1e-16 to 0
        if u <= 0:
            return 1.0
        return math.exp(-((u / self.scale) ** self.shape))

    def pdf(self, x):
        if x <= 0:
            return 0.0
        k, lam = self.shape, self.scale
        z = x / lam
        return (k / lam) * z ** (k - 1) * math.exp(-(z ** k))

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
            return _exp(s * lam * u ** (1.0 / k) - u)

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
        u0 = lam ** (-k)

        def f(u):
            return (math.log(lam) + math.log(u) / k) * math.exp(-u)

        return _quad(f, u0, math.inf)

    def params_json(self):
        return {"shape": self.shape, "scale": self.scale}


@dataclass(frozen=True)
class Poisson(ScalarLaw):
    mean: float

    family = "poisson"

    def __post_init__(self):
        _require(_finite(self.mean) and self.mean > 0, "poisson: mean must be > 0")

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
        return math.exp(k * math.log(self.mean) - self.mean - special.gammaln(k + 1))

    def support(self):
        return (0.0, math.inf)

    def _series(self, log_weight) -> float:
        """Sum f(k) pmf(k) with log f supplied, guarding the tail at rel 1e-17."""
        lam = self.mean
        total = 0.0
        k = 1
        while k < 10_000_000:
            lw = log_weight(k)
            if lw is not None:
                lt = lw + k * math.log(lam) - lam - special.gammaln(k + 1)
                term = math.exp(lt) if lt > -745 else 0.0
                total += term
                if k > lam and (term == 0.0 or term < total * 1e-17):
                    break
            k += 1
        return total

    def abs_moment(self, p):
        self._check_p(p)
        return self._series(lambda k: p * math.log(k))

    def exp_moment(self, s, of_abs=False):
        return _exp(self.mean * math.expm1(s))

    def exp_abscissa(self):
        return math.inf

    def log_abs_mean(self):
        raise PreconditionError("log moment undefined: P{X = 0} > 0")

    def log_plus_abs_moment(self):
        return self._series(lambda k: math.log(math.log(k)) if k >= 2 else None)

    def params_json(self):
        return {"mean": self.mean}


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

    def exp_moment(self, s, of_abs=False):
        if s == 0:
            return 1.0
        if s > 0:
            return math.inf
        return _quad(lambda x: math.exp(s * x) * self.pdf(x), 0.0, math.inf)

    def exp_abscissa(self):
        return 0.0

    def log_abs_mean(self):
        return math.log(self.scale) - float(special.digamma(self.shape))

    def log_plus_abs_moment(self):
        return _quad(lambda x: math.log(x) * self.pdf(x), 1.0, math.inf)

    def params_json(self):
        return {"shape": self.shape, "scale": self.scale}


@dataclass(frozen=True)
class SignedRademacher(ScalarLaw):
    """Equal-probability atoms at +scale and -scale."""

    scale: float

    family = "signed_rademacher"

    def __post_init__(self):
        _require(_finite(self.scale) and self.scale > 0,
                 "signed_rademacher: scale must be > 0")

    def sample_block(self, gen, size):
        return self.scale * (2.0 * gen.integers(0, 2, size) - 1.0)

    def cdf(self, x):
        if x < -self.scale:
            return 0.0
        if x < self.scale:
            return 0.5
        return 1.0

    def point_prob(self, x):
        return 0.5 if abs(x) == self.scale else 0.0

    def support(self):
        return (-self.scale, self.scale)

    def abs_moment(self, p):
        self._check_p(p)
        return self.scale ** p

    def exp_moment(self, s, of_abs=False):
        if of_abs:
            return _exp(s * self.scale)
        if abs(s) * self.scale > 709:
            return math.inf
        return math.cosh(s * self.scale)

    def exp_abscissa(self):
        return math.inf

    def log_abs_mean(self):
        return math.log(self.scale)

    def log_plus_abs_moment(self):
        return max(math.log(self.scale), 0.0)

    def finite_atoms(self):
        return ((-self.scale, 0.5), (self.scale, 0.5))

    def params_json(self):
        return {"scale": self.scale}


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

    def exp_moment(self, s, of_abs=False):
        if s == 0:
            return 1.0
        if s > 0:
            return math.inf
        return _quad(lambda x: math.exp(s * x) * self.pdf(x), math.e, math.inf)

    def exp_abscissa(self):
        return 0.0

    def log_abs_mean(self):
        a = self.index
        return a / (a - 1.0) if a > 1 else math.inf

    def log_plus_abs_moment(self):
        return self.log_abs_mean()

    def params_json(self):
        return {"index": self.index}


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

    def _active(self):
        return [(float(m), float(q), float(p)) for m, q, p in self.atoms if p > 0]

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
        for a in self._active():
            agg[a[idx]] = agg.get(a[idx], 0.0) + a[2]
        vals = tuple(sorted(agg))
        return FiniteDiscrete(vals, tuple(agg[v] for v in vals))

    def marginal_m(self) -> ScalarLaw:
        return self._aggregate(0)

    def marginal_q(self) -> ScalarLaw:
        return self._aggregate(1)

    def draw_pairs(self, stream: RandomStream, size: int):
        gen = stream.generator(LANE_MAIN)
        idx = np.searchsorted(self._cum, gen.random(size), side="right")
        idx = np.minimum(idx, len(self.atoms) - 1)
        return self._marr[idx], self._qarr[idx]

    def restricted_exp_moment(self, s: float, q_sign: int, m_atom: float) -> float:
        total = 0.0
        for m, q, p in self._active():
            if m == m_atom:
                total += p * _exp(q_sign * s * q)
        return total

    def to_json(self) -> dict:
        return {"coupling": "finite_joint", "atoms": [list(a) for a in self.atoms]}


JointLaw = Union[Independent, FiniteJoint]


# --------------------------------------------------------------------------
# module-level operations


def sample_scalar(law: ScalarLaw, stream: RandomStream) -> float:
    """Draw one value of ``law`` from the stream's main lane."""
    return law.sample(stream.generator(LANE_MAIN))


def sample_joint(joint: JointLaw, stream: RandomStream) -> tuple[float, float]:
    """Draw one (M, Q) pair."""
    ms, qs = joint.draw_pairs(stream, 1)
    return float(ms[0]), float(qs[0])


def restricted_exp_moment(joint: JointLaw, s: float, q_sign: int, m_atom: float) -> float:
    """E e^{(q_sign) s Q} 1{M = m_atom} for s >= 0 and q_sign in {-1, +1}."""
    if s < 0:
        raise PreconditionError("restricted_exp_moment: s must be >= 0")
    if q_sign not in (-1, 1):
        raise PreconditionError("restricted_exp_moment: q_sign must be -1 or +1")
    return joint.restricted_exp_moment(s, q_sign, m_atom)


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


# --------------------------------------------------------------------------
# JSON (de)serialization


def law_to_json(law: ScalarLaw) -> dict:
    return {"family": law.family, "params": law.params_json()}


def _as_number(x, path: str, integer: bool = False):
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise LawValidationError(f"{path}: expected a number, got {x!r}")
    if integer:
        if isinstance(x, float) and x != int(x):
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

"""Closed-form reference laws and identities for validating the sampler.

Each oracle pairs an analytically known law of the perpetuity with the
(M, Q) configuration that produces it:

  - geometric:            M in {0, 1} with P{M=0} = p, Q = 1; Z ~ Geometric(p)
  - uniform-scaled-digits: M = 1/n, Q uniform on {0..n-1}; Z ~ Uniform(0, n)
    (Z/n is the base-n digit expansion, uniform on (0,1))
  - uniform-symmetric:    M = 1/2, Q = +-1; Z ~ Uniform[-2, 2]
  - gamma-sizebias:       M ~ Beta(1, alpha) indep Q ~ Gamma(alpha, alpha);
    Z ~ Gamma(alpha + 1, alpha), the size-biased version of Q's law
  - levy-half:            M ~ Weibull(1/2, 1) indep Q ~ InverseGamma(3/2, b^2/4);
    Z is the positive stable(1/2) law with cdf erfc(b / (2 sqrt(x)))
  - pitman-yor-lt:        a pure transform identity for the Laplace transform
    3 (sqrt(2s) cosh sqrt(2s) - sinh sqrt(2s)) / sinh^3 sqrt(2s)

The purity probe is a heuristic: it scans for exact atoms and for decay of
the empirical characteristic-function modulus.  Persistent modulus at large
t is evidence against absolute continuity (Riemann-Lebesgue), but no sample
statistic can decide continuity vs singularity, so the classification is
always labeled heuristic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special

from .errors import PreconditionError
from .laws import (Beta, FiniteDiscrete, Gamma, Independent, InverseGamma,
                   JointLaw, PointMass, SignedRademacher, UniformDiscreteRange,
                   Weibull)
from .sampling import EmpiricalDistribution, atom_scan, cf_modulus_grid

CF_PERSISTENT_LEVEL = 0.2
CF_DECAYED_LEVEL = 0.05
_CF_GRID_STEP = 0.25
_CF_PRODUCT_FLOOR = 1e-12


@dataclass
class OracleSpec:
    """A named reference law plus the configuration that should realize it."""

    name: str
    params: dict
    joint: JointLaw | None = None
    cdf: Callable | None = None
    pmf: Callable | None = None
    lt: Callable | None = None


def oracle_geometric(p: float) -> OracleSpec:
    """Z ~ Geometric(p) on {1, 2, ...} from M in {0, 1}, Q = 1."""
    if not (0.0 < p < 1.0):
        raise PreconditionError(f"geometric oracle requires 0 < p < 1, got {p!r}")

    def pmf(k):
        k = np.asarray(k, dtype=float)
        valid = (k >= 1) & (k == np.floor(k))
        with np.errstate(invalid="ignore"):
            vals = np.where(valid, (1.0 - p) ** (np.maximum(k, 1.0) - 1.0) * p, 0.0)
        return vals if vals.shape else float(vals)

    joint = Independent(FiniteDiscrete((0.0, 1.0), (p, 1.0 - p)), PointMass(1.0))
    return OracleSpec("geometric", {"p": p}, joint=joint, pmf=pmf)


def oracle_uniform_digits(n: int) -> OracleSpec:
    """Z ~ Uniform(0, n) from M = 1/n, Q uniform on {0..n-1}.

    The digit expansion Z/n = sum Q_k n^{-k} is the classical uniform law on
    (0, 1); the perpetuity itself, with leading weight 1, lives on (0, n).
    """
    if not (isinstance(n, int) and n >= 2):
        raise PreconditionError(f"digit oracle requires integer n >= 2, got {n!r}")

    def cdf(x):
        return np.clip(np.asarray(x, dtype=float) / n, 0.0, 1.0)

    joint = Independent(PointMass(1.0 / n), UniformDiscreteRange(n))
    return OracleSpec("uniform-scaled-digits", {"n": n}, joint=joint, cdf=cdf)


def oracle_uniform_symmetric() -> OracleSpec:
    """Z ~ Uniform[-2, 2] from M = 1/2, Q = +-1."""

    def cdf(x):
        return np.clip((np.asarray(x, dtype=float) + 2.0) / 4.0, 0.0, 1.0)

    joint = Independent(PointMass(0.5), SignedRademacher(1.0))
    return OracleSpec("uniform-symmetric", {}, joint=joint, cdf=cdf)


def oracle_gamma_sizebias(alpha: float) -> OracleSpec:
    """Z ~ Gamma(alpha + 1, alpha) from M ~ Beta(1, alpha) indep Q ~ Gamma(alpha, alpha).

    The target is the size-biased transform of L(Q): density_Z(x) is
    proportional to x density_Q(x).
    """
    if not (alpha > 0):
        raise PreconditionError(f"gamma oracle requires alpha > 0, got {alpha!r}")

    def cdf(x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 0, special.gammainc(alpha + 1.0, alpha * np.maximum(x, 0.0)), 0.0)

    joint = Independent(Beta(1.0, alpha), Gamma(alpha, alpha))
    return OracleSpec("gamma-sizebias", {"alpha": alpha}, joint=joint, cdf=cdf)


def oracle_levy_half(b: float) -> OracleSpec:
    """Z positive stable(1/2): cdf erfc(b/(2 sqrt(x))), LT e^{-b sqrt(s)}.

    The driving pair is M ~ Weibull(1/2, 1) independent of
    Q ~ InverseGamma(3/2, b^2/4); Q's law is identified through the
    size-biased relation density_Q(x) = E Q density_Z(x) / x with E Q = b^2/2
    and must be revalidated against its closed Laplace transform
    (1 + b sqrt(s)) e^{-b sqrt(s)} before use (see levy_q_lt_residual).
    """
    if not (b > 0):
        raise PreconditionError(f"levy oracle requires b > 0, got {b!r}")

    def cdf(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            return np.where(x > 0, special.erfc(b / (2.0 * np.sqrt(np.maximum(x, 1e-300)))), 0.0)

    def lt(s):
        return np.exp(-b * np.sqrt(np.asarray(s, dtype=float)))

    joint = Independent(Weibull(0.5, 1.0), InverseGamma(1.5, b * b / 4.0))
    return OracleSpec("levy-half", {"b": b}, joint=joint, cdf=cdf, lt=lt)


def levy_q_lt_residual(b: float, s_grid=(0.5, 1.0, 2.0)) -> float:
    """Max |quadrature LT of InverseGamma(3/2, b^2/4) - (1 + b sqrt(s)) e^{-b sqrt(s)}|.

    Validates the inferred Q law against its closed transform; run before
    trusting the levy-half oracle.
    """
    law_q = InverseGamma(1.5, b * b / 4.0)
    worst = 0.0
    for s in s_grid:
        if s <= 0:
            raise PreconditionError("LT residual grid must be positive")
        closed = (1.0 + b * math.sqrt(s)) * math.exp(-b * math.sqrt(s))
        worst = max(worst, abs(law_q.exp_moment(-float(s)) - closed))
    return worst


def pitman_yor_lt(s: float) -> float:
    """Closed Laplace transform 3 (x cosh x - sinh x) / sinh^3 x at x = sqrt(2s)."""
    if s <= 0:
        raise PreconditionError(f"LT defined for s > 0, got {s!r}")
    x = math.sqrt(2.0 * s)
    if x < 0.01:
        # series form: the numerator cancels to O(x^3) and loses all
        # precision in direct evaluation; relative error here is ~x^6
        x2 = x * x
        num = 1.0 + x2 / 10.0 + x2 * x2 / 280.0
        den = 1.0 + x2 / 2.0 + 13.0 * x2 * x2 / 120.0
        return num / den
    if x > 100.0:
        # exponential form; sinh^3 overflows long before x = 350
        return 12.0 * (x - 1.0) * math.exp(-2.0 * x)
    return 3.0 * (x * math.cosh(x) - math.sinh(x)) / math.sinh(x) ** 3


def _pitman_yor_phi(s: float) -> float:
    x = math.sqrt(2.0 * s)
    return (x / math.sinh(x)) ** 2


def oracle_pitman_yor_identity(s_grid) -> float:
    """Max |closed LT - (-phi'(s) / E Q)| over the grid, with E Q = 2/3.

    phi(s) = (sqrt(2s)/sinh sqrt(2s))^2 and phi' is taken by central
    differences with step 1e-6 s.  A pure transform identity; the (M, Q)
    pair behind it is not sampled.
    """
    worst = 0.0
    for s in s_grid:
        s = float(s)
        if s <= 0:
            raise PreconditionError("identity grid must be positive")
        h = 1e-6 * s
        dphi = (_pitman_yor_phi(s + h) - _pitman_yor_phi(s - h)) / (2.0 * h)
        worst = max(worst, abs(pitman_yor_lt(s) - (-dphi / (2.0 / 3.0))))
    return worst


@dataclass
class PurityProbe:
    atoms: list
    cf_decay: str  # "decaying", "persistent", or "inconclusive"; heuristic
    analytic_cf_check: float | None
    tail_peak: float  # max CF modulus over the top of the grid; drives cf_decay

    def to_json(self) -> dict:
        return {
            "atoms": [[v, p] for v, p in self.atoms],
            "cf_decay": self.cf_decay,
            "analytic_cf_check": self.analytic_cf_check,
            "method": "cf-scan-heuristic",
        }


def bernoulli_convolution_cf(c: float, ts: np.ndarray,
                             t_max: float | None = None) -> np.ndarray:
    """|CF| of sum c^k Q_{k+1} with Q = +-1: the product of cos(c^k t).

    Factors are truncated once c^k t_max < 1e-12; by |cos u| >= 1 - u^2/2 the
    discarded tail perturbs the product by less than 1e-12.
    """
    if not (0.0 < c < 1.0):
        raise PreconditionError(f"requires 0 < c < 1, got {c!r}")
    ts = np.asarray(ts, dtype=float)
    cap = float(t_max) if t_max is not None else float(np.max(np.abs(ts))) or 1.0
    prod = np.ones_like(ts)
    k = 0
    while c ** k * cap >= _CF_PRODUCT_FLOOR:
        prod *= np.cos(c ** k * ts)
        k += 1
    return np.abs(prod)


def purity_probe(emp: EmpiricalDistribution, lawM_const: float | None = None,
                 t_max: float = 100.0) -> PurityProbe:
    """Heuristic pure-type probe: atom scan plus CF-modulus decay scan.

    The modulus is evaluated on a dense linear grid (step 0.25) from t = 2 up
    to t_max; the classification looks at the top of the grid (t > 50 when
    t_max allows, else the upper half): "decaying" when the modulus stays
    below 0.05 there, "persistent" when it still exceeds 0.2, else
    "inconclusive".  When M = lawM_const is a constant in (0, 1) and Q = +-1,
    the analytic product CF is evaluated on the same grid and the max
    deviation is reported.  Sample-based continuity classification is
    intrinsically heuristic and labeled as such.
    """
    emp._require_nonempty()
    if not (t_max > 2.0):
        raise PreconditionError(f"t_max must exceed 2, got {t_max!r}")
    ts = np.arange(2.0, t_max + _CF_GRID_STEP / 2, _CF_GRID_STEP)
    mods = cf_modulus_grid(emp, ts)
    cut = 50.0 if t_max > 100.0 else t_max / 2.0
    tail = mods[ts > cut]
    peak = float(np.max(tail))
    if peak > CF_PERSISTENT_LEVEL:
        decay = "persistent"
    elif peak < CF_DECAYED_LEVEL:
        decay = "decaying"
    else:
        decay = "inconclusive"
    check = None
    if lawM_const is not None:
        analytic = bernoulli_convolution_cf(float(lawM_const), ts, t_max)
        check = float(np.max(np.abs(mods - analytic)))
    return PurityProbe(atom_scan(emp, 0.01), decay, check, peak)

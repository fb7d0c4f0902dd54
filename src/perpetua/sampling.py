"""Monte-Carlo engine for perpetuities.

Backward iteration accumulates Z_n = sum of Pi_{k-1} Q_k while maintaining
the running product Pi_k = M_1 ... M_k; it stops exactly at the first zero
factor (which happens a.s. when P{M = 0} > 0, making the sample exact), else
once |Pi_k| falls below the truncation threshold epsilon, else at max_terms
(flagged as exhausted).  Forward iteration of the random affine maps
Phi_k = Q_k + M_k Phi_{k-1} is provided for distributional comparisons.

Batches draw sample i from the dedicated stream (seed, stream_id=i), so the
result is a pure function of (config, n) no matter how the work is chunked
across workers.  The environment variable PERPETUA_THREADS caps the worker
count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import NonConvergentError, PerpetuaError, PreconditionError
from .existence import (VERDICT_CONVERGES, VERDICT_DEGENERATE,
                        VERDICT_EXACT_STOP, existence_report)
from .laws import JointLaw, joint_to_json
from .streams import RandomStream, derive_seed

DEFAULT_EPSILON = 1e-15
DEFAULT_MAX_TERMS = 10 ** 6

_BLOCK = 48
_CF_CHUNK = 64

_SAMPLEABLE = (VERDICT_CONVERGES, VERDICT_EXACT_STOP, VERDICT_DEGENERATE)


@dataclass(frozen=True)
class PerpetuityConfig:
    """Everything needed to reproduce a sampling run."""

    joint: JointLaw
    epsilon: float = DEFAULT_EPSILON
    max_terms: int = DEFAULT_MAX_TERMS
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1.0):
            raise PreconditionError(f"epsilon must be in (0, 1), got {self.epsilon!r}")
        if not (isinstance(self.max_terms, int) and self.max_terms >= 1):
            raise PreconditionError(f"max_terms must be an integer >= 1, got {self.max_terms!r}")
        if not isinstance(self.seed, int):
            raise PreconditionError(f"seed must be an integer, got {self.seed!r}")


@dataclass(frozen=True)
class SampleOutcome:
    value: float
    terms: int
    truncated: bool
    exhausted: bool


@dataclass(eq=False)
class EmpiricalDistribution:
    """Sorted sample set with provenance; all queries are pure."""

    samples: np.ndarray
    n: int
    n_truncated: int
    n_exhausted: int
    provenance: dict = field(default_factory=dict)

    def _require_nonempty(self):
        if self.n == 0:
            raise PreconditionError("empty empirical distribution")

    def mean(self) -> float:
        self._require_nonempty()
        return float(np.mean(self.samples))

    def variance(self) -> float:
        self._require_nonempty()
        return float(np.var(self.samples, ddof=1)) if self.n > 1 else 0.0

    def quantile(self, q: float) -> float:
        self._require_nonempty()
        return float(np.quantile(self.samples, q))

    def summary(self, min_prob: float = 0.01) -> dict:
        self._require_nonempty()
        qs = {str(p): self.quantile(p / 100) for p in (1, 5, 25, 50, 75, 95, 99)}
        return {
            "n": int(self.n),
            "n_truncated": int(self.n_truncated),
            "n_exhausted": int(self.n_exhausted),
            "mean": self.mean(),
            "variance": self.variance(),
            "min": float(self.samples[0]),
            "max": float(self.samples[-1]),
            "quantiles": qs,
            "atoms": [[float(v), float(p)] for v, p in atom_scan(self, min_prob)],
        }


@dataclass(frozen=True)
class Trajectory:
    values: tuple
    kind: str  # "backward-partial-sums" or "forward-ifs"


def _draw_one(joint: JointLaw, epsilon: float, max_terms: int,
              stream: RandomStream) -> SampleOutcome:
    """Accumulate the series along one path, drawing pairs in blocks."""
    total = 0.0
    pi = 1.0
    terms = 0
    while terms < max_terms:
        block = min(_BLOCK, max_terms - terms)
        ms, qs = joint.draw_pairs(stream, block)
        cp = np.cumprod(ms)
        weights = np.empty(block)
        weights[0] = pi
        np.multiply(pi, cp[:-1], out=weights[1:])
        contrib = weights * qs
        run = pi * cp
        stop = np.flatnonzero((ms == 0.0) | (np.abs(run) <= epsilon))
        if stop.size:
            j = int(stop[0])
            total += float(np.sum(contrib[: j + 1]))
            terms += j + 1
            return SampleOutcome(total, terms, truncated=ms[j] != 0.0, exhausted=False)
        total += float(np.sum(contrib))
        pi = float(run[-1])
        terms += block
    return SampleOutcome(total, terms, truncated=True, exhausted=True)


def _check_sampleable(joint: JointLaw) -> None:
    verdict = existence_report(joint).verdict
    if verdict not in _SAMPLEABLE:
        raise NonConvergentError(
            f"cannot sample a perpetuity with existence verdict {verdict!r}")


def sample_perpetuity(config: PerpetuityConfig, stream: RandomStream) -> SampleOutcome:
    """One draw of the perpetuity along the path given by ``stream``."""
    _check_sampleable(config.joint)
    return _draw_one(config.joint, config.epsilon, config.max_terms, stream)


def _batch_chunk(config: PerpetuityConfig, ids) -> tuple[np.ndarray, int, int]:
    values = np.empty(len(ids))
    truncated = 0
    exhausted = 0
    for k, i in enumerate(ids):
        try:
            out = _draw_one(config.joint, config.epsilon, config.max_terms,
                            RandomStream(config.seed, i))
        except Exception as exc:  # attach the failing stream id
            raise PerpetuaError(f"sample with stream id {i} failed: {exc}") from exc
        values[k] = out.value
        truncated += out.truncated
        exhausted += out.exhausted
    return values, truncated, exhausted


def _worker_count(workers: int | None) -> int:
    cap = os.environ.get("PERPETUA_THREADS")
    count = 1 if workers is None else max(1, int(workers))
    if cap is not None:
        count = min(count, max(1, int(cap)))
    return count


def sample_batch(config: PerpetuityConfig, n: int,
                 workers: int | None = None) -> EmpiricalDistribution:
    """n independent draws using stream ids 0..n-1 derived from config.seed.

    The sorted output is bit-identical for any worker count.
    """
    if not (isinstance(n, int) and n >= 0):
        raise PreconditionError(f"n must be a nonnegative integer, got {n!r}")
    if n > 0:
        _check_sampleable(config.joint)
    count = _worker_count(workers)
    ids = range(n)
    if count <= 1 or n < 256:
        chunks = [_batch_chunk(config, ids)] if n else []
    else:
        bounds = np.linspace(0, n, count * 4 + 1).astype(int)
        spans = [range(a, b) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
        with ThreadPoolExecutor(max_workers=count) as pool:
            chunks = list(pool.map(lambda s: _batch_chunk(config, s), spans))
    if chunks:
        values = np.concatenate([c[0] for c in chunks])
        n_truncated = sum(c[1] for c in chunks)
        n_exhausted = sum(c[2] for c in chunks)
    else:
        values = np.empty(0)
        n_truncated = n_exhausted = 0
    values.sort()
    provenance = {
        "joint": joint_to_json(config.joint),
        "epsilon": config.epsilon,
        "max_terms": config.max_terms,
        "seed": config.seed,
        "stream_ids": [0, n],
    }
    return EmpiricalDistribution(values, n, n_truncated, n_exhausted, provenance)


def forward_iterate(joint: JointLaw, phi0: float, n: int,
                    stream: RandomStream) -> Trajectory:
    """Iterate the random affine maps forward: Phi_k = Q_k + M_k Phi_{k-1}.

    Returns Phi_0..Phi_n.  The iterates converge in distribution (not a.s.)
    to the perpetuity law when it exists.
    """
    if n < 1:
        raise PreconditionError("forward_iterate requires n >= 1")
    ms, qs = joint.draw_pairs(stream, n)
    vals = np.empty(n + 1)
    vals[0] = phi0
    for k in range(n):
        vals[k + 1] = qs[k] + ms[k] * vals[k]
    return Trajectory(tuple(float(v) for v in vals), "forward-ifs")


def partial_sum_trajectory(joint: JointLaw, n: int,
                           stream: RandomStream) -> Trajectory:
    """Backward partial sums Z_1..Z_n along a single (M, Q) realization."""
    if n < 1:
        raise PreconditionError("partial_sum_trajectory requires n >= 1")
    ms, qs = joint.draw_pairs(stream, n)
    weights = np.empty(n)
    weights[0] = 1.0
    np.cumprod(ms[:-1], out=weights[1:])
    z = np.cumsum(weights * qs)
    return Trajectory(tuple(float(v) for v in z), "backward-partial-sums")


def ks_distance(emp: EmpiricalDistribution, cdf: Callable) -> float:
    """sup_x |F_emp(x) - cdf(x)| via the two-sided evaluation at sample points.

    With atoms in ``cdf`` the convention matters: the cdf is taken
    right-continuous, and both F_emp(x_i) and its left limit are compared,
    so a point mass exactly at a sample value yields distance up to 1.
    """
    emp._require_nonempty()
    x = emp.samples
    try:
        f = np.asarray(cdf(x), dtype=float)
        if f.shape != x.shape:
            raise ValueError
    except Exception:
        f = np.asarray([cdf(v) for v in x], dtype=float)
    i = np.arange(1, emp.n + 1)
    d_plus = float(np.max(i / emp.n - f))
    d_minus = float(np.max(f - (i - 1) / emp.n))
    return max(d_plus, d_minus, 0.0)


def two_sample_ks(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample KS statistic, correct in the presence of ties."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise PreconditionError("two_sample_ks requires nonempty samples")
    grid = np.concatenate([a, b])
    ca = np.searchsorted(a, grid, side="right") / a.size
    cb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(ca - cb)))


def fixed_point_residual(config: PerpetuityConfig, n: int,
                         workers: int | None = None) -> float:
    """Two-sample KS between {Z_i} and {Q_i + M_i Z'_i}.

    Z and Z' are independent batches of size n and the (M_i, Q_i) are fresh
    pairs, so both sides are draws of the perpetuity law and the statistic
    is small exactly when the fixed-point identity holds.  Values are
    snapped to a grid at truncation scale first: deterministic configs
    produce atoms that differ only by the truncation tail, and without
    snapping the KS statistic would register that spurious offset as 1.
    """
    if n < 1:
        raise PreconditionError("fixed_point_residual requires n >= 1")
    z = sample_batch(config, n, workers).samples
    z_prime = sample_batch(replace(config, seed=derive_seed(config.seed, 1)),
                           n, workers).samples
    pair_stream = RandomStream(derive_seed(config.seed, 2), 0)
    ms, qs = config.joint.draw_pairs(pair_stream, n)
    rhs = qs + ms * z_prime
    finite = np.concatenate([z[np.isfinite(z)], rhs[np.isfinite(rhs)]])
    scale = max(1.0, float(np.max(np.abs(finite))) if finite.size else 1.0)
    step = scale * min(16.0 * config.epsilon, 1e-6)
    return two_sample_ks(np.round(z / step) * step, np.round(rhs / step) * step)


def _cf_parts(x: np.ndarray, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of the empirical CF of ``x`` at each t in ``ts``.

    Rows of the t-by-sample product matrix are formed _CF_CHUNK at a time, so
    memory stays at _CF_CHUNK * len(x) floats whatever the grid size.
    """
    re = np.empty(ts.size)
    im = np.empty(ts.size)
    for a in range(0, ts.size, _CF_CHUNK):
        tx = np.outer(ts[a : a + _CF_CHUNK], x)
        re[a : a + _CF_CHUNK] = np.cos(tx).mean(axis=1)
        im[a : a + _CF_CHUNK] = np.sin(tx).mean(axis=1)
    return re, im


def empirical_cf(emp: EmpiricalDistribution, t: float) -> tuple[float, float]:
    """Empirical characteristic function at t: ((1/n) sum cos, (1/n) sum sin)."""
    emp._require_nonempty()
    re, im = _cf_parts(emp.samples, np.array([float(t)]))
    return float(re[0]), float(im[0])


def cf_modulus_grid(emp: EmpiricalDistribution, ts: np.ndarray) -> np.ndarray:
    """|empirical CF| on a grid of t values, computed in memory-bounded chunks."""
    emp._require_nonempty()
    return np.hypot(*_cf_parts(emp.samples, np.asarray(ts, dtype=float)))


def empirical_moment(emp: EmpiricalDistribution, p: float,
                     absolute: bool = True) -> float:
    """Sample mean of |x|^p (or of x^p when ``absolute`` is false)."""
    emp._require_nonempty()
    if p < 0:
        raise PreconditionError(f"moment order must be >= 0, got {p!r}")
    if p == 0:
        return 1.0
    base = np.abs(emp.samples) if absolute else emp.samples
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.mean(base ** p))


def atom_scan(emp: EmpiricalDistribution, min_prob: float) -> list[tuple[float, float]]:
    """Exactly-repeated sample values with frequency >= min_prob, most frequent first."""
    if not (0.0 < min_prob <= 1.0):
        raise PreconditionError(f"min_prob must be in (0, 1], got {min_prob!r}")
    if emp.n == 0:
        return []
    vals, counts = np.unique(emp.samples, return_counts=True)
    freq = counts / emp.n
    keep = freq >= min_prob
    order = np.argsort(-counts[keep], kind="stable")
    return [(float(v), float(f)) for v, f in
            zip(vals[keep][order], freq[keep][order])]


def to_csv(emp: EmpiricalDistribution, path) -> None:
    """Write one sample per line under the header ``z`` at full precision."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("z\n")
        for v in emp.samples:
            fh.write(f"{float(v)!r}\n")

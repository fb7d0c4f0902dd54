"""Monte-Carlo engine for perpetuities.

Backward iteration accumulates Z_n = sum of Pi_{k-1} Q_k while maintaining
the running product Pi_k = M_1 ... M_k; it stops exactly at the first zero
factor (which happens a.s. when P{M = 0} > 0, making the sample exact), else
once |Pi_k| falls below the truncation threshold epsilon, else at max_terms
(flagged as exhausted).

Batches draw sample i from the dedicated stream (seed, stream_id=i), so the
result is a pure function of (config, n) no matter how the ids are chunked.
``sample_batch`` runs one chunk, ``_batch_chunk`` over all n ids, and sorts.

The series arithmetic lives in one kernel, ``_accumulate``, which is the
recursion itself on many paths at once: one cumulative product per path from
the product it carries in, a stop at the first zero factor or |Pi_k| <=
epsilon, and the terms Pi_{k-1} Q_k summed in rows of _BLOCK, every term past
the stop set to 0, the row sums folded into the carried total one by one.
A chunk is a wavefront: every draw of a sub-chunk draws its first k
rows from its own re-keyed streams in one ``draw_rows`` call per
sub-chunk, which makes one generator call per stream key (see
``streams.LanePool``) and the sampler's elementwise work once on all rows;
one kernel call covers them all.  Draws still running after those rows
start again from their first pair in ``_paths``, which runs any number of
paths together in super-blocks of doubling size, one ``draw_pairs`` call
per path and one kernel call per stage; a draw whose k would pass
_MAX_ROWS runs there from its first pair, and ``sample_perpetuity`` is
``_paths`` on one stream.  Since numpy's samplers give the same values
whether a stream is read in one block or several, and the kernel gives a
path the same bytes however its rows are split among calls, every sample
equals the one the plain per-draw, block-at-a-time loop produces, bit for
bit; k only changes how fast that happens.  An overflowed product stays
infinite, so an overflowed draw is +-inf, and NaN only where inf - inf or
0 * inf occurs.

The empirical characteristic function is one kernel too, ``_cf_parts``.  On
an arithmetic t-grid t = t0 + (kS + j)h it splits e^{itx} into
e^{i(t0 + kSh)x} e^{ijhx} and sums, over tiles of _CF_TILE samples, one
complex matrix product of an anchor block (rows k) with a step block (rows
j), both built by rotation from one direct cos/sin row.  Each value stays
within about 2^-52 (|t x| + 128) of direct evaluation, and the working
memory is two tile-wide blocks of at most 64 rows, about 4 MB
whatever n and the grid size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from numbers import Real
from typing import Callable

import numpy as np

from .errors import DrawError, NonConvergentError, PreconditionError
from .existence import (VERDICT_CONVERGES, VERDICT_DEGENERATE,
                        VERDICT_EXACT_STOP, existence_report)
from .laws import JointLaw, joint_to_json
from .streams import STREAM_SCHEME, LanePool, RandomStream, derive_seed

DEFAULT_EPSILON = 1e-15
DEFAULT_MAX_TERMS = 10 ** 6

_BLOCK = 48
_WAVE = 2 ** 14                      # elements in one working array of a wavefront
_MAX_ROWS = _WAVE // _BLOCK
# elements in one working array of a continuation stage: on a 2-core Xeon,
# 32 paths of 10^4 or more terms ran about as fast at 4 _WAVE as with no
# bound (which peaked at 17 MB), and 1.1-1.8x slower at _WAVE
_STAGE = 4 * _WAVE
_WAVE_QUANTILE = 0.95                # rows cover this share of the term counts seen
_FIRST_WAVE = 32                     # draws before the first term counts are known
_CF_SPACING = 64                     # most grid points per anchor, and anchors per block
_CF_TILE = 2 ** 11                   # samples in one CF matrix product

_SUMMARY_PERCENTILES = (1, 5, 25, 50, 75, 95, 99)

_SAMPLEABLE = (VERDICT_CONVERGES, VERDICT_EXACT_STOP, VERDICT_DEGENERATE)


@dataclass(frozen=True)
class PerpetuityConfig:
    """Everything needed to reproduce a sampling run."""

    joint: JointLaw
    epsilon: float = DEFAULT_EPSILON
    max_terms: int = DEFAULT_MAX_TERMS
    seed: int = 0

    def __post_init__(self):
        # bool is an int, and so a Real: the range leaves out True and False
        # as epsilon, but max_terms and seed must leave them out by type
        if not (isinstance(self.epsilon, Real) and 0.0 < self.epsilon < 1.0):
            raise PreconditionError(f"epsilon must be a number in (0, 1), got {self.epsilon!r}")
        if not (isinstance(self.max_terms, int) and not isinstance(self.max_terms, bool)
                and self.max_terms >= 1):
            raise PreconditionError(f"max_terms must be an integer >= 1, got {self.max_terms!r}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
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

    # Overflowed draws are inf, and inf - inf inside these reductions makes
    # the NaN that is reported; finite draws near the float limit overflow
    # the sums to inf.  numpy's warnings about both are silenced.

    def mean(self) -> float:
        self._require_nonempty()
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.mean(self.samples))

    def variance(self) -> float:
        self._require_nonempty()
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.var(self.samples, ddof=1)) if self.n > 1 else 0.0

    def _quantiles(self, qs: np.ndarray) -> np.ndarray:
        """np.quantile (linear method) of the sorted samples, taking 0 * inf as 0.

        Where an interpolation neighbour is infinite np.quantile can give
        NaN; there this gives the order statistic at a whole index and the
        infinite neighbour between two, so only a -inf/+inf straddle stays
        NaN.  All other values, and all values for a sample holding NaN, are
        np.quantile's bit for bit.
        """
        x = self.samples
        with np.errstate(invalid="ignore"):
            values = np.quantile(x, qs)
            fix = np.isnan(values) & ~np.isnan(x[-1])
            if fix.any():
                q = qs[fix]
                h = x.size * q + (1 - q) - 1      # np.quantile's virtual index
                lo = np.floor(h).astype(int)
                a, b = x[lo], x[np.minimum(lo + 1, x.size - 1)]
                values[fix] = np.where(h == lo, a, a + b)
        return values

    def quantile(self, q: float) -> float:
        self._require_nonempty()
        return float(self._quantiles(np.array([q], dtype=float))[0])

    def summary(self, min_prob: float = 0.01) -> dict:
        self._require_nonempty()
        values = self._quantiles(np.array(_SUMMARY_PERCENTILES) / 100)
        qs = {str(p): float(v) for p, v in zip(_SUMMARY_PERCENTILES, values)}
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


@np.errstate(over="ignore", invalid="ignore")
def _accumulate(ms: np.ndarray, qs: np.ndarray, epsilon: float, pi: np.ndarray,
                total: np.ndarray, last: bool):
    """Run paths over a stage of pairs; the series arithmetic of the sampler.

    ``ms`` and ``qs`` are (paths, size) pairs, and ``pi`` and ``total`` the
    product and partial sum each path carries into them; ``size`` is a
    multiple of _BLOCK unless ``last`` says the stage ends at max_terms.  The
    products are one cumulative product from the carried one, and a path
    stops at its first zero factor or first |product| <= epsilon.  The terms
    Pi_{k-1} Q_k fill rows of _BLOCK, the short last row padded with zeros
    and every term after the stop set to 0; each row is one ``np.sum``, and
    the row sums fold into the total from the left.  A path's value is the
    fold through its stopping row.  The rows after it add +0.0, which changes
    no total but -0.0, and a fold from +0.0 never gives -0.0, so the value is
    the total the path ends the stage with.  No split of a path's rows among
    calls at multiples of _BLOCK changes a bit.

    Returns (stop, total, truncated, exhausted, pi) per path: the index of
    the stopping pair (-1 when the path runs on), the value of a stopped
    path or the total a running one carries on, the stop flags, and the
    product to carry on.  Overflow gives +-inf, and NaN only where inf - inf
    or 0 * inf occurs, without numpy warnings.
    """
    paths, size = ms.shape
    width = -(-size // _BLOCK) * _BLOCK
    run = np.concatenate([pi[:, None], ms], axis=1)
    np.cumprod(run, axis=1, out=run)
    terms = np.zeros((paths, width))
    np.multiply(run[:, :-1], qs, out=terms[:, :size])
    pi = run[:, -1].copy()
    hit = np.abs(run, out=run)[:, 1:] <= epsilon
    del run
    hit |= ms == 0.0
    stop = hit.argmax(axis=1)
    at = np.arange(paths)
    running = ~hit[at, stop]
    stop[running] = size - 1
    np.copyto(terms, 0.0, where=np.arange(width) > stop[:, None])
    sums = terms.reshape(paths, width // _BLOCK, _BLOCK).sum(axis=2)
    total = np.cumsum(np.concatenate([total[:, None], sums], axis=1), axis=1)[:, -1]
    truncated = ms[at, stop] != 0.0
    if not last:
        stop[running] = -1
    return stop, total, truncated, running & last, pi


def _check_sampleable(joint: JointLaw) -> None:
    verdict = existence_report(joint).verdict
    if verdict not in _SAMPLEABLE:
        raise NonConvergentError(
            f"cannot sample a perpetuity with existence verdict {verdict!r}")


def _paths(joint: JointLaw, epsilon: float, max_terms: int, streams: list[RandomStream],
           rows: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Run one path per stream from its first pair, all paths together.

    Each stage draws the next super-block of every live path with one
    ``joint.draw_pairs(stream, size)`` call per path and runs the stage through
    one ``_accumulate`` call; stopped paths leave.  The first super-block has
    ``rows`` rows of _BLOCK pairs and each later one twice the last, up to
    _MAX_ROWS; no stage's working arrays exceed _STAGE elements, so L live
    paths take at most _STAGE / (_BLOCK L) rows each.  Returns (value, terms,
    truncated, exhausted) per stream; a draw that fails raises ``DrawError``
    naming its stream id.
    """
    n = len(streams)
    value, terms = np.empty(n), np.empty(n, dtype=np.int64)
    truncated, exhausted = np.empty(n, dtype=bool), np.empty(n, dtype=bool)
    live, pi, total = np.arange(n), np.ones(n), np.zeros(n)
    done = 0
    while live.size:
        rows = min(rows, _MAX_ROWS, max(1, _STAGE // (_BLOCK * live.size)))
        size = min(rows * _BLOCK, max_terms - done)
        ms, qs = np.empty((live.size, size)), np.empty((live.size, size))
        for j, k in enumerate(live):
            try:
                ms[j], qs[j] = joint.draw_pairs(streams[k], size)
            except Exception as exc:
                raise DrawError(streams[k].stream_id, exc) from exc
        stop, total, trunc, exh, pi = _accumulate(
            ms, qs, epsilon, pi, total, done + size == max_terms)
        out = stop >= 0
        at = live[out]
        value[at], terms[at] = total[out], done + stop[out] + 1
        truncated[at], exhausted[at] = trunc[out], exh[out]
        live, pi, total = live[~out], pi[~out], total[~out]
        done += size
        rows *= 2
    return value, terms, truncated, exhausted


def sample_perpetuity(config: PerpetuityConfig, stream: RandomStream) -> SampleOutcome:
    """One draw of the perpetuity along the path given by ``stream``."""
    _check_sampleable(config.joint)
    value, terms, truncated, exhausted = _paths(
        config.joint, config.epsilon, config.max_terms, [stream], 1)
    return SampleOutcome(float(value[0]), int(terms[0]), truncated=bool(truncated[0]),
                         exhausted=bool(exhausted[0]))


def _batch_chunk(config: PerpetuityConfig, ids) -> tuple[np.ndarray, int, int]:
    """Draws for stream ids ``ids`` as a wavefront of sub-chunks.

    A sub-chunk draws the first ``rows`` rows of pairs of all its draws with
    one ``draw_rows`` call and runs them through one ``_accumulate`` call;
    draws still running after them start again from their first pair in
    ``_paths``, together, with twice as many rows.  ``rows`` for the next
    sub-chunk comes from the term counts just seen; past _MAX_ROWS a
    sub-chunk is one draw, and it runs in ``_paths`` from the start.
    """
    joint, epsilon, max_terms = config.joint, config.epsilon, config.max_terms
    values = np.empty(len(ids))
    truncated = 0
    exhausted = 0
    pool = LanePool()
    rows = 1
    pos = 0
    while pos < len(ids):
        rows = min(rows, -(-max_terms // _BLOCK))
        width = min(len(ids) - pos, max(1, _WAVE // (rows * _BLOCK)), max(pos, _FIRST_WAVE))
        wave = ids[pos : pos + width]
        if rows > _MAX_ROWS:
            # one draw would fill a wave, and over 5% of draws outrun that:
            # run it as a path from its first pair, with no wave to restart
            value, terms, trunc, exh = _paths(
                joint, epsilon, max_terms, [RandomStream(config.seed, i) for i in wave], rows)
        else:
            size = min(rows * _BLOCK, max_terms)
            ms, qs = joint.draw_rows(config.seed, wave, size, pool)
            stop, value, trunc, exh, _ = _accumulate(
                ms, qs, epsilon, np.ones(width), np.zeros(width), size == max_terms)
            del ms, qs  # freed before the draws still running allocate their own
            terms = stop + 1
            running = np.flatnonzero(stop < 0)
            streams = [RandomStream(config.seed, wave[k]) for k in running]
            value[running], terms[running], trunc[running], exh[running] = _paths(
                joint, epsilon, max_terms, streams, 2 * rows)
        values[pos : pos + width] = value
        truncated += int(trunc.sum())
        exhausted += int(exh.sum())
        kth = math.ceil(_WAVE_QUANTILE * (width - 1))  # at or above the 95% point
        rows = -(-int(np.partition(terms, kth)[kth]) // _BLOCK)
        pos += width
    return values, truncated, exhausted


def sample_batch(config: PerpetuityConfig, n: int) -> EmpiricalDistribution:
    """n independent draws using stream ids 0..n-1 derived from config.seed.

    Draw i depends on stream (config.seed, i) alone, so the sorted output is
    bit-identical however the ids are split among ``_batch_chunk`` calls.
    """
    if not (isinstance(n, int) and n >= 0):
        raise PreconditionError(f"n must be a nonnegative integer, got {n!r}")
    if n > 0:
        _check_sampleable(config.joint)
    values, n_truncated, n_exhausted = _batch_chunk(config, range(n))
    values.sort()
    provenance = {
        "joint": joint_to_json(config.joint),
        "epsilon": config.epsilon,
        "max_terms": config.max_terms,
        "seed": config.seed,
        "stream_ids": [0, n],
        "stream_scheme": STREAM_SCHEME,
    }
    return EmpiricalDistribution(values, n, n_truncated, n_exhausted, provenance)


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


def fixed_point_residual(config: PerpetuityConfig, n: int) -> float:
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
    z = sample_batch(config, n).samples
    z_prime = sample_batch(replace(config, seed=derive_seed(config.seed, 1)), n).samples
    pair_stream = RandomStream(derive_seed(config.seed, 2), 0)
    ms, qs = config.joint.draw_pairs(pair_stream, n)
    rhs = qs + ms * z_prime
    finite = np.concatenate([z[np.isfinite(z)], rhs[np.isfinite(rhs)]])
    scale = max(1.0, float(np.max(np.abs(finite))) if finite.size else 1.0)
    step = scale * min(16.0 * config.epsilon, 1e-6)
    return two_sample_ks(np.round(z / step) * step, np.round(rhs / step) * step)


def _cf_parts(x: np.ndarray, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of the empirical CF of ``x`` at each t in ``ts``.

    On an arithmetic grid (``ts == ts[0] + arange(T) * h`` exactly, which
    every ``np.arange`` grid satisfies) with spacing S, the largest power of
    two up to _CF_SPACING with S^2 <= T, point kS + j of the grid has
    e^{itx} = e^{i t_{kS} x} e^{ijhx}.  For each tile of _CF_TILE samples the
    step block holds e^{ijhx} for j < S, made by rotation with e^{ihx}, and
    each anchor block holds e^{i t_{kS} x} for at most _CF_SPACING anchors,
    the first by cos and sin and the others by rotation with e^{iShx}; one
    complex matrix product of the two adds the tile to S grid points per
    anchor.  Any other grid, or a single t, has S = 1: every point is a
    direct anchor and the step block is one row of ones.  At most
    S + _CF_SPACING - 2 rotations and the rounding of t x keep each term
    within about eps * (|t x| + 128) of direct evaluation (eps = 2^-52).
    Working memory is the two blocks, at most 2 * _CF_SPACING * _CF_TILE
    complex values (4 MB), whatever len(x) and the grid size.  Any
    non-finite sample gives NaN at every t, as direct evaluation does.
    """
    n, size = x.size, ts.size
    # min and max see NaN and +-inf without a temporary as long as x
    if not (np.isfinite(x.min()) and np.isfinite(x.max())):
        return np.full(size, np.nan), np.full(size, np.nan)
    h = ts[1] - ts[0] if size > 1 else 0.0
    spacing = 1
    if size > 1 and np.array_equal(ts, ts[0] + np.arange(size) * h):
        spacing = min(_CF_SPACING, 1 << (size.bit_length() - 1) // 2)
    anchors = ts[::spacing]
    width = min(n, _CF_TILE)
    steps = np.ones((spacing, width), dtype=complex)
    blocks = np.empty((min(anchors.size, _CF_SPACING), width), dtype=complex)
    jumps = np.empty(width, dtype=complex)
    sums = np.zeros((anchors.size, spacing), dtype=complex)
    for lo in range(0, n, _CF_TILE):
        xs = x[lo : lo + _CF_TILE]
        step, block, jump = steps[:, : xs.size], blocks[:, : xs.size], jumps[: xs.size]
        if spacing > 1:
            np.cos(h * xs, out=step[1].real)
            np.sin(h * xs, out=step[1].imag)
            np.cos(spacing * h * xs, out=jump.real)
            np.sin(spacing * h * xs, out=jump.imag)
            for j in range(2, spacing):
                np.multiply(step[j - 1], step[1], out=step[j])
        for k in range(0, anchors.size, _CF_SPACING):
            at = anchors[k : k + _CF_SPACING]
            rows = block[: at.size]
            # the block's first anchor is direct, or all of them when S = 1
            tx = np.multiply.outer(at[:1] if spacing > 1 else at, xs)
            np.cos(tx, out=rows[: len(tx)].real)
            np.sin(tx, out=rows[: len(tx)].imag)
            for r in range(len(tx), at.size):
                np.multiply(rows[r - 1], jump, out=rows[r])
            sums[k : k + at.size] += rows @ step.T
    sums = sums.ravel()[:size] / n
    return sums.real, sums.imag


def empirical_cf(emp: EmpiricalDistribution, t: float) -> tuple[float, float]:
    """Empirical characteristic function at t: ((1/n) sum cos, (1/n) sum sin).

    Kept as the public one-t form of the CF (``cf_modulus_grid`` gives only
    the modulus); it is the kernel's single-t path, with no code of its own.
    """
    emp._require_nonempty()
    re, im = _cf_parts(emp.samples, np.array([float(t)]))
    return float(re[0]), float(im[0])


def cf_modulus_grid(emp: EmpiricalDistribution, ts: np.ndarray) -> np.ndarray:
    """|empirical CF| on a grid of t values.

    An arithmetic grid (any ``np.arange`` grid) is summed as blocked complex
    matrix products, one multiply-add per (t, x) product, with cos and sin
    evaluated for one grid point in every block of up to 64 x 64; other
    grids are evaluated directly.
    The result is within about eps * (|t x| + 128) of direct evaluation, and
    working memory is about 4 MB whatever len(samples) and the grid size
    (see ``_cf_parts``).
    """
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
    keep = (counts >= 2) & (freq >= min_prob)
    order = np.argsort(-counts[keep], kind="stable")
    return [(float(v), float(f)) for v, f in
            zip(vals[keep][order], freq[keep][order])]


def to_csv(emp: EmpiricalDistribution, path) -> None:
    """Write one sample per line under the header ``z`` at full precision."""
    body = "\n".join(map(repr, emp.samples.tolist()))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("z\n" + body + ("\n" if body else ""))

"""The batched sampler reproduces the per-draw sampler bit for bit.

``DIGESTS`` holds SHA-256 digests of ``sample_batch(...).samples.tobytes()``
computed with the per-draw 48-pair-block sampler ``_reference_draw`` below.
All 15 come from it under stream scheme v3
(``perpetua.streams.STREAM_SCHEME``), which sums each block from the carried
product; 6 of them (``geometric-p0.3``, ``uniform-symmetric``,
``bernoulli-c1/3``, ``finite-joint``, ``u0.4-x-exp1-max100`` and
``uniform-x-exp1-max1``) equal their values at commit 7f9a274, before draws
were batched.  Regenerate the table with

    PYTHONPATH=src python tests/test_sampling_bytes.py

which draws every case one draw at a time through ``_reference_draw``, not
through ``sample_batch``, and prints one line per case in the format of
``DIGESTS``.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from perpetua.errors import NonConvergentError
from perpetua.laws import (Beta, Exponential, FiniteDiscrete, FiniteJoint,
                           Gamma, Independent, InverseGamma, LogPareto,
                           PointMass, Poisson, SignedRademacher,
                           UniformContinuous, UniformDiscreteRange, Weibull)
from perpetua.sampling import (PerpetuityConfig, _accumulate, _batch_chunk,
                               sample_batch, sample_perpetuity)
from perpetua.streams import RandomStream

SEED = 20261018
U_EXP = Independent(UniformContinuous(0.0, 1.0), Exponential(1.0))
LEVY_HALF = Independent(Weibull(0.5, 1.0), InverseGamma(1.5, 0.25))

# name -> (joint, PerpetuityConfig keywords, n)
CASES = {
    # the battery's short paths: 2-100 terms
    "geometric-p0.3": (Independent(FiniteDiscrete((0.0, 1.0), (0.3, 0.7)), PointMass(1.0)),
                       {}, 3000),
    "uniform-symmetric": (Independent(PointMass(0.5), SignedRademacher(1.0)), {}, 3000),
    "bernoulli-c1/3": (Independent(PointMass(1.0 / 3.0), SignedRademacher(1.0)), {}, 3000),
    "gamma-sizebias-a1": (Independent(Beta(1.0, 1.0), Gamma(1.0, 1.0)), {}, 3000),
    "levy-half-b1": (LEVY_HALF, {}, 3000),
    "uniform-x-exp1": (U_EXP, {}, 3000),
    # near-unit discounting: about 660 terms
    "beta19-x-exp1": (Independent(Beta(19.0, 1.0), Exponential(1.0)), {}, 1000),
    "u0.9-x-gamma2": (Independent(UniformContinuous(0.9, 1.0), Gamma(2.0, 1.0)), {}, 1000),
    "finite-joint": (FiniteJoint(((0.5, 1.0, 0.5), (-0.9, -2.0, 0.3), (1.5, 0.5, 0.2))),
                     {}, 2000),
    # max_terms below, at and above one 48-pair block, some draws exhausted
    "uniform-x-exp1-max47": (U_EXP, {"max_terms": 47}, 2000),
    "u0.4-x-exp1-max100": (Independent(UniformContinuous(0.4, 1.0), Exponential(1.0)),
                           {"max_terms": 100}, 2000),
    "uniform-x-exp1-max1": (U_EXP, {"max_terms": 1}, 500),
    "uniform-x-exp1-max49": (U_EXP, {"max_terms": 49}, 2000),
    "levy-half-eps1e-3": (LEVY_HALF, {"epsilon": 1e-3}, 2000),
    # about 1% of the draws overflow to inf
    "u01-x-logpareto1.2": (Independent(UniformContinuous(0.0, 1.0), LogPareto(1.2)), {}, 3000),
}

# name -> (n_truncated, n_exhausted, sha256 of the sorted samples)
DIGESTS = {
    "geometric-p0.3": (0, 0, "0a5676ed20943589dd8ea441f4d2ef7bd88518779af6a16b06f92f375aee49a2"),
    "uniform-symmetric": (3000, 0, "19acde2f84c63d74706a889dfb6d5b4761e117657fe3e19d489589a654f72d7f"),
    "bernoulli-c1/3": (3000, 0, "fe41a7168f4df9a1823a4ed8be0becb90c3eb7f68a684ded020da3ff11617cb0"),
    "gamma-sizebias-a1": (3000, 0, "45c35399f896a0ef5fe9c58e613e3923d62c0d7b3b1488c25bf402531af69879"),
    "levy-half-b1": (3000, 0, "3c2cf012d17e96b7b4a819def91b229fd81fbabf00f277e1e73769908bb21562"),
    "uniform-x-exp1": (3000, 0, "b0b2f9f60b85dcbd7741cf70fe3fc7625608251bfc86fbfdd651c5ff52b3417e"),
    "beta19-x-exp1": (1000, 0, "5d6aa50e2763ae438d6301436c8e734fed751b13f11c112e24e894fa5a1a7ff4"),
    "u0.9-x-gamma2": (1000, 0, "69534199a46dd382eaa8cab8a2bccf312b2fb71c4da66c52524f8a258f08e4d3"),
    "finite-joint": (2000, 0, "2ea4c22b22ecdf8bfc5a8de4ef7de087960ba3bbd704d747fd84b5cf638f7b5e"),
    "uniform-x-exp1-max47": (2000, 58, "f868ebe9e27c9505a4963d2e832eaa76110a348b43f877ef6e6ccbe32cd925b2"),
    "u0.4-x-exp1-max100": (2000, 80, "eb17d2046497d7a488433ca1edc9e0ebb9f097d57f3d3028d64b00cc97a40058"),
    "uniform-x-exp1-max1": (500, 500, "a58401bd1f8e589acd1a70a52b9191bdfcee848add403b3f742dece2ed3b3b88"),
    "uniform-x-exp1-max49": (2000, 29, "fb66364b14af7ecf50e24ebab2b2363eca0662870f3128180b34ceeab3dd022f"),
    "levy-half-eps1e-3": (2000, 0, "3a8d578a1398e4e724b1dfb06dbabf02a0b61a2580ecde710c926425ec623641"),
    "u01-x-logpareto1.2": (3000, 0, "9a19b18c46c8ae91927b7a67761710282e5ed2a098a23105c70c681e10e4b87a"),
}


def _digest(name, spans=None):
    """(n_truncated, n_exhausted, sha256) of a case's batch, drawn by
    sample_batch or by ``spans`` even _batch_chunk spans sorted together."""
    joint, kwargs, n = CASES[name]
    cfg = PerpetuityConfig(joint, seed=SEED, **kwargs)
    if spans is None:
        emp = sample_batch(cfg, n)
        values, n_truncated, n_exhausted = emp.samples, emp.n_truncated, emp.n_exhausted
    else:
        cuts = np.linspace(0, n, spans + 1).astype(int)
        chunks = [_batch_chunk(cfg, range(a, b)) for a, b in zip(cuts[:-1], cuts[1:])]
        values = np.sort(np.concatenate([c[0] for c in chunks]))
        n_truncated, n_exhausted = (sum(c[k] for c in chunks) for k in (1, 2))
    return n_truncated, n_exhausted, hashlib.sha256(values.tobytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_batch_bytes_match_per_draw_sampler(name):
    assert _digest(name) == DIGESTS[name]


def test_batch_bytes_match_when_chunked():
    assert _digest("uniform-x-exp1-max49", spans=3) == DIGESTS["uniform-x-exp1-max49"]


def _reference_draw(joint, epsilon, max_terms, stream):
    """The per-draw sampler, one 48-pair block at a time: (value, terms, truncated, exhausted).

    Each block's products run on from the carried one, and its terms fill a
    48-slot row of zeros; at the first zero factor or |product| <= epsilon the
    slots after the stop are zeroed and the row's sum ends the draw.
    """
    total, pi, terms = 0.0, 1.0, 0
    while terms < max_terms:
        block = min(48, max_terms - terms)
        ms, qs = joint.draw_pairs(stream, block)
        run = np.cumprod(np.concatenate([[pi], ms]))
        row = np.zeros(48)
        row[:block] = run[:-1] * qs
        stop = np.flatnonzero((ms == 0.0) | (np.abs(run[1:]) <= epsilon))
        if stop.size:
            j = int(stop[0])
            row[j + 1 :] = 0.0
            return total + float(np.sum(row)), terms + j + 1, bool(ms[j] != 0.0), False
        total += float(np.sum(row))
        pi = float(run[-1])
        terms += block
    return total, terms, True, True


M_LAWS = st.one_of(
    st.builds(Beta, st.floats(0.5, 20.0), st.floats(0.5, 3.0)),
    # st.floats almost never gives exactly 1.0, which selects beta's inversion
    st.builds(Beta, st.floats(0.5, 20.0), st.just(1.0)),
    st.builds(Beta, st.just(1.0), st.floats(0.5, 3.0)),
    st.builds(UniformContinuous, st.floats(-0.9, 0.0), st.floats(0.1, 0.99)),
    st.builds(Weibull, st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.05, 0.8)),
    st.builds(PointMass, st.floats(-0.95, 0.95)),
    st.builds(SignedRademacher, st.floats(0.1, 0.95)),
    st.builds(lambda p: FiniteDiscrete((0.0, 0.5, 1.0), (p, 0.5 - p / 2, 0.5 - p / 2)),
              st.floats(0.05, 0.9)),
)
Q_LAWS = st.one_of(
    st.builds(Exponential, st.floats(0.2, 5.0)),
    st.builds(Gamma, st.floats(0.3, 4.0), st.floats(0.5, 2.0)),
    st.builds(InverseGamma, st.floats(0.5, 3.0), st.floats(0.1, 2.0)),
    st.builds(Poisson, st.floats(0.5, 5.0)),
    st.builds(UniformDiscreteRange, st.integers(1, 7)),
    st.builds(SignedRademacher, st.floats(0.5, 2.0)),
    st.builds(PointMass, st.floats(-2.0, 2.0)),
    st.builds(LogPareto, st.floats(1.1, 3.0)),
)
JOINTS = st.one_of(
    st.builds(Independent, M_LAWS, Q_LAWS),
    st.just(FiniteJoint(((0.5, 1.0, 0.5), (-0.9, -2.0, 0.3), (1.5, 0.5, 0.2)))),
    st.just(FiniteJoint(((0.0, 3.0, 0.2), (0.8, -1.0, 0.8)))),
)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(joint=JOINTS,
       epsilon=st.sampled_from([1e-15, 1e-9, 1e-3, 0.2]),
       max_terms=st.one_of(st.sampled_from([1, 47, 48, 49, 96, 97, 10 ** 6]),
                           st.integers(1, 400)),
       seed=st.integers(0, 2 ** 63),
       n=st.integers(1, 150))
def test_batch_values_are_per_draw_values(joint, epsilon, max_terms, seed, n):
    cfg = PerpetuityConfig(joint, epsilon=epsilon, max_terms=max_terms, seed=seed)
    try:
        outs = [sample_perpetuity(cfg, RandomStream(seed, i)) for i in range(n)]
    except NonConvergentError:
        assume(False)
    refs = [_reference_draw(joint, epsilon, max_terms, RandomStream(seed, i))
            for i in range(n)]
    values, n_truncated, n_exhausted = _batch_chunk(cfg, range(n))
    assert values.tobytes() == np.array([o.value for o in outs]).tobytes()
    assert values.tobytes() == np.array([r[0] for r in refs]).tobytes()
    assert [(o.terms, o.truncated, o.exhausted) for o in outs] == [r[1:] for r in refs]
    assert n_truncated == sum(o.truncated for o in outs)
    assert n_exhausted == sum(o.exhausted for o in outs)



def test_long_path_batch_values_are_per_draw_values():
    # paths of about 34,500 terms, past the 341 rows of one wave: the first
    # wave's draws run on together, and later draws start as paths
    joint = Independent(UniformContinuous(0.998, 1.0), Exponential(1.0))
    cfg = PerpetuityConfig(joint, max_terms=34_500, seed=SEED)
    refs = [_reference_draw(joint, cfg.epsilon, cfg.max_terms, RandomStream(SEED, i))
            for i in range(40)]
    values, n_truncated, n_exhausted = _batch_chunk(cfg, range(40))
    assert values.tobytes() == np.array([r[0] for r in refs]).tobytes()
    assert (n_truncated, n_exhausted) == (40, sum(r[3] for r in refs))
    assert 0 < n_exhausted < 40


# two-atom M laws whose paths overflow float64 in a few terms, then stay
# infinite: an infinite product times a tiny factor is still infinite
OVERFLOW_M = st.builds(lambda big, small, p: FiniteDiscrete((big, small), (p, 1.0 - p)),
                       st.floats(1e150, 1e250), st.floats(1e-300, 1e-260),
                       st.floats(0.1, 0.9))
OVERFLOW_Q = st.one_of(st.builds(Exponential, st.floats(0.2, 5.0)),
                       st.builds(SignedRademacher, st.floats(0.5, 2.0)),
                       st.just(UniformContinuous(-1.0, 2.0)))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(law_m=OVERFLOW_M, law_q=OVERFLOW_Q, epsilon=st.sampled_from([1e-15, 5e-324]),
       max_terms=st.integers(1, 400), seed=st.integers(0, 2 ** 63), n=st.integers(1, 100))
def test_overflowed_batch_values_are_per_draw_values(law_m, law_q, epsilon, max_terms, seed, n):
    joint = Independent(law_m, law_q)
    cfg = PerpetuityConfig(joint, epsilon=epsilon, max_terms=max_terms, seed=seed)
    refs = [_reference_draw(joint, epsilon, max_terms, RandomStream(seed, i))
            for i in range(n)]
    values, n_truncated, n_exhausted = _batch_chunk(cfg, range(n))
    assert values.tobytes() == np.array([r[0] for r in refs]).tobytes()
    assert (n_truncated, n_exhausted) == (sum(r[2] for r in refs), sum(r[3] for r in refs))


# factors that stop a path, underflow it or overflow it, and terms at the
# float limits
_EDGE_MS = np.array([0.0, -0.0, 5e-324, -1e-310, 1e300, -1e300, 1.0])
_EDGE_QS = np.array([0.0, 5e-324, 1e300, -1e300])


@settings(max_examples=200, deadline=None)
@given(paths=st.integers(1, 6), rows=st.integers(2, 6), short=st.integers(0, 47),
       last=st.booleans(), cut=st.integers(1, 5), lo=st.sampled_from([0.2, 0.9, 0.99]),
       edges=st.sampled_from([0.0, 0.003, 0.03]),
       epsilon=st.sampled_from([1e-15, 5e-324, 0.2]), seed=st.integers(0, 2 ** 32 - 1))
def test_kernel_stages_split_at_any_block(paths, rows, short, last, cut, lo, edges,
                                          epsilon, seed):
    # a path's pairs split at a multiple of 48 into two calls that carry pi
    # and total give the stops and values of one call, bit for bit
    rng = np.random.default_rng(seed)
    size = rows * 48 - (short if last else 0)
    cut = 48 * min(cut, rows - 1)
    shape = (paths, size)
    ms = rng.choice([-1.0, 1.0], shape) * rng.uniform(lo, 1.05, shape)
    ms = np.where(rng.random(shape) < edges, rng.choice(_EDGE_MS, shape), ms)
    qs = rng.standard_normal(shape)
    qs = np.where(rng.random(shape) < edges, rng.choice(_EDGE_QS, shape), qs)
    pi0, total0 = rng.choice([1.0, -0.5, 1e300], paths), rng.standard_normal(paths)
    whole = _accumulate(ms, qs, epsilon, pi0, total0, last)
    first = _accumulate(ms[:, :cut], qs[:, :cut], epsilon, pi0, total0, False)
    on = first[0] < 0
    second = _accumulate(ms[on, cut:], qs[on, cut:], epsilon, first[4][on], first[1][on], last)
    stop, total, truncated, exhausted, pi = (x.copy() for x in first)
    for x, y in zip((stop, total, truncated, exhausted, pi), second):
        x[on] = y
    stop[on] = np.where(second[0] >= 0, cut + second[0], -1)
    assert stop.tolist() == whole[0].tolist()
    assert total.tobytes() == whole[1].tobytes()
    done = stop >= 0
    assert truncated[done].tolist() == whole[2][done].tolist()
    assert exhausted.tolist() == whole[3].tolist()
    assert pi[~done].tobytes() == whole[4][~done].tobytes()
    assert last or not exhausted.any()


def _reference_digest(name):
    """(n_truncated, n_exhausted, sha256) of a case's draws made one at a time
    by ``_reference_draw`` and sorted."""
    joint, kwargs, n = CASES[name]
    cfg = PerpetuityConfig(joint, seed=SEED, **kwargs)
    refs = [_reference_draw(joint, cfg.epsilon, cfg.max_terms, RandomStream(SEED, i))
            for i in range(n)]
    values = np.sort(np.array([r[0] for r in refs]))
    return (sum(r[2] for r in refs), sum(r[3] for r in refs),
            hashlib.sha256(values.tobytes()).hexdigest())


if __name__ == "__main__":
    with np.errstate(over="ignore", invalid="ignore"):
        for case in sorted(CASES):
            print(f'    "{case}": {_reference_digest(case)},')

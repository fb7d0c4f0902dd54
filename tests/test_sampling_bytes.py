"""The batched sampler reproduces the per-draw sampler bit for bit.

``DIGESTS`` holds SHA-256 digests of ``sample_batch(...).samples.tobytes()``
computed with the per-draw 48-pair-block sampler of commit 7f9a274, before
draws were batched.  Regenerate the table from a checkout of that commit
(or any later one) with

    PYTHONPATH=<checkout>/src python tests/test_sampling_bytes.py

which prints one line per case in the format of ``DIGESTS``.
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
from perpetua.sampling import (PerpetuityConfig, _batch_chunk, sample_batch,
                               sample_perpetuity)
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
    "gamma-sizebias-a1": (3000, 0, "0209a5cb2170858d7c10336a62b2ced34ea7b7ef3ec34cb2d90a11d84096bf9e"),
    "levy-half-b1": (3000, 0, "2ea0404069681839c62519327aba53996d800dcdfd9a62f074dcc6229489fec7"),
    "uniform-x-exp1": (3000, 0, "80bd2918b1042b3ab05ca9013c6257cf9d71fbdff7615958c447d704ff570532"),
    "beta19-x-exp1": (1000, 0, "54ade23b5ab7a558088af6cda0ad6aeb71aed16dc74532030fd60270527d3398"),
    "u0.9-x-gamma2": (1000, 0, "56b73adeda7e2d4a8e646411b5690656f3121ce101df56d6df5e1dce25640006"),
    "finite-joint": (2000, 0, "2ea4c22b22ecdf8bfc5a8de4ef7de087960ba3bbd704d747fd84b5cf638f7b5e"),
    "uniform-x-exp1-max47": (2000, 58, "f57ef88f8a91ce326d02c0724ff9a0fd16d09d0f38289d7fc7c3feaddbd55eed"),
    "u0.4-x-exp1-max100": (2000, 80, "eb17d2046497d7a488433ca1edc9e0ebb9f097d57f3d3028d64b00cc97a40058"),
    "uniform-x-exp1-max1": (500, 500, "a58401bd1f8e589acd1a70a52b9191bdfcee848add403b3f742dece2ed3b3b88"),
    "uniform-x-exp1-max49": (2000, 29, "9065b84ccc6728c9706b2bcce407cdfd714d388fe2952329a86db3fb01c53289"),
    "levy-half-eps1e-3": (2000, 0, "8801015725d6c33c88b2517aefd3e85e6f5cc5c924c6106039e77161da6eaddd"),
    "u01-x-logpareto1.2": (3000, 0, "e7e602beb64339ce1a4a649df8dfb70da4c5a12f6272b9b59c682ccbf7141284"),
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
    """The per-draw sampler, one 48-pair block at a time: (value, terms, truncated, exhausted)."""
    total, pi, terms = 0.0, 1.0, 0
    while terms < max_terms:
        block = min(48, max_terms - terms)
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
            return total + float(np.sum(contrib[: j + 1])), terms + j + 1, bool(ms[j] != 0.0), False
        total += float(np.sum(contrib))
        pi = float(run[-1])
        terms += block
    return total, terms, True, True


M_LAWS = st.one_of(
    st.builds(Beta, st.floats(0.5, 20.0), st.floats(0.5, 3.0)),
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

if __name__ == "__main__":
    for case in sorted(CASES):
        print(f'    "{case}": {_digest(case)},')

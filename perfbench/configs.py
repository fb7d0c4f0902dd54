"""Config generator for the analyze-mix workload.

Every generated request carries the outcome the benchmark expects: exit 2
for an invalid config, and otherwise exit 0 with a known existence verdict.
The kinds are built so that the verdict follows from the construction:

  contracting  |M| < 1 a.s.           -> converges-a.s.
  boundary     P{|M| = 1} in (0, 1)   -> converges-a.s. (bisected r*)
  expanding    P{|M| > 1} > 0, E log|M| < 0 -> converges-a.s.
  exact-stop   P{M = 0} > 0           -> exact-stop
  divergent    E log|M| >= 0, or E log+|Q| = inf -> diverges-in-probability
  degenerate   Q + M c = c a.s.       -> trivial-degenerate
  invalid      malformed JSON or laws -> exit 2

All twelve law families and both couplings occur.
"""

from __future__ import annotations

import json

VERDICT = {
    "contracting": "converges-a.s.",
    "boundary": "converges-a.s.",
    "expanding": "converges-a.s.",
    "exact-stop": "exact-stop",
    "divergent": "diverges-in-probability",
    "degenerate": "trivial-degenerate",
}

# One cycle of request kinds; requests walk through shuffled cycles, so
# every seed sends the kinds in the same proportions.  No measured traffic
# exists to weigh them by, so each kind the benchmark covers (three abscissa
# regimes, three other verdicts, invalid input) gets the same weight.
KIND_CYCLE = ("contracting", "boundary", "expanding", "exact-stop", "divergent",
              "degenerate", "invalid")

# The --p lists of the repository's own analyze examples: README.md asks for
# --p 1 --p 2, tests/test_cli.py for --p 0.5 --p 2.0 and for --p 1.0.
P_CHOICES = ((1.0, 2.0), (0.5, 2.0), (1.0,))


def _law(family, **params):
    return {"family": family, "params": params}


def _probs(rng, k):
    w = rng.uniform(0.2, 1.0, k)
    return [float(x) for x in w / w.sum()]


def _signed(rng, lo, hi):
    """A value with |v| in (lo, hi) and a random sign."""
    return float(rng.uniform(lo, hi) * rng.choice((-1.0, 1.0)))


def _distinct(rng, k, draw):
    vals = []
    while len(vals) < k:
        v = draw()
        if v not in vals:
            vals.append(v)
    return vals


def _q_law(rng):
    """A non-constant Q law with E log+|Q| < inf."""
    u = rng.uniform
    choice = int(rng.integers(11))
    if choice == 0:
        return _law("exponential", rate=float(u(0.5, 3.0)))
    if choice == 1:
        return _law("gamma", shape=float(u(0.5, 4.0)), rate=float(u(0.5, 3.0)))
    if choice == 2:
        return _law("weibull", shape=float(u(0.5, 3.0)), scale=float(u(0.5, 2.0)))
    if choice == 3:
        return _law("poisson", mean=float(u(0.5, 5.0)))
    if choice == 4:
        return _law("inverse_gamma", shape=float(u(1.5, 4.0)), scale=float(u(0.5, 2.0)))
    if choice == 5:
        return _law("uniform", lo=float(u(-2.0, 0.0)), hi=float(u(0.1, 2.0)))
    if choice == 6:
        return _law("signed_rademacher", scale=float(u(0.5, 2.0)))
    if choice == 7:
        k = int(rng.integers(2, 5))
        vals = _distinct(rng, k, lambda: float(u(-3.0, 3.0)))
        return _law("finite_discrete", values=vals, probs=_probs(rng, k))
    if choice == 8:
        return _law("uniform_discrete_range", n=int(rng.integers(2, 11)))
    if choice == 9:
        return _law("log_pareto", index=float(u(1.5, 4.0)))
    return _law("beta", alpha=float(u(0.5, 5.0)), beta=float(u(0.5, 5.0)))


def _contracting_m(rng):
    u = rng.uniform
    choice = int(rng.integers(5))
    if choice == 0:
        lo = float(u(0.0, 0.5))
        return _law("uniform", lo=lo, hi=float(u(lo + 0.05, 0.99)))
    if choice == 1:
        return _law("beta", alpha=float(u(0.5, 5.0)), beta=float(u(0.5, 5.0)))
    if choice == 2:
        return _law("point_mass", value=_signed(rng, 0.05, 0.95))
    if choice == 3:
        k = int(rng.integers(2, 5))
        vals = _distinct(rng, k, lambda: _signed(rng, 0.05, 0.95))
        return _law("finite_discrete", values=vals, probs=_probs(rng, k))
    return _law("signed_rademacher", scale=float(u(0.1, 0.95)))


def _joint_atoms(rng, ms):
    """finite_joint atoms over the given M values with random nonzero Q values."""
    probs = _probs(rng, len(ms))
    return [[m, _signed(rng, 0.1, 3.0), p] for m, p in zip(ms, probs)]


def _independent(m, q):
    return {"coupling": "independent", "M": m, "Q": q}


def _finite_joint(atoms):
    return {"coupling": "finite_joint", "atoms": atoms}


def _contracting(rng):
    if rng.random() < 0.2:
        k = int(rng.integers(2, 5))
        ms = [_signed(rng, 0.05, 0.95) for _ in range(k)]
        return _finite_joint(_joint_atoms(rng, ms))
    return _independent(_contracting_m(rng), _q_law(rng))


def _boundary(rng):
    k = int(rng.integers(1, 3))
    unit = [float(rng.choice((-1.0, 1.0)))]
    ms = unit + _distinct(rng, k, lambda: _signed(rng, 0.05, 0.9))
    if rng.random() < 0.25:
        return _finite_joint(_joint_atoms(rng, ms))
    probs = _probs(rng, len(ms))
    u = rng.uniform
    q = [_law("exponential", rate=float(u(0.5, 3.0))),
         _law("gamma", shape=float(u(0.5, 3.0)), rate=float(u(0.5, 3.0))),
         _law("uniform", lo=float(u(-2.0, 0.0)), hi=float(u(0.1, 2.0)))][int(rng.integers(3))]
    return _independent(_law("finite_discrete", values=ms, probs=probs), q)


def _expanding(rng):
    u = rng.uniform
    choice = int(rng.integers(5))
    if choice == 0:
        # p log b + (1 - p) log s < 0.3 log 3 + 0.7 log 0.3 < 0
        p = float(u(0.05, 0.3))
        m = _law("finite_discrete", values=[float(u(1.1, 3.0)), float(u(0.01, 0.3))],
                 probs=[p, 1.0 - p])
    elif choice == 1:
        m = _law("exponential", rate=float(u(1.0, 4.0)))          # E log M = -gamma - log rate
    elif choice == 2:
        m = _law("gamma", shape=float(u(0.5, 2.0)), rate=float(u(2.0, 5.0)))
    elif choice == 3:
        m = _law("weibull", shape=float(u(0.5, 3.0)), scale=float(u(0.2, 0.8)))
    else:
        m = _law("inverse_gamma", shape=float(u(1.0, 3.0)), scale=float(u(0.1, 0.5)))
    return _independent(m, _q_law(rng))


def _exact_stop(rng):
    u = rng.uniform
    choice = int(rng.integers(5))
    if choice == 0:
        m = _law("uniform_discrete_range", n=int(rng.integers(2, 6)))
    elif choice == 1:
        m = _law("poisson", mean=float(u(0.2, 2.0)))
    elif choice == 2:
        vals = [0.0] + _distinct(rng, 2, lambda: _signed(rng, 0.1, 2.0))
        m = _law("finite_discrete", values=vals, probs=_probs(rng, 3))
    elif choice == 3:
        m = _law("point_mass", value=0.0)
    else:
        ms = [0.0] + [_signed(rng, 0.1, 2.0) for _ in range(2)]
        return _finite_joint(_joint_atoms(rng, ms))
    return _independent(m, _q_law(rng))


def _divergent(rng):
    u = rng.uniform
    choice = int(rng.integers(5))
    if choice == 0:
        return _independent(_contracting_m(rng), _law("log_pareto", index=float(u(0.3, 1.0))))
    if choice == 1:
        m = _law("point_mass", value=_signed(rng, 1.0, 3.0))
    elif choice == 2:
        m = _law("uniform", lo=float(u(1.0, 2.0)), hi=float(u(2.1, 4.0)))
    elif choice == 3:
        m = _law("log_pareto", index=float(u(0.5, 4.0)))
    else:
        m = _law("signed_rademacher", scale=float(u(1.0, 3.0)))
    return _independent(m, _q_law(rng))


def _degenerate(rng):
    choice = int(rng.integers(3))
    if choice == 0:
        return _independent(_law("point_mass", value=_signed(rng, 0.05, 0.95)),
                            _law("point_mass", value=_signed(rng, 0.1, 3.0)))
    if choice == 1:
        return _independent(_contracting_m(rng), _law("point_mass", value=0.0))
    c = _signed(rng, 0.1, 3.0)
    ms = _distinct(rng, int(rng.integers(2, 4)), lambda: _signed(rng, 0.05, 0.95))
    probs = _probs(rng, len(ms))
    return _finite_joint([[m, c * (1.0 - m), p] for m, p in zip(ms, probs)])


def _invalid(rng):
    """Text of a config that ``analyze`` must reject with exit 2."""
    good = _independent(_contracting_m(rng), _q_law(rng))
    choice = int(rng.integers(9))
    if choice == 0:
        good["M"] = _law("lognormal", mu=0.0, sigma=1.0)
    elif choice == 1:
        good["Q"] = _law("exponential", rate=-float(rng.uniform(0.1, 2.0)))
    elif choice == 2:
        good["M"] = _law("uniform", lo=0.9, hi=0.1)
    elif choice == 3:
        good["M"] = _law("finite_discrete", values=[0.5, 0.25], probs=[0.5, 0.6])
    elif choice == 4:
        del good["Q"]
    elif choice == 5:
        good = {"coupling": "copula", "atoms": [[0.5, 1.0, 1.0]]}
    elif choice == 6:
        good = _finite_joint([[0.5, 1.0]])
    elif choice == 7:
        good["epsilon"] = float(rng.uniform(1.0, 5.0))
    else:
        return json.dumps(good)[:-1]          # truncated JSON text
    return json.dumps(good)


_MAKERS = {
    "contracting": _contracting, "boundary": _boundary, "expanding": _expanding,
    "exact-stop": _exact_stop, "divergent": _divergent, "degenerate": _degenerate,
}


def kinds(rng):
    """Endless sequence of request kinds in shuffled ``KIND_CYCLE`` order."""
    while True:
        yield from (KIND_CYCLE[i] for i in rng.permutation(len(KIND_CYCLE)))


def make_request(rng, kind):
    """(config file text, argv tail of --p flags, expected outcome)."""
    ps = P_CHOICES[int(rng.integers(len(P_CHOICES)))]
    argv = [a for p in ps for a in ("--p", repr(p))]
    if kind == "invalid":
        return _invalid(rng), argv, {"kind": kind, "exit": 2}
    text = json.dumps(_MAKERS[kind](rng))
    return text, argv, {"kind": kind, "exit": 0, "verdict": VERDICT[kind]}

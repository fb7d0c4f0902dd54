"""Every law functional and ``analyze --json`` report against a golden table.

``tests/analysis_golden.json`` maps one row per (law, functional) to the
functional's values over a fixed argument grid, each float written with
``float.hex`` and each raised error as ``!<ErrorClass>``.  It covers all
twelve families over the parameter ranges of ``perfbench/configs.py``, the
two ``FiniteJoint`` laws of ``tests/test_sampling_bytes.py`` (their
marginals and ``restricted_exp_moment``), and
the SHA-256 of the compact ``analyze --json`` output for a fixed config list.
Regenerate the table with

    PYTHONPATH=src python tests/test_analysis_golden.py > tests/analysis_golden.json
"""

import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile

import pytest

from perpetua.cli import main
from perpetua.laws import (FAMILIES, Beta, Exponential, FiniteDiscrete,
                           FiniteJoint, Gamma, Independent, InverseGamma,
                           LogPareto, PointMass, Poisson, SignedRademacher,
                           UniformContinuous, UniformDiscreteRange, Weibull,
                           joint_to_json)

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "analysis_golden.json")

LAWS = [
    PointMass(0.0), PointMass(0.5), PointMass(-0.95), PointMass(1.0), PointMass(-1.0),
    PointMass(2.5), PointMass(-3.0),
    FiniteDiscrete((0.0, 1.0), (0.3, 0.7)),
    FiniteDiscrete((0.5, -0.25), (0.4, 0.6)),
    FiniteDiscrete((1.0, 0.5, -0.3), (0.1, 0.2, 0.7)),
    FiniteDiscrete((-1.0, 0.8), (0.25, 0.75)),
    FiniteDiscrete((2.5, 0.1), (0.2, 0.8)),
    FiniteDiscrete((0.0, -1.7, 1.3, 2.9), (0.1, 0.2, 0.3, 0.4)),
    FiniteDiscrete((-1.0, 1.0), (0.3, 0.7)),
    FiniteDiscrete((3.0, 0.2, 0.7), (0.5, 0.0, 0.5)),
    UniformContinuous(0.0, 1.0), UniformContinuous(-2.0, 0.1),
    UniformContinuous(0.9, 0.99), UniformContinuous(1.0, 2.1),
    UniformContinuous(-0.9, 0.5), UniformContinuous(-2.0, 2.0),
    UniformDiscreteRange(1), UniformDiscreteRange(2), UniformDiscreteRange(5),
    UniformDiscreteRange(10),
    Exponential(0.5), Exponential(1.0), Exponential(3.0), Exponential(4.0),
    Gamma(0.5, 0.5), Gamma(4.0, 3.0), Gamma(2.0, 5.0), Gamma(1.0, 1.0),
    Beta(0.5, 0.5), Beta(5.0, 5.0), Beta(19.0, 1.0), Beta(1.0, 1.0),
    Weibull(0.5, 0.5), Weibull(3.0, 2.0), Weibull(1.0, 0.2), Weibull(0.5, 1.0),
    Poisson(0.2), Poisson(0.5), Poisson(2.0), Poisson(5.0), Poisson(50.0),
    InverseGamma(1.5, 0.5), InverseGamma(4.0, 2.0), InverseGamma(1.0, 0.1),
    InverseGamma(3.0, 0.5),
    SignedRademacher(0.1), SignedRademacher(0.95), SignedRademacher(1.0),
    SignedRademacher(3.0),
    LogPareto(0.3), LogPareto(1.0), LogPareto(1.5), LogPareto(4.0),
]

JOINTS = {
    "finite-joint-a": FiniteJoint(((0.5, 1.0, 0.5), (-0.9, -2.0, 0.3), (1.5, 0.5, 0.2))),
    "finite-joint-b": FiniteJoint(((0.0, 3.0, 0.2), (0.8, -1.0, 0.8))),
    "boundary-independent": Independent(FiniteDiscrete((1.0, 0.5, -0.3), (0.1, 0.2, 0.7)),
                                        Exponential(2.0)),
    "uniform-x-exp": Independent(UniformContinuous(0.0, 1.0), Exponential(1.0)),
}

XS = (-3.5, -1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 2.0, 3.0, 10.0)
PS = (0.5, 1.0, 2.0, 3.5, 40.0)
SS = (-2.0, -0.5, 0.0, 0.1, 0.5, 2.0)


def _law(family, **params):
    return {"family": family, "params": params}


def _indep(m, q):
    return {"coupling": "independent", "M": m, "Q": q}


# (config, argv tail) for analyze --json
ANALYZE = [
    (_indep(_law("beta", alpha=1.0, beta=1.0), _law("exponential", rate=1.0)),
     ["--p", "0.5", "--p", "2.0"]),
    (_indep(_law("finite_discrete", values=[0.0, 1.0], probs=[0.3, 0.7]),
            _law("point_mass", value=1.0)), ["--p", "1.0"]),
    (_indep(_law("finite_discrete", values=[1.0, 0.5, -0.3], probs=[0.1, 0.2, 0.7]),
            _law("exponential", rate=2.0)), ["--p", "1.0", "--p", "2.0"]),
    (_indep(_law("finite_discrete", values=[-1.0, 0.8], probs=[0.25, 0.75]),
            _law("gamma", shape=2.0, rate=1.5)), ["--p", "1.0"]),
    (_indep(_law("signed_rademacher", scale=1.0), _law("poisson", mean=2.0)), []),
    (_indep(_law("finite_discrete", values=[2.5, 0.1], probs=[0.2, 0.8]),
            _law("uniform_discrete_range", n=5)), ["--p", "0.5", "--p", "2.0"]),
    (_indep(_law("uniform", lo=-0.9, hi=0.5), _law("poisson", mean=5.0)),
     ["--p", "1.0", "--p", "2.0", "--p", "40.0"]),
    (_indep(_law("point_mass", value=0.5), _law("signed_rademacher", scale=1.0)),
     ["--p", "2.0"]),
    (_indep(_law("weibull", shape=0.5, scale=0.5), _law("inverse_gamma", shape=1.5, scale=0.5)),
     ["--p", "1.0", "--p", "2.0"]),
    (_indep(_law("signed_rademacher", scale=0.95), _law("log_pareto", index=1.5)),
     ["--p", "1.0"]),
    (_indep(_law("uniform", lo=0.0, hi=1.0), _law("log_pareto", index=0.3)), []),
    (_indep(_law("poisson", mean=0.5), _law("uniform", lo=-2.0, hi=0.1)), ["--p", "1.0"]),
    (_indep(_law("uniform_discrete_range", n=5), _law("beta", alpha=0.5, beta=0.5)), []),
    (_indep(_law("point_mass", value=-0.95), _law("point_mass", value=3.0)), ["--p", "1.0"]),
    (_indep(_law("log_pareto", index=2.0), _law("exponential", rate=1.0)), []),
    (_indep(_law("exponential", rate=3.0), _law("weibull", shape=3.0, scale=2.0)),
     ["--p", "1.0", "--p", "2.0"]),
    (_indep(_law("gamma", shape=2.0, rate=5.0), _law("uniform_discrete_range", n=10)),
     ["--p", "1.0"]),
    (_indep(_law("inverse_gamma", shape=3.0, scale=0.5), _law("poisson", mean=0.5)),
     ["--p", "0.5"]),
    ({"coupling": "finite_joint", "atoms": [[0.5, 1.0, 0.5], [-0.9, -2.0, 0.3],
                                           [1.5, 0.5, 0.2]]}, ["--p", "1.0", "--p", "2.0"]),
    ({"coupling": "finite_joint", "atoms": [[1.0, 0.5, 0.4], [-1.0, -0.25, 0.1],
                                           [0.3, 2.0, 0.5]]}, ["--p", "1.0"]),
    ({"coupling": "finite_joint", "atoms": [[0.5, 1.0, 0.6], [0.25, 1.5, 0.4]]}, []),
    (_indep(_law("beta", alpha=1.0, beta=1.0), _law("exponential", rate=1.0)),
     ["--p", "1.0", "--n", "300", "--seed", "4"]),
]


def _enc(x):
    """Exact text of a functional's value: floats as float.hex, tuples flattened."""
    if x is None:
        return "None"
    if isinstance(x, bool):
        return str(x)
    if isinstance(x, (int, float)):
        return float(x).hex()
    if isinstance(x, (tuple, list)):
        return "(" + " ".join(_enc(v) for v in x) + ")"
    if isinstance(x, dict):
        return "{" + " ".join(f"{k}:{_enc(v)}" for k, v in x.items()) + "}"
    raise TypeError(f"cannot encode {x!r}")


def _call(fn, *args):
    try:
        return _enc(fn(*args))
    except Exception as exc:  # the error class is part of the contract
        return f"!{type(exc).__name__}"


def _grid(fn, args):
    return " ".join(_call(fn, *a) for a in args)


def law_rows(name, law):
    rows = {
        "point_prob": _grid(law.point_prob, [(x,) for x in XS]),
        "has_atom_at": _grid(law.has_atom_at, [(x,) for x in XS]),
        "support": _call(law.support),
        "abs_moment": _grid(law.abs_moment, [(p,) for p in PS]),
        "exp_moment": _grid(law.exp_moment, [(s,) for s in SS]),
        "exp_abscissa": _call(law.exp_abscissa),
        "log_abs_mean": _call(law.log_abs_mean),
        "log_plus_abs_finite": _call(law.log_plus_abs_finite),
        "as_point": _call(law.as_point),
        "finite_atoms": _call(law.finite_atoms),
        "params_json": _call(law.params_json),
    }
    return {f"{name}.{k}": v for k, v in rows.items()}


def _law_name(law):
    return f"{law.family}{json.dumps(law.params_json(), separators=(',', ':'))}"


def _analyze_digest(config, argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["analyze", path, *argv, "--json"])
    return f"{code} {hashlib.sha256(out.getvalue().encode()).hexdigest()}"


def golden_rows():
    """Every row of the table, computed from the library as it stands."""
    rows = {}
    for law in LAWS:
        rows.update(law_rows(_law_name(law), law))
    for name, joint in JOINTS.items():
        rows[f"{name}.to_json"] = json.dumps(joint_to_json(joint), separators=(",", ":"))
        rows[f"{name}.restricted_exp_moment"] = _grid(
            lambda s, sign, atom: joint.restricted_exp_moment(s, sign, atom),
            [(s, sign, atom) for s in (0.0, 0.5, 2.0) for sign in (-1, 1)
             for atom in (1.0, -1.0, 0.5)])
        rows.update(law_rows(f"{name}.M", joint.marginal_m()))
        rows.update(law_rows(f"{name}.Q", joint.marginal_q()))
    for i, (config, argv) in enumerate(ANALYZE):
        key = f"analyze[{i:02d}] {json.dumps(config, separators=(',', ':'))} {' '.join(argv)}"
        rows[key] = _analyze_digest(config, argv)
    return rows


@pytest.fixture(scope="module")
def rows():
    return golden_rows()


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def test_rows_match_golden(rows, golden):
    changed = {k: (golden[k], rows.get(k)) for k in golden if rows.get(k) != golden[k]}
    assert changed == {}


def test_table_covers_every_row(rows, golden):
    assert sorted(rows) == sorted(golden)


def test_table_covers_every_family():
    assert {law.family for law in LAWS} == set(FAMILIES)


def test_log_minus_mean_is_finite_without_an_atom_at_zero():
    # the analytic tail-integral verdict needs E log^- |M| < inf whenever
    # P{M = 0} = 0; a family without it would get a wrong verdict
    marginals = [law for j in JOINTS.values() for law in (j.marginal_m(), j.marginal_q())]
    for law in LAWS + marginals:
        if not law.has_atom_at(0.0):
            assert law.log_abs_mean() > -math.inf, law


if __name__ == "__main__":
    json.dump(golden_rows(), sys.stdout, indent=0, sort_keys=True)
    sys.stdout.write("\n")

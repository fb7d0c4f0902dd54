import argparse
import contextlib
import io
import json
import os
import tempfile
import time
import warnings

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perpetua import laws
from perpetua.cli import entry, main

BETA_EXP = {
    "coupling": "independent",
    "M": {"family": "beta", "params": {"alpha": 1.0, "beta": 1.0}},
    "Q": {"family": "exponential", "params": {"rate": 1.0}},
}
HALF_ONE = {
    "coupling": "independent",
    "M": {"family": "point_mass", "params": {"value": 0.5}},
    "Q": {"family": "point_mass", "params": {"value": 1.0}},
}
GEOMETRIC = {
    "coupling": "independent",
    "M": {"family": "finite_discrete",
          "params": {"values": [0.0, 1.0], "probs": [0.3, 0.7]}},
    "Q": {"family": "point_mass", "params": {"value": 1.0}},
}
EXPANDING = {
    "coupling": "independent",
    "M": {"family": "point_mass", "params": {"value": 2.0}},
    "Q": {"family": "exponential", "params": {"rate": 1.0}},
}
SLOW = {
    "coupling": "independent",
    "M": {"family": "point_mass", "params": {"value": 0.9999}},
    "Q": {"family": "point_mass", "params": {"value": 1.0}},
}
# converges a.s., yet about 1.3% of the draws overflow float64
OVERFLOWING = {
    "coupling": "independent",
    "M": {"family": "uniform", "params": {"lo": 0.0, "hi": 1.0}},
    "Q": {"family": "log_pareto", "params": {"index": 1.2}},
}
# E log M = -57.6, yet about a quarter of the draws overflow float64 to +inf
OVERFLOWING_PRODUCT = {
    "coupling": "independent",
    "M": {"family": "finite_discrete",
          "params": {"values": [1e200, 1e-250], "probs": [0.5, 0.5]}},
    "Q": {"family": "exponential", "params": {"rate": 1.0}},
}
# some draws are inf - inf inside a partial sum
SIGNED_HEAVY = {
    "coupling": "independent",
    "M": {"family": "uniform", "params": {"lo": -1.0, "hi": 0.5}},
    "Q": {"family": "log_pareto", "params": {"index": 1.01}},
}
# parameters just past what numpy's samplers accept
UNDRAWABLE = {
    "poisson": {"family": "poisson", "params": {"mean": 1e300}},
    "uniform_discrete_range": {"family": "uniform_discrete_range",
                               "params": {"n": 10 ** 30}},
}


def _reject_constant(token):
    raise ValueError(f"non-strict JSON constant {token}")


def _write(tmp_path, obj, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


# --- analyze -----------------------------------------------------------------


def test_analyze_report_structure(tmp_path, capsys):
    cfg = _write(tmp_path, BETA_EXP)
    code = main(["analyze", cfg, "--p", "0.5", "--p", "2.0", "--n", "500",
                 "--seed", "3"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"config", "existence", "moments", "abscissa",
                           "sample_summary"}
    assert report["existence"]["verdict"] == "converges-a.s."
    assert len(report["moments"]) == 2
    assert report["moments"][0]["p"] == 0.5
    assert report["moments"][0]["finite"] is True
    assert report["abscissa"]["r_Z"] == pytest.approx(1.0)
    assert report["sample_summary"]["n"] == 500


def test_analyze_without_sampling(tmp_path, capsys):
    cfg = _write(tmp_path, BETA_EXP)
    assert main(["analyze", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["sample_summary"] is None
    assert report["moments"] == []


def test_analyze_out_file(tmp_path, capsys):
    cfg = _write(tmp_path, BETA_EXP)
    out = tmp_path / "report.json"
    assert main(["analyze", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    report = json.loads(out.read_text())
    assert report["existence"]["verdict"] == "converges-a.s."


def test_analyze_compact_json(tmp_path, capsys):
    cfg = _write(tmp_path, BETA_EXP)
    assert main(["analyze", cfg, "--json"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("\n") and "\n" not in out[:-1]
    json.loads(out)


def test_analyze_degenerate_refusals(tmp_path, capsys):
    cfg = _write(tmp_path, {
        "coupling": "independent",
        "M": {"family": "point_mass", "params": {"value": 0.5}},
        "Q": {"family": "point_mass", "params": {"value": 0.0}},
    })
    assert main(["analyze", cfg, "--p", "1.0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["existence"]["verdict"] == "trivial-degenerate"
    assert "refused" in report["moments"][0]
    assert "refused" in report["abscissa"]


def test_analyze_missing_q_is_usage_error(tmp_path, capsys):
    cfg = _write(tmp_path, {"coupling": "independent",
                            "M": {"family": "point_mass", "params": {"value": 0.5}}})
    assert main(["analyze", cfg]) == 2
    assert "config.Q: required" in capsys.readouterr().err


def test_analyze_invalid_json_is_usage_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    assert main(["analyze", str(path)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_analyze_unreadable_file_is_usage_error(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "absent.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_analyze_sampling_non_convergent_exit(tmp_path, capsys):
    cfg = _write(tmp_path, EXPANDING)
    assert main(["analyze", cfg, "--n", "10"]) == 3
    assert "error:" in capsys.readouterr().err


def test_analyze_negative_n_is_usage_error(tmp_path, capsys):
    cfg = _write(tmp_path, BETA_EXP)
    assert main(["analyze", cfg, "--n", "-5"]) == 2
    assert "nonnegative" in capsys.readouterr().err


def test_analyze_unwritable_out_is_usage_error(tmp_path, capsys):
    cfg = _write(tmp_path, BETA_EXP)
    out = tmp_path / "missing-dir" / "report.json"
    assert main(["analyze", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
    assert captured.out == ""


def test_analyze_epsilon_flag_changes_truncation(tmp_path, capsys):
    cfg = _write(tmp_path, HALF_ONE)
    assert main(["analyze", cfg, "--n", "1", "--epsilon", "0.25"]) == 0
    coarse = json.loads(capsys.readouterr().out)["sample_summary"]["max"]
    assert main(["analyze", cfg, "--n", "1", "--epsilon", "1e-12"]) == 0
    fine = json.loads(capsys.readouterr().out)["sample_summary"]["max"]
    assert coarse < fine < 2.0


def test_analyze_signed_overflow_warns_nothing(tmp_path, capsys):
    cfg = _write(tmp_path, SIGNED_HEAVY)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["analyze", cfg, "--n", "2000", "--json"]) == 4
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith("error:") and "samples are not finite" in err
    assert all(line.startswith("error:") for line in err.splitlines())


# the r* bisection of the boundary regime reads E e^{sQ} at many s, and the
# existence verdict E log+ Q, at parameters at the ends of the float range
_FLOAT_LIMIT_Q = [(family, dict(zip(names, values)))
                  for family, names in (("inverse_gamma", ("shape", "scale")),
                                        ("weibull", ("shape", "scale")),
                                        ("gamma", ("shape", "rate")))
                  for values in ((1e-300, 1e300), (1e300, 1e-300), (1e-300, 1e-300),
                                 (1e300, 1e300))]
_FLOAT_LIMIT_Q += [("log_pareto", {"index": 1e-300}), ("log_pareto", {"index": 1e300})]


@pytest.mark.parametrize("family,params", _FLOAT_LIMIT_Q,
                         ids=[f"{f}-{'-'.join(f'{v:g}' for v in p.values())}"
                              for f, p in _FLOAT_LIMIT_Q])
def test_analyze_boundary_at_float_limits_is_strict_json(tmp_path, capsys, family, params):
    cfg = _write(tmp_path, {
        "coupling": "independent",
        "M": {"family": "finite_discrete", "params": {"values": [1.0, 0.5], "probs": [0.5, 0.5]}},
        "Q": {"family": family, "params": params}})
    assert main(["analyze", cfg, "--json"]) == 0
    captured = capsys.readouterr()
    json.loads(captured.out, parse_constant=_reject_constant)
    assert captured.err == ""


def test_analyze_non_finite_draws_strict_json_exit(tmp_path, capsys):
    cfg = _write(tmp_path, OVERFLOWING)
    assert main(["analyze", cfg, "--n", "20000", "--json"]) == 4
    captured = capsys.readouterr()
    report = json.loads(captured.out, parse_constant=_reject_constant)
    assert report["existence"]["verdict"] == "converges-a.s."
    summary = report["sample_summary"]
    assert summary["mean"] == "inf" and summary["variance"] is None
    assert captured.err == "error: 260 of 20000 samples are not finite (the series " \
                           "overflowed float64)\n"


def test_analyze_exhaustion_exit_code(tmp_path, capsys):
    cfg = _write(tmp_path, SLOW)
    out = tmp_path / "report.json"
    assert main(["analyze", cfg, "--n", "50", "--max-terms", "100",
                 "--out", str(out)]) == 4
    captured = capsys.readouterr()
    assert "max_terms" in captured.err and captured.out == ""
    assert json.loads(out.read_text())["sample_summary"]["n_exhausted"] == 50


def test_sample_summary_at_n_zero_is_one_form(tmp_path, capsys):
    cfg = _write(tmp_path, GEOMETRIC)
    assert main(["analyze", cfg, "--n", "0"]) == 0
    analyzed = json.loads(capsys.readouterr().out)["sample_summary"]
    assert main(["simulate", cfg, "--n", "0", "--out", str(tmp_path / "z.csv")]) == 0
    simulated = json.loads(capsys.readouterr().out)
    assert analyzed == simulated == {"n": 0, "n_truncated": 0, "n_exhausted": 0}


@pytest.mark.parametrize("family", sorted(UNDRAWABLE))
@pytest.mark.parametrize("command", ["analyze", "simulate"])
def test_undrawable_parameters_are_config_errors(command, family, tmp_path, capsys):
    cfg = _write(tmp_path, {"coupling": "independent", "M": BETA_EXP["M"],
                            "Q": UNDRAWABLE[family]})
    start = time.perf_counter()
    assert main([command, cfg, "--n", "20", "--out", str(tmp_path / "z.csv")]) == 2
    assert time.perf_counter() - start < 10.0
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: config.Q: {family}:")
    assert captured.out == ""


@pytest.mark.parametrize("q", [{"family": "poisson", "params": {"mean": 9.2e18}},
                               {"family": "uniform_discrete_range", "params": {"n": 2 ** 62}}])
def test_analyze_largest_parameters_finishes_fast(q, tmp_path, capsys):
    cfg = _write(tmp_path, {"coupling": "independent", "M": BETA_EXP["M"], "Q": q})
    start = time.process_time()
    assert main(["analyze", cfg, "--p", "1", "--p", "2", "--json"]) == 0
    assert time.process_time() - start < 1.0
    report = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert report["existence"]["verdict"] == "converges-a.s."
    assert all(m["finite"] and m["q_pow"] > 1e18 for m in report["moments"])


EXP_ONE = {"family": "exponential", "params": {"rate": 1.0}}
UNIFORM_01 = {"family": "uniform", "params": {"lo": 0.0, "hi": 1.0}}
# Weibull powers (x / scale)^shape past the float range once overflowed; as M
# with scale >= 2 and shape >= 300 the law sits near scale > 1 and diverges
WEIBULL_EDGES = [(role, shape, scale) for shape in (1e300, 1e-300, 300.0)
                 for scale in (0.5, 2.0, 1e300, 1e-300) for role in ("M", "Q")]
# Beta(a, b) with a >> b once had E log M = 0 and E M^p = 1 by cancellation
BETA_EDGES = [(1e15, 1.0), (1e15, 2.5), (1e15, 1e-300), (1e300, 1.0), (1e300, 2.5),
              (1e300, 1e-300), (1e6, 1e-300), (1e300, 1e300)]


def _analyze_clean(tmp_path, capsys, config):
    """``analyze --p 1 --p 2 --json``: exit 0, strict JSON, no stderr, no warning."""
    cfg = _write(tmp_path, config)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["analyze", cfg, "--p", "1", "--p", "2", "--json"]) == 0
    assert [str(w.message) for w in caught] == []
    captured = capsys.readouterr()
    assert captured.err == ""
    return json.loads(captured.out, parse_constant=_reject_constant)


@pytest.mark.parametrize("role, shape, scale", WEIBULL_EDGES)
def test_analyze_weibull_at_float_limits(role, shape, scale, tmp_path, capsys):
    weibull = {"family": "weibull", "params": {"shape": shape, "scale": scale}}
    config = {"coupling": "independent", "M": weibull, "Q": EXP_ONE} if role == "M" \
        else {"coupling": "independent", "M": UNIFORM_01, "Q": weibull}
    report = _analyze_clean(tmp_path, capsys, config)
    converges = role == "Q" or scale < 1.0 or shape < 1.0
    assert report["existence"]["verdict"] == ("converges-a.s." if converges
                                              else "diverges-in-probability")


@pytest.mark.parametrize("alpha, beta", BETA_EDGES)
def test_analyze_beta_with_alpha_far_above_beta(alpha, beta, tmp_path, capsys):
    config = {"coupling": "independent",
              "M": {"family": "beta", "params": {"alpha": alpha, "beta": beta}}, "Q": EXP_ONE}
    report = _analyze_clean(tmp_path, capsys, config)
    assert report["existence"]["verdict"] == "converges-a.s."
    # 0 < M < 1 a.s., so E M^p < 1 for every p
    assert [m["finite"] for m in report["moments"]] == [True, True]


# E log M = digamma(a) - log(rate) lost its sign to rounding at a = rate =
# 1e15 (0.0 against -5e-16), and so did log(scale) - digamma(a) at scale = a - 1
@pytest.mark.parametrize("law", [
    {"family": "gamma", "params": {"shape": 1e15, "rate": 1e15}},
    {"family": "inverse_gamma", "params": {"shape": 1e15, "scale": 1e15 - 1}},
], ids=["gamma", "inverse_gamma"])
def test_analyze_gamma_laws_near_one_converge(law, tmp_path, capsys):
    report = _analyze_clean(tmp_path, capsys, {"coupling": "independent", "M": law, "Q": EXP_ONE})
    assert report["existence"]["verdict"] == "converges-a.s."


# at shape 1e15 the root of E log M is rate = 1e15 - 0.5 + 4e-17: gamma just
# below it has E log M = +4.2e-32, inverse_gamma at that scale -4.2e-32
@pytest.mark.parametrize("law, verdict", [
    ({"family": "gamma", "params": {"shape": 1e15, "rate": 1e15 - 0.5}},
     "diverges-in-probability"),
    ({"family": "inverse_gamma", "params": {"shape": 1e15, "scale": 1e15 - 0.5}},
     "converges-a.s."),
], ids=["gamma", "inverse_gamma"])
def test_analyze_gamma_laws_at_the_root(law, verdict, tmp_path, capsys):
    report = _analyze_clean(tmp_path, capsys, {"coupling": "independent", "M": law, "Q": EXP_ONE})
    assert report["existence"]["verdict"] == verdict


# E M^p of gamma(a, a) is exactly 1 at p = 1 and above 1 at p = 2, so neither
# moment of Z is finite; a log-Gamma difference read E M = 1 - 2e-16 at a = 0.4
# and E M = 0.99969, E M^2 = 0.99987 at a = 1e11, all with a finite bound
@pytest.mark.parametrize("shape", [0.4, 1e11])
def test_analyze_gamma_with_unit_mean_has_no_finite_moment(shape, tmp_path, capsys):
    law = {"family": "gamma", "params": {"shape": shape, "rate": shape}}
    report = _analyze_clean(tmp_path, capsys, {"coupling": "independent", "M": law, "Q": EXP_ONE})
    assert [(m["finite"], m["zstar_bound"]) for m in report["moments"]] == [(False, "inf")] * 2
    assert report["moments"][0]["m_pow"] == 1.0


# P{M > 1} is e^-40, 4.2e-18 and 1.2e-65 for the first three, which
# 1 - P{M <= 1} rounded to 0: they read all-contracting with r_Z = 1, while
# weibull(1, 0.025), the same law as exponential(40), read expanding
@pytest.mark.parametrize("law", [
    {"family": "exponential", "params": {"rate": 40.0}},
    {"family": "gamma", "params": {"shape": 1.0, "rate": 40.0}},
    {"family": "inverse_gamma", "params": {"shape": 50.0, "scale": 1.0}},
    {"family": "weibull", "params": {"shape": 1.0, "scale": 0.025}},
], ids=lambda law: law["family"])
def test_analyze_tiny_tail_beyond_one_is_expanding(law, tmp_path, capsys):
    report = _analyze_clean(tmp_path, capsys, {"coupling": "independent", "M": law, "Q": EXP_ONE})
    assert report["existence"]["verdict"] == "converges-a.s."
    assert (report["abscissa"]["regime"], report["abscissa"]["r_Z"]) == ("expanding", 0.0)


# P{M = 0} = e^-800 underflows to 0: existence asked for E log M instead and
# the config exited 2 with "log moment undefined"
def test_analyze_poisson_with_an_underflowing_atom_at_zero_stops_exactly(tmp_path, capsys):
    law = {"family": "poisson", "params": {"mean": 800.0}}
    report = _analyze_clean(tmp_path, capsys, {"coupling": "independent", "M": law, "Q": EXP_ONE})
    assert report["existence"]["verdict"] == "exact-stop"


def test_analyze_lists_only_repeated_values_as_atoms(tmp_path, capsys):
    # below n = 100 every lone sample had a frequency of at least 0.01
    u_exp = {"coupling": "independent", "M": UNIFORM_01, "Q": EXP_ONE}
    assert main(["analyze", _write(tmp_path, u_exp), "--n", "10", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["sample_summary"]["atoms"] == []
    assert main(["analyze", _write(tmp_path, GEOMETRIC), "--n", "10", "--json"]) == 0
    atoms = json.loads(capsys.readouterr().out)["sample_summary"]["atoms"]
    assert atoms and all(p >= 0.2 for _, p in atoms)


def _analyze_moments(tmp_path, capsys, m, q, *ps):
    cfg = _write(tmp_path, {"coupling": "independent", "M": m, "Q": q})
    assert main(["analyze", cfg, *[arg for p in ps for arg in ("--p", p)], "--json"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    return json.loads(captured.out, parse_constant=_reject_constant)["moments"]


def test_analyze_beta_moments_next_to_one(tmp_path, capsys):
    def beta(alpha, b):
        return {"family": "beta", "params": {"alpha": alpha, "beta": b}}

    half = {"family": "uniform", "params": {"lo": 0.0, "hi": 0.5}}
    # E M^p = 1 - 1e-200 rounds to 1; the large-alpha expansion overflowed
    # and the moment was refused
    assert _analyze_moments(tmp_path, capsys, beta(1e300, 1.0), half, "1e100") == [
        {"p": 1e100, "m_pow": 1.0, "q_pow": 0.0, "finite": True, "zstar_bound": "inf"}]
    # E M^p = 1 - 2.5e-14, which the betaln difference read as 1 + 9e-13
    (small,) = _analyze_moments(tmp_path, capsys, beta(1000.0, 1e-10), EXP_ONE, "0.25")
    assert small["m_pow"] < 1.0 and small["finite"] and small["zstar_bound"] != "inf"
    # ||M||_p = (1 - 1e-13)^(1e-4) rounds to 1, and the Minkowski bound
    # divided by zero with a traceback
    (edge,) = _analyze_moments(tmp_path, capsys, beta(1e17, 1.0), half, "10000")
    assert edge["m_pow"] < 1.0 and edge["finite"] and edge["zstar_bound"] == "inf"


def _gamma(shape, rate):
    return {"family": "gamma", "params": {"shape": shape, "rate": rate}}


# log E M^p of gamma(1e16, 1e16) is -1.25e-17 at p = 0.5, -5.0e-21 at
# p = 0.9999 and exactly 0 at p = 1, where E M = 1; all three moments round
# to 1.0, and a verdict read off the rounded moment gave the first two
# finite: false with the bound "inf"
def test_analyze_gamma_moments_within_rounding_of_one_keep_their_verdicts(tmp_path, capsys):
    reports = _analyze_moments(tmp_path, capsys, _gamma(1e16, 1e16), EXP_ONE, "0.5", "0.9999", "1")
    assert [(m["m_pow"], m["finite"]) for m in reports] == [(1.0, True), (1.0, True), (1.0, False)]
    assert [isinstance(m["zstar_bound"], float) for m in reports[:2]] == [True, True]
    assert reports[2]["zstar_bound"] == "inf"


# E M^0.5 of weibull(1e17, 1) is Gamma(1 + 5e-18), whose log is -2.9e-18;
# the gammaln of 1 + 5e-18, which rounds to 1, gave a log of exactly 0
def test_analyze_weibull_moment_within_rounding_of_one_is_finite(tmp_path, capsys):
    weibull = {"family": "weibull", "params": {"shape": 1e17, "scale": 1.0}}
    (report,) = _analyze_moments(tmp_path, capsys, weibull, EXP_ONE, "0.5")
    assert (report["m_pow"], report["finite"]) == (1.0, True)
    assert isinstance(report["zstar_bound"], float)


# 1 - E M^0.5 = 1.25e-10 and 1.25e-13, taken from the moment rounded to a
# float, was 8.3e-8 and 8.9e-5 relative off
@pytest.mark.parametrize("shape", [1e9, 1e12])
def test_analyze_bound_next_to_one_matches_mpmath(shape, tmp_path, capsys):
    (report,) = _analyze_moments(tmp_path, capsys, _gamma(shape, shape), EXP_ONE, "0.5")
    with mpmath.workdps(60):
        a = mpmath.mpf(shape)
        m = mpmath.exp(mpmath.loggamma(a + 0.5) - mpmath.loggamma(a) - 0.5 * mpmath.log(a))
        want = float(mpmath.gamma(1.5) / (1 - m))
    assert report["zstar_bound"] == pytest.approx(want, rel=1e-12, abs=0.0)


def _fail_draw_of_stream(monkeypatch, stream_id):
    """Make the M draw of one stream of a beta x exponential batch raise."""
    draw = laws.Beta._draw

    def fail(self, gen, size):
        # a lane's second key word is stream id * 4 + lane
        if gen.bit_generator.state["state"]["key"][1] // 4 == stream_id:
            raise RuntimeError("no draw")
        return draw(self, gen, size)
    monkeypatch.setattr(laws.Beta, "_draw", fail)


def test_failed_draw_is_usage_error(tmp_path, capsys, monkeypatch):
    _fail_draw_of_stream(monkeypatch, 0)
    cfg = _write(tmp_path, BETA_EXP)
    assert main(["simulate", cfg, "--n", "20", "--out", str(tmp_path / "z.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: sample with stream id 0 failed: no draw\n"
    assert captured.out == ""


def test_failed_draw_names_its_own_stream_id(tmp_path, capsys, monkeypatch):
    # stream 5 is drawn in the middle of the first wave, not at its start
    _fail_draw_of_stream(monkeypatch, 5)
    cfg = _write(tmp_path, BETA_EXP)
    assert main(["simulate", cfg, "--n", "20", "--out", str(tmp_path / "z.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: sample with stream id 5 failed: no draw\n"
    assert captured.out == ""


def test_analyze_check_fixed_point_adds_key(tmp_path, capsys):
    cfg = _write(tmp_path, BETA_EXP)
    assert main(["analyze", cfg, "--n", "400", "--check-fixed-point"]) == 0
    summary = json.loads(capsys.readouterr().out)["sample_summary"]
    assert 0.0 <= summary["fixed_point_residual"] < 1.0


# --- simulate ----------------------------------------------------------------


def test_simulate_writes_csv_and_summary(tmp_path, capsys):
    cfg = _write(tmp_path, GEOMETRIC)
    out = tmp_path / "z.csv"
    assert main(["simulate", cfg, "--n", "200", "--seed", "1",
                 "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["n"] == 200
    assert summary["n_exhausted"] == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "z"
    assert len(lines) == 201
    assert all(float(v) == int(float(v)) and float(v) >= 1 for v in lines[1:])


def test_simulate_csv_deterministic_bytes(tmp_path, capsys):
    cfg = _write(tmp_path, GEOMETRIC)
    a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
    assert main(["simulate", cfg, "--n", "300", "--seed", "7", "--out", str(a)]) == 0
    assert main(["simulate", cfg, "--n", "300", "--seed", "7", "--out", str(b)]) == 0
    assert main(["simulate", cfg, "--n", "300", "--seed", "8", "--out", str(c)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


@pytest.mark.parametrize("command", ["analyze", "simulate"])
def test_workers_flag_is_usage_error(command, tmp_path, capsys):
    cfg = _write(tmp_path, BETA_EXP)
    out = tmp_path / "z.csv"
    assert main([command, cfg, "--n", "500", "--workers", "4", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("usage:") and "--workers" in captured.err
    assert captured.out == "" and not out.exists()


def test_simulate_seed_from_config_matches_explicit_flag(tmp_path, capsys):
    with_seed = dict(GEOMETRIC, seed=5)
    cfg_implicit = _write(tmp_path, with_seed, "implicit.json")
    cfg_plain = _write(tmp_path, GEOMETRIC, "plain.json")
    a, b = tmp_path / "implicit.csv", tmp_path / "explicit.csv"
    assert main(["simulate", cfg_implicit, "--n", "100", "--out", str(a)]) == 0
    assert main(["simulate", cfg_plain, "--n", "100", "--seed", "5",
                 "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_simulate_exhaustion_exit_code(tmp_path, capsys):
    cfg = _write(tmp_path, SLOW)
    out = tmp_path / "z.csv"
    assert main(["simulate", cfg, "--n", "50", "--max-terms", "100",
                 "--out", str(out)]) == 4
    captured = capsys.readouterr()
    assert "max_terms" in captured.err
    summary = json.loads(captured.out)
    assert summary["n_exhausted"] == 50
    assert len(out.read_text().splitlines()) == 51  # CSV still written


def test_simulate_non_finite_draws_strict_json_exit(tmp_path, capsys):
    cfg = _write(tmp_path, OVERFLOWING)
    assert main(["simulate", cfg, "--n", "20000", "--json",
                 "--out", str(tmp_path / "z.csv")]) == 4
    captured = capsys.readouterr()
    summary = json.loads(captured.out, parse_constant=_reject_constant)
    assert summary["mean"] == "inf" and summary["max"] == "inf"
    assert summary["variance"] is None and summary["quantiles"]["99"] == "inf"
    assert ["inf", 0.013] in summary["atoms"]
    assert captured.err.startswith("error: 260 of 20000 samples are not finite")


def test_simulate_overflowed_product_writes_inf_rows(tmp_path, capsys):
    cfg = _write(tmp_path, OVERFLOWING_PRODUCT)
    out = tmp_path / "z.csv"
    assert main(["simulate", cfg, "--n", "500", "--max-terms", "2000", "--json",
                 "--out", str(out)]) == 4
    rows = out.read_text().splitlines()[1:]
    assert "inf" in rows and "nan" not in rows
    summary = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert summary["max"] == "inf"
    assert isinstance(summary["quantiles"]["1"], float)


def test_simulate_non_convergent_exit(tmp_path, capsys):
    cfg = _write(tmp_path, EXPANDING)
    assert main(["simulate", cfg, "--n", "10",
                 "--out", str(tmp_path / "z.csv")]) == 3
    assert "error:" in capsys.readouterr().err


def test_simulate_n_zero_writes_header_only(tmp_path, capsys):
    cfg = _write(tmp_path, GEOMETRIC)
    out = tmp_path / "z.csv"
    assert main(["simulate", cfg, "--n", "0", "--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["n"] == 0
    assert out.read_text() == "z\n"


def test_simulate_negative_n_is_usage_error(tmp_path, capsys):
    cfg = _write(tmp_path, GEOMETRIC)
    assert main(["simulate", cfg, "--n", "-1",
                 "--out", str(tmp_path / "z.csv")]) == 2
    assert "nonnegative" in capsys.readouterr().err


def test_simulate_unwritable_out_is_usage_error(tmp_path, capsys):
    cfg = _write(tmp_path, GEOMETRIC)
    out = tmp_path / "missing-dir" / "z.csv"
    assert main(["simulate", cfg, "--n", "10", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
    assert captured.out == ""


def test_simulate_bad_config_seed_type(tmp_path, capsys):
    cfg = _write(tmp_path, dict(GEOMETRIC, seed="zero"))
    assert main(["simulate", cfg, "--n", "10",
                 "--out", str(tmp_path / "z.csv")]) == 2
    assert "config.seed" in capsys.readouterr().err


# --- verify ------------------------------------------------------------------


def test_verify_pitman_yor_passes(capsys):
    assert main(["verify", "pitman-yor"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines
    for line in lines:
        result = json.loads(line)
        assert result["pass"] is True
        assert {"oracle", "check", "statistic", "threshold"} <= set(result)


def test_verify_small_sample_fails_honestly(capsys):
    # the gamma KS tolerance is calibrated for large n; n=50 cannot meet it
    assert main(["verify", "gamma", "--n", "50"]) == 1
    lines = capsys.readouterr().out.strip().splitlines()
    assert any(not json.loads(line)["pass"] for line in lines)


@pytest.mark.parametrize("name", ["geometric", "gamma"])
def test_verify_n_zero_is_usage_error(name, capsys):
    # an empty sample used to end in a traceback (IndexError or
    # PreconditionError) on exit 1, the code for a failed verification
    assert main(["verify", name, "--n", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""


def test_verify_unknown_name_lists_valid(capsys):
    assert main(["verify", "bogus"]) == 2
    err = capsys.readouterr().err
    assert "geometric" in err and "pitman-yor" in err
    assert "singularity" in err and "fixed-point-residuals" in err


def test_verify_singularity_runs_from_registry(capsys):
    # small n may fail the calibrated gates (exit 1) but must not be unknown (2)
    assert main(["verify", "singularity", "--n", "2000"]) in (0, 1)
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines
    for line in lines:
        result = json.loads(line, parse_constant=_reject_constant)
        assert result["oracle"] == "bernoulli-convolution"


# --- property: every analyze or simulate input maps to a documented exit code

_pos = st.floats(0.1, 4.0)
# scales, poisson means and range sizes also reach the edges of validity
_scale = st.one_of(_pos, st.floats(1e10, 1e300))
# and so do the shapes of gamma, beta and inverse_gamma, at both ends
_shape = st.one_of(_pos, st.floats(1e-300, 1e-3), st.floats(1e10, 1e300))
_VALID_PARAMS = {
    "point_mass": {"value": st.floats(-3.0, 3.0)},
    "exponential": {"rate": _pos}, "gamma": {"shape": _shape, "rate": _pos},
    "beta": {"alpha": _shape, "beta": _shape}, "weibull": {"shape": _pos, "scale": _scale},
    "poisson": {"mean": st.one_of(_pos, st.floats(1e7, 9.223372006484771e18))},
    "inverse_gamma": {"shape": _shape, "scale": _scale},
    "signed_rademacher": {"scale": _scale}, "log_pareto": {"index": _pos},
    "uniform_discrete_range": {"n": st.one_of(st.integers(1, 6), st.integers(2 ** 20, 2 ** 63))},
}
# zero, negatives, non-finite values, wrong types
_bad_numbers = st.sampled_from([0.0, -1.0, float("nan"), float("inf"), "1", None, True])


@st.composite
def _probs(draw, k):
    w = draw(st.lists(st.floats(0.1, 1.0), min_size=k, max_size=k))
    return [x / sum(w) for x in w]


@st.composite
def _laws(draw):
    """A valid law object, or one with a single defect."""
    family = draw(st.sampled_from(sorted(_VALID_PARAMS) + ["uniform", "finite_discrete"]))
    if family == "uniform":
        lo = draw(st.floats(-2.0, 2.0))
        params = {"lo": lo, "hi": lo + draw(_pos)}
    elif family == "finite_discrete":
        values = draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=3, unique=True))
        params = {"values": values, "probs": draw(_probs(len(values)))}
    else:
        params = {k: draw(v) for k, v in _VALID_PARAMS[family].items()}
    defect = draw(st.integers(0, 9))
    if defect == 0:
        params[draw(st.sampled_from(sorted(params)))] = draw(_bad_numbers)
    elif defect == 1:
        params["extra"] = 1.0
    elif defect == 2:
        return {"family": draw(st.sampled_from(["cauchy", "", 3])), "params": params}
    return {"family": family, "params": params}


@st.composite
def _configs(draw):
    """Config text: valid, with one defect in a law or a key, or cut short."""
    kind = draw(st.sampled_from(["independent", "independent", "finite_joint",
                                 "malformed"]))
    if kind == "independent":
        obj = {"coupling": "independent", "M": draw(_laws()), "Q": draw(_laws())}
    elif kind == "finite_joint":
        k = draw(st.integers(1, 3))
        probs = draw(_probs(k))
        obj = {"coupling": "finite_joint",
               "atoms": [[draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0)), p]
                         for p in probs]}
        if draw(st.integers(0, 3)) == 0:
            obj["atoms"][0][draw(st.integers(0, 2))] = draw(_bad_numbers)
    else:
        obj = draw(st.sampled_from([[], "beta", 3, None, {"coupling": "other"},
                                    {"M": "x", "Q": {}}, {"coupling": "independent"},
                                    {"coupling": "finite_joint", "atoms": []}]))
    if isinstance(obj, dict):
        for key, values in (("epsilon", st.sampled_from([1e-12, 0.0, 2.0, "x"])),
                            ("max_terms", st.sampled_from([200, 0, 1.5])),
                            ("seed", st.sampled_from([0, 7, -1, "s"]))):
            if draw(st.integers(0, 5)) == 0:
                obj[key] = draw(values)
    text = json.dumps(obj)  # writes NaN/Infinity, which json.load accepts
    return text if draw(st.integers(0, 9)) else text[: len(text) // 2]


@settings(max_examples=200, deadline=None)
@given(command=st.sampled_from(["analyze", "simulate"]),
       text=_configs(),
       ps=st.lists(st.sampled_from([0.5, 1.0, 2.0, 0.0, -1.0, 40.0]), max_size=3),
       n=st.sampled_from([None, None, 0, 25]),
       compact=st.booleans())
def test_analyze_any_config_exit_code_and_strict_json(command, text, ps, n, compact):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        argv = [command, path]
        if command == "analyze":
            argv += [a for p in ps for a in ("--p", str(p))]
        else:
            n = 25 if n is None else n
            argv += ["--out", os.path.join(tmp, "z.csv")]
        if n is not None:
            argv += ["--n", str(n), "--max-terms", "300"]
        if compact:
            argv.append("--json")
        out, err = io.StringIO(), io.StringIO()
        start = time.process_time()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        elapsed = time.process_time() - start
    assert elapsed < 2.0, argv
    assert code in (0, 2, 3, 4), err.getvalue()
    assert [str(w.message) for w in caught] == []
    assert all(line.startswith("error:") for line in err.getvalue().splitlines())
    if code in (0, 4):
        report = json.loads(out.getvalue(), parse_constant=_reject_constant)
        keys = {"config", "existence", "moments", "abscissa"} if command == "analyze" else {"n"}
        assert keys <= set(report)
        assert (err.getvalue() == "") == (code == 0)
    else:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error:")


# --- parser plumbing ---------------------------------------------------------


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "analyze" in capsys.readouterr().out


def test_main_builds_no_parser_per_call(tmp_path, monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cfg = _write(tmp_path, HALF_ONE)
    assert main(["analyze", cfg, "--json"]) == 0
    assert main(["verify", "bogus"]) == 2
    assert built == []
    capsys.readouterr()


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["bogus"]) == 2
    assert "usage" in capsys.readouterr().err


def test_entry_propagates_exit_code(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["perpetua", "verify", "bogus"])
    with pytest.raises(SystemExit) as excinfo:
        entry()
    assert excinfo.value.code == 2
    capsys.readouterr()

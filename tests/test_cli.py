import json

import pytest

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


def test_simulate_worker_count_does_not_change_csv(tmp_path, capsys):
    cfg = _write(tmp_path, BETA_EXP)
    a, b = tmp_path / "w1.csv", tmp_path / "w4.csv"
    assert main(["simulate", cfg, "--n", "500", "--seed", "2", "--workers", "1",
                 "--out", str(a)]) == 0
    assert main(["simulate", cfg, "--n", "500", "--seed", "2", "--workers", "4",
                 "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_simulate_non_finite_draws_strict_json_exit(tmp_path, capsys):
    cfg = _write(tmp_path, OVERFLOWING)
    assert main(["simulate", cfg, "--n", "20000", "--json",
                 "--out", str(tmp_path / "z.csv")]) == 4
    captured = capsys.readouterr()
    summary = json.loads(captured.out, parse_constant=_reject_constant)
    assert summary["mean"] == "inf" and summary["max"] == "inf"
    assert summary["variance"] is None and summary["quantiles"]["99"] is None
    assert ["inf", 0.013] in summary["atoms"]
    assert captured.err.startswith("error: 260 of 20000 samples are not finite")


def test_simulate_bad_thread_cap_is_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PERPETUA_THREADS", "abc")
    cfg = _write(tmp_path, BETA_EXP)
    assert main(["simulate", cfg, "--n", "300", "--workers", "2",
                 "--out", str(tmp_path / "z.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: PERPETUA_THREADS") and captured.out == ""


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


# --- parser plumbing ---------------------------------------------------------


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "analyze" in capsys.readouterr().out


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["bogus"]) == 2
    assert "usage" in capsys.readouterr().err


def test_entry_propagates_exit_code(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["perpetua", "verify", "bogus"])
    with pytest.raises(SystemExit) as excinfo:
        entry()
    assert excinfo.value.code == 2
    capsys.readouterr()

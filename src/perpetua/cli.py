"""Command-line interface: analyze, simulate, verify.

Configs are JSON joint-law objects, optionally carrying sampler settings:

    {"coupling": "independent",
     "M": {"family": "beta", "params": {"alpha": 1, "beta": 1}},
     "Q": {"family": "exponential", "params": {"rate": 1}},
     "epsilon": 1e-15, "max_terms": 1000000, "seed": 0}

Exit codes are a stable contract: 0 success, 1 verification failure,
2 usage, config, output-path or draw error, 3 non-convergent perpetuity when
simulation was requested, 4 truncation-quality failure (max_terms exhaustion
or non-finite draws above 1%).  The commands raise; ``main`` maps each error
to its code once.  Output is strict JSON: infinities print as "inf"/"-inf"
and NaN as null.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .errors import (LawValidationError, NonConvergentError, PerpetuaError,
                     PreconditionError)
from .existence import existence_report
from .laws import joint_from_json, joint_to_json
from .moments import _ext, p_moment_criterion, r_of_perpetuity
from .sampling import (DEFAULT_EPSILON, DEFAULT_MAX_TERMS, PerpetuityConfig,
                       fixed_point_residual, sample_batch, to_csv)
from .verify import CHECKS, run_check

_EXIT_OK = 0
_EXIT_VERIFY_FAIL = 1
_EXIT_USAGE = 2
_EXIT_NON_CONVERGENT = 3
_EXIT_TRUNCATION = 4

_DEFECT_RATE_LIMIT = 0.01      # share of exhausted or of non-finite draws


class _UsageError(Exception):
    """A flag value the parser accepts but the command cannot use."""


def _read_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise LawValidationError(f"config: cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise LawValidationError(f"config: invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise LawValidationError("config: expected a JSON object")
    return obj


def _build_config(obj: dict, epsilon=None, max_terms=None, seed=None) -> PerpetuityConfig:
    joint = joint_from_json(obj, "config")
    if epsilon is None:
        epsilon = obj.get("epsilon", DEFAULT_EPSILON)
    if max_terms is None:
        max_terms = obj.get("max_terms", DEFAULT_MAX_TERMS)
    if seed is None:
        seed = obj.get("seed", 0)
    if not isinstance(epsilon, (int, float)) or isinstance(epsilon, bool):
        raise LawValidationError("config.epsilon: expected a number")
    if not isinstance(max_terms, int) or isinstance(max_terms, bool):
        raise LawValidationError("config.max_terms: expected an integer")
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise LawValidationError("config.seed: expected an integer")
    try:
        return PerpetuityConfig(joint, float(epsilon), max_terms, seed)
    except PreconditionError as exc:
        raise LawValidationError(f"config: {exc}") from None


def _json_safe(obj):
    """``obj`` with every float passed through the shared ``_ext`` encoding."""
    if isinstance(obj, float):
        return _ext(obj)
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


def _emit(payload, compact: bool, out: str | None) -> None:
    payload = _json_safe(payload)
    if compact:
        text = json.dumps(payload, separators=(",", ":"), allow_nan=False)
    else:
        text = json.dumps(payload, indent=2, allow_nan=False)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def cmd_analyze(config_path: str, p_list, n=None, seed=None, epsilon=None,
                max_terms=None, out=None, compact=False,
                check_fixed_point=False) -> int:
    """Existence, moment, and abscissa report; optional sampling summary."""
    cfg = _build_config(_read_config(config_path), epsilon, max_terms, seed)
    rep = existence_report(cfg.joint)
    report = {
        "config": joint_to_json(cfg.joint),
        "existence": rep.to_json(),
        "moments": [],
        "abscissa": None,
        "sample_summary": None,
    }
    for p in p_list or ():
        try:
            report["moments"].append(p_moment_criterion(cfg.joint, p).to_json())
        except PreconditionError as exc:
            report["moments"].append({"p": p, "refused": str(exc)})
    try:
        report["abscissa"] = r_of_perpetuity(cfg.joint).to_json()
    except PreconditionError as exc:
        report["abscissa"] = {"refused": str(exc)}
    if n is not None:
        emp = sample_batch(cfg, n)
        summary = emp.summary() if n > 0 else {"n": 0}
        if check_fixed_point and n > 0:
            summary["fixed_point_residual"] = fixed_point_residual(cfg, n)
        report["sample_summary"] = summary
    _emit(report, compact, out)
    return _EXIT_OK


def cmd_simulate(config_path: str, n: int, seed=None, out_csv=None,
                 epsilon=None, max_terms=None, check_fixed_point=False,
                 compact=False) -> int:
    """Draw a batch, write CSV samples, print a JSON summary."""
    cfg = _build_config(_read_config(config_path), epsilon, max_terms, seed)
    emp = sample_batch(cfg, n)
    if out_csv:
        to_csv(emp, out_csv)
    summary = emp.summary() if n > 0 else {"n": 0, "n_truncated": 0, "n_exhausted": 0}
    if check_fixed_point and n > 0:
        summary["fixed_point_residual"] = fixed_point_residual(cfg, n)
    _emit(summary, compact, None)
    code = _EXIT_OK
    if n > 0 and emp.n_exhausted / n > _DEFECT_RATE_LIMIT:
        print(f"error: {emp.n_exhausted} of {n} samples exhausted max_terms="
              f"{cfg.max_terms}; increase max_terms or loosen epsilon",
              file=sys.stderr)
        code = _EXIT_TRUNCATION
    nonfinite = n - int(np.count_nonzero(np.isfinite(emp.samples)))
    if n > 0 and nonfinite / n > _DEFECT_RATE_LIMIT:
        print(f"error: {nonfinite} of {n} samples are not finite (the series "
              f"overflowed float64)", file=sys.stderr)
        code = _EXIT_TRUNCATION
    return code


def cmd_verify(name: str, seed: int = 0, n=None, compact=True) -> int:
    """Run one named oracle check; one JSON result line per sub-check."""
    if name not in CHECKS:
        raise _UsageError(f"unknown example {name!r}; valid: {', '.join(sorted(CHECKS))}")
    results = run_check(name, seed=seed, n=n)
    for r in results:
        _emit(r, compact, None)
    return _EXIT_OK if all(r["pass"] for r in results) else _EXIT_VERIFY_FAIL


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="perpetua",
        description="Analyze and simulate perpetuities (random discounted series).")
    sub = ap.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="existence/moment/abscissa report")
    pa.add_argument("config", help="path to a JSON joint-law config")
    pa.add_argument("--p", action="append", type=float, default=None,
                    help="moment order to test (repeatable)")
    pa.add_argument("--n", type=int, default=None,
                    help="also sample n draws and include a summary")
    pa.add_argument("--seed", type=int, default=None)
    pa.add_argument("--epsilon", type=float, default=None)
    pa.add_argument("--max-terms", type=int, default=None)
    pa.add_argument("--out", default=None, help="write the report here instead of stdout")
    pa.add_argument("--json", action="store_true", help="compact single-line JSON")
    pa.add_argument("--check-fixed-point", action="store_true")

    ps = sub.add_parser("simulate", help="draw samples and write CSV")
    ps.add_argument("config")
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--seed", type=int, default=None)
    ps.add_argument("--out", required=True, help="CSV output path (header 'z')")
    ps.add_argument("--epsilon", type=float, default=None)
    ps.add_argument("--max-terms", type=int, default=None)
    ps.add_argument("--json", action="store_true", help="compact single-line JSON")
    ps.add_argument("--check-fixed-point", action="store_true")

    pv = sub.add_parser("verify", help="run a named oracle verification")
    pv.add_argument("example", help=f"one of: {', '.join(sorted(CHECKS))}")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--n", type=int, default=None, help="override the sample size")
    return ap


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else _EXIT_OK
    try:
        if args.n is not None and args.n < 0:
            raise _UsageError("--n must be nonnegative")
        if args.command == "verify" and args.n is not None and args.n < 1:
            raise _UsageError("verify --n must be at least 1")
        if args.command == "analyze":
            return cmd_analyze(args.config, args.p, n=args.n, seed=args.seed,
                               epsilon=args.epsilon, max_terms=args.max_terms,
                               out=args.out, compact=args.json,
                               check_fixed_point=args.check_fixed_point)
        if args.command == "simulate":
            return cmd_simulate(args.config, args.n, seed=args.seed,
                                out_csv=args.out, epsilon=args.epsilon,
                                max_terms=args.max_terms,
                                check_fixed_point=args.check_fixed_point,
                                compact=args.json)
        return cmd_verify(args.example, seed=args.seed, n=args.n)
    except NonConvergentError as exc:
        code, msg = _EXIT_NON_CONVERGENT, str(exc)
    except (_UsageError, PerpetuaError) as exc:  # a failed draw raises the base class
        code, msg = _EXIT_USAGE, str(exc)
    except OSError as exc:  # unreadable configs surface as LawValidationError
        code, msg = _EXIT_USAGE, f"cannot write output: {exc}"
    print(f"error: {msg}", file=sys.stderr)
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())

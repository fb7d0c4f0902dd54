"""Command-line interface: analyze, simulate, verify.

Configs are JSON joint-law objects, optionally carrying sampler settings:

    {"coupling": "independent",
     "M": {"family": "beta", "params": {"alpha": 1, "beta": 1}},
     "Q": {"family": "exponential", "params": {"rate": 1}},
     "epsilon": 1e-15, "max_terms": 1000000, "seed": 0}

Exit codes are a stable contract: 0 success, 1 verification failure,
2 usage, config, output-path or draw error, 3 non-convergent perpetuity when
simulation was requested, 4 truncation-quality failure (max_terms exhaustion
or non-finite draws above 1%) of ``analyze --n`` or ``simulate``, which
still print their report.  The commands raise; ``main`` maps each error to
its code once.  Output is strict JSON: infinities print as "inf"/"-inf"
and NaN as null.

The argument parser is built once, at import; ``main`` only parses and
calls the chosen command with the parsed namespace.
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


def _build_config(obj: dict, args) -> PerpetuityConfig:
    """The config's joint law and sampler settings; flags given in ``args`` win."""
    joint = joint_from_json(obj, "config")
    epsilon, max_terms, seed = args.epsilon, args.max_terms, args.seed
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


@np.errstate(over="ignore", divide="ignore")
def _sample_gated(cfg: PerpetuityConfig, n: int, check_fixed_point: bool):
    """Draw n perpetuities for ``analyze --n`` and ``simulate``.

    Returns the batch, its summary and one message per failed
    truncation-quality gate: more than 1% of the draws exhausted max_terms,
    or more than 1% are not finite.  Pairs drawn at scales near the float
    limit overflow to inf (or divide by a gamma draw that underflowed to 0);
    the gate counts those draws, so numpy's warnings about them are silenced.
    """
    emp = sample_batch(cfg, n)
    if n == 0:
        return emp, {"n": 0, "n_truncated": 0, "n_exhausted": 0}, []
    summary = emp.summary()
    if check_fixed_point:
        summary["fixed_point_residual"] = fixed_point_residual(cfg, n)
    errors = []
    if emp.n_exhausted / n > _DEFECT_RATE_LIMIT:
        errors.append(f"{emp.n_exhausted} of {n} samples exhausted max_terms="
                      f"{cfg.max_terms}; increase max_terms or loosen epsilon")
    nonfinite = n - int(np.count_nonzero(np.isfinite(emp.samples)))
    if nonfinite / n > _DEFECT_RATE_LIMIT:
        errors.append(f"{nonfinite} of {n} samples are not finite (the series "
                      f"overflowed float64)")
    return emp, summary, errors


def _gate_exit(errors) -> int:
    for msg in errors:
        print(f"error: {msg}", file=sys.stderr)
    return _EXIT_TRUNCATION if errors else _EXIT_OK


def cmd_analyze(args) -> int:
    """Existence, moment, and abscissa report; optional sampling summary."""
    cfg = _build_config(_read_config(args.config), args)
    rep = existence_report(cfg.joint)
    report = {
        "config": joint_to_json(cfg.joint),
        "existence": rep.to_json(),
        "moments": [],
        "abscissa": None,
        "sample_summary": None,
    }
    for p in args.p or ():
        try:
            report["moments"].append(p_moment_criterion(cfg.joint, p).to_json())
        except PreconditionError as exc:
            report["moments"].append({"p": p, "refused": str(exc)})
    try:
        report["abscissa"] = r_of_perpetuity(cfg.joint).to_json()
    except PreconditionError as exc:
        report["abscissa"] = {"refused": str(exc)}
    errors = []
    if args.n is not None:
        _, report["sample_summary"], errors = _sample_gated(cfg, args.n,
                                                            args.check_fixed_point)
    _emit(report, args.json, args.out)
    return _gate_exit(errors)


def cmd_simulate(args) -> int:
    """Draw a batch, write CSV samples, print a JSON summary."""
    cfg = _build_config(_read_config(args.config), args)
    emp, summary, errors = _sample_gated(cfg, args.n, args.check_fixed_point)
    if args.out:
        to_csv(emp, args.out)
    _emit(summary, args.json, None)
    return _gate_exit(errors)


def cmd_verify(args) -> int:
    """Run one named oracle check; one JSON result line per sub-check."""
    if args.n is not None and args.n < 1:
        raise _UsageError("verify --n must be at least 1")
    results = run_check(args.example, seed=args.seed, n=args.n)
    for r in results:
        _emit(r, True, None)
    return _EXIT_OK if all(r["pass"] for r in results) else _EXIT_VERIFY_FAIL


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="perpetua",
        description="Analyze and simulate perpetuities (random discounted series).")
    sub = ap.add_subparsers(dest="command", required=True)

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("config", help="path to a JSON joint-law config")
    shared.add_argument("--seed", type=int, default=None)
    shared.add_argument("--epsilon", type=float, default=None)
    shared.add_argument("--max-terms", type=int, default=None)
    shared.add_argument("--json", action="store_true", help="compact single-line JSON")
    shared.add_argument("--check-fixed-point", action="store_true")

    pa = sub.add_parser("analyze", parents=[shared],
                        help="existence/moment/abscissa report")
    pa.add_argument("--p", action="append", type=float, default=None,
                    help="moment order to test (repeatable)")
    pa.add_argument("--n", type=int, default=None,
                    help="also sample n draws and include a summary")
    pa.add_argument("--out", default=None, help="write the report here instead of stdout")
    pa.set_defaults(run=cmd_analyze)

    ps = sub.add_parser("simulate", parents=[shared], help="draw samples and write CSV")
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--out", required=True, help="CSV output path (header 'z')")
    ps.set_defaults(run=cmd_simulate)

    pv = sub.add_parser("verify", help="run a named oracle verification")
    pv.add_argument("example", help=f"one of: {', '.join(sorted(CHECKS))}")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--n", type=int, default=None, help="override the sample size")
    pv.set_defaults(run=cmd_verify)
    return ap


_PARSER = _parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else _EXIT_OK
    try:
        if args.n is not None and args.n < 0:
            raise _UsageError("--n must be nonnegative")
        return args.run(args)
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

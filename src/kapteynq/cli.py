"""Command-line front end: solve, sweep, verify, identity.

Output is deterministic: fixed field order, floats rendered with Python's
shortest round-trip repr (at most 17 significant digits), '.' decimal
separator regardless of locale.  JSON reports repeat byte-for-byte except
for the runtime_ms field.  Exit codes: 0 success, 1 failed verification
check, 2 invalid input (nothing written), 3 numerical failure (the report,
if any, is still written; a sweep exits 3 when any row has an error).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

from .closedform import bound_interval, closed_C, closed_C1, closed_C2_paper
from .errors import KapteynError
from .kapteyn import Eccentricity, TruncationConfig, eval_trig_sums
from .kepler import identity_rhs, orbit_state
from .solver import Problem, solve_problem
from .verify import run_verification, verification_passed

__all__ = ["main"]

_SWEEP_COLUMNS = [
    "D", "C_numeric", "C_closed", "abs_diff", "lower_bound",
    "C1", "C2_numeric", "C2_paper", "r1", "r2", "r3", "error",
]
_IDENTITY_COLUMNS = [
    "E", "M", "S0", "R0", "abs_dS0", "S1", "R1", "abs_dS1",
    "S2", "R2", "abs_dS2",
]

_ENV_MAX_TERMS = "KAPTEYN_MAX_TERMS"


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    if x is None:
        return ""
    return str(x)


def _default_max_terms() -> int:
    raw = os.environ.get(_ENV_MAX_TERMS)
    if raw is None:
        return 200_000
    try:
        val = int(raw)
    except ValueError as exc:
        raise ValueError(f"{_ENV_MAX_TERMS} must be an integer, got {raw!r}") from exc
    return val


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kapteynq",
        description="Kapteyn-series solver for the constants C(D), C1(D,a), C2(D,a)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--tol", type=float, default=1e-12,
                       help="absolute series tolerance (default 1e-12)")
        p.add_argument("--max-terms", type=int, default=None,
                       help=f"series term cap (default 200000; env {_ENV_MAX_TERMS})")
        p.add_argument("--format", choices=("json", "csv", "text"), default="text")
        p.add_argument("--out", default=None, help="write output to this path")

    p_solve = sub.add_parser("solve", help="solve for one (D, a)")
    p_solve.add_argument("--d", type=float, required=True)
    p_solve.add_argument("--a", type=float, default=1.0)
    add_common(p_solve)

    p_sweep = sub.add_parser("sweep", help="solve over a range of D")
    p_sweep.add_argument("--d-min", type=float, required=True)
    p_sweep.add_argument("--d-max", type=float, required=True)
    p_sweep.add_argument("--points", type=int, required=True)
    p_sweep.add_argument("--log", action="store_true", help="log-spaced grid")
    p_sweep.add_argument("--a", type=float, default=1.0)
    add_common(p_sweep)

    p_verify = sub.add_parser("verify", help="run the verification battery")
    add_common(p_verify)

    p_ident = sub.add_parser("identity", help="tabulate the Kepler-identity battery")
    p_ident.add_argument("--eps", type=float, required=True)
    p_ident.add_argument("--e-points", type=int, default=25)
    add_common(p_ident)
    return parser


def _configs(args) -> TruncationConfig:
    max_terms = args.max_terms if args.max_terms is not None else _default_max_terms()
    if max_terms < 10:
        raise ValueError(f"max_terms must be >= 10, got {max_terms}")
    if not (0.0 < args.tol < math.inf):
        raise ValueError(f"tol must be positive and finite, got {args.tol}")
    return TruncationConfig(abs_tol=args.tol, max_terms=max_terms)


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_line(values) -> str:
    return ",".join(_fmt(v) for v in values)


def _solve_row(d: float, a: float, trunc) -> dict:
    """One sweep/solve row; numerical failure lands in the error column."""
    row = dict.fromkeys(_SWEEP_COLUMNS)
    row["D"] = d
    row["error"] = ""
    try:
        rep = solve_problem(Problem(D=d, a=a), trunc)
        cc = closed_C(d)
        lo, _ = bound_interval(d)
        row.update({
            "C_numeric": rep.C_numeric,
            "C_closed": cc,
            "abs_diff": abs(rep.C_numeric - cc),
            "lower_bound": lo,
            "C1": rep.C1_numeric,
            "C2_numeric": rep.C2_numeric,
            "C2_paper": closed_C2_paper(d, a),
            "r1": rep.residuals[0],
            "r2": rep.residuals[1],
            "r3": rep.residuals[2],
        })
        if not rep.converged:
            row["error"] = rep.diagnostics.get("reason") or "not converged"
        row["_report"] = rep
    except KapteynError as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def _cmd_solve(args) -> int:
    if not (args.d > 0.0) or not math.isfinite(args.d):
        raise ValueError(f"--d must be positive and finite, got {args.d}")
    if not (args.a > 0.0) or not math.isfinite(args.a):
        raise ValueError(f"--a must be positive and finite, got {args.a}")
    trunc = _configs(args)
    t0 = time.perf_counter()
    row = _solve_row(args.d, args.a, trunc)
    runtime_ms = int(round((time.perf_counter() - t0) * 1000.0))
    rep = row.pop("_report", None)
    failed = rep is None
    if failed:
        sys.stderr.write(f"numerical failure at D={args.d}: {row['error']}\n")
        return 3

    lo, hi = bound_interval(args.d)
    inside = lo < rep.C_numeric < hi
    if args.format == "json":
        doc = {
            "params": {"D": args.d, "a": args.a},
            "results": {
                "C_numeric": rep.C_numeric,
                "C_closed": closed_C(args.d),
                "C1_numeric": rep.C1_numeric,
                "C1_closed": closed_C1(args.d, args.a),
                "C2_numeric": rep.C2_numeric,
                "C2_paper": closed_C2_paper(args.d, args.a),
                "F": rep.F, "F1": rep.F1, "F2": rep.F2,
                "terms_used": list(rep.terms_used),
                "bracket": list(rep.bracket),
                "converged": rep.converged,
            },
            "residuals": {
                "eq_root": rep.residuals[0],
                "eq_c1_normalized": rep.residuals[1],
                "eq_c2_normalized": rep.residuals[2],
            },
            "bounds": {"lower": lo, "upper": hi, "contains_root": inside},
            "config": {"abs_tol": trunc.abs_tol, "max_terms": trunc.max_terms},
            "runtime_ms": runtime_ms,
        }
        text = json.dumps(doc, indent=2) + "\n"
    elif args.format == "csv":
        text = _csv_line(_SWEEP_COLUMNS) + "\n" + _csv_line(
            [row[c] for c in _SWEEP_COLUMNS]) + "\n"
    else:
        lines = [
            f"D = {_fmt(args.d)}   a = {_fmt(args.a)}",
            f"C   numeric = {_fmt(rep.C_numeric)}   closed = {_fmt(closed_C(args.d))}"
            f"   |diff| = {_fmt(abs(rep.C_numeric - closed_C(args.d)))}",
            f"C1  numeric = {_fmt(rep.C1_numeric)}   closed = {_fmt(closed_C1(args.d, args.a))}",
            f"C2  numeric = {_fmt(rep.C2_numeric)}   printed-form = {_fmt(closed_C2_paper(args.d, args.a))}",
            f"F = {_fmt(rep.F)}   F1 = {_fmt(rep.F1)}   F2 = {_fmt(rep.F2)}",
            f"residuals: eq_root = {_fmt(rep.residuals[0])}   "
            f"eq_C1 = {_fmt(rep.residuals[1])}   eq_C2 = {_fmt(rep.residuals[2])} (normalized)",
            f"terms used (F, F1, F2) = {rep.terms_used}",
            f"bound: {_fmt(lo)} < C < 1  [{'ok' if inside else 'VIOLATED'}]",
            f"converged = {rep.converged}",
        ]
        if row["error"]:
            lines.append(f"warning: {row['error']}")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0 if rep.converged else 3


def _cmd_sweep(args) -> int:
    if not (0.0 < args.d_min < args.d_max) or not math.isfinite(args.d_max):
        raise ValueError(
            f"need 0 < --d-min < --d-max, got {args.d_min}, {args.d_max}")
    if args.points < 2:
        raise ValueError(f"--points must be >= 2, got {args.points}")
    if not (args.a > 0.0):
        raise ValueError(f"--a must be positive, got {args.a}")
    trunc = _configs(args)

    if args.log:
        lo, hi = math.log(args.d_min), math.log(args.d_max)
        grid = [math.exp(lo + (hi - lo) * i / (args.points - 1))
                for i in range(args.points)]
    else:
        grid = [args.d_min + (args.d_max - args.d_min) * i / (args.points - 1)
                for i in range(args.points)]

    t0 = time.perf_counter()
    rows = [_solve_row(d, args.a, trunc) for d in grid]
    runtime_ms = int(round((time.perf_counter() - t0) * 1000.0))
    for row in rows:
        row.pop("_report", None)

    if args.format == "json":
        doc = {
            "params": {"d_min": args.d_min, "d_max": args.d_max,
                       "points": args.points, "log": args.log, "a": args.a},
            "results": [{c: row[c] for c in _SWEEP_COLUMNS} for row in rows],
            "config": {"abs_tol": trunc.abs_tol, "max_terms": trunc.max_terms},
            "runtime_ms": runtime_ms,
        }
        text = json.dumps(doc, indent=2) + "\n"
    elif args.format == "csv":
        lines = [_csv_line(_SWEEP_COLUMNS)]
        lines += [_csv_line([row[c] for c in _SWEEP_COLUMNS]) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        lines = ["  ".join(_SWEEP_COLUMNS)]
        for row in rows:
            lines.append("  ".join(_fmt(row[c]) for c in _SWEEP_COLUMNS))
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 3 if any(row["error"] for row in rows) else 0


def _cmd_verify(args) -> int:
    trunc = _configs(args)
    report = run_verification(trunc)
    ok = verification_passed(report)
    if args.format == "json":
        text = json.dumps(report, indent=2) + "\n"
    elif args.format == "csv":
        lines = ["check,passed,detail"]
        for name, res in report["results"].items():
            detail = res.get("error", "") or f"max_error={_fmt(res.get('max_error'))}"
            lines.append(f"{name},{res.get('passed')},{detail}")
        for name in ("residuals", "bounds", "identity_battery", "c2_adjudication"):
            res = report[name]
            lines.append(f"{name},{res.get('passed')},{res.get('error', '')}")
        text = "\n".join(lines) + "\n"
    else:
        lines = []
        all_checks = dict(report["results"])
        all_checks["residuals"] = report["residuals"]
        all_checks["bounds"] = report["bounds"]
        all_checks["identity_battery"] = report["identity_battery"]
        for name, res in all_checks.items():
            mark = "PASS" if res.get("passed") else "FAIL"
            extra = res.get("error", "")
            lines.append(f"[{mark}] {name} {extra}".rstrip())
        adj = report["c2_adjudication"]
        if "numeric" in adj:
            lines.append(
                f"[{'PASS' if adj.get('passed') else 'FAIL'}] c2_adjudication "
                f"(residual-based): numeric={_fmt(adj['numeric'])} "
                f"closest={adj['closest']} "
                f"paper_distance={_fmt(adj['paper_distance'])} "
                f"derived_distance={_fmt(adj['derived_distance'])}"
            )
        else:
            lines.append(f"[FAIL] c2_adjudication {adj.get('error', '')}")
        lines.append(f"overall: {'PASS' if ok else 'FAIL'} "
                     f"({report['runtime_ms']} ms)")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0 if ok else 1


def _cmd_identity(args) -> int:
    if not (0.0 < args.eps < 1.0):
        raise ValueError(f"--eps must lie in (0, 1), got {args.eps}")
    if args.e_points < 1:
        raise ValueError(f"--e-points must be >= 1, got {args.e_points}")
    trunc = _configs(args)
    ecc = Eccentricity.from_eps(args.eps)
    margin = 0.05
    if args.e_points == 1:
        grid = [0.5 * math.pi]
    else:
        grid = [margin + (math.pi - 2 * margin) * i / (args.e_points - 1)
                for i in range(args.e_points)]

    rows = []
    for e_val in grid:
        s0, s1, s2 = eval_trig_sums(e_val, ecc, trunc)
        state = orbit_state(e_val, args.eps)
        r0, r1, r2 = identity_rhs(state)
        rows.append({
            "E": e_val, "M": state.M,
            "S0": s0, "R0": r0, "abs_dS0": abs(s0 - r0),
            "S1": s1, "R1": r1, "abs_dS1": abs(s1 - r1),
            "S2": s2, "R2": r2, "abs_dS2": abs(s2 - r2),
        })

    if args.format == "json":
        doc = {
            "params": {"eps": args.eps, "e_points": args.e_points},
            "results": rows,
            "config": {"abs_tol": trunc.abs_tol, "max_terms": trunc.max_terms},
        }
        text = json.dumps(doc, indent=2) + "\n"
    elif args.format == "csv":
        lines = [_csv_line(_IDENTITY_COLUMNS)]
        lines += [_csv_line([row[c] for c in _IDENTITY_COLUMNS]) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        lines = ["  ".join(_IDENTITY_COLUMNS)]
        for row in rows:
            lines.append("  ".join(_fmt(row[c]) for c in _IDENTITY_COLUMNS))
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags; keep that contract
        return int(exc.code or 0)
    handler = {
        "solve": _cmd_solve,
        "sweep": _cmd_sweep,
        "verify": _cmd_verify,
        "identity": _cmd_identity,
    }[args.command]
    try:
        return handler(args)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except KapteynError as exc:
        sys.stderr.write(f"numerical failure: {type(exc).__name__}: {exc}\n")
        return 3


if __name__ == "__main__":
    raise SystemExit(main())

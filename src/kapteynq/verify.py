"""Cross-verification battery: numerics vs closed forms, bounds, identities.

Produces a structured report (fixed key layout, rendered to JSON by the CLI)
with one entry per check carrying the measured error, the asserted tolerance,
and a pass flag.  The C2 closed form is the one deliberately unasserted
comparison: the solver's back-substituted residual is the arbiter, and the
report only states which candidate expression the numerics land on.  The
alternative ("derived") C2 expression is algebra done on the fly from the
exact series values, 1/4 - a^2(2D+1)/(8(D+1)^2); it is not exported as an
operation anywhere.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .bessel import CROSSOVER_ORDER, MAX_ORDER, REL_TOL
from .closedform import (
    asymptotics,
    bound_interval,
    closed_C,
    closed_C1,
    closed_C2_paper,
    exact_series_values,
    proof_trace,
)
from .errors import KapteynError
from .kapteyn import (
    DEFAULT_TRUNCATION,
    SAFETY_MARGIN,
    Eccentricity,
    TruncationConfig,
    eval_F,
    eval_F1,
    eval_F2,
    eval_trig_sums,
)
from .kepler import identity_rhs, orbit_state
from .solver import ROOT_TOL, Problem, solve_C1_numeric, solve_C2_numeric, solve_problem

__all__ = ["run_verification", "verification_passed", "derived_C2"]

_D_GRID = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 100.0)
_D_SERIES = (0.5, 1.0, 2.0, 5.0)
_A_GRID = (0.5, 1.0, 2.0)
_EPS_BATTERY = (0.05, 0.1, 0.2, 0.35, 0.5, 0.65, 0.8)
_E_POINTS = 25
_E_MARGIN = 0.05


def derived_C2(D: float, a: float) -> float:
    """Substitution-derived C2 candidate: 1/4 - a^2 (2D+1) / (8 (D+1)^2).

    Computed here, on the fly, for comparison only; intentionally not part of
    the closed-form API while the printed expression is under adjudication.
    """
    return 0.25 - a * a * (2.0 * D + 1.0) / (8.0 * (D + 1.0) ** 2)


def _check(fn):
    """Run one check, folding numerical failures into a failed entry."""
    try:
        return fn()
    except KapteynError as exc:
        return {"passed": False, "error": f"{type(exc).__name__}: {exc}"}


def run_verification(trunc: TruncationConfig = DEFAULT_TRUNCATION) -> dict:
    """Run every verification check; returns the full report dict."""
    t_start = time.perf_counter()

    solves: dict[float, object] = {}

    def solve_at(d: float):
        if d not in solves:
            solves[d] = solve_problem(Problem(D=d, a=1.0), trunc)
        return solves[d]

    def closed_form_exactness():
        rows = []
        worst = 0.0
        for d in _D_GRID:
            ecc = Eccentricity.from_D(d)
            sv = eval_F(closed_C(d), ecc, trunc)
            err = abs(d / (2.0 * (d + 1.0)) * sv.value - 1.0)
            worst = max(worst, err)
            rows.append({"D": d, "error": err, "terms": sv.terms_used,
                         "converged": sv.converged})
        return {"passed": worst <= 1e-9, "max_error": worst,
                "tolerance": 1e-9, "rows": rows}

    def numeric_closed_agreement():
        rows = []
        worst = 0.0
        ok = True
        for d in _D_GRID:
            rep = solve_at(d)
            cc = closed_C(d)
            err = abs(rep.C_numeric - cc) / cc
            worst = max(worst, err)
            ok &= rep.converged
            rows.append({"D": d, "C_numeric": rep.C_numeric, "C_closed": cc,
                         "rel_error": err, "converged": rep.converged})
        return {"passed": ok and worst <= 1e-10, "max_error": worst,
                "tolerance": 1e-10, "rows": rows}

    def bounds_check():
        grid = np.logspace(-2, 4, 50)
        worst_gap = 0.0
        inside = True
        for d in grid:
            lo, hi = bound_interval(float(d))
            c = closed_C(float(d))
            inside &= lo < c < hi
            g = Eccentricity.from_D(float(d)).g
            worst_gap = max(worst_gap, abs(lo - g) / lo)
        return {"passed": inside and worst_gap <= 1e-14,
                "bound_contains_root": inside,
                "max_identity_gap": worst_gap, "identity_tolerance": 1e-14,
                "grid": {"min": 1e-2, "max": 1e4, "points": 50, "log": True}}

    def small_d_asymptotics():
        d = 1e-3
        a = 1.0
        approx = asymptotics(d, a)
        err_c = abs(closed_C(d) - approx.c_small_d)
        tight = TruncationConfig(abs_tol=1e-5, max_terms=4_000_000)
        p = Problem(D=d, a=a)
        c_root = closed_C(d)  # the exact root: C1/C2 only need the root, and
        # the numeric root solve at small D is tested in
        # tests/test_solver.py::TestSolveC::test_small_d_converges
        c1 = solve_C1_numeric(p, c_root, tight)
        c2 = solve_C2_numeric(p, c_root, c1, tight)
        err_c1 = abs(c1 - approx.c1_small_d)
        err_c2 = abs(c2 - approx.c2_small_d)
        passed = err_c <= 2e-9 and err_c1 <= d * d and err_c2 <= 1e-3
        return {"passed": passed, "D": d, "a": a,
                "closed_C_vs_1_minus_D2_4": {"error": err_c, "tolerance": 2e-9},
                "C1_numeric_vs_aD_2": {"error": err_c1, "tolerance": d * d,
                                       "C1_numeric": c1},
                "C2_numeric_vs_quarter": {"error": err_c2, "tolerance": 1e-3,
                                          "C2_numeric": c2}}

    def large_d_asymptotics():
        # C(D)/sqrt(e/D) = exp(-1/(2(D+1))) * sqrt(D/(D+1)) < 1: the approach
        # to 1 is from below, so the asserted window is two-sided of width
        # 1e-3 (and |ratio-1| <= 1e-4 holds at D = 1e4)
        d = 1e4
        ratio = closed_C(d) / asymptotics(d, 1.0).c_large_d
        rep = solve_at(100.0)
        rel100 = abs(rep.C_numeric - closed_C(100.0)) / closed_C(100.0)
        passed = abs(ratio - 1.0) <= 1e-3 and rel100 <= 1e-10
        return {"passed": passed, "ratio_at_1e4": ratio,
                "ratio_deviation": abs(ratio - 1.0), "ratio_tolerance": 1e-3,
                "approach_side": "below",
                "rel_error_at_100": rel100, "tolerance_at_100": 1e-10}

    def exact_series_check():
        rows = []
        worst = 0.0
        for d in _D_SERIES:
            ecc = Eccentricity.from_D(d)
            c = closed_C(d)
            _, f1_exact, f2_exact = exact_series_values(d)
            f1 = eval_F1(c, ecc, trunc).value
            f2 = eval_F2(c, ecc, trunc).value
            e1 = abs(f1 - f1_exact) / abs(f1_exact)
            e2 = abs(f2 - f2_exact) / abs(f2_exact)
            worst = max(worst, e1, e2)
            rows.append({"D": d, "F1_rel_error": e1, "F2_rel_error": e2})
        return {"passed": worst <= 1e-8, "max_error": worst,
                "tolerance": 1e-8, "rows": rows}

    def c1_closed_form():
        rows = []
        worst = 0.0
        for d in _D_SERIES:
            rep = solve_at(d)
            for a in _A_GRID:
                p = Problem(D=d, a=a)
                c1 = solve_C1_numeric(p, rep.C_numeric, trunc)
                ref = closed_C1(d, a)
                err = abs(c1 - ref) / ref
                worst = max(worst, err)
                rows.append({"D": d, "a": a, "rel_error": err})
        return {"passed": worst <= 1e-9, "max_error": worst,
                "tolerance": 1e-9, "rows": rows}

    def identity_battery():
        worst = [0.0, 0.0, 0.0]
        for eps in _EPS_BATTERY:
            ecc = Eccentricity.from_eps(eps)
            for i in range(_E_POINTS):
                e_val = _E_MARGIN + (math.pi - 2 * _E_MARGIN) * i / (_E_POINTS - 1)
                s0, s1, s2 = eval_trig_sums(e_val, ecc, trunc)
                r0, r1, r2 = identity_rhs(orbit_state(e_val, eps))
                worst[0] = max(worst[0], abs(s0 - r0))
                worst[1] = max(worst[1], abs(s1 - r1))
                worst[2] = max(worst[2], abs(s2 - r2))
        passed = worst[0] <= 1e-10 and worst[1] <= 1e-9 and worst[2] <= 1e-9
        return {"passed": passed,
                "max_error_s0": worst[0], "tolerance_s0": 1e-10,
                "max_error_s1": worst[1], "tolerance_s1": 1e-9,
                "max_error_s2": worst[2], "tolerance_s2": 1e-9,
                "eps_grid": list(_EPS_BATTERY), "e_points": _E_POINTS}

    def proof_trace_check():
        worst_c = 0.0
        worst_re = 0.0
        grid = [0.05 + 0.9 * i / 18.0 for i in range(19)]
        for eps in grid:
            tr = proof_trace(eps)
            ref = eps * math.exp((1.0 - eps * eps) / 2.0)
            worst_c = max(worst_c, abs(tr.C_reconstructed - ref))
            worst_re = max(worst_re, abs(tr.M_complex.real))
        passed = worst_c <= 1e-13 and worst_re <= 1e-13
        return {"passed": passed, "max_reconstruction_error": worst_c,
                "max_re_M": worst_re, "tolerance": 1e-13, "points": 19}

    def residuals_check():
        rows = []
        worst = [0.0, 0.0, 0.0]
        ok = True
        for d in _D_GRID:
            rep = solve_at(d)
            r1, r2n, r3n = rep.residuals
            worst[0] = max(worst[0], abs(r1))
            worst[1] = max(worst[1], abs(r2n))
            worst[2] = max(worst[2], abs(r3n))
            ok &= rep.converged
            rows.append({"D": d, "eq_root": r1, "eq_c1_normalized": r2n,
                         "eq_c2_normalized": r3n, "converged": rep.converged})
        passed = ok and worst[0] <= 1e-9 and worst[1] <= 1e-10 and worst[2] <= 1e-10
        return {"passed": passed, "max_eq_root": worst[0],
                "max_eq_c1_normalized": worst[1],
                "max_eq_c2_normalized": worst[2],
                "tolerances": {"eq_root": 1e-9, "normalized": 1e-10},
                "rows": rows}

    def c2_adjudication():
        d, a = 1.0, 1.0
        tight = TruncationConfig(abs_tol=1e-14, max_terms=trunc.max_terms)
        rep = solve_problem(Problem(D=d, a=a), tight)
        numeric = rep.C2_numeric
        paper = closed_C2_paper(d, a)
        derived = derived_C2(d, a)
        dist_paper = abs(numeric - paper)
        dist_derived = abs(numeric - derived)
        closest = "derived" if dist_derived <= dist_paper else "paper"
        resid = abs(rep.residuals[2])
        return {
            "numeric": numeric,
            "paper_formula": paper,
            "derived_formula": derived,
            "closest": closest,
            "paper_distance": dist_paper,
            "derived_distance": dist_derived,
            "eq_c2_normalized_residual": resid,
            "residual_tolerance": 1e-10,
            # only the residual is asserted; the formula match is reported
            "passed": resid <= 1e-10,
        }

    results = {
        "closed_form_exactness": _check(closed_form_exactness),
        "numeric_closed_agreement": _check(numeric_closed_agreement),
        "small_d_asymptotics": _check(small_d_asymptotics),
        "large_d_asymptotics": _check(large_d_asymptotics),
        "exact_series_values": _check(exact_series_check),
        "c1_closed_form": _check(c1_closed_form),
        "proof_trace": _check(proof_trace_check),
    }
    report = {
        "params": {
            "d_grid": list(_D_GRID),
            "d_series_grid": list(_D_SERIES),
            "a_grid": list(_A_GRID),
            "bound_grid": {"min": 1e-2, "max": 1e4, "points": 50, "log": True},
            "eps_battery": list(_EPS_BATTERY),
            "e_points": _E_POINTS,
            "proof_trace_points": 19,
        },
        "results": results,
        "residuals": _check(residuals_check),
        "bounds": _check(bounds_check),
        "identity_battery": _check(identity_battery),
        "c2_adjudication": _check(c2_adjudication),
        "config": {
            "abs_tol": trunc.abs_tol,
            "max_terms": trunc.max_terms,
            "safety_margin": SAFETY_MARGIN,
            "rel_tol": REL_TOL,
            "crossover_order": CROSSOVER_ORDER,
            "max_order": MAX_ORDER,
            "root_tol": ROOT_TOL,
        },
        "runtime_ms": 0,
    }
    report["runtime_ms"] = int(round((time.perf_counter() - t_start) * 1000.0))
    return report


def verification_passed(report: dict) -> bool:
    """True iff every asserted check in the report passed."""
    parts = list(report["results"].values()) + [
        report["residuals"], report["bounds"], report["identity_battery"],
        report["c2_adjudication"],
    ]
    return all(bool(p.get("passed")) for p in parts)

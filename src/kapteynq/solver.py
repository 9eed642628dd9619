"""Numeric solution of the three transcendental equations.

The root equation  1 = D/(2(D+1)) * F(C)  is solved by bracketing plus
safeguarded Newton on h(C) = D/(2(D+1))*F(C) - 1, entirely from series
evaluations: h is strictly decreasing, blows up to +inf as C -> g+ and is
negative at C = 1 (h(1) = (eps-1)/2), so the root is interior.  C1 and C2
then follow from linear rearrangements of their defining equations using
series-evaluated F, F1, F2 at the root.  No closed-form expression enters
anywhere here, which is what lets this module adjudicate the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateF1, MaxTermsExceeded, NoBracket
from .kapteyn import (
    DEFAULT_TRUNCATION,
    SAFETY_MARGIN,
    Eccentricity,
    TruncationConfig,
    _walk,
    eval_F,
    eval_F1,
    eval_F2,
)

__all__ = [
    "Problem",
    "SolveReport",
    "solve_C_numeric",
    "solve_C1_numeric",
    "solve_C2_numeric",
    "residuals",
    "solve_problem",
]

_F1_DEGENERACY_FLOOR = 1e-8
_MAX_ROOT_ITER = 80
# the Newton loop stops once |h(C)| is at most ROOT_TOL
ROOT_TOL = 1e-12


@dataclass(frozen=True)
class Problem:
    """Model parameters: D indexes the equation family, a scales C1 and C2."""

    D: float
    a: float

    def __post_init__(self):
        if not (self.D > 0.0) or not math.isfinite(self.D):
            raise ValueError(f"D must be positive and finite, got {self.D}")
        if not (self.a > 0.0) or not math.isfinite(self.a):
            raise ValueError(f"a must be positive and finite, got {self.a}")


@dataclass(frozen=True)
class SolveReport:
    """Numeric solution bundle.

    ``residuals`` follows the reporting convention: the root equation residual
    is raw (the equation is O(1)), the C1/C2 equation residuals are normalized
    by max(|F1|, |F2|) since those grow like D^-2 for small D.  ``converged``
    requires both the root residual tolerance and truncation convergence of
    every F the root iteration evaluates and of F, F1 and F2 at the root (the
    F1 that steers a Newton step is not among them: the bracket guards the
    step); ``diagnostics`` carries the reasons when it is False.
    """

    C_numeric: float
    C1_numeric: float
    C2_numeric: float
    F: float
    F1: float
    F2: float
    residuals: tuple[float, float, float]
    terms_used: tuple[int, int, int]
    bracket: tuple[float, float]
    converged: bool
    diagnostics: dict = field(default_factory=dict)


def _f_exceeds(C: float, ecc: Eccentricity, trunc: TruncationConfig, target: float):
    """Certify F(C) > target from partial sums, or decide it never will.

    All folded terms are positive for real C in (g, 1], so a partial sum
    crossing the target is a proof; full convergence below the target is a
    disproof; hitting the cap undecided returns None.  Both are decided at
    the end of each chunk of the walk.  A term whose cosh overflowed is
    dropped: as NaN where the table holds J = 0, as inf where J > 0.  Every
    later term overflows too, so after an inf term the partial sums can
    neither grow nor disprove, and an undecided sum raises MaxTermsExceeded
    naming that term: no cap helps there.
    """
    ln_c = math.log(C)
    total = 1.0
    for tab, lo, hi in _walk(ecc, 1024, trunc):
        n = np.arange(lo + 1.0, hi + 1.0)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            chunk = 2.0 * tab.j[lo:hi] * np.cosh(n * ln_c)
        lost = 0
        if not np.isfinite(chunk).all():
            inf = np.isinf(chunk)
            lost = lo + 1 + int(np.argmax(inf)) if inf.any() else 0
            chunk = np.where(np.isfinite(chunk), chunk, 0.0)
        total += float(np.cumsum(chunk)[-1])  # the running partial sum, added in order
        if total > target:
            return True
        if lost:
            raise MaxTermsExceeded(
                f"term n={lost} of F({C}) overflowed (J_n > 0, cosh(n ln C) = inf) "
                f"with the partial sum {total} below {target}; raising max_terms "
                "will not help"
            )
        tail = float(chunk[-1]) * (ecc.g / C) / max(1.0 - ecc.g / C, 1e-16)
        if tail <= trunc.abs_tol and total + tail <= target:
            return False
    return None


def solve_C_numeric(p: Problem,
                    trunc: TruncationConfig = DEFAULT_TRUNCATION) -> tuple[float, dict]:
    """Root of 1 = D/(2(D+1))*F(C) in (g, 1), with solve diagnostics.

    The bracket starts at g + 2*SAFETY_MARGIN*(1-g) (twice the series
    stand-off, so the endpoint itself is evaluable) and at 1.  Newton steps
    use h' = D/(2(D+1)) * F1(C)/C and are confined to the current bracket,
    with bisection whenever a step escapes or fails to shrink it.
    """
    ecc = Eccentricity.from_D(p.D)
    g = ecc.g
    k = p.D / (2.0 * (p.D + 1.0))
    target_f = 1.0 / k

    margin = 2.0 * SAFETY_MARGIN
    left = g + margin * (1.0 - g)
    positive = _f_exceeds(left, ecc, trunc, target_f)
    if positive is False:
        # theory forbids this; shrink the stand-off once before giving up
        margin = 1.25 * SAFETY_MARGIN
        left = g + margin * (1.0 - g)
        positive = _f_exceeds(left, ecc, trunc, target_f)
    if positive is False:
        raise NoBracket(
            f"F({left}) certified below {target_f} at D={p.D}: no sign change "
            "on the bracket, contradicting the bound that places the root inside"
        )
    if positive is None:
        raise MaxTermsExceeded(
            f"could not certify the left bracket endpoint within "
            f"max_terms={trunc.max_terms} at D={p.D}; raise max_terms"
        )

    sv_hi = eval_F(1.0, ecc, trunc)
    series_ok = sv_hi.converged
    coeff_err = sv_hi.coeff_err
    if k * sv_hi.value - 1.0 >= 0.0:
        raise NoBracket(
            f"h(1) = {k * sv_hi.value - 1.0} is not negative at D={p.D}"
        )

    lo, hi = left, 1.0
    c_cur = 0.5 * (lo + hi)
    residual = math.inf
    terms_f = sv_hi.terms_used
    iterations = 0
    for iterations in range(1, _MAX_ROOT_ITER + 1):
        sv = eval_F(c_cur, ecc, trunc)
        series_ok &= sv.converged
        coeff_err = max(coeff_err, sv.coeff_err)
        terms_f = sv.terms_used
        h = k * sv.value - 1.0
        residual = h
        if abs(h) <= ROOT_TOL:
            break
        if h > 0.0:
            lo = c_cur
        else:
            hi = c_cur
        width = hi - lo
        if width <= 4.0 * np.finfo(float).eps * c_cur:
            break
        # F1 only steers a step the bracket guards, so a capped F1 does not
        # make the root unconverged
        sv1 = eval_F1(c_cur, ecc, trunc)
        hp = k * sv1.value / c_cur
        c_next = c_cur - h / hp if hp != 0.0 else 0.5 * (lo + hi)
        if not (lo < c_next < hi) or abs(c_next - c_cur) > 0.5 * width:
            c_next = 0.5 * (lo + hi)
        c_cur = c_next

    root_ok = abs(residual) <= max(ROOT_TOL, 10.0 * trunc.abs_tol)
    reason = None
    if not series_ok:
        reason = (f"MaxTermsExceeded: series tolerance not reached within "
                  f"max_terms={trunc.max_terms}")
    elif not root_ok:
        reason = f"root residual {residual} above tolerance"
    diagnostics = {
        "iterations": iterations,
        "residual": residual,
        "bracket": (left, 1.0),
        "terms_F": terms_f,
        "series_converged": series_ok,
        "coeff_err": coeff_err,
        "converged": bool(root_ok and series_ok),
        "reason": reason,
    }
    return c_cur, diagnostics


def _checked_f1(value: float) -> float:
    if abs(value) < _F1_DEGENERACY_FLOOR:
        raise DegenerateF1(
            f"|F1| = {abs(value)} below {_F1_DEGENERACY_FLOOR}; cannot divide "
            "(impossible at an interior root; treated as a defect)"
        )
    return value


def solve_C1_numeric(p: Problem, C: float,
                     trunc: TruncationConfig = DEFAULT_TRUNCATION) -> float:
    """C1 = -a*F(C) / (sqrt(D+1)*F1(C)) at the root C; F1 < 0 so no hazard."""
    ecc = Eccentricity.from_D(p.D)
    f = eval_F(C, ecc, trunc).value
    f1 = _checked_f1(eval_F1(C, ecc, trunc).value)
    return -p.a * f / (math.sqrt(p.D + 1.0) * f1)


def solve_C2_numeric(p: Problem, C: float, C1: float,
                     trunc: TruncationConfig = DEFAULT_TRUNCATION) -> float:
    """C2 from the affine rearrangement of its defining equation:

    C2 = -(F2/F1) * (1 - a^2/(2(D+1))) / (4 sqrt(D+1)) - a*C1/(4 sqrt(D+1)).
    """
    ecc = Eccentricity.from_D(p.D)
    sq = math.sqrt(p.D + 1.0)
    f1 = _checked_f1(eval_F1(C, ecc, trunc).value)
    f2 = eval_F2(C, ecc, trunc).value
    bracket_term = 1.0 - p.a * p.a / (2.0 * (p.D + 1.0))
    return -(f2 / f1) * bracket_term / (4.0 * sq) - p.a * C1 / (4.0 * sq)


def residuals(p: Problem, C: float, C1: float, C2: float,
              trunc: TruncationConfig = DEFAULT_TRUNCATION) -> tuple[float, float, float]:
    """Raw left-minus-right of the three equations at (C, C1, C2).

    Pure evaluation with series F, F1, F2; no solving.  Equation forms:
    1 = D/(2(D+1)) F;  0 = a F/(2 sqrt(D+1)) + C1 F1/2;
    0 = [1 - a^2/(2(D+1))] F2/(4 sqrt(D+1)) + [a C1/(4 sqrt(D+1)) + C2] F1.
    """
    ecc = Eccentricity.from_D(p.D)
    sq = math.sqrt(p.D + 1.0)
    f = eval_F(C, ecc, trunc).value
    f1 = eval_F1(C, ecc, trunc).value
    f2 = eval_F2(C, ecc, trunc).value
    r1 = 1.0 - p.D / (2.0 * (p.D + 1.0)) * f
    r2 = -(p.a / (2.0 * sq) * f + 0.5 * C1 * f1)
    r3 = -(
        (1.0 - p.a * p.a / (2.0 * (p.D + 1.0))) * f2 / (4.0 * sq)
        + (p.a * C1 / (4.0 * sq) + C2) * f1
    )
    return r1, r2, r3


def solve_problem(p: Problem, trunc: TruncationConfig = DEFAULT_TRUNCATION) -> SolveReport:
    """Full numeric solve: C, then C1 and C2, then back-substituted residuals."""
    ecc = Eccentricity.from_D(p.D)
    c_num, diag = solve_C_numeric(p, trunc)
    c1_num = solve_C1_numeric(p, c_num, trunc)
    c2_num = solve_C2_numeric(p, c_num, c1_num, trunc)

    sv_f = eval_F(c_num, ecc, trunc)
    sv_f1 = eval_F1(c_num, ecc, trunc)
    sv_f2 = eval_F2(c_num, ecc, trunc)
    r1, r2, r3 = residuals(p, c_num, c1_num, c2_num, trunc)
    scale = max(abs(sv_f1.value), abs(sv_f2.value))
    series_ok = diag["series_converged"] and sv_f.converged and sv_f1.converged and sv_f2.converged
    return SolveReport(
        C_numeric=c_num,
        C1_numeric=c1_num,
        C2_numeric=c2_num,
        F=sv_f.value,
        F1=sv_f1.value,
        F2=sv_f2.value,
        residuals=(r1, r2 / scale, r3 / scale),
        terms_used=(sv_f.terms_used, sv_f1.terms_used, sv_f2.terms_used),
        bracket=diag["bracket"],
        converged=bool(diag["converged"] and series_ok),
        diagnostics={
            **diag,
            "series_converged": series_ok,
            "coeff_err": max(diag["coeff_err"], sv_f.coeff_err, sv_f1.coeff_err, sv_f2.coeff_err),
        },
    )

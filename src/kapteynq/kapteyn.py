"""Kapteyn series F, F1, F2 and their trigonometric forms.

The two-sided sums over all integer orders fold, via J_{-n}(z) = (-1)^n J_n(z),
into one-sided series in the diagonal coefficients J_n(n*eps), J_n'(n*eps):

    F(C)  = 1 + 2 sum_n J_n(n eps) cosh(n ln C)
    F1(C) =     2 sum_n n J_n(n eps) sinh(n ln C)
    F2(C) =     2 sum_n n J_n'(n eps) cosh(n ln C)

For real C the series converge on (g, 1], where g = eps*exp(s)/(1+s) with
s = sqrt(1-eps^2) is Kapteyn's boundary function.  Coefficients decay like
g^n/sqrt(n), so once past a short pre-asymptotic regime the tail is bounded
by a geometric majorant in the ratio g/C; truncation stops when that
majorant falls below the requested absolute tolerance.  Every sum walks the
table in chunks (``_walk``) and computes nothing past the chunk it stops in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bessel
from .errors import DivergentDomain, MaxTermsExceeded, OutOfRange

__all__ = [
    "Eccentricity",
    "SeriesValue",
    "TruncationConfig",
    "DEFAULT_TRUNCATION",
    "convergence_boundary",
    "domain_floor",
    "eval_F",
    "eval_F1",
    "eval_F2",
    "eval_trig_sums",
]

_MIN_TERMS = 10
# The series are evaluated only for C above g + SAFETY_MARGIN*(1 - g): this
# stand-off keeps them away from their divergence at C = g.
SAFETY_MARGIN = 1e-6


@dataclass(frozen=True)
class Eccentricity:
    """Eccentricity eps with derived s = sqrt(1-eps^2) and boundary g.

    In the queueing context construct via :meth:`from_D`, which maps the
    model parameter D > 0 to eps = 1/sqrt(D+1).
    """

    eps: float
    s: float
    g: float

    def __post_init__(self):
        if not (0.0 < self.eps < 1.0):
            raise ValueError(f"eps must lie in (0, 1), got {self.eps}")
        # compare the squares: near eps -> 1 the rounding of eps itself
        # shifts sqrt(1-eps^2) by far more than an ulp of s
        if abs(self.s * self.s - (1.0 - self.eps) * (1.0 + self.eps)) > 2e-15:
            raise ValueError("s is inconsistent with sqrt(1 - eps^2)")
        g_ref = self.eps * math.exp(self.s) / (1.0 + self.s)
        if abs(self.g - g_ref) > 1e-13 * g_ref or not (0.0 < self.g < 1.0):
            raise ValueError("g is inconsistent with eps*exp(s)/(1+s)")

    @classmethod
    def from_eps(cls, eps: float) -> "Eccentricity":
        if not (0.0 < eps < 1.0):
            raise ValueError(f"eps must lie in (0, 1), got {eps}")
        s = math.sqrt((1.0 - eps) * (1.0 + eps))
        return cls(eps=eps, s=s, g=eps * math.exp(s) / (1.0 + s))

    @classmethod
    def from_D(cls, D: float) -> "Eccentricity":
        if not (D > 0.0) or not math.isfinite(D):
            raise ValueError(f"D must be positive and finite, got {D}")
        eps = 1.0 / math.sqrt(D + 1.0)
        if eps == 1.0:
            raise ValueError(f"D must be at least about 3.3e-16, below which "
                             f"eps = 1/sqrt(D+1) rounds to 1; got {D}")
        s = math.sqrt(D / (D + 1.0))
        return cls(eps=eps, s=s, g=eps * math.exp(s) / (1.0 + s))


@dataclass(frozen=True)
class SeriesValue:
    """Result of a truncated series evaluation.

    ``tail_bound`` is the geometric-majorant estimate of the discarded tail;
    ``converged`` means that bound came in under the requested tolerance.
    ``coeff_err`` separately reports the accumulated coefficient-inaccuracy
    allowance (sum of |term| times the per-order relative error estimate of
    the Bessel path used); it is negligible inside the supported parameter
    envelope and grows only for eccentricities extremely close to 1.
    """

    value: float
    terms_used: int
    tail_bound: float
    converged: bool
    coeff_err: float = 0.0


@dataclass(frozen=True)
class TruncationConfig:
    """Absolute tolerance on a series' tail, and the cap on its terms."""

    abs_tol: float = 1e-12
    max_terms: int = 200_000

    def __post_init__(self):
        if not (0.0 < self.abs_tol < math.inf):
            raise ValueError(f"abs_tol must be positive and finite, got {self.abs_tol}")
        if self.max_terms < 1:
            raise ValueError(f"max_terms must be >= 1, got {self.max_terms}")


DEFAULT_TRUNCATION = TruncationConfig()


def convergence_boundary(ecc: Eccentricity) -> float:
    """Kapteyn's boundary g(eps) = eps*exp(sqrt(1-eps^2))/(1+sqrt(1-eps^2)).

    Real-C series for F, F1, F2 converge for C in (g, 1]; this equals the
    classical lower bound (sqrt(D+1)-sqrt(D))*exp(sqrt(D/(D+1))) under
    eps = 1/sqrt(D+1).
    """
    return ecc.g


def domain_floor(ecc: Eccentricity) -> float:
    """Smallest admissible C: g plus the stand-off fraction SAFETY_MARGIN of (1-g)."""
    return ecc.g + SAFETY_MARGIN * (1.0 - ecc.g)


def _estimate_terms(t1: float, rho: float, weighted: bool, trunc: TruncationConfig) -> int:
    """Predict the truncation order from the first-term scale and ratio rho."""
    if t1 <= 0.0 or rho >= 1.0:
        return trunc.max_terms
    log_rho = math.log(rho)
    target = trunc.abs_tol * (1.0 - rho)
    n_est = (math.log(target) - math.log(t1)) / log_rho if target < t1 else 1.0
    if weighted:
        n_est += math.log(max(n_est, 2.0)) / -log_rho
    n_est = n_est * 1.2 + 48.0
    return int(min(trunc.max_terms, max(_MIN_TERMS, math.ceil(n_est))))


def _domain_check(C: float, ecc: Eccentricity) -> None:
    if not math.isfinite(C) or C <= 0.0 or C > 1.0:
        raise OutOfRange(f"C must lie in (0, 1], got {C}")
    floor = domain_floor(ecc)
    if C <= floor:
        raise DivergentDomain(
            f"C={C} is at or below the convergence stand-off {floor} "
            f"(g={ecc.g}); the series diverges for C <= g"
        )


def _walk(ecc: Eccentricity, n_est: int, trunc: TruncationConfig):
    """Walk the diagonal table in chunks (tab, lo, hi) of orders lo+1..hi.

    The first table holds n_est orders rounded up to a power of two (at least
    256); past its end the table is looked up again four times larger, and
    the walk resumes at the first new order.  A chunk holds at most
    ``bessel._DEBYE_CHUNK`` orders.  The walk ends with the chunk that
    reaches ``max_terms``; a consumer stops it earlier by leaving the loop in
    the first chunk that meets its own rule.
    """
    start, size = 0, max(256, 1 << (int(n_est) - 1).bit_length())
    while True:
        size = min(size, trunc.max_terms)
        tab = bessel.diagonal_table(ecc.eps, size)
        for lo in range(start, size, bessel._DEBYE_CHUNK):
            yield tab, lo, min(lo + bessel._DEBYE_CHUNK, size)
        if size >= trunc.max_terms:
            return
        start, size = size, size * 4


def _first_stop(tail: np.ndarray, lo: int, trunc: TruncationConfig):
    """Order of the first term, at or past ``_MIN_TERMS``, whose tail meets abs_tol."""
    can_stop = tail <= trunc.abs_tol
    can_stop[: max(0, _MIN_TERMS - 1 - lo)] = False
    return lo + int(np.argmax(can_stop)) + 1 if can_stop.any() else None


def _series_terms(kind: str, tab, lo: int, hi: int, ln_c: float, rho: float):
    """Folded terms 2*J*cosh / 2*n*J*sinh / 2*n*J'*cosh of orders lo+1..hi, and tails.

    The tail of term n is its geometric majorant |term|*r/(1 - r), with
    r = rho for F and rho*(1 + 1/n) for the n-weighted kinds.  When n|ln C|
    can exceed the cosh/sinh overflow threshold inside the table, the
    hyperbolics are assembled in log form, pairing each exponential with the
    (tiny) coefficient so the product never overflows representationally;
    the choice depends on the table, not on the chunk.
    """
    coeff = tab.j[lo:hi] if kind != "F2" else tab.jp[lo:hi]
    n = np.arange(lo + 1.0, hi + 1.0)
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        if tab.n_max * abs(ln_c) <= 700.0:  # one expression: its temporaries die here
            hyp = np.sinh if kind == "F1" else np.cosh
            terms = (2.0 if kind == "F" else 2.0 * n) * coeff * hyp(n * ln_c)
        else:
            log_coeff = np.where(coeff > 0.0, np.log(np.maximum(coeff, 5e-324)), -np.inf)
            up = np.exp(log_coeff + n * ln_c)
            dn = np.exp(log_coeff - n * ln_c)
            if kind == "F":
                terms = up + dn
            elif kind == "F1":
                terms = n * (up - dn)
            else:
                terms = np.sign(coeff) * n * (up + dn)
        rho_eff = rho if kind == "F" else rho * (1.0 + 1.0 / n)
        tail = np.abs(terms) * rho_eff / (1.0 - np.minimum(rho_eff, 1.0 - 1e-16))
    return terms, tail


def _eval_series(C: float, ecc: Eccentricity, trunc: TruncationConfig,
                 kind: str) -> SeriesValue:
    """One of F, F1, F2 at C, summed up to the first order whose tail meets abs_tol.

    The first table is sized from a prediction of that order.  Terms and
    tails are computed chunk by chunk along ``_walk`` and only up to the
    chunk that holds the truncation order N; the used terms are then summed
    once.  If no order within max_terms qualifies, all max_terms terms are
    summed and ``converged`` is False.
    """
    _domain_check(C, ecc)
    rho = ecc.g / C
    ln_c = math.log(C)

    # first-term scale for the size prediction; J_1(eps) ~ eps/2
    t1 = ecc.eps * math.cosh(ln_c)
    parts = []
    for tab, lo, hi in _walk(ecc, _estimate_terms(t1, rho, kind != "F", trunc), trunc):
        terms, tail = _series_terms(kind, tab, lo, hi, ln_c, rho)
        parts.append(terms)
        n_used = _first_stop(tail, lo, trunc)
        if n_used is not None:
            break
    converged = n_used is not None
    n_used = n_used or hi

    used = (parts[0] if len(parts) == 1 else np.concatenate(parts))[:n_used]
    if not np.isfinite(used).all():
        raise OutOfRange("series terms overflowed inside the evaluation range")
    rel = tab.rel_jp if kind == "F2" else tab.rel_j
    return SeriesValue(
        value=(1.0 if kind == "F" else 0.0) + float(np.sum(used)),
        terms_used=n_used,
        tail_bound=float(tail[n_used - 1 - lo]),
        converged=converged,
        coeff_err=float(np.dot(np.abs(used), rel[:n_used])),
    )


def eval_F(C: float, ecc: Eccentricity,
           trunc: TruncationConfig = DEFAULT_TRUNCATION) -> SeriesValue:
    """F(C) = 1 + 2 sum_{n>=1} J_n(n eps) cosh(n ln C) for C in (g, 1].

    Strictly decreasing in C on the domain.  If the tolerance is not met
    within max_terms the best partial value is returned with
    ``converged=False`` (no exception).
    """
    return _eval_series(C, ecc, trunc, "F")


def eval_F1(C: float, ecc: Eccentricity,
            trunc: TruncationConfig = DEFAULT_TRUNCATION) -> SeriesValue:
    """F1(C) = 2 sum_{n>=1} n J_n(n eps) sinh(n ln C); nonpositive on (g, 1]."""
    return _eval_series(C, ecc, trunc, "F1")


def eval_F2(C: float, ecc: Eccentricity,
            trunc: TruncationConfig = DEFAULT_TRUNCATION) -> SeriesValue:
    """F2(C) = 2 sum_{n>=1} n J_n'(n eps) cosh(n ln C); positive on (g, 1]."""
    return _eval_series(C, ecc, trunc, "F2")


def eval_trig_sums(E: float, ecc: Eccentricity,
                   trunc: TruncationConfig = DEFAULT_TRUNCATION) -> tuple[float, float, float]:
    """The three Kapteyn sums at M = E - eps*sin(E) for E inside (0, pi):

        S0 = 1 + 2 sum J_n(n eps) cos(n M)
        S1 =     2 sum n J_n(n eps) sin(n M)
        S2 =     2 sum n J_n'(n eps) cos(n M)

    Coefficients decay like g^n, so the tail is majorized with ratio g
    (|trig| <= 1 plays the role of |C| = 1).  Raises MaxTermsExceeded if the
    tolerance is unreachable within max_terms: unlike eval_F* there is no
    converged flag in this return shape.
    """
    if not (0.0 < E < math.pi):
        raise OutOfRange(f"E must lie strictly inside (0, pi), got {E}")
    M = E - ecc.eps * math.sin(E)
    for tab, lo, hi in _walk(ecc, _estimate_terms(ecc.eps, ecc.g, True, trunc), trunc):
        j, jp = tab.j[lo:hi], tab.jp[lo:hi]
        n = np.arange(lo + 1.0, hi + 1.0)
        rho_eff = ecc.g * (1.0 + 1.0 / n)
        base = np.maximum(j, np.maximum(n * j, n * np.abs(jp)))
        n_used = _first_stop(2.0 * base * rho_eff / (1.0 - np.minimum(rho_eff, 1.0 - 1e-16)),
                             lo, trunc)
        if n_used is not None:
            break
    else:
        raise MaxTermsExceeded(
            f"trig sums did not reach abs_tol={trunc.abs_tol} within "
            f"{trunc.max_terms} terms (eps={ecc.eps})"
        )

    n = np.arange(1.0, n_used + 1.0)
    cos_p, sin_p = np.cos(n * M), np.sin(n * M)
    j, jp = tab.j[:n_used], tab.jp[:n_used]
    return (1.0 + 2.0 * float(np.sum(j * cos_p)), 2.0 * float(np.sum(n * j * sin_p)),
            2.0 * float(np.sum(n * jp * cos_p)))
